"""Isoparametric Bubnov-Galerkin solvers on spline surfaces.

The same basis functions parameterize the geometry and span the trial and
weighting spaces.  A Poisson model problem with homogeneous Dirichlet data
drives the convergence study; a membrane eigenvalue problem with
consistent or row-sum lumped mass matrices mirrors the modal tests.
Quadrature uses (p+1)^2 Gauss-Legendre points per element, so 4x4 on
bi-cubic and 6x6 on bi-quintic elements.  Assembly, error norms and element
sizes run per block of elements of one (degree, rational) group, so their
memory is that of one block (see ``evaluate.map_groups``): one Bernstein
table per block and point set, built only to the derivative order used,
then one batched product per quantity gives every element's Jacobians,
physical gradients, Ke, Me, load or error integrals.  The Jacobians and
mapped points are summed over the basis functions term by term, over
contiguous rows and in the order of ``np.einsum`` without ``optimize``, so
they are bitwise the einsum's (``_basis_sum``).  K, M and the
collocation Gram matrix of ``gspline check`` are summed block by block into
one CSR pattern by ``assemble_pattern``: that of B^T B, with B the cached
element-by-basis incidence ``GSplineSurface.incidence``.  Their element
matrices are made a slice of a block at a time (``SLICE_ENTRIES``, a
quarter of a block), so the assembly's memory is that of one slice, while
the sums are still grouped per block and keep their bits.  Every sparse
symmetric positive definite solve of them goes through ``spd_solver``: one
SuperLU factor in symmetric mode, banded by a reverse Cuthill-McKee order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DomainError,
    EigensolverError,
    LumpingError,
    ResourceError,
    SingularParameterizationError,
    SingularSystemError,
    TopologyError,
    finite_json,
)
from .evaluate import GSplineSurface, map_groups, pattern_keys, raise_first
from .extraction import evaluate_basis, group_table
from .quality import gauss_legendre_2d
from .refine import check_faces, refine

# Largest relative eigenpair residual |K v - lambda M v| / |K v| that
# solve_generalized_eigen accepts.
EIGEN_RESIDUAL_TOL = 1e-8
# Table entries (elements * slots * points) of one slice of a block whose
# element matrices ``assemble_pattern`` makes at a time.
SLICE_ENTRIES = 2**16


def default_source(x, y):
    """Forcing of the model problem -lap(u) = f with u = sin(pi x) sin(pi y)."""
    return 2.0 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y)


def exact_solution(x, y):
    return np.sin(np.pi * x) * np.sin(np.pi * y)


def exact_gradient(x, y):
    return (np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
            np.pi * np.sin(np.pi * x) * np.cos(np.pi * y))


# ----------------------------------------------------------------------
# element tables


def element_tables(surface: GSplineSurface, e: int, pts: np.ndarray):
    """Basis ids, values (n, m) and parametric gradients (n, m, 2) of
    element e at (m, 2) points, from ``evaluate_basis``."""
    ext = surface.extraction(e)
    return (ext.basis, *evaluate_basis(ext, *np.transpose(pts))[:2])


def _group_geometry(surface, g, pts, checks=()):
    """Planar geometry (z is ignored) of a group's elements at pts: values
    (E, n, m), physical gradients (E, n, m, 2), points (E, m, 2), |det J|
    (E, m).  Raises for the first element with a nonpositive rational
    denominator, a singular Jacobian or a failed later check, in that order.
    """
    N, gp, adet, P = _group_jacobians(surface, g, pts, checks)
    return N, gp, _basis_sum(N, P), adet


def _group_jacobians(surface, g, pts, checks=()):
    """``_group_geometry`` without the points: values, physical gradients,
    |det J| and the planar control points (E, n, 2) of each element."""
    N, dN, bad_w = group_table(g, pts, order=1)
    P = surface.net.positions[g.basis][..., :2]
    J = _basis_sum(dN, P)  # J[e, m, d, a] = dx_d / dxi_a
    det = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
    scale = np.abs(J).max(axis=(1, 2, 3))
    singular = np.abs(det).min(axis=1) <= 1e-14 * np.maximum(scale * scale, 1e-30)
    raise_first(g, [bad_w, (singular, lambda i: (
        SingularParameterizationError(f"singular Jacobian in element {g.elements[i]}",
                                      element=int(g.elements[i])))), *checks])
    inv = np.stack([J[..., 1, 1], -J[..., 0, 1], -J[..., 1, 0], J[..., 0, 0]],
                   axis=-1).reshape(J.shape) / det[..., None, None]
    # physical gradients: dN/dx_d = dN/dxi_a * (J^-1)[a, d], summed from +0.0
    # as einsum sums, so that the padded slots hold +0.0 and not -0.0; one
    # d at a time, so every product writes contiguous (E, n, m) rows
    gp = np.stack([0.0 + dN[..., 0] * inv[:, None, :, 0, d] + dN[..., 1] * inv[:, None, :, 1, d]
                   for d in (0, 1)], axis=-1)
    return N, gp, np.abs(det), P


def _basis_sum(T, P):
    """sum_n T[e, n, m, ...] P[e, n, d], shaped (E, m, d, ...): bitwise the
    ``np.einsum`` without ``optimize``, which adds the n terms in order from
    +0.0.  Here each term is one product over the contiguous rows of an
    (E, d, m...) buffer; the einsum's output interleaves the short axis d,
    which makes it 2-3 times slower."""
    E, n, *rest = T.shape
    size = math.prod(rest)
    acc = np.zeros((E, P.shape[2], size))
    term = np.empty_like(acc)
    for k in range(n):
        np.multiply(T[:, k].reshape(E, 1, size), P[:, k, :, None], out=term)
        acc += term
    return np.moveaxis(acc.reshape(E, -1, *rest), 1, 2)


def boundary_functions(surface: GSplineSurface) -> set[int]:
    """Basis functions with nonzero trace on the domain boundary.

    Detected from the extraction rows along boundary sides; for all
    constructions here these are exactly the boundary-vertex functions.
    """
    cnet = surface.cnet
    if not cnet.boundary_edge.any():
        raise TopologyError("net has no boundary")
    out: set[int] = set()
    for g in surface.groups:
        p, r = g.degree, np.arange(g.degree + 1)
        sides = np.array([r, r * (p + 1) + p, p * (p + 1) + r, r * (p + 1)])
        on_boundary = cnet.boundary_edge[cnet.face_edges[g.elements]]  # (E, 4)
        rows = on_boundary.any(axis=1)  # only these elements are read
        trace = np.abs(g.coeffs[rows][:, :, sides]).max(axis=-1) > 1e-12  # (E', n, 4)
        out.update(g.basis[rows][(trace & on_boundary[rows, None, :]).any(axis=-1)].tolist())
    return out


@dataclass
class GalerkinSystem:
    """Assembled matrices with Dirichlet bookkeeping (full numbering)."""

    surface: GSplineSurface
    K: sp.csr_matrix
    load: np.ndarray
    boundary: set[int]
    M: sp.csr_matrix | None = None
    mass_kind: str | None = None

    @property
    def n(self) -> int:
        return self.K.shape[0]

    @cached_property
    def active(self) -> np.ndarray:
        """The ids not in ``boundary``, ascending, found on first use."""
        return np.setdiff1d(np.arange(self.n), np.fromiter(self.boundary, int))


def assemble_pattern(surface: GSplineSurface, element_matrices) -> list:
    """One CSR matrix per (E, n, n) array that ``element_matrices(group)``
    returns for each block of ``map_groups``, all on one pattern with sorted
    indices: that of B^T B, with B ``surface.incidence``.  Each block sums
    the used entries of its element matrices into the data with one
    ``np.bincount`` per matrix, so no whole-surface triplet list is built.
    A block is passed to ``element_matrices`` in the near-equal slices of
    ``ElementGroup.blocks`` at ``SLICE_ENTRIES``, each writing its used
    entries straight into the block's value arrays, so only one slice's
    temporaries are alive."""
    import scipy.sparse as sp

    n, B = surface.cnet.n_vertices, surface.incidence
    keys = pattern_keys(pattern := B.T.tocsr() @ B)
    sums: list = []

    def add(g):
        pair = g.mask[:, :, None] & g.mask[:, None, :]
        at = np.searchsorted(keys, (g.basis[:, :, None] * n + g.basis[:, None, :])[pair])
        ends = [0, *np.cumsum(pair.sum(axis=(1, 2))).tolist()]
        values = None
        for rows in g.blocks((g.degree + 1) ** 2, entries=SLICE_ENTRIES):
            mats = element_matrices(g.take(rows))
            values = values or [np.empty(len(at)) for _ in mats]
            for v, Ae in zip(values, mats):
                np.compress(pair[rows].ravel(), Ae, out=v[ends[rows.start]:ends[rows.stop]])
        if not sums:
            sums.extend(np.zeros(pattern.nnz) for _ in values)
        for total, v in zip(sums, values):
            total += np.bincount(at, v, minlength=pattern.nnz)

    map_groups(surface, add)
    return [sp.csr_matrix((data, pattern.indices, pattern.indptr), shape=(n, n))
            for data in sums]


def assemble_poisson(surface: GSplineSurface, source=default_source,
                     with_mass: bool = False) -> GalerkinSystem:
    """Stiffness matrix and load vector of the Poisson model problem: K,
    and M with ``with_mass``, from one ``assemble_pattern`` call, so they
    share its pattern arrays; each block adds its fe into the load.  With
    ``source`` None there is no load: it stays zero, and the mapped
    quadrature points are not evaluated."""
    load = np.zeros(surface.cnet.n_vertices)

    def element_matrices(g):  # each element's Ke (and Me); its fe into the load
        rule = gauss_legendre_2d(g.degree + 1)
        if source is None:
            N, gp, adet, _ = _group_jacobians(surface, g, rule.points)
        else:
            N, gp, x, adet = _group_geometry(surface, g, rule.points)
        w = rule.weights * adet
        if source is not None:
            fe = np.einsum("enm,em->en", N, w * source(x[..., 0], x[..., 1]))
            np.add.at(load, g.basis[g.mask], fe[g.mask])
        Ke = np.einsum("enmd,ekmd,em->enk", gp, gp, w, optimize=True)
        if not with_mass:
            return (Ke,)
        return Ke, np.einsum("enm,ekm,em->enk", N, N, w, optimize=True)

    K, *M = assemble_pattern(surface, element_matrices)
    return GalerkinSystem(
        surface=surface, K=K, load=load, boundary=boundary_functions(surface),
        M=M[0] if M else None, mass_kind="consistent" if M else None)


def spd_solver(A) -> spla.LinearOperator:
    """Solve with the sparse symmetric positive definite A, on A's own
    numbering: one SuperLU factor of A in reverse Cuthill-McKee order, with
    minimum degree on A^T + A and diagonal pivots (symmetric mode).  Raises
    RuntimeError on an exactly zero pivot."""
    import scipy.sparse.linalg as spla
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    order = reverse_cuthill_mckee(A, symmetric_mode=True)
    lu = spla.splu(A[order][:, order].tocsc(), permc_spec="MMD_AT_PLUS_A",
                   diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
    back = np.argsort(order)
    return spla.LinearOperator(A.shape, lambda b: lu.solve(b[order])[back], dtype=A.dtype)


def solve_poisson(system: GalerkinSystem, dirichlet: dict | None = None):
    """Solve with Dirichlet data (default homogeneous); returns all
    coefficients in the full basis numbering.  Raises SingularSystemError
    if the stiffness of the active functions is singular."""
    n = system.n
    u = np.zeros(n)
    if dirichlet:
        for a, val in dirichlet.items():
            u[a] = val
    act = system.active
    if act.size:  # with no active function there is nothing to factor
        rhs = system.load[act] - system.K[act].dot(u)
        try:
            u[act] = spd_solver(system.K[act][:, act]).matvec(rhs)
        except RuntimeError as exc:  # an exactly zero pivot
            raise SingularSystemError(f"the Poisson system of {act.size} active "
                                      "functions is singular") from exc
    if not np.isfinite(u).all():
        raise SingularSystemError("the Poisson solution is not finite")
    return u


# ----------------------------------------------------------------------
# errors and convergence


def compute_errors(surface: GSplineSurface, coeffs: np.ndarray,
                   exact=exact_solution, exact_grad=exact_gradient,
                   linf_resolution: int = 10):
    """Relative L2, Linf and H1 errors against a closed-form solution."""
    grid = np.linspace(0.0, 1.0, linf_resolution)
    grid_pts = np.stack(np.meshgrid(grid, grid), axis=-1).reshape(-1, 2)

    def sums(g):
        rule = gauss_legendre_2d(g.degree + 1)
        N2, bad_w2 = group_table(g, grid_pts, order=0)
        N, gp, x, adet = _group_geometry(surface, g, rule.points, [bad_w2])
        w = rule.weights * adet
        ca = np.where(g.mask, coeffs[g.basis], 0.0)
        ue, (gx, gy) = exact(x[..., 0], x[..., 1]), exact_grad(x[..., 0], x[..., 1])
        guh = np.einsum("en,enmd->emd", ca, gp)
        x2 = _basis_sum(N2, surface.net.positions[g.basis][..., :2])
        ue2 = exact(x2[..., 0], x2[..., 1])
        return np.array([
            np.sum(w * (np.einsum("en,enm->em", ca, N) - ue) ** 2),
            np.sum(w * ue**2),
            np.sum(w * ((guh[..., 0] - gx) ** 2 + (guh[..., 1] - gy) ** 2)),
            np.sum(w * (gx**2 + gy**2)),
            np.abs(np.einsum("en,enm->em", ca, N2) - ue2).max(initial=0.0),
            np.abs(ue2).max(initial=0.0)])

    per_block = np.array(map_groups(surface, sums, len(grid_pts)))
    num_l2, den_l2, num_h1g, den_h1g = per_block[:, :4].sum(axis=0).tolist()
    num_inf, den_inf = per_block[:, 4:].max(axis=0).tolist()
    return {
        "l2": math.sqrt(num_l2 / den_l2) if den_l2 else math.sqrt(num_l2),
        "linf": num_inf / den_inf if den_inf else num_inf,
        "h1": math.sqrt((num_l2 + num_h1g) / (den_l2 + den_h1g))
        if (den_l2 + den_h1g) else math.sqrt(num_l2 + num_h1g),
    }


def mean_element_size(surface: GSplineSurface) -> float:
    """Mean mapped diagonal length of the Bezier-mesh faces."""
    def diagonals(g):
        N, bad_w = group_table(g, [[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]], order=0)
        raise_first(g, [bad_w])
        c = _basis_sum(N, surface.net.positions[g.basis])  # (E, 4, 3)
        return (np.linalg.norm(c[:, 1] - c[:, 0], axis=-1)
                + np.linalg.norm(c[:, 3] - c[:, 2], axis=-1))

    total = float(np.concatenate(map_groups(surface, diagonals, 4)).sum())
    return 0.5 * total / surface.cnet.n_faces


@dataclass
class ConvergenceReport:
    variant: str
    levels: list = field(default_factory=list)
    orders: dict = field(default_factory=dict)

    def finalize(self):
        """The convergence order log2(e_i / e_i+1) between each two levels,
        None where the ratio is zero or not finite (an error of 0 or of
        infinity): no log of either is taken."""
        self.orders = {}
        for key in ("l2", "linf", "h1"):
            errs = [lv[key] for lv in self.levels]
            ratios = [a / b if b else math.inf for a, b in zip(errs, errs[1:])]
            self.orders[key] = [math.log(r) / math.log(2.0) if 0.0 < r < math.inf else None
                                for r in ratios]
        return self

    def to_json(self) -> str:
        return finite_json("poisson", {"variant": self.variant, "levels": self.levels,
                                       "orders": self.orders})

    def to_csv(self) -> str:
        lines = ["level,n_el,h,n_dof,l2,linf,h1"]
        for lv in self.levels:
            lines.append(
                f"{lv['level']},{lv['n_el']},{lv['h']:.8g},{lv['n_dof']},"
                f"{lv['l2']:.8e},{lv['linf']:.8e},{lv['h1']:.8e}")
        return "\n".join(lines) + "\n"

    def to_dat(self) -> str:
        lines = ["# h  e_l2  e_linf  e_h1"]
        for lv in self.levels:
            lines.append(f"{lv['h']:.8e} {lv['l2']:.8e} {lv['linf']:.8e} "
                         f"{lv['h1']:.8e}")
        return "\n".join(lines) + "\n"


def build_variant(net, variant: str) -> GSplineSurface:
    from .construct_c0 import build_c0
    from .construct_g1 import build_g1

    c0 = build_c0(net)
    return c0 if variant == "c0" else build_g1(c0, variant)


def convergence_study(net0, variant: str, levels: int) -> ConvergenceReport:
    """Refine, rebuild from scratch, solve and record errors per level.
    More than 6 levels, or a last level over ``refine.MAX_FACES`` faces, is
    a ResourceError, raised before the first level is built."""
    if levels < 1:
        raise DomainError(f"a convergence study needs >= 1 level, got {levels}")
    if levels > 6:
        raise ResourceError("convergence study capped at 6 levels")
    check_faces(net0.cnet.n_faces, levels - 1)
    report = ConvergenceReport(variant=variant)
    net = net0
    for level in range(levels):
        if level > 0:
            net = refine(net)
        surface = build_variant(net, variant)
        system = assemble_poisson(surface)
        errs = compute_errors(surface, solve_poisson(system))
        report.levels.append({
            "level": level,
            "n_el": surface.cnet.n_faces,
            "n_dof": int(len(system.active)),
            "h": mean_element_size(surface),
            **errs,
        })
    return report.finalize()


# ----------------------------------------------------------------------
# eigenvalue problem


def assemble_membrane_eigen(surface: GSplineSurface,
                            mass_kind: str = "consistent") -> GalerkinSystem:
    """Stiffness and mass matrices of the Dirichlet membrane problem; its
    ``load`` is zero."""
    if mass_kind not in ("consistent", "lumped"):
        raise DomainError(f"unknown mass kind {mass_kind!r}")
    system = assemble_poisson(surface, source=None, with_mass=True)
    if mass_kind == "lumped":
        import scipy.sparse as sp

        diag = np.asarray(system.M.sum(axis=1)).ravel()
        act = system.active
        if diag[act].min(initial=np.inf) <= 0.0:  # no active dof: k is refused later
            raise LumpingError(
                "row-sum lumping produced a nonpositive mass entry")
        system.M = sp.diags(diag).tocsr()
    system.mass_kind = mass_kind
    return system


@dataclass
class EigenReport:
    mass_kind: str
    eigenvalues: list
    residuals: list

    def to_json(self) -> str:
        return finite_json("eigen", {"mass": self.mass_kind, "eigenvalues": self.eigenvalues,
                                     "residuals": self.residuals})

    def to_csv(self) -> str:
        lines = ["mode,eigenvalue,residual"]
        for k, (lam, r) in enumerate(zip(self.eigenvalues, self.residuals), 1):
            lines.append(f"{k},{lam:.10e},{r:.3e}")
        return "\n".join(lines) + "\n"


def solve_generalized_eigen(system: GalerkinSystem, k: int = 6) -> EigenReport:
    """k smallest eigenpairs of K v = lambda M v on the active set.

    ARPACK's shift-invert iteration at zero runs on the active numbering,
    with K, which is symmetric positive definite, factored once by
    ``spd_solver``.  The eigenvectors are not reported.
    """
    import scipy.sparse.linalg as spla

    if system.M is None:
        raise DomainError("system was assembled without a mass matrix")
    act = system.active
    if not 1 <= k < len(act):
        raise DomainError(f"k = {k} eigenpairs need 1 <= k < {len(act)}, "
                          "the number of active dofs")
    K, M = (A[act][:, act] for A in (system.K, system.M))
    try:
        lams, vecs = spla.eigsh(K, k=k, M=M, sigma=0.0, which="LM",
                                v0=np.ones(K.shape[0]), OPinv=spd_solver(K))
    except Exception as exc:
        raise EigensolverError(f"shift-invert iteration failed: {exc}") from exc
    order = np.argsort(lams)
    lams, vecs = lams[order], vecs[:, order]
    residuals = []
    for i in range(k):
        r = K.dot(vecs[:, i]) - lams[i] * M.dot(vecs[:, i])
        denom = float(np.linalg.norm(K.dot(vecs[:, i])))
        residuals.append(float(np.linalg.norm(r)) / max(denom, 1e-300))
    if max(residuals) > EIGEN_RESIDUAL_TOL:
        raise EigensolverError(
            f"eigen residual {max(residuals):.3e} above {EIGEN_RESIDUAL_TOL}")
    return EigenReport(mass_kind=system.mass_kind or "consistent",
                       eigenvalues=[float(x) for x in lams],
                       residuals=residuals)


def unit_square_laplace_eigenvalues(k: int = 6):
    """Smallest Dirichlet Laplacian eigenvalues on the unit square."""
    vals = sorted((i * i + j * j) * np.pi**2
                  for i in range(1, 8) for j in range(1, 8))
    return vals[:k]
