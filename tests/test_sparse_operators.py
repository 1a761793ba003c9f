"""The C0 operator and subdivision matrix against the dict- and
loop-based reference in ``stencil_loop.py``, and bit for bit against the
scipy CSR products of ``sparse_reference.py``."""

import importlib
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from gspline.construct_c0 import build_c0, c0_stencils
from gspline.construct_g1 import build_g1
from gspline.errors import InternalError
from gspline.mesh import CNet, ControlNet, boundary_neighbours
from gspline.refine import refine

import netgen
import sparse_reference
import stencil_loop

refine_module = importlib.import_module("gspline.refine")

NETS = {
    "rot44": netgen.rot44,
    "val333": netgen.val333,
    "open_box": netgen.open_box,
    "cube": netgen.cube,
    "fan5": lambda: netgen.fan(5),
    "cylinder": netgen.cylinder,
    "boundary_ep3": netgen.boundary_ep3,  # bends edge points at the boundary
}


# the pillow's subdivision matrix sums repeated (row, column) entries
ORACLE_NETS = {**NETS, "pillow": netgen.pillow}


def levels(make, n=2):
    """The net and its first ``n`` refinements."""
    nets = [make()]
    for _ in range(n):
        nets.append(refine(nets[-1]))
    return nets


@pytest.mark.parametrize("name", sorted(NETS))
def test_c0_coefficients_bitwise_those_of_the_stencil_dicts(name):
    for net in levels(NETS[name]):
        new, old = build_c0(net), stencil_loop.build_c0(net)
        for a, b in zip(new.extractions, old.extractions, strict=True):
            order = np.argsort(b.basis)
            np.testing.assert_array_equal(a.basis, b.basis[order])
            np.testing.assert_array_equal(a.coeffs, b.coeffs[order])


@pytest.mark.parametrize("name", sorted(NETS))
def test_refine_matches_the_vertex_face_edge_loops(name):
    new = old = NETS[name]()
    for _ in range(2):
        new, old = refine(new), stencil_loop.refine(old)
        np.testing.assert_array_equal(new.cnet.faces, old.cnet.faces)
        scale = np.abs(old.positions).max()
        assert np.abs(new.positions - old.positions).max() <= 1e-15 * scale


def stencil_matrix(cnet):
    """S as a CSR matrix from the ``c0_stencils`` point table."""
    point, start, cols, vals = c0_stencils(cnet)
    points = sp.csr_matrix((vals, cols, start), shape=(len(start) - 1, cnet.n_vertices))
    return points[point.ravel()]


def test_operator_rows_are_the_element_bezier_points():
    net = netgen.val333()
    S = stencil_matrix(net.cnet)
    assert S.shape == (16 * net.cnet.n_faces, net.cnet.n_vertices)
    np.testing.assert_allclose(np.asarray(S.sum(axis=1)).ravel(), 1.0, atol=1e-15)
    bez = (S @ net.positions).reshape(-1, 16, 3)
    for ext in build_c0(net).extractions:
        np.testing.assert_allclose(
            bez[ext.element], ext.coeffs.T @ net.positions[ext.basis],
            rtol=0, atol=1e-15)


def test_pillow_subdivision_matrix_has_repeated_entries():
    _, (rows, cols) = sparse_reference.subdivision_triplets(netgen.pillow().cnet)
    assert len(set(zip(rows.tolist(), cols.tolist()))) < len(rows)


@pytest.mark.parametrize("name", sorted(ORACLE_NETS))
def test_row_tables_match_the_sparse_products_bitwise(name):
    """Refined positions, the operator S and the C0 coefficients equal the
    CSR products R P and (M @ points)[pick] bit for bit, levels 0 to 2."""
    for net in levels(ORACLE_NETS[name]):
        np.testing.assert_array_equal(refine(net).positions,
                                      sparse_reference.refined_positions(net))
        new, old = stencil_matrix(net.cnet), sparse_reference.c0_stencils(net.cnet)
        for A in (new, old):
            A.sort_indices()
        for a, b in ((new.indptr, old.indptr), (new.indices, old.indices),
                     (new.data, old.data)):
            np.testing.assert_array_equal(a, b)
        (group,) = build_c0(net).groups
        counts, basis, coeffs = sparse_reference.c0_coefficients(net.cnet)
        np.testing.assert_array_equal(group.mask.sum(axis=1), counts)
        np.testing.assert_array_equal(group.basis[group.mask], basis)
        np.testing.assert_array_equal(group.coeffs[group.mask], coeffs)


def test_element_keys_beyond_int32():
    # 24000 disjoint quads: face id x n_vertices passes 2**31
    n = 24000
    square = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0.0]]
    net = ControlNet(CNet(4 * n, np.arange(4 * n).reshape(n, 4)),
                     np.tile(square, (n, 1)))
    first, last = build_c0(net).extractions[::n - 1]
    np.testing.assert_array_equal(last.basis, 4 * (n - 1) + np.arange(4))
    np.testing.assert_array_equal(last.coeffs, first.coeffs)


@pytest.mark.parametrize("variant", ["c0", "g1p", "g1r"])
@pytest.mark.parametrize("name", ["rot44", "val333", "open_box"])
def test_every_element_basis_ascends(name, variant):
    surface = build_c0(NETS[name]())
    if variant != "c0":
        surface = build_g1(surface, variant)
    for ext in surface.extractions:
        assert np.all(np.diff(ext.basis) > 0), ext.element


@pytest.mark.parametrize("name", sorted(NETS))
def test_boundary_neighbours_are_the_boundary_edge_ends(name):
    cnet = NETS[name]().cnet
    nbrs = boundary_neighbours(cnet)
    for v in range(cnet.n_vertices):
        expected = [int(a + b - v) for a, b in
                    (cnet.edges[e]
                     for e in np.flatnonzero((cnet.edges == v).any(axis=1))
                     if cnet.boundary_edge[e])]
        assert nbrs[v].tolist() == (expected if cnet.boundary_vertex[v] else [-1, -1])


def test_boundary_vertex_without_two_boundary_edges_is_internal_error():
    # a boundary vertex on a single boundary edge; CNet rejects such a fan
    cnet = SimpleNamespace(n_vertices=3, edges=np.array([[0, 1], [1, 2]]),
                           boundary_edge=np.array([True, True]),
                           boundary_vertex=np.array([True, True, True]))
    with pytest.raises(InternalError, match="boundary vertex 0"):
        boundary_neighbours(cnet)


def test_subdivision_rows_not_summing_to_one_are_internal_error(monkeypatch):
    monkeypatch.setattr(refine_module, "_interior_vertex_mask",
                        lambda mu: (0.5 + 0 * mu, 0 * mu, 0 * mu))
    with pytest.raises(InternalError, match="does not sum to one"):
        refine(netgen.structured(2, 2))
