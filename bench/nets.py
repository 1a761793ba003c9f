"""Seeded control nets for the benchmark workloads, written as OBJ files.

The shapes are those of the test suite's net generators, defined again
here so that editing a test cannot change a workload.  The seed jitters
interior control points by a bounded amount; boundary points never move,
so the unit-square nets keep their exact boundary, and the topology (and
with it every vertex class) is untouched.  Only numpy is used: the
program under test sees nothing but the OBJ text written here.

    python3 bench/nets.py --seed 1 --out DIR    # writes DIR/<name>.obj
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

# Jitter bound as a share of the shortest edge of the net; small enough
# that no element folds and every output check keeps its margin.
JITTER = 0.08


def structured(nx, ny):
    xs = np.linspace(0.0, 1.0, nx + 1)
    ys = np.linspace(0.0, 1.0, ny + 1)
    pos = [(x, y, 0.0) for y in ys for x in xs]
    vid = lambda i, j: j * (nx + 1) + i
    faces = [(vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1))
             for j in range(ny) for i in range(nx)]
    return np.array(pos), faces


def rot44():
    """4x4 unit-square grid with one interior edge rotated: two valence-3
    and two valence-5 interior vertices, valence-1 corners."""
    pos, faces = structured(4, 4)
    vid = lambda i, j: j * 5 + i
    pos[vid(1, 2)] = (0.18, 0.45, 0.0)
    pos[vid(2, 2)] = (0.62, 0.50, 0.0)
    below = faces.index((vid(1, 1), vid(2, 1), vid(2, 2), vid(1, 2)))
    above = faces.index((vid(1, 2), vid(2, 2), vid(2, 3), vid(1, 3)))
    faces[below] = (vid(1, 1), vid(2, 1), vid(1, 3), vid(1, 2))
    faces[above] = (vid(2, 1), vid(2, 2), vid(2, 3), vid(1, 3))
    return pos, faces


def fan(n):
    """n quads around one interior vertex of valence n."""
    m = 2 * n
    pos = [(0.0, 0.0, 0.0)] + [
        (np.cos(2 * np.pi * k / m), np.sin(2 * np.pi * k / m), 0.0)
        for k in range(m)]
    h = lambda t: 1 + (t % m)
    faces = [(0, h(2 * k), h(2 * k + 1), h(2 * k + 2)) for k in range(n)]
    return np.array(pos), faces


def boundary_ep3():
    pos = np.array([
        (0.5, 0.0, 0.0), (1.0, 0.0, 0.0), (0.7, 0.55, 0.0), (0.3, 0.55, 0.0),
        (0.0, 0.0, 0.0), (1.0, 1.0, 0.0), (0.5, 1.0, 0.0), (0.0, 1.0, 0.0),
    ])
    return pos, [(0, 1, 5, 2), (0, 2, 6, 3), (0, 3, 7, 4)]


def val33():
    pos = np.array([
        (0.4, 0.5, 0.0), (0.6, 0.5, 0.0), (0.25, 1.0, 0.0), (0.75, 1.0, 0.0),
        (0.25, 0.0, 0.0), (0.75, 0.0, 0.0), (0.0, 0.5, 0.0), (1.0, 0.5, 0.0),
    ])
    return pos, [(0, 1, 3, 2), (1, 0, 4, 5), (0, 2, 6, 4), (1, 5, 7, 3)]


def val333():
    pos = np.array([
        (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (0.0, 1.0, 0.0),
        (-0.7, -0.7, 0.0), (1.7, -0.7, 0.0), (1.7, 1.7, 0.0), (0.3, 1.7, 0.0),
        (-0.9, 0.9, 0.0), (-0.5, 1.6, 0.0),
    ])
    faces = [(0, 1, 2, 3), (1, 0, 4, 5), (2, 1, 5, 6), (3, 2, 6, 7),
             (0, 3, 8, 4), (3, 7, 9, 8)]
    return pos, faces


_BOX = np.array([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
                 (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)], dtype=float)


def cube():
    faces = [(3, 2, 1, 0), (4, 5, 6, 7), (0, 1, 5, 4), (1, 2, 6, 5),
             (2, 3, 7, 6), (3, 0, 4, 7)]
    return _BOX.copy(), faces


def open_box():
    faces = [(0, 1, 5, 4), (1, 2, 6, 5), (2, 3, 7, 6), (3, 0, 4, 7),
             (4, 5, 6, 7)]
    return _BOX.copy(), faces


def cylinder(n_theta, n_z, radius=1.0, height=1.0):
    """Open tube: no extraordinary vertices, two boundary rings."""
    pos = [(radius * np.cos(2 * np.pi * k / n_theta),
            radius * np.sin(2 * np.pi * k / n_theta), height * j / n_z)
           for j in range(n_z + 1) for k in range(n_theta)]
    vid = lambda k, j: j * n_theta + (k % n_theta)
    faces = [(vid(k, j), vid(k + 1, j), vid(k + 1, j + 1), vid(k, j + 1))
             for j in range(n_z) for k in range(n_theta)]
    return np.array(pos), faces


CYLINDER_RADIUS = 1.0


def bump(pos, amplitude=0.3, center=(0.5, 0.5), sigma=0.35):
    """Gaussian bump added to z, as a function of the (jittered) x, y."""
    out = pos.copy()
    r2 = (out[:, 0] - center[0]) ** 2 + (out[:, 1] - center[1]) ** 2
    out[:, 2] += amplitude * np.exp(-r2 / sigma**2)
    return out


def boundary_vertices(n_vertices, faces):
    """Vertices on an edge that only one face uses."""
    count = {}
    for quad in faces:
        for k in range(4):
            key = frozenset((quad[k], quad[(k + 1) % 4]))
            count[key] = count.get(key, 0) + 1
    mask = np.zeros(n_vertices, dtype=bool)
    for key, c in count.items():
        if c == 1:
            mask[list(key)] = True
    return mask


def shortest_edge(pos, faces):
    return min(float(np.linalg.norm(pos[q[k]] - pos[q[(k + 1) % 4]]))
               for q in faces for k in range(4))


def jitter(pos, faces, rng, planar):
    """Move every interior point by at most JITTER x the shortest edge per
    coordinate; planar nets move in x and y only."""
    amp = JITTER * shortest_edge(pos, faces)
    interior = ~boundary_vertices(len(pos), faces)
    out = pos.copy()
    axes = 2 if planar else 3
    step = rng.uniform(-amp, amp, size=(len(pos), axes))
    out[interior, :axes] += step[interior]
    return out


def jittered_cylinder(rng):
    """Interior rings shift along the axis as a whole, so every cross
    section stays a circle of the same radius and the thickness at which
    the shell first fails keeps its analytic value."""
    n_theta, n_z = 16, 2
    pos, faces = cylinder(n_theta, n_z, radius=CYLINDER_RADIUS)
    amp = JITTER * shortest_edge(pos, faces)
    shift = rng.uniform(-amp, amp, size=n_z + 1)
    shift[[0, -1]] = 0.0
    pos[:, 2] += np.repeat(shift, n_theta)
    return pos, faces


# name -> (shape, planar, bumped)
NETS = {
    "rot44": (rot44, True, False),
    "rot44_bumped": (rot44, True, True),
    "fan3": (lambda: fan(3), True, False),
    "fan5": (lambda: fan(5), True, False),
    "fan6": (lambda: fan(6), True, False),
    "boundary_ep3": (boundary_ep3, True, False),
    "val33": (val33, True, False),
    "val333": (val333, True, False),
    "val333_bumped": (val333, True, True),
    "open_box": (open_box, False, False),
    "cube": (cube, False, False),
}


def generate(seed: int) -> dict[str, tuple[np.ndarray, list]]:
    """Every benchmark net for one seed: name -> (positions, faces)."""
    rng = np.random.default_rng(seed)
    out = {}
    for name, (shape, planar, bumped) in NETS.items():
        pos, faces = shape()
        pos = jitter(np.asarray(pos, dtype=float), faces, rng, planar)
        out[name] = (bump(pos) if bumped else pos, faces)
    out["cylinder"] = jittered_cylinder(rng)
    return out


def obj_text(pos, faces) -> str:
    lines = [f"v {p[0]:.17g} {p[1]:.17g} {p[2]:.17g}" for p in pos]
    lines += ["f " + " ".join(str(v + 1) for v in q) for q in faces]
    return "\n".join(lines) + "\n"


def write_nets(seed: int, out_dir: Path) -> dict[str, Path]:
    """Write every net as ``out_dir/<name>.obj``; returns name -> path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, (pos, faces) in generate(seed).items():
        path = out_dir / f"{name}.obj"
        path.write_text(obj_text(pos, faces))
        paths[name] = path
    return paths


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    for name, path in write_nets(args.seed, args.out).items():
        print(name, path)
