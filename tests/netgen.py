"""Small control nets used across the test suite.

All generators return ControlNet instances.  The unit-square nets keep
their boundary control polygon exactly on the square so Dirichlet problems
are posed on the exact domain; geometric corners sit at valence-1 vertices
so the surface interpolates them.
"""

from __future__ import annotations

import numpy as np

from gspline.mesh import CNet, ControlNet


def structured(nx: int, ny: int, lx: float = 1.0, ly: float = 1.0, zfun=None):
    """Structured grid of nx * ny faces on [0, lx] x [0, ly]."""
    xs = np.linspace(0.0, lx, nx + 1)
    ys = np.linspace(0.0, ly, ny + 1)
    pos = []
    for j in range(ny + 1):
        for i in range(nx + 1):
            z = zfun(xs[i], ys[j]) if zfun else 0.0
            pos.append((xs[i], ys[j], z))
    vid = lambda i, j: j * (nx + 1) + i
    faces = []
    for j in range(ny):
        for i in range(nx):
            faces.append((vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)))
    return ControlNet(CNet(len(pos), faces), np.array(pos, dtype=float))


def cube():
    """Closed unit cube: 8 vertices of valence 3, all extraordinary."""
    pos = np.array([
        (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
        (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1),
    ], dtype=float)
    faces = [
        (3, 2, 1, 0),              # bottom (outward -z)
        (4, 5, 6, 7),              # top (+z)
        (0, 1, 5, 4), (1, 2, 6, 5), (2, 3, 7, 6), (3, 0, 4, 7),
    ]
    return ControlNet(CNet(8, faces), pos)


def pillow():
    """Two quads on the same four vertices, glued back to back into a
    closed surface: every vertex has valence 2 and meets the same vertex
    diagonally in both faces, so the subdivision matrix sums repeated
    (row, column) entries."""
    pos = np.array([(0, 0, 0), (1, 0, 0.2), (1, 1, 0), (0, 1, 0.3)], dtype=float)
    return ControlNet(CNet(4, [(0, 1, 2, 3), (3, 2, 1, 0)]), pos)


def open_box():
    """Unit box without its bottom face: the top face has four valence-3
    extraordinary vertices; each side face has two."""
    pos = np.array([
        (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
        (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1),
    ], dtype=float)
    faces = [
        (0, 1, 5, 4), (1, 2, 6, 5), (2, 3, 7, 6), (3, 0, 4, 7),
        (4, 5, 6, 7),
    ]
    return ControlNet(CNet(8, faces), pos)


def fan(n: int, radius: float = 1.0):
    """n quads fanning around one interior vertex of valence n.

    The boundary ring has 2n vertices alternating valence 2 and 1.
    """
    pos = [(0.0, 0.0, 0.0)]
    m = 2 * n
    for k in range(m):
        a = 2.0 * np.pi * k / m
        pos.append((radius * np.cos(a), radius * np.sin(a), 0.0))
    faces = []
    for k in range(n):
        h = lambda t: 1 + (t % m)
        faces.append((0, h(2 * k), h(2 * k + 1), h(2 * k + 2)))
    return ControlNet(CNet(len(pos), faces), np.array(pos, dtype=float))


def boundary_ep3():
    """One boundary vertex of valence 3 with three quads fanning inward."""
    pos = np.array([
        (0.5, 0.0, 0.0),   # 0 V boundary EP
        (1.0, 0.0, 0.0),   # 1 N0
        (0.7, 0.55, 0.0),  # 2 N1
        (0.3, 0.55, 0.0),  # 3 N2
        (0.0, 0.0, 0.0),   # 4 N3
        (1.0, 1.0, 0.0),   # 5 M0
        (0.5, 1.0, 0.0),   # 6 M1
        (0.0, 1.0, 0.0),   # 7 M2
    ])
    faces = [(0, 1, 5, 2), (0, 2, 6, 3), (0, 3, 7, 4)]
    return ControlNet(CNet(8, faces), pos)


def val33():
    """Two adjacent interior valence-3 vertices sharing two faces."""
    pos = np.array([
        (0.4, 0.5, 0.0),   # 0 P
        (0.6, 0.5, 0.0),   # 1 Q
        (0.25, 1.0, 0.0),  # 2 T1
        (0.75, 1.0, 0.0),  # 3 T2
        (0.25, 0.0, 0.0),  # 4 B1
        (0.75, 0.0, 0.0),  # 5 B2
        (0.0, 0.5, 0.0),   # 6 L
        (1.0, 0.5, 0.0),   # 7 R
    ])
    faces = [
        (0, 1, 3, 2),   # top face: P Q T2 T1
        (1, 0, 4, 5),   # bottom face: Q P B1 B2
        (0, 2, 6, 4),   # left: P T1 L B1
        (1, 5, 7, 3),   # right: Q B2 R T2
    ]
    return ControlNet(CNet(8, faces), pos)


def val333():
    """A face whose corners include three interior valence-3 vertices."""
    pos = np.array([
        (0.0, 0.0, 0.0),     # 0 P
        (1.0, 0.0, 0.0),     # 1 Q
        (1.0, 1.0, 0.0),     # 2 R
        (0.0, 1.0, 0.0),     # 3 S
        (-0.7, -0.7, 0.0),   # 4 DP
        (1.7, -0.7, 0.0),    # 5 DQ
        (1.7, 1.7, 0.0),     # 6 DR
        (0.3, 1.7, 0.0),     # 7 DS
        (-0.9, 0.9, 0.0),    # 8 U
        (-0.5, 1.6, 0.0),    # 9 W
    ])
    faces = [
        (0, 1, 2, 3),   # P Q R S
        (1, 0, 4, 5),   # Q P DP DQ
        (2, 1, 5, 6),   # R Q DQ DR
        (3, 2, 6, 7),   # S R DR DS
        (0, 3, 8, 4),   # P S U DP
        (3, 7, 9, 8),   # S DS W U
    ]
    return ControlNet(CNet(10, faces), pos)


def rot44():
    """4x4 grid on the unit square with one interior edge rotated.

    Produces two valence-3 and two valence-5 interior vertices (adjacent
    to each other) while the boundary stays the exact unit square with
    valence-1 corners.
    """
    base = structured(4, 4)
    vid = lambda i, j: j * 5 + i
    pos = np.array(base.positions)
    pos[vid(1, 2)] = (0.18, 0.45, 0.0)
    pos[vid(2, 2)] = (0.62, 0.50, 0.0)
    faces = [list(f) for f in base.cnet.faces]

    def face_index(quad):
        for k, f in enumerate(faces):
            if tuple(f) == tuple(quad):
                return k
        raise AssertionError("face not found")

    f_below = face_index((vid(1, 1), vid(2, 1), vid(2, 2), vid(1, 2)))
    f_above = face_index((vid(1, 2), vid(2, 2), vid(2, 3), vid(1, 3)))
    faces[f_below] = [vid(1, 1), vid(2, 1), vid(1, 3), vid(1, 2)]
    faces[f_above] = [vid(2, 1), vid(2, 2), vid(2, 3), vid(1, 3)]
    return ControlNet(CNet(len(pos), faces), pos)


def cylinder(n_theta: int = 8, n_z: int = 4, radius: float = 1.0,
             height: float = 2.0):
    """Closed-in-angle tube: no extraordinary vertices, two boundary rings."""
    pos = []
    for j in range(n_z + 1):
        for k in range(n_theta):
            a = 2.0 * np.pi * k / n_theta
            pos.append((radius * np.cos(a), radius * np.sin(a),
                        height * j / n_z))
    vid = lambda k, j: j * n_theta + (k % n_theta)
    faces = []
    for j in range(n_z):
        for k in range(n_theta):
            faces.append((vid(k, j), vid(k + 1, j), vid(k + 1, j + 1), vid(k, j + 1)))
    return ControlNet(CNet(len(pos), faces), np.array(pos, dtype=float))


def bumped(net: ControlNet, amplitude: float = 0.3, center=(0.5, 0.5),
           sigma: float = 0.35) -> ControlNet:
    """Copy of a planar net with a Gaussian bump added to z."""
    pos = np.array(net.positions)
    r2 = (pos[:, 0] - center[0]) ** 2 + (pos[:, 1] - center[1]) ** 2
    pos[:, 2] = pos[:, 2] + amplitude * np.exp(-r2 / sigma**2)
    return ControlNet(net.cnet, pos)


def continuity_suite():
    """Nets covering interior EP valences 3/5/6, a boundary EP of valence 3
    and faces carrying 2, 3 and 4 extraordinary corners."""
    return {
        "fan3": fan(3),
        "fan5": fan(5),
        "fan6": fan(6),
        "boundary_ep3": boundary_ep3(),
        "val33": val33(),
        "val333": val333(),
        "open_box": open_box(),
    }
