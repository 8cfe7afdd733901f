"""Cartesian grid with node classification for a curved solver domain.

Nodes start on a (possibly nonuniform) tensor lattice. Lattice nodes next
to the domain boundary are moved along one coordinate axis onto the
continuous boundary, so the discrete boundary lies on the continuous one
and the local grid becomes nonuniform. A boundary crossing is represented
by whichever lattice node is nearer to it: if it falls within half a
spacing of the interior endpoint, the interior node itself is relocated,
which keeps every snapped spacing at h/2 or more (and the CFL step
bounded). Exterior nodes referenced by an interior nine-node stencil
become ghost nodes; each carries a (node0, node1, node2) triple with an
interior node0 and two boundary neighbors, from which its value is
linearly extrapolated through the midpoint auxiliary node.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import GridError

# a crossing within this fraction of a spacing relocates the interior node
_MERGE_FRAC = 0.5
# an exterior stencil node this close to the boundary becomes a boundary node
_BOUNDARY_TOL = 1e-12


class NodeKind(IntEnum):
    EXTERIOR = 0
    INTERIOR = 1
    BOUNDARY = 2
    GHOST = 3


@dataclass
class GhostTable:
    """Per-ghost index triples and precomputed extrapolation factors."""

    ghost: np.ndarray  # (G, 2) int lattice indices
    node0: np.ndarray  # (G, 2) interior
    node1: np.ndarray  # (G, 2) boundary, same row as ghost
    node2: np.ndarray  # (G, 2) boundary, same column as ghost
    factor: np.ndarray  # (G, 2) per-component ((x_k)_g - (x_k)_0) / ((x_k)_aux - (x_k)_0)

    def __len__(self) -> int:
        return len(self.ghost)


@dataclass
class Grid2D:
    x_coords: np.ndarray
    y_coords: np.ndarray
    pos: np.ndarray  # (nx, ny, 2) actual node positions
    kind: np.ndarray  # (nx, ny) uint8 NodeKind values
    ghosts: GhostTable
    domain: object

    @property
    def nx(self) -> int:
        return len(self.x_coords)

    @property
    def ny(self) -> int:
        return len(self.y_coords)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    def mask(self, node_kind: NodeKind) -> np.ndarray:
        return self.kind == int(node_kind)

    @property
    def boundary_ij(self) -> np.ndarray:
        """Boundary node lattice indices, (B, 2), fixed lexicographic order."""
        return np.argwhere(self.kind == int(NodeKind.BOUNDARY))

    def boundary_positions(self) -> np.ndarray:
        ij = self.boundary_ij
        return self.pos[ij[:, 0], ij[:, 1]]

    def min_spacings(self) -> tuple[float, float]:
        """Smallest positive x and y spacings between stencil-adjacent nodes."""
        active = self.kind != int(NodeKind.EXTERIOR)
        px = self.pos[..., 0]
        py = self.pos[..., 1]
        pair_x = active[:-1, :] & active[1:, :]
        pair_y = active[:, :-1] & active[:, 1:]
        dx = (px[1:, :] - px[:-1, :])[pair_x]
        dy = (py[:, 1:] - py[:, :-1])[pair_y]
        if dx.size == 0 or dy.size == 0:
            raise GridError("grid has no adjacent active nodes")
        if np.any(dx <= 0) or np.any(dy <= 0):
            raise GridError("non-positive spacing between adjacent active nodes")
        return float(dx.min()), float(dy.min())


def make_grid(x_coords: np.ndarray, y_coords: np.ndarray, domain) -> Grid2D:
    """Classify lattice nodes against the domain and build ghost triples.

    Raises GridError when the lattice cannot resolve the domain (interior
    touching the lattice edge, ghost without a valid triple, or a
    degenerate extrapolation direction).
    """
    x = np.asarray(x_coords, dtype=float)
    y = np.asarray(y_coords, dtype=float)
    if np.any(np.diff(x) <= 0) or np.any(np.diff(y) <= 0):
        raise GridError("grid coordinates must be strictly ascending")
    nx, ny = len(x), len(y)
    X, Y = np.meshgrid(x, y, indexing="ij")
    pos = np.stack([X, Y], axis=-1)
    inside = domain.inside(pos)
    kind = np.where(inside, int(NodeKind.INTERIOR), int(NodeKind.EXTERIOR)).astype(np.uint8)

    # collect boundary crossings on lattice edges between inside/outside pairs
    crossings = []  # (inside_ij, outside_ij, point, dist_inside, edge_h)
    for axis, coords in enumerate((x, y)):
        # a boolean diff marks lattice edges whose endpoints differ
        for i, j in np.argwhere(np.diff(inside, axis=axis)):
            ij0 = (i, j)
            ij1 = (i + 1, j) if axis == 0 else (i, j + 1)
            h = coords[ij1[axis]] - coords[ij0[axis]]
            p_in, p_out = (ij0, ij1) if inside[ij0] else (ij1, ij0)
            c = domain.crossing_on_segment(pos[p_in], pos[p_out])
            crossings.append((p_in, p_out, c, abs(c[axis] - pos[p_in][axis]), h))

    # pass 1: relocate interior endpoints whose crossing is nearer to them
    best_inner: dict[tuple[int, int], tuple[float, np.ndarray]] = {}
    for p_in, p_out, c, d_in, h in crossings:
        if d_in < _MERGE_FRAC * h:
            cur = best_inner.get(p_in)
            if cur is None or d_in < cur[0]:
                best_inner[p_in] = (d_in, c)
    for p_in, (_, c) in sorted(best_inner.items()):
        kind[p_in] = int(NodeKind.BOUNDARY)
        pos[p_in] = c

    # pass 2: snap surviving outside endpoints onto their nearest crossing
    best_outer: dict[tuple[int, int], tuple[float, np.ndarray]] = {}
    for p_in, p_out, c, d_in, h in crossings:
        if p_in in best_inner:
            continue
        d_out = float(np.max(np.abs(c - pos[p_out])))
        cur = best_outer.get(p_out)
        if cur is None or d_out < cur[0]:
            best_outer[p_out] = (d_out, c)
    for p_out, (_, c) in sorted(best_outer.items()):
        kind[p_out] = int(NodeKind.BOUNDARY)
        pos[p_out] = c

    # ghost detection: exterior nodes inside some interior stencil
    interior = kind == int(NodeKind.INTERIOR)
    ii, jj = np.nonzero(interior)
    if ii.size == 0:
        raise GridError("domain contains no interior grid nodes")
    if ii.min() == 0 or ii.max() == nx - 1 or jj.min() == 0 or jj.max() == ny - 1:
        raise GridError("interior nodes touch the lattice edge; enlarge the grid")
    needed = np.zeros((nx, ny), dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            needed[ii + di, jj + dj] = True
    ghost_candidates = np.argwhere(needed & (kind == int(NodeKind.EXTERIOR)))
    ghost_list = []
    for i, j in ghost_candidates:
        if domain.on_boundary(pos[i, j], tol=_BOUNDARY_TOL):
            kind[i, j] = int(NodeKind.BOUNDARY)
        else:
            kind[i, j] = int(NodeKind.GHOST)
            ghost_list.append((i, j))

    g_ij, g_n0, g_n1, g_n2, g_f = [], [], [], [], []
    for i, j in ghost_list:
        triple = None
        for di, dj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            i0, j0 = i + di, j + dj
            if not (0 <= i0 < nx and 0 <= j0 < ny):
                continue
            if (
                kind[i0, j0] == int(NodeKind.INTERIOR)
                and kind[i0, j] == int(NodeKind.BOUNDARY)
                and kind[i, j0] == int(NodeKind.BOUNDARY)
            ):
                triple = ((i0, j0), (i0, j), (i, j0))
                break
        if triple is None:
            raise GridError(
                f"ghost node ({i},{j}) has no interior node0 with two adjacent "
                "boundary neighbors; grid too coarse for the domain"
            )
        n0, n1, n2 = triple
        aux = 0.5 * (pos[n1] + pos[n2])
        denom = aux - pos[n0]
        scale = max(float(np.max(np.diff(x))), float(np.max(np.diff(y))))
        if np.any(np.abs(denom) < 1e-12 * scale):
            raise GridError(f"degenerate ghost extrapolation geometry at node ({i},{j})")
        factor = (pos[i, j] - pos[n0]) / denom
        g_ij.append((i, j))
        g_n0.append(n0)
        g_n1.append(n1)
        g_n2.append(n2)
        g_f.append(factor)

    ghosts = GhostTable(
        ghost=np.array(g_ij, dtype=int).reshape(-1, 2),
        node0=np.array(g_n0, dtype=int).reshape(-1, 2),
        node1=np.array(g_n1, dtype=int).reshape(-1, 2),
        node2=np.array(g_n2, dtype=int).reshape(-1, 2),
        factor=np.array(g_f, dtype=float).reshape(-1, 2),
    )
    grid = Grid2D(x_coords=x, y_coords=y, pos=pos, kind=kind, ghosts=ghosts, domain=domain)
    grid.min_spacings()  # validates positive spacings
    return grid


def fill_ghost(grid: Grid2D, field: np.ndarray) -> np.ndarray:
    """Fill ghost entries of an (nx, ny, 2) field by collinear extrapolation.

    Component k is extrapolated along its own coordinate:
    h_g = h_0 + (h_aux - h_0) * ((x_k)_g - (x_k)_0) / ((x_k)_aux - (x_k)_0)
    with the auxiliary value h_aux = (h_1 + h_2)/2. Affine fields are
    reproduced exactly when node0, aux and the ghost are collinear.
    Mutates and returns the field.
    """
    g = grid.ghosts
    if len(g) == 0:
        return field
    h0 = field[g.node0[:, 0], g.node0[:, 1]]
    h_aux = 0.5 * (field[g.node1[:, 0], g.node1[:, 1]] + field[g.node2[:, 0], g.node2[:, 1]])
    field[g.ghost[:, 0], g.ghost[:, 1]] = h0 + (h_aux - h0) * g.factor
    return field
