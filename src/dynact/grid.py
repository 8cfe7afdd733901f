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


def _nearest(key: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """For each distinct key, in key order, the index of its smallest
    distance; of equal distances the earliest index wins."""
    order = np.lexsort((dist, key))
    key = key[order]
    # first of each key by sort, as np.unique(return_index=True) gives it
    # with more of numpy loaded on its first call
    first = np.ones(len(key), dtype=bool)
    first[1:] = key[1:] != key[:-1]
    return order[first]


def make_grid(x_coords: np.ndarray, y_coords: np.ndarray, domain) -> Grid2D:
    """Classify lattice nodes against the domain and build ghost triples.

    A snapped node moves onto its nearest boundary crossing; of crossings
    at equal distance, the first in edge order (the axis-0 edges, then the
    axis-1 edges, each in lattice order) wins.

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

    # boundary crossings on the lattice edges between inside/outside pairs,
    # each edge taken as (interior endpoint, exterior endpoint)
    edges = []  # per axis: (interior ij, exterior ij, axis, edge length)
    for axis, coords in enumerate((x, y)):
        # a boolean diff marks lattice edges whose endpoints differ
        ij0 = np.argwhere(np.diff(inside, axis=axis))
        ij1 = ij0 + np.eye(2, dtype=int)[axis]
        first_in = inside[tuple(ij0.T)][:, None]
        h = coords[ij1[:, axis]] - coords[ij0[:, axis]]
        edges.append((np.where(first_in, ij0, ij1), np.where(first_in, ij1, ij0), np.full(len(h), axis), h))
    p_in, p_out, axes, h = (np.concatenate(a) for a in zip(*edges))
    pos_in, pos_out = pos[tuple(p_in.T)], pos[tuple(p_out.T)]
    c = domain.crossing_on_segment(pos_in, pos_out)
    rows = np.arange(len(c))
    d_in = np.abs(c[rows, axes] - pos_in[rows, axes])

    # pass 1: relocate interior endpoints whose crossing is nearer to them
    near = np.flatnonzero(d_in < _MERGE_FRAC * h)
    moved = near[_nearest(p_in[near, 0] * ny + p_in[near, 1], d_in[near])]
    kind[tuple(p_in[moved].T)] = int(NodeKind.BOUNDARY)
    pos[tuple(p_in[moved].T)] = c[moved]
    # pass 2: snap the outside endpoints of the crossings whose interior
    # endpoint stayed onto their nearest crossing
    rest = np.flatnonzero(kind[tuple(p_in.T)] == int(NodeKind.INTERIOR))
    d_out = np.max(np.abs(c[rest] - pos_out[rest]), axis=-1)
    snapped = rest[_nearest(p_out[rest, 0] * ny + p_out[rest, 1], d_out)]
    kind[tuple(p_out[snapped].T)] = int(NodeKind.BOUNDARY)
    pos[tuple(p_out[snapped].T)] = c[snapped]

    # ghost detection: exterior nodes inside some interior stencil
    ii, jj = np.nonzero(kind == int(NodeKind.INTERIOR))
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
    candidates = np.argwhere(needed & (kind == int(NodeKind.EXTERIOR)))
    on = domain.on_boundary(pos[tuple(candidates.T)], tol=_BOUNDARY_TOL)
    kind[tuple(candidates.T)] = np.where(on, int(NodeKind.BOUNDARY), int(NodeKind.GHOST))
    ghost = candidates[~on]

    # node0 is the first diagonal neighbour, in this order, that is interior
    # while the two nodes between it and the ghost lie on the boundary; the
    # EXTERIOR rim of the padded kinds fails every diagonal off the lattice
    diag = np.array([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    padded = np.pad(kind, 1)
    gi, gj = ghost[:, :1] + 1, ghost[:, 1:] + 1
    valid = (
        (padded[gi + diag[:, 0], gj + diag[:, 1]] == int(NodeKind.INTERIOR))
        & (padded[gi + diag[:, 0], gj] == int(NodeKind.BOUNDARY))
        & (padded[gi, gj + diag[:, 1]] == int(NodeKind.BOUNDARY))
    )
    found = valid.any(axis=1)
    if not found.all():
        i, j = ghost[np.argmin(found)]
        raise GridError(
            f"ghost node ({i},{j}) has no interior node0 with two adjacent "
            "boundary neighbors; grid too coarse for the domain"
        )
    node0 = ghost + diag[np.argmax(valid, axis=1)]
    node1 = np.stack([node0[:, 0], ghost[:, 1]], axis=1)
    node2 = np.stack([ghost[:, 0], node0[:, 1]], axis=1)
    denom = 0.5 * (pos[tuple(node1.T)] + pos[tuple(node2.T)]) - pos[tuple(node0.T)]
    scale = max(float(np.max(np.diff(x))), float(np.max(np.diff(y))))
    degenerate = np.any(np.abs(denom) < 1e-12 * scale, axis=1)
    if degenerate.any():
        i, j = ghost[np.argmax(degenerate)]
        raise GridError(f"degenerate ghost extrapolation geometry at node ({i},{j})")
    factor = (pos[tuple(ghost.T)] - pos[tuple(node0.T)]) / denom
    ghosts = GhostTable(ghost=ghost, node0=node0, node1=node1, node2=node2, factor=factor)
    grid = Grid2D(x_coords=x, y_coords=y, pos=pos, kind=kind, ghosts=ghosts, domain=domain)
    grid.min_spacings()  # validates positive spacings
    return grid


def stored_nodes(kind: np.ndarray) -> np.ndarray:
    """Flat indices of the interior and boundary nodes, a history's rows."""
    return np.flatnonzero(np.isin(np.ravel(kind), (int(NodeKind.INTERIOR), int(NodeKind.BOUNDARY))))


def fill_ghost(grid: Grid2D, field: np.ndarray) -> np.ndarray:
    """Fill ghost entries of an (nx, ny, 2) field by collinear extrapolation.

    Component k is extrapolated along its own coordinate:
    h_g = h_0 + (h_aux - h_0) * ((x_k)_g - (x_k)_0) / ((x_k)_aux - (x_k)_0)
    with the auxiliary value h_aux = (h_1 + h_2)/2. Affine fields are
    reproduced exactly when node0, aux and the ghost are collinear.
    Mutates and returns the field. The solvers fold the rule into their
    operator instead: criterion 05 checks it, and the fold is checked
    against it (``test_operator_matches_nine_node_formula``).
    """
    g = grid.ghosts
    if len(g) == 0:
        return field
    h0 = field[g.node0[:, 0], g.node0[:, 1]]
    h_aux = 0.5 * (field[g.node1[:, 0], g.node1[:, 1]] + field[g.node2[:, 0], g.node2[:, 1]])
    field[g.ghost[:, 0], g.ghost[:, 1]] = h0 + (h_aux - h0) * g.factor
    return field
