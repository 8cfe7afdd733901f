"""Deformation providers: one interface for "where is particle x at time t".

The reconstructor only needs Phi_t evaluated at pixel positions. The
analytic provider wraps a motion model directly; the field provider
interpolates a solved displacement history (bilinear in space on the
nominal lattice, linear in time between snapshots) and extends it
outside the solver domain by the value at the closest boundary point,
interpolated in arc length between boundary nodes exactly as sparse
boundary data is (`boundary.arclength_weights`), so it is total and
continuous on the whole image extent.

Both providers have ``bind(points)``, which returns an evaluator: Phi_t
at that point set as a function of t, for use on one thread. An
evaluator's ``twin()`` is another evaluator at the same points, with
buffers of its own. ``eval(t, points)`` takes an array of points, bound
afresh on every call, or an evaluator from ``bind``. The reconstructor
binds once per image, on the calling thread, and gives every block of
views a twin, so every buffer an evaluator writes is allocated there.

The field provider reads a history's snapshots, (n_stored, 2) rows of
the interior and boundary nodes as the solver and the field artifact
hold them, one at a time from a `DisplacementHistory` or an open
`formats.FieldFile`; on a file it holds no whole history. A `NodeMap`,
which depends only on the grid and so serves every field on it, gives
every lattice node two stored source nodes and two weights: itself with
weights (1, 0) inside the domain and on its boundary, the two arc-length
neighbours of its closest boundary point outside. Binding to a point set
folds the bilinear cell weights through the node map and merges each
point's repeated rows, so a point reads only the rows it weighs (of 8
before the merge): 1 or 2 where the points are lattice nodes, up to 4
elsewhere on the grids and rasters measured. Twins share that point
map and the source. An evaluator maps snapshots to the bound points
lazily, one gather of both components per column of the map into two
snapshot slots, and blends the two slots in time with
`boundary.lerp_in_time`.
"""

from __future__ import annotations

import itertools

import numpy as np

from .boundary import arclength_weights, boundary_arclengths, lerp_in_time
from .errors import ConfigError
from .grid import Grid2D, stored_nodes


def _evaluator(provider, points):
    """``points`` if it is an evaluator (callable), else ``provider.bind(points)``."""
    return points if callable(points) else provider.bind(points)


class _MotionAtPoints:
    """phi(t, points) as a function of t. It writes no buffer, so it is
    its own twin."""

    def __init__(self, phi, points: np.ndarray):
        self.phi = phi
        self.points = points

    def __call__(self, t: float) -> np.ndarray:
        return self.phi(t, self.points)

    def twin(self) -> "_MotionAtPoints":
        return self


class AnalyticDeformation:
    """Exact motion: Phi_t(x) = phi(t, x)."""

    def __init__(self, motion):
        self.motion = motion

    def bind(self, points: np.ndarray) -> _MotionAtPoints:
        """t -> phi(t, points)."""
        return _MotionAtPoints(self.motion.phi, points)

    def eval(self, t: float, points) -> np.ndarray:
        """phi(t, x) at ``points``, an array (..., 2) or an evaluator from ``bind``."""
        return _evaluator(self, points)(t)


class _SnapshotsAtPoints:
    """The snapshot displacements at one bound point set, as a sequence
    for `lerp_in_time`: snapshot k at point p is
    sum_j wts[j, p] * u_k[rows[j, p]], computed into one of two slots on
    first access. u_k, the rows of snapshot k, is read by ``source.read``
    into this object's own buffer and gathered through its complex view,
    so one take reads both components of a row; ``wts`` (W, P, 2) holds
    each weight once per component, so a column multiplies the gathered
    (P, 2) values elementwise. The slots hold the two snapshots most
    recently read, which are the ones bracketing the last requested time.
    """

    def __init__(self, source, rows: np.ndarray, wts: np.ndarray, n_stored: int):
        self.source = source
        self.rows = rows
        self.wts = wts
        self.snapshot = np.empty((n_stored, 2))
        self.gather = np.empty((rows.shape[1], 2))
        self.slots = [np.empty((rows.shape[1], 2)) for _ in range(2)]
        self.held = [-1, -1]  # the snapshot in each slot, the most recently read last

    def __getitem__(self, k: int) -> np.ndarray:
        if k != self.held[1]:
            self.held.reverse()
            self.slots.reverse()
            if k != self.held[1]:
                self.held[1] = k
                slot, gather = self.slots[1], self.gather
                values = self.source.read(k, self.snapshot).view(complex)[:, 0]
                # mode="clip" writes straight into out; "raise" buffers it
                np.take(values, self.rows[0], out=slot.view(complex)[:, 0], mode="clip")
                slot *= self.wts[0]
                for r, w in zip(self.rows[1:], self.wts[1:]):
                    np.take(values, r, out=gather.view(complex)[:, 0], mode="clip")
                    slot += np.multiply(gather, w, out=gather)
        return self.slots[1]


class _FieldAtPoints:
    """x + u(t, x) at one bound point set, as a function of t, with u
    blended by `boundary.lerp_in_time` (clamped to the first and last
    snapshot). A call returns the evaluator's own buffer, overwritten by
    the next call.
    """

    def __init__(self, times: np.ndarray, points: np.ndarray, snapshots: _SnapshotsAtPoints):
        self.times = times
        self.shape = points.shape
        self.points = points.reshape(-1, 2)
        self.snapshots = snapshots
        self.out = np.empty(self.points.shape)
        self.scratch = np.empty(self.points.shape)

    def __call__(self, t: float) -> np.ndarray:
        u = lerp_in_time(self.times, self.snapshots, t, out=self.out, scratch=self.scratch)
        return np.add(self.points, u, out=self.out).reshape(self.shape)

    def twin(self) -> "_FieldAtPoints":
        """An evaluator at the same points sharing the point map and the
        source, with a snapshot buffer, slots and buffers of its own."""
        s = self.snapshots
        return _FieldAtPoints(self.times, self.points.reshape(self.shape), _SnapshotsAtPoints(s.source, s.rows, s.wts, len(s.snapshot)))


class NodeMap:
    """Where a field on ``grid``, one row per stored node
    (`grid.stored_nodes`), is read at each lattice node. Lattice node n
    reads rows ``src[n]`` with weights ``wts[n]``: its own row with weights
    (1, 0) inside the domain and on its boundary; outside it (the nodes
    with no stored row) the rows of the two boundary nodes around its
    closest boundary point, interpolated in arc length: the clamped
    continuous extension.
    """

    def __init__(self, grid: Grid2D):
        s_b = boundary_arclengths(grid)  # requires an elliptic solver domain
        kind = grid.kind.ravel()
        self.grid = grid
        stored = stored_nodes(kind)
        # the row of each stored node (outside nodes are set below)
        self.src = np.repeat(np.searchsorted(stored, np.arange(kind.size))[:, None], 2, axis=1)
        self.wts = np.repeat([[1.0, 0.0]], kind.size, axis=0)
        outside = np.flatnonzero(np.bincount(stored, minlength=kind.size) == 0)  # no stored row
        if len(outside):
            # outside nodes keep their nominal lattice positions
            domain = grid.domain
            closest = domain.closest_boundary_points(grid.pos.reshape(-1, 2)[outside])
            s_out = domain.arclength_of_angle(domain.param_angle(closest))
            lo, hi, w = arclength_weights(s_b, s_out, domain.perimeter())
            b_row = np.searchsorted(stored, grid.boundary_ij[:, 0] * grid.ny + grid.boundary_ij[:, 1])
            self.src[outside] = np.stack([b_row[lo], b_row[hi]], axis=1)
            self.wts[outside] = np.stack([1.0 - w, w], axis=1)


class FieldDeformation:
    """Deformation backed by a solved displacement history with ``grid``,
    ``times`` and ``read(k, out)``: a `DisplacementHistory`, or a
    `formats.FieldFile` kept open while the evaluators are called. Nodes
    outside the solver domain (exterior and ghost) take the boundary
    displacement at their closest boundary point through ``node_map``,
    which must be built for ``history.grid`` (built here when omitted).
    ``bind`` maps the node map to a point set; its evaluator reads each
    snapshot and maps it to the points when a call first needs it.
    """

    def __init__(self, history, node_map: NodeMap | None = None):
        self.grid = history.grid
        self.times = np.asarray(history.times, dtype=float)
        if np.any(np.diff(self.times) <= 0):
            raise ConfigError("snapshot times must be strictly ascending")
        self.node_map = NodeMap(self.grid) if node_map is None else node_map
        if self.node_map.grid is not self.grid:
            raise ConfigError("the node map was built for another grid")
        self.source = history

    def bind(self, points: np.ndarray) -> _FieldAtPoints:
        """t -> x + u(t, x) at ``points`` (..., 2), t clamped to the snapshot
        range. The point map: each point's stored rows (W, P) and weights
        (W, P, 2, one per component), from the four bilinear cell corners,
        clamped at the lattice edges, each read through the node map. A row
        reached twice has its weights summed and a zero weight is dropped,
        so a NaN in a row that a point reads only with weight 0 does not
        reach it. W is the widest point's count (at most 2 where the points
        are lattice nodes); a shorter point repeats its first row with weight
        0. The evaluator reads ``points`` when called: bind again after
        changing them."""
        points = np.asarray(points, dtype=float)
        xc, yc = self.grid.x_coords, self.grid.y_coords
        pts = points.reshape(-1, 2)
        px, py = pts[:, 0], pts[:, 1]
        ix = np.clip(np.searchsorted(xc, px, side="right") - 1, 0, len(xc) - 2)
        iy = np.clip(np.searchsorted(yc, py, side="right") - 1, 0, len(yc) - 2)
        fx = np.clip((px - xc[ix]) / (xc[ix + 1] - xc[ix]), 0.0, 1.0)
        fy = np.clip((py - yc[iy]) / (yc[iy + 1] - yc[iy]), 0.0, 1.0)
        node = ix * self.grid.ny + iy
        src, src_wts = self.node_map.src, self.node_map.wts
        rows, wts = [np.full(len(pts), -1)], [np.zeros(len(pts))]  # columns; row -1: an unused entry
        for (cx, wx), (cy, wy) in itertools.product([(0, 1 - fx), (self.grid.ny, fx)], [(0, 1 - fy), (1, fy)]):
            corner = node + cx + cy
            for r, w in zip(src[corner].T, wx * wy * src_wts[corner].T):
                new = w != 0
                for col_r, col_w in zip(rows, wts):
                    hit = new & ((col_r == r) | (col_r < 0))  # the row's entry or the point's first free one
                    np.add(col_w, w, out=col_w, where=hit)
                    np.copyto(col_r, r, where=hit)
                    new ^= hit
                if new.any():
                    rows.append(np.where(new, r, -1))
                    wts.append(np.where(new, w, 0.0))
        for col_r in rows[1:]:
            np.copyto(col_r, rows[0], where=col_r < 0)
        rows = np.array(rows)
        wts = np.repeat(np.array(wts)[..., None], 2, axis=2)
        return _FieldAtPoints(self.times, points, _SnapshotsAtPoints(self.source, rows, wts, len(stored_nodes(self.grid.kind))))

    def eval(self, t: float, points) -> np.ndarray:
        """x + u(t, x) at ``points``; t clamped to the snapshot range.

        An array (..., 2) of points is bound afresh, a new point map, on
        every call; over many times, bind once and pass the evaluator.
        """
        return _evaluator(self, points)(t)
