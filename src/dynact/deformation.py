"""Deformation providers: one interface for "where is particle x at time t".

The reconstructor only needs Phi_t evaluated at pixel positions. The
analytic provider wraps an affine motion directly; the field provider
interpolates a solved displacement history (bilinear in space on the
nominal lattice, linear in time between snapshots) and extends it
outside the solver domain by the value at the closest boundary point,
interpolated in arc length between boundary nodes exactly as sparse
boundary data is (`boundary.arclength_weights`), so it is total and
continuous on the whole image extent.

Both providers have ``bind(points)``, which returns an evaluator: Phi_t
at that point set as a function of t, for use on one thread. An
evaluator returns the moved points as a linear form ``(g, basis)``,
with g (J, 2), basis (J, P) over the P points and
``moved[:, c] = sum_j g[j, c] * basis[j]``, so a caller that needs a
projection of the moved points (``reconstruct.backproject``) contracts
the basis once with ``g @ theta``. ``eval(t, evaluator)``, the one call
form, returns ``evaluator(t)``. The reconstructor binds once per block
of views, on the calling thread, so every buffer an evaluator writes is
allocated there and written by one block only.

The analytic evaluator's basis is the fixed [x; y; 1] and its g is
[A(t)^T; b(t)] for phi(t, x) = A(t) x + b(t).

The field provider reads a history's snapshots, (n_stored, 2) rows of
the interior and boundary nodes as the solver and the field artifact
hold them, one at a time from a `DisplacementHistory` or an open
`formats.FieldFile`; on a file it holds no whole history. A `NodeMap`,
which depends only on the grid and so serves every field on it, gives
every lattice node two stored source nodes and two weights: itself with
weights (1, 0) inside the domain and on its boundary, the two arc-length
neighbours of its closest boundary point outside. ``NodeMap.at`` folds
the bilinear cell weights of a point set through the node map and
merges each point's repeated rows, so a point reads only the rows it
weighs (of 8 before the merge): 1 or 2 where the points are lattice
nodes, up to 4 elsewhere on the grids and rasters measured. The node
map keeps the last point set's map, so every field on the grid, and
every evaluator bound to the same points, shares one map of a pixel
raster. A field evaluator maps a snapshot k to the bound points when a
call first needs it, one component at a time and one gather per column
of the map, weighted by the map's one weight per entry, and keeps
x + u_k of the two snapshots it read last as the four rows of its basis;
g blends them in time by `boundary.time_bracket`.
"""

from __future__ import annotations

import itertools

import numpy as np

from .boundary import arclength_weights, boundary_arclengths, time_bracket
from .errors import ConfigError
from .grid import Grid2D, stored_nodes


class _MotionAtPoints:
    """phi(t, points) = A(t) x + b(t) as the linear form ([A(t)^T; b(t)],
    [x; y; 1]) over the points. Its basis is read-only and it writes no
    buffer."""

    def __init__(self, motion, points: np.ndarray):
        self.motion = motion
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        self.basis = np.ones((3, len(pts)))
        self.basis[:2] = pts.T
        self.basis.flags.writeable = False

    def __call__(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        return np.vstack([self.motion.matrix(t).T, self.motion.shift(t)]), self.basis


class AnalyticDeformation:
    """Exact motion: Phi_t(x) = phi(t, x) = A(t) x + b(t), for an affine
    ``motion`` with ``matrix(t)`` and ``shift(t)``."""

    def __init__(self, motion):
        self.motion = motion

    def bind(self, points: np.ndarray) -> _MotionAtPoints:
        """t -> the linear form of phi(t, points)."""
        return _MotionAtPoints(self.motion, points)

    def eval(self, t: float, evaluator: _MotionAtPoints) -> tuple[np.ndarray, np.ndarray]:
        """``evaluator(t)``, for an evaluator from ``bind``; see
        `FieldDeformation.eval`."""
        return evaluator(t)


# g of basis rows 2 s and 2 s + 1 (slot s) taken whole: a call blends
# two of these into the g of its time
_SLOT_FORMS = np.zeros((2, 4, 2))
_SLOT_FORMS[0, [0, 1], [0, 1]] = 1.0
_SLOT_FORMS[1, [2, 3], [0, 1]] = 1.0
_SLOT_FORMS.flags.writeable = False


class _FieldAtPoints:
    """x + u(t, x) at one bound point set as a linear form over the four
    rows of ``basis``: x + u_k of the two snapshots held (slot s in rows 2 s
    and 2 s + 1), with g blending the two that `boundary.time_bracket` names
    for t (clamped to the first and last snapshot). Snapshot k at point p is
    u_k(p) = sum_j wts[j, p] * u_k[rows[j, p]]: u_k, the rows of snapshot k,
    is read by ``source.read`` into this object's own ``snapshot`` buffer
    and copied one component to a row into ``components`` (2, n_stored).
    Each component is then mapped a column of the map at a time: a take
    into ``gather`` (P,), multiplied in place by the column's weights
    ``wts[j]`` (W, P) and added into the component's basis row. The slots
    hold the two snapshots most recently read, which are the ones
    bracketing the last requested time. A call returns the evaluator's own
    basis, overwritten when a later call maps another snapshot.
    """

    def __init__(self, times: np.ndarray, source, xy: np.ndarray, rows: np.ndarray, wts: np.ndarray, n_stored: int):
        self.times = times
        self.source = source
        self.xy = xy
        self.rows = rows
        self.wts = wts
        self.snapshot = np.empty((n_stored, 2))
        self.components = np.empty((2, n_stored))
        self.gather = np.empty(rows.shape[1])
        self.basis = np.zeros((4, rows.shape[1]))
        self.held = [-1, -1]  # the snapshot in each slot
        self.older = 0  # the slot read less recently, which the next new snapshot takes

    def _slot(self, k: int) -> int:
        """The slot of snapshot k, mapped into one if it is in neither."""
        if k in self.held:
            s = self.held.index(k)
        else:
            s = self.older
            self.held[s] = k
            dst, gather = self.basis[2 * s : 2 * s + 2], self.gather
            np.copyto(self.components, self.source.read(k, self.snapshot).T)
            dst[...] = 0.0
            for values, row in zip(self.components, dst):
                for r, w in zip(self.rows, self.wts):
                    # mode="clip" writes straight into out; "raise" buffers it
                    np.take(values, r, out=gather, mode="clip")
                    row += np.multiply(gather, w, out=gather)
            dst += self.xy  # after u_k is summed, as the whole-lattice formula adds it
        self.older = 1 - s
        return s

    def __call__(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        k0, k1, w = time_bracket(self.times, t)
        return (1.0 - w) * _SLOT_FORMS[self._slot(k0)] + w * _SLOT_FORMS[self._slot(k1)], self.basis


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
        self.last = None  # the point map of the last point set, see ``at``

    def at(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The point map of ``points`` (..., 2), read-only: their coordinates
        as rows xy (2, P), and each point's stored rows (W, P) and weights
        (W, P, one per entry for both components), from the four bilinear
        cell corners, clamped at the lattice edges, each read through this
        map. A row reached twice has its weights summed and a zero weight is
        dropped, so a NaN in a row that a point reads only with weight 0
        does not reach it. W is the widest point's count (at most 2 where
        the points are lattice nodes); a shorter point repeats its first row
        with weight 0. The map of the last point set is kept and returned
        again for equal points, so the fields on this grid map a pixel
        raster once."""
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        if self.last is not None and np.array_equal(self.last[0], pts.T):
            return self.last
        xc, yc = self.grid.x_coords, self.grid.y_coords
        px, py = pts[:, 0], pts[:, 1]
        ix = np.clip(np.searchsorted(xc, px, side="right") - 1, 0, len(xc) - 2)
        iy = np.clip(np.searchsorted(yc, py, side="right") - 1, 0, len(yc) - 2)
        fx = np.clip((px - xc[ix]) / (xc[ix + 1] - xc[ix]), 0.0, 1.0)
        fy = np.clip((py - yc[iy]) / (yc[iy + 1] - yc[iy]), 0.0, 1.0)
        node = ix * self.grid.ny + iy
        rows, wts = [np.full(len(pts), -1)], [np.zeros(len(pts))]  # columns; row -1: an unused entry
        for (cx, wx), (cy, wy) in itertools.product([(0, 1 - fx), (self.grid.ny, fx)], [(0, 1 - fy), (1, fy)]):
            corner = node + cx + cy
            for r, w in zip(self.src[corner].T, wx * wy * self.wts[corner].T):
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
        self.last = (np.ascontiguousarray(pts.T), np.array(rows), np.array(wts))
        for a in self.last:
            a.flags.writeable = False
        return self.last


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
        """t -> the linear form of x + u(t, x) at ``points`` (..., 2), t
        clamped to the snapshot range, through the point map
        ``node_map.at(points)``. The evaluator keeps that map: bind again
        after changing the points."""
        xy, rows, wts = self.node_map.at(points)
        return _FieldAtPoints(self.times, self.source, xy, rows, wts, len(stored_nodes(self.grid.kind)))

    def eval(self, t: float, evaluator: _FieldAtPoints) -> tuple[np.ndarray, np.ndarray]:
        """``evaluator(t)``, for an evaluator from ``bind``. It exists so that
        ``reconstruct.backproject`` routes every view through the provider,
        where a wrapper of it (perfbench/tracing.py's, which times each
        call) sees the view; other callers call the evaluator."""
        return evaluator(t)
