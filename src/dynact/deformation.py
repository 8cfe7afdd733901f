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

The field provider does its work in three parts. A node map, built
once, gives every lattice node two source nodes and two weights: itself
with weights (1, 0) inside the domain and on its boundary, the two
arc-length neighbours of its closest boundary point outside. Binding to
a point set folds the bilinear cell weights through the node map, so
each point reads 8 snapshot values; twins share that point map. An
evaluator maps snapshots to the bound points lazily, one gather per
component into two snapshot slots, and blends the two slots in time
with `boundary.lerp_in_time`.
"""

from __future__ import annotations

import numpy as np

from .boundary import arclength_weights, boundary_arclengths, lerp_in_time
from .elastic import DisplacementHistory
from .errors import ConfigError
from .grid import NodeKind


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
    for `lerp_in_time`: component c of snapshot k at point p is
    sum_j wts[p, j] * fields[k].ravel()[idx[p, j] + c], computed into one
    of two slots on first access. The slots hold the two snapshots most
    recently read, which are the ones bracketing the last requested time.
    """

    def __init__(self, fields: np.ndarray, idx: np.ndarray, wts: np.ndarray):
        self.fields = fields
        self.idx = idx
        self.wts = wts
        self.gather = np.empty(idx.shape)
        self.slots = [np.empty((len(idx), 2)) for _ in range(2)]
        self.held = [-1, -1]  # the snapshot in each slot, the most recently read last

    def __getitem__(self, k: int) -> np.ndarray:
        if k != self.held[1]:
            self.held.reverse()
            self.slots.reverse()
            if k != self.held[1]:
                self.held[1] = k
                flat = self.fields[k].reshape(-1)
                for c in range(2):
                    # one flat take per component: far cheaper than a row gather
                    np.take(flat[c:], self.idx, out=self.gather, mode="clip")
                    np.einsum("pj,pj->p", self.wts, self.gather, out=self.slots[1][:, c])
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
        """An evaluator at the same points sharing the point map, with
        snapshot slots and buffers of its own."""
        s = self.snapshots
        return _FieldAtPoints(self.times, self.points.reshape(self.shape), _SnapshotsAtPoints(s.fields, s.idx, s.wts))


class FieldDeformation:
    """Deformation backed by a solved displacement history.

    Nodes outside the solver domain (exterior and ghost) take the
    boundary displacement at their closest boundary point, interpolated
    in arc length between boundary nodes: the clamped continuous
    extension. It is kept as a node map (two source nodes and two
    weights per lattice node) and applied only where points read it.
    ``bind`` maps the node map to a point set; its evaluator maps each
    snapshot to the points when a call first needs it.
    """

    def __init__(self, history: DisplacementHistory):
        grid = history.grid
        s_b = boundary_arclengths(grid)  # requires an elliptic solver domain
        self.grid = grid
        self.times = np.asarray(history.times, dtype=float)
        if np.any(np.diff(self.times) <= 0):
            raise ConfigError("snapshot times must be strictly ascending")
        self.fields = np.asarray(history.fields, dtype=float)

        nodes = grid.nx * grid.ny
        self.src = np.repeat(np.arange(nodes)[:, None], 2, axis=1)
        self.src_wts = np.zeros((nodes, 2))
        self.src_wts[:, 0] = 1.0
        kind = grid.kind.ravel()
        outside = np.nonzero((kind == int(NodeKind.EXTERIOR)) | (kind == int(NodeKind.GHOST)))[0]
        if len(outside):
            # outside nodes keep their nominal lattice positions
            domain = grid.domain
            closest = domain.closest_boundary_points(grid.pos.reshape(-1, 2)[outside])
            s_out = domain.arclength_of_angle(domain.param_angle(closest))
            lo, hi, w = arclength_weights(s_b, s_out, domain.perimeter())
            b_flat = grid.boundary_ij[:, 0] * grid.ny + grid.boundary_ij[:, 1]
            self.src[outside] = np.stack([b_flat[lo], b_flat[hi]], axis=1)
            self.src_wts[outside] = np.stack([1.0 - w, w], axis=1)

    def bind(self, points: np.ndarray) -> _FieldAtPoints:
        """t -> x + u(t, x) at ``points`` (..., 2), t clamped to the snapshot
        range. Per-point source weights and flat field indices of the
        first component, (P, 8): the four bilinear cell corners, clamped at
        the lattice edges, each read through the node map. The evaluator
        reads ``points`` when called: bind again after changing them."""
        points = np.asarray(points, dtype=float)
        xc, yc = self.grid.x_coords, self.grid.y_coords
        pts = points.reshape(-1, 2)
        px, py = pts[:, 0], pts[:, 1]
        ix = np.clip(np.searchsorted(xc, px, side="right") - 1, 0, len(xc) - 2)
        iy = np.clip(np.searchsorted(yc, py, side="right") - 1, 0, len(yc) - 2)
        fx = np.clip((px - xc[ix]) / (xc[ix + 1] - xc[ix]), 0.0, 1.0)
        fy = np.clip((py - yc[iy]) / (yc[iy + 1] - yc[iy]), 0.0, 1.0)
        node = ix * self.grid.ny + iy
        corners = np.stack([node, node + 1, node + self.grid.ny, node + self.grid.ny + 1], axis=1)
        corner_wts = np.stack([(1 - fx) * (1 - fy), (1 - fx) * fy, fx * (1 - fy), fx * fy], axis=1)
        idx = 2 * self.src[corners].reshape(len(pts), 8)
        wts = (corner_wts[:, :, None] * self.src_wts[corners]).reshape(len(pts), 8)
        return _FieldAtPoints(self.times, points, _SnapshotsAtPoints(self.fields, idx, wts))

    def eval(self, t: float, points) -> np.ndarray:
        """x + u(t, x) at ``points``; t clamped to the snapshot range.

        An array (..., 2) of points is bound afresh, a (P, 8) point map,
        on every call; over many times, bind once and pass the evaluator.
        """
        return _evaluator(self, points)(t)
