"""Deformation providers: one interface for "where is particle x at time t".

The reconstructor only needs Phi_t evaluated at pixel positions. The
analytic provider wraps a motion model directly; the field provider
interpolates a solved displacement history (bilinear in space on the
nominal lattice, linear in time between snapshots) and extends it
outside the solver domain by the value at the closest boundary point,
interpolated in arc length between boundary nodes exactly as sparse
boundary data is (`boundary.arclength_weights`), so it is total and
continuous on the whole image extent.

The field provider does that work in three parts. A node map, built
once, gives every lattice node two source nodes and two weights: itself
with weights (1, 0) inside the domain and on its boundary, the two
arc-length neighbours of its closest boundary point outside. Binding to
a point set folds the bilinear cell weights through the node map, so
each point reads 8 snapshot values. Snapshots are mapped to the bound
points lazily, one gather each, and blended in time per call.
"""

from __future__ import annotations

import numpy as np

from .boundary import arclength_weights, boundary_arclengths, lerp_in_time
from .elastic import DisplacementHistory
from .errors import ConfigError
from .grid import NodeKind


class AnalyticDeformation:
    """Exact motion: eval(t, x) = phi(t, x)."""

    def __init__(self, motion):
        self.motion = motion

    def eval(self, t: float, points: np.ndarray) -> np.ndarray:
        return self.motion.phi(t, points)


class _SnapshotsAtPoints:
    """The snapshot displacements at one bound point set, as a sequence
    for `lerp_in_time`: component c of snapshot k at point p is
    sum_j wts[p, j] * field_k.ravel()[idx[c, p, j]], computed on first
    access. Only the two most recently used are kept, which are the
    snapshots bracketing the last requested time."""

    def __init__(self, fields: np.ndarray, idx: np.ndarray, wts: np.ndarray):
        self.fields = fields
        self.idx = idx
        self.wts = wts
        self._cache: dict[int, np.ndarray] = {}

    def __getitem__(self, k: int) -> np.ndarray:
        k = range(len(self.fields))[k]
        u = self._cache.pop(k, None)
        if u is None:
            # one flat take per snapshot: far cheaper than a (P, 8) row gather
            u = np.einsum("pj,cpj->pc", self.wts, self.fields[k].reshape(-1).take(self.idx))
        self._cache[k] = u
        if len(self._cache) > 2:
            del self._cache[next(iter(self._cache))]
        return u


class FieldDeformation:
    """Deformation backed by a solved displacement history.

    Nodes outside the solver domain (exterior and ghost) take the
    boundary displacement at their closest boundary point, interpolated
    in arc length between boundary nodes: the clamped continuous
    extension. It is kept as a node map (two source nodes and two
    weights per lattice node) and applied only where points read it.
    ``eval`` binds to its point set on the first call and whenever the
    points change; each snapshot is then mapped to the points once,
    when a call first needs it.
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
        self._points: np.ndarray | None = None
        self._snapshots: _SnapshotsAtPoints | None = None

    def _bind(self, points: np.ndarray) -> None:
        """Per-point source weights (P, 8) and flat field indices (2, P, 8)
        by component: the four bilinear cell corners, clamped at the
        lattice edges, each read through the node map."""
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
        src = self.src[corners].reshape(len(pts), 8)
        idx = 2 * src + np.arange(2)[:, None, None]
        wts = (corner_wts[:, :, None] * self.src_wts[corners]).reshape(len(pts), 8)
        self._points = points.copy()
        self._snapshots = _SnapshotsAtPoints(self.fields, idx, wts)

    def eval(self, t: float, points: np.ndarray) -> np.ndarray:
        """x + u(t, x); t clamped to the snapshot range."""
        points = np.asarray(points, dtype=float)
        if self._snapshots is None or not np.array_equal(points, self._points):
            self._bind(points)
        return points + lerp_in_time(self.times, self._snapshots, t).reshape(points.shape)
