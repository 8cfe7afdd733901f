"""Deformation providers: one interface for "where is particle x at time t".

The reconstructor only needs Phi_t evaluated at pixel positions. The
analytic provider wraps a motion model directly; the field provider
interpolates a solved displacement history (bilinear in space on the
nominal lattice, linear in time between snapshots) and extends it
outside the solver domain by the value at the closest boundary point,
interpolated in arc length between boundary nodes exactly as sparse
boundary data is (`boundary.arclength_weights`), so it is total and
continuous on the whole image extent.
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


def _bilinear(xc: np.ndarray, yc: np.ndarray, field: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Sample (nx, ny, 2) lattice field at (..., 2) points, clamped at edges."""
    px = pts[..., 0]
    py = pts[..., 1]
    ix = np.clip(np.searchsorted(xc, px, side="right") - 1, 0, len(xc) - 2)
    iy = np.clip(np.searchsorted(yc, py, side="right") - 1, 0, len(yc) - 2)
    fx = np.clip((px - xc[ix]) / (xc[ix + 1] - xc[ix]), 0.0, 1.0)
    fy = np.clip((py - yc[iy]) / (yc[iy + 1] - yc[iy]), 0.0, 1.0)
    f00 = field[ix, iy]
    f10 = field[ix + 1, iy]
    f01 = field[ix, iy + 1]
    f11 = field[ix + 1, iy + 1]
    wx = fx[..., None]
    wy = fy[..., None]
    return (1 - wx) * ((1 - wy) * f00 + wy * f01) + wx * ((1 - wy) * f10 + wy * f11)


class FieldDeformation:
    """Deformation backed by a solved displacement history.

    Snapshot fields are first completed on the nominal lattice: nodes
    outside the solver domain take the boundary displacement at their
    closest boundary point (interpolated in arc-length between boundary
    nodes), which realizes the clamped continuous extension.
    """

    def __init__(self, history: DisplacementHistory):
        grid = history.grid
        s_b = boundary_arclengths(grid)  # requires an elliptic solver domain
        self.grid = grid
        self.times = np.asarray(history.times, dtype=float)
        if np.any(np.diff(self.times) <= 0):
            raise ConfigError("snapshot times must be strictly ascending")
        self.xc = grid.x_coords
        self.yc = grid.y_coords

        kind = grid.kind
        outside = (kind == int(NodeKind.EXTERIOR)) | (kind == int(NodeKind.GHOST))
        filled = np.array(history.fields, dtype=float)
        if outside.any():
            # outside nodes keep their nominal lattice positions
            domain = grid.domain
            closest = domain.closest_boundary_points(grid.pos[outside])
            s_out = domain.arclength_of_angle(domain.param_angle(closest))
            lo, hi, w = arclength_weights(s_b, s_out, domain.perimeter())
            w_lo, w_hi = (1.0 - w)[:, None], w[:, None]
            b_i, b_j = grid.boundary_ij.T
            for u in filled:
                ub = u[b_i, b_j]
                u[outside] = w_lo * ub[lo] + w_hi * ub[hi]
        self.fields = filled

    def displacement(self, t: float, points: np.ndarray) -> np.ndarray:
        """Interpolated displacement u(t, x); t clamped to the snapshot range."""
        # blending the small lattice arrays first halves the gather cost
        blended = lerp_in_time(self.times, self.fields, t)
        return _bilinear(self.xc, self.yc, blended, np.asarray(points, dtype=float))

    def eval(self, t: float, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=float) + self.displacement(t, points)
