"""The rectangular solver domain, used by the solver tests.

A domain supplies the grid classifier's predicates: a strict inside
test, boundary crossings along grid segments and an exact on-boundary
test. The pipeline's curved domain is the body ``phantom.Ellipse``.
"""

from __future__ import annotations

import numpy as np

from .errors import GridError


class RectangleDomain:
    """Axis-aligned rectangle (x0, x1) x (y0, y1)."""

    def __init__(self, x0: float, x1: float, y0: float, y1: float):
        if not (x1 > x0 and y1 > y0):
            raise GridError("degenerate rectangle domain")
        self.x0, self.x1, self.y0, self.y1 = float(x0), float(x1), float(y0), float(y1)

    def inside(self, points: np.ndarray) -> np.ndarray:
        p = np.asarray(points, dtype=float)
        return (
            (p[..., 0] > self.x0)
            & (p[..., 0] < self.x1)
            & (p[..., 1] > self.y0)
            & (p[..., 1] < self.y1)
        )

    def on_boundary(self, points: np.ndarray, tol: float = 1e-9) -> np.ndarray:
        p = np.asarray(points, dtype=float)
        x, y = p[..., 0], p[..., 1]
        in_x = (x >= self.x0 - tol) & (x <= self.x1 + tol)
        in_y = (y >= self.y0 - tol) & (y <= self.y1 + tol)
        edge_x = (np.abs(x - self.x0) <= tol) | (np.abs(x - self.x1) <= tol)
        edge_y = (np.abs(y - self.y0) <= tol) | (np.abs(y - self.y1) <= tol)
        return in_x & in_y & (edge_x | edge_y)

    def crossing_on_segment(self, p_in: np.ndarray, p_out: np.ndarray) -> np.ndarray:
        p_in = np.asarray(p_in, dtype=float)
        p_out = np.asarray(p_out, dtype=float)
        d = p_out - p_in
        tau = np.ones(p_in.shape[:-1])
        for k, (lo, hi) in enumerate([(self.x0, self.x1), (self.y0, self.y1)]):
            for bound in (lo, hi):
                dk = d[..., k]
                with np.errstate(divide="ignore", invalid="ignore"):
                    t = np.where(dk != 0.0, (bound - p_in[..., k]) / dk, np.inf)
                valid = (t > 0.0) & (t <= 1.0 + 1e-12)
                tau = np.where(valid & (t < tau), t, tau)
        return p_in + tau[..., None] * d
