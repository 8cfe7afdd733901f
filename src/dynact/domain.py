"""Curved and rectangular solver domains.

A domain supplies the geometric predicates the grid classifier needs:
an inside test, boundary crossings along grid segments, an exact
on-boundary test, and closest-point projection for the clamped
extension of displacement fields.
"""

from __future__ import annotations

import numpy as np

from .errors import GridError
from .phantom import Ellipse


class EllipseDomain:
    """Elliptic domain, possibly rotated."""

    def __init__(self, center, semi_axes, rotation: float = 0.0):
        a, b = semi_axes
        if not (a > 0 and b > 0):
            raise GridError("domain semi-axes must be positive")
        self.center = np.asarray(center, dtype=float)
        self.semi_axes = (float(a), float(b))
        self.rotation = float(rotation)
        c, s = np.cos(self.rotation), np.sin(self.rotation)
        self._rot = np.array([[c, s], [-s, c]])  # world -> ellipse frame

    @classmethod
    def from_ellipse(cls, e: Ellipse) -> "EllipseDomain":
        return cls(e.center, e.semi_axes, e.rotation)

    def _to_frame(self, points: np.ndarray) -> np.ndarray:
        d = np.asarray(points, dtype=float) - self.center
        return d @ self._rot.T

    def _from_frame(self, pts: np.ndarray) -> np.ndarray:
        return pts @ self._rot + self.center

    def quadratic_form(self, points: np.ndarray) -> np.ndarray:
        w = self._to_frame(points)
        a, b = self.semi_axes
        return (w[..., 0] / a) ** 2 + (w[..., 1] / b) ** 2

    def inside(self, points: np.ndarray) -> np.ndarray:
        """Strict interior test."""
        return self.quadratic_form(points) < 1.0

    def on_boundary(self, points: np.ndarray, tol: float = 1e-9) -> np.ndarray:
        return np.abs(self.quadratic_form(points) - 1.0) <= tol

    def crossing_on_segment(self, p_in: np.ndarray, p_out: np.ndarray) -> np.ndarray:
        """Boundary point on each segment from an inside to an outside point.

        Vectorized over leading dimensions; exact quadratic solve in the
        ellipse frame.
        """
        p_in = np.asarray(p_in, dtype=float)
        p_out = np.asarray(p_out, dtype=float)
        a, b = self.semi_axes
        w0 = self._to_frame(p_in) / (a, b)
        w1 = self._to_frame(p_out) / (a, b)
        wd = w1 - w0
        alpha = np.sum(wd * wd, axis=-1)
        beta = 2.0 * np.sum(w0 * wd, axis=-1)
        gamma = np.sum(w0 * w0, axis=-1) - 1.0
        disc = beta * beta - 4.0 * alpha * gamma
        tau = (-beta + np.sqrt(np.maximum(disc, 0.0))) / (2.0 * alpha)
        return p_in + tau[..., None] * (p_out - p_in)

    def param_angle(self, points: np.ndarray) -> np.ndarray:
        """Parametric angle phi with boundary point (a cos phi, b sin phi) in frame."""
        w = self._to_frame(points)
        a, b = self.semi_axes
        return np.mod(np.arctan2(w[..., 1] / b, w[..., 0] / a), 2.0 * np.pi)

    def boundary_point(self, phi: np.ndarray) -> np.ndarray:
        a, b = self.semi_axes
        phi = np.asarray(phi, dtype=float)
        return self._from_frame(np.stack([a * np.cos(phi), b * np.sin(phi)], axis=-1))

    def arclength_of_angle(self, phi: np.ndarray, n_table: int = 4096) -> np.ndarray:
        """Cumulative boundary arc-length at parametric angle phi (from phi=0)."""
        a, b = self.semi_axes
        tt = np.linspace(0.0, 2.0 * np.pi, n_table + 1)
        speed = np.hypot(a * np.sin(tt), b * np.cos(tt))
        cum = np.concatenate([[0.0], np.cumsum((speed[1:] + speed[:-1]) * 0.5 * np.diff(tt))])
        return np.interp(np.mod(np.asarray(phi, dtype=float), 2.0 * np.pi), tt, cum)

    def perimeter(self) -> float:
        return float(self.arclength_of_angle(np.array(2.0 * np.pi - 1e-15)) )

    def closest_boundary_points(self, points: np.ndarray) -> np.ndarray:
        """Closest point on the ellipse boundary for each query point.

        Bisection on the stationarity condition of the squared distance in
        the folded first quadrant; robust for any query location.
        """
        pts = np.asarray(points, dtype=float)
        w = self._to_frame(pts.reshape(-1, 2))
        a, b = self.semi_axes
        u = np.abs(w[:, 0])
        v = np.abs(w[:, 1])
        # E'(phi)/2 = (b^2-a^2) sin cos + u a sin - v b cos; sign change on [0, pi/2]
        lo = np.zeros(len(u))
        hi = np.full(len(u), 0.5 * np.pi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            sn, cs = np.sin(mid), np.cos(mid)
            g = (b * b - a * a) * sn * cs + u * a * sn - v * b * cs
            neg = g < 0.0
            lo = np.where(neg, mid, lo)
            hi = np.where(neg, hi, mid)
        phi = 0.5 * (lo + hi)
        cx = a * np.cos(phi) * np.sign(np.where(w[:, 0] == 0.0, 1.0, w[:, 0]))
        cy = b * np.sin(phi) * np.sign(np.where(w[:, 1] == 0.0, 1.0, w[:, 1]))
        out = self._from_frame(np.stack([cx, cy], axis=-1))
        return out.reshape(pts.shape)


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
