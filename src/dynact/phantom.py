"""Analytic piecewise-constant phantoms built from additive ellipses.

The body ``Ellipse`` is also the curved solver domain: it supplies the
grid classifier's predicates and the closest-point projection and arc
length that extend displacement fields beyond it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class Ellipse:
    """One ellipse component of a phantom.

    Parameters
    ----------
    center
        Center position in domain units.
    semi_axes
        Semi-axis lengths (a, b), both > 0.
    rotation
        Rotation angle of the a-axis against the x-axis, radians.
    density
        Additive attenuation value; overlapping ellipses add up.
    label
        Optional region name used for per-region metrics and the
        density prior ("body", "spine", "tumour", ...).
    """

    center: tuple[float, float]
    semi_axes: tuple[float, float]
    rotation: float = 0.0
    density: float = 1.0
    label: str = ""

    def __post_init__(self):
        a, b = self.semi_axes
        if not (a > 0 and b > 0):
            raise ConfigError(f"ellipse semi_axes must be positive, got {self.semi_axes}")
        if not np.isfinite(self.density):
            raise ConfigError("ellipse density must be finite")

    def _to_frame(self, points: np.ndarray) -> np.ndarray:
        """World points in the ellipse frame (a-axis along x'), shape (..., 2)."""
        pts = np.asarray(points, dtype=float)
        dx = pts[..., 0] - self.center[0]
        dy = pts[..., 1] - self.center[1]
        c, s = np.cos(self.rotation), np.sin(self.rotation)
        return np.stack([dx * c + dy * s, -dx * s + dy * c], axis=-1)

    def _from_frame(self, w: np.ndarray) -> np.ndarray:
        x, y = w[..., 0], w[..., 1]
        c, s = np.cos(self.rotation), np.sin(self.rotation)
        return np.stack([self.center[0] + x * c - y * s, self.center[1] + x * s + y * c], axis=-1)

    def quadratic_form(self, points: np.ndarray) -> np.ndarray:
        """Evaluate ((x'/a)^2 + (y'/b)^2) in the ellipse frame; <= 1 is inside."""
        w = self._to_frame(points)
        a, b = self.semi_axes
        return (w[..., 0] / a) ** 2 + (w[..., 1] / b) ** 2

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Closed membership test (boundary counts as inside): phantom membership."""
        return self.quadratic_form(points) <= 1.0

    def inside(self, points: np.ndarray) -> np.ndarray:
        """Strict interior test: the solver grid's interior."""
        return self.quadratic_form(points) < 1.0

    def on_boundary(self, points: np.ndarray, tol: float = 1e-9) -> np.ndarray:
        return np.abs(self.quadratic_form(points) - 1.0) <= tol

    def boundary_points(self, n: int = 64) -> np.ndarray:
        """n points on the ellipse boundary, shape (n, 2)."""
        t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        a, b = self.semi_axes
        return self._from_frame(np.stack([a * np.cos(t), b * np.sin(t)], axis=-1))

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

    def arclength_of_angle(self, phi: np.ndarray, n_table: int = 4096) -> np.ndarray:
        """Cumulative boundary arc-length at parametric angle phi (from phi=0)."""
        a, b = self.semi_axes
        tt = np.linspace(0.0, 2.0 * np.pi, n_table + 1)
        speed = np.hypot(a * np.sin(tt), b * np.cos(tt))
        cum = np.concatenate([[0.0], np.cumsum((speed[1:] + speed[:-1]) * 0.5 * np.diff(tt))])
        return np.interp(np.mod(np.asarray(phi, dtype=float), 2.0 * np.pi), tt, cum)

    def perimeter(self) -> float:
        return float(self.arclength_of_angle(np.array(2.0 * np.pi - 1e-15)))

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


@dataclass
class PhantomSpec:
    """A phantom as an ordered list of ellipses with additive densities."""

    ellipses: list[Ellipse] = field(default_factory=list)

    def labeled(self, label: str) -> list[Ellipse]:
        return [e for e in self.ellipses if e.label == label]

    def require_labeled(self, label: str) -> Ellipse:
        found = self.labeled(label)
        if len(found) != 1:
            raise ConfigError(f"phantom needs exactly one ellipse labeled {label!r}, found {len(found)}")
        return found[0]


def eval_f0(spec: PhantomSpec, points: np.ndarray) -> np.ndarray:
    """Evaluate the initial-state density at points of shape (..., 2).

    The value is the sum of the densities of all ellipses containing the
    point; the boundary counts as inside (ties are measure zero).
    """
    pts = np.asarray(points, dtype=float)
    out = np.zeros(pts.shape[:-1], dtype=float)
    for e in spec.ellipses:
        out += e.density * e.contains(pts)
    return out


def rasterize_f0(spec: PhantomSpec, nx: int, ny: int, supersample: int = 4) -> np.ndarray:
    """Rasterize f0 on the [-1,1]^2 pixel grid with per-pixel supersampling.

    Returns an (nx, ny) array indexed [ix, iy]; supersampling averages
    ``supersample**2`` sub-points per pixel cell to reduce rasterization
    bias at ellipse edges.
    """
    x = np.linspace(-1.0, 1.0, nx)
    y = np.linspace(-1.0, 1.0, ny)
    hx = x[1] - x[0]
    hy = y[1] - y[0]
    offs = (np.arange(supersample) + 0.5) / supersample - 0.5
    img = np.zeros((nx, ny), dtype=float)
    for ox in offs:
        for oy in offs:
            X, Y = np.meshgrid(x + ox * hx, y + oy * hy, indexing="ij")
            img += eval_f0(spec, np.stack([X, Y], axis=-1))
    img /= supersample ** 2
    return img


def check_support_in_unit_disk(spec: PhantomSpec, motion, times: np.ndarray, n_boundary: int = 128) -> float:
    """Max radius reached by any ellipse boundary under the motion.

    Samples boundary points of every ellipse, maps all of them through the
    motion at each time in one call, and returns the largest norm (must
    stay < 1 for valid scan configurations). A point moved to a non-finite
    position has left the disk: its radius counts as inf.
    """
    pts = np.concatenate([e.boundary_points(n_boundary) for e in spec.ellipses] or [np.empty((0, 2))])
    r_max = 0.0
    for t in np.asarray(times, dtype=float).ravel():
        moved = motion.phi(t, pts)
        r = float(np.max(np.hypot(moved[..., 0], moved[..., 1]), initial=0.0))
        r_max = max(r_max, r if np.isfinite(r) else np.inf)
    return r_max
