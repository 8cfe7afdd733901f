"""Reference implementations the tests check the pipeline against.

None of these is on the pipeline's path: the numeric line integral that
criterion 01 compares the closed-form sinogram with, the rectangle
solver domain of the grid and solver tests, the mass-preserving object
state f_t, the static object as a degenerate breathing motion, and a
filter sized from a scan geometry instead of read from the config.
"""

from __future__ import annotations

import numpy as np

from dynact.errors import ConfigError, GridError, MotionError
from dynact.motion import AffineMotion
from dynact.phantom import PhantomSpec, eval_f0
from dynact.projection import ScanGeometry
from dynact.reconstruct import FilterSpec

_DET_TINY = 1e-14


class RectangleDomain:
    """Axis-aligned rectangle (x0, x1) x (y0, y1).

    It supplies the grid classifier's predicates: a strict inside test,
    boundary crossings along grid segments and an exact on-boundary test.
    The pipeline's curved domain is the body ``phantom.Ellipse``.
    """

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


def radon_numeric_oracle(f, theta: float, s: float, step: float = 1e-4) -> float:
    """Composite midpoint quadrature of f along the unit-disk chord of a line.

    f maps an (m, 2) array of points to m values. Independent of the
    closed-form path; used to verify it.
    """
    if step <= 0:
        raise ConfigError("oracle step must be positive")
    if abs(s) >= 1.0:
        return 0.0
    half = float(np.sqrt(1.0 - s * s))
    m = max(1, int(np.ceil(2.0 * half / step)))
    h = 2.0 * half / m
    tau = -half + (np.arange(m) + 0.5) * h
    th = np.array([np.cos(theta), np.sin(theta)])
    perp = np.array([-th[1], th[0]])
    pts = s * th[None, :] + tau[:, None] * perp[None, :]
    return float(np.sum(f(pts)) * h)


def identity_motion() -> AffineMotion:
    """The static object as a degenerate breathing motion (s == 1 exactly)."""
    return AffineMotion(amplitude=0.0, frequency=0.0, offset=1.0, drift_coeff=0.0)


def eval_ft(spec: PhantomSpec, motion, t: float, points: np.ndarray) -> np.ndarray:
    """Mass-preserving object state: f0(phi_inverse(t, x)) * |det D phi_inverse|."""
    ref = motion.phi_inverse(t, points)
    det = motion.det(t)
    if abs(det) < _DET_TINY:
        raise MotionError(f"motion matrix is singular at t={t}")
    return eval_f0(spec, ref) / abs(det)


def filter_for_geometry(geometry: ScanGeometry, gamma: float | None = None, dft_size: int | None = None) -> FilterSpec:
    """Filter for a scan geometry; gamma defaults to the detector spacing."""
    spacing = (geometry.detector_max - geometry.detector_min) / (geometry.num_detectors - 1)
    if dft_size is None:
        # 8x padding keeps the ramp's DC-cell deficit below 0.3%
        dft_size = 1 << int(np.ceil(np.log2(8 * geometry.num_detectors)))
    spec = FilterSpec(gamma=spacing if gamma is None else gamma, dft_size=dft_size)
    spec.validate(geometry.num_detectors)
    return spec
