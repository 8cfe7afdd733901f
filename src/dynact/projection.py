"""Analytic dynamic Radon data of a moving phantom.

Each view n probes the object state at its acquisition time t_n along the
lines {x : x . theta(t_n) = y_m}. For an affine deformation the dynamic
line integral reduces to a scaled static Radon value of f0 along a
transformed line, so the sinogram is exact up to round-off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, MotionError
from .phantom import Ellipse, PhantomSpec


@dataclass
class ScanGeometry:
    """Parallel-beam acquisition layout and the view-index -> time map."""

    num_angles: int = 660
    num_detectors: int = 451
    angle_start: float = 0.0
    angle_end: float = np.pi
    detector_min: float = -1.0
    detector_max: float = 1.0
    time_offset: float = 0.0
    time_scale: float = (2.0 * np.pi / 0.04) / 660.0

    def __post_init__(self):
        if self.num_angles < 1:
            raise ConfigError("num_angles must be >= 1")
        if self.num_detectors < 2:
            raise ConfigError("num_detectors must be >= 2")
        if not self.detector_min < self.detector_max:
            raise ConfigError("detector_min must be < detector_max")
        if not self.angle_end > self.angle_start:
            raise ConfigError("angle range must be increasing")

    @property
    def angles(self) -> np.ndarray:
        """Source angles, uniform on [angle_start, angle_end), endpoint excluded."""
        return self.angle_start + (self.angle_end - self.angle_start) * np.arange(
            self.num_angles
        ) / self.num_angles

    @property
    def detectors(self) -> np.ndarray:
        return np.linspace(self.detector_min, self.detector_max, self.num_detectors)

    @property
    def view_times(self) -> np.ndarray:
        return self.time_offset + self.time_scale * np.arange(self.num_angles)

    @property
    def t_end(self) -> float:
        """End of the acquisition window (one time step past the last view)."""
        return self.time_offset + self.time_scale * self.num_angles


@dataclass
class Sinogram:
    geometry: ScanGeometry
    values: np.ndarray  # (num_angles, num_detectors) float64

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        expected = (self.geometry.num_angles, self.geometry.num_detectors)
        if self.values.shape != expected:
            raise ConfigError(f"sinogram shape {self.values.shape} != geometry {expected}")


def radon_ellipse(e: Ellipse, theta, s) -> np.ndarray:
    """Closed-form line integral of the ellipse along {x : x.theta = s}.

    theta is the angle of the line normal; broadcasts over theta/s arrays.
    The chord value is 2*rho*a*b*sqrt(r^2 - d^2)/r^2 with
    r^2 = a^2 cos^2(theta-phi) + b^2 sin^2(theta-phi) and the recentered
    offset d = s - center.theta; zero when the line misses the ellipse.
    """
    theta = np.asarray(theta, dtype=float)
    s = np.asarray(s, dtype=float)
    a, b = e.semi_axes
    rel = theta - e.rotation
    r2 = (a * np.cos(rel)) ** 2 + (b * np.sin(rel)) ** 2
    d = s - (e.center[0] * np.cos(theta) + e.center[1] * np.sin(theta))
    under = r2 - d * d
    return 2.0 * e.density * a * b * np.sqrt(np.maximum(under, 0.0)) / r2


def transform_line(A: np.ndarray, b: np.ndarray, theta: float, y) -> tuple[np.ndarray, np.ndarray, float]:
    """Map the line {x.theta = y} through phi(x) = A x + b back to reference lines.

    Returns (omega, s, scale) such that the integral of the mass-preserving
    state f_t along the measured line equals scale * (R f0)(omega, s):
    omega = A^T theta / ||A^T theta||, s = (y - b.theta)/||A^T theta||,
    scale = 1/||A^T theta||.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    if abs(det) < 1e-14:
        raise MotionError("transform_line: singular deformation matrix")
    th = np.array([np.cos(theta), np.sin(theta)])
    at = A.T @ th
    nrm = float(np.hypot(at[0], at[1]))
    omega = at / nrm
    s = (np.asarray(y, dtype=float) - (b[0] * th[0] + b[1] * th[1])) / nrm
    return omega, s, 1.0 / nrm


def simulate_scan(spec: PhantomSpec, motion, geometry: ScanGeometry) -> Sinogram:
    """Analytic dynamic sinogram of the moving phantom.

    Deterministic: each (view, detector) entry is computed independently;
    views are evaluated in ascending order.
    """
    angles = geometry.angles
    times = geometry.view_times
    dets = geometry.detectors
    values = np.zeros((geometry.num_angles, geometry.num_detectors))
    for n in range(geometry.num_angles):
        A = motion.matrix(times[n])
        b = motion.shift(times[n])
        omega, s, scale = transform_line(A, b, angles[n], dets)
        omega_ang = np.arctan2(omega[1], omega[0])
        row = np.zeros(geometry.num_detectors)
        for e in spec.ellipses:
            row += scale * radon_ellipse(e, omega_ang, s)
        values[n] = row
    return Sinogram(geometry, values)
