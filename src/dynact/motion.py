"""The breathing deformation and the mass-preserving moving object.

One class, `AffineMotion`, maps a reference point x to
``diag(1/s, s) @ (x - (drift*(s-1), 0))`` with the slowly oscillating
scale ``s(t) = amplitude*cos(frequency*t) + offset``, so the determinant
of the spatial Jacobian is exactly 1 at all times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MotionError


@dataclass
class AffineMotion:
    """The breathing deformation with its four scalar parameters."""

    amplitude: float = 0.05
    frequency: float = 0.04
    offset: float = 0.95
    drift_coeff: float = 0.44

    def scale_factor(self, t) -> float | np.ndarray:
        return self.amplitude * np.cos(self.frequency * np.asarray(t, dtype=float)) + self.offset

    def _scale(self, t: float) -> float:
        s = float(self.scale_factor(t))
        if s == 0.0:
            raise MotionError(f"scale factor vanishes at t={t}: not a diffeomorphism")
        return s

    def matrix(self, t: float) -> np.ndarray:
        """A(t) in phi(t, x) = A(t) @ x + b(t)."""
        s = self._scale(t)
        return np.array([[1.0 / s, 0.0], [0.0, s]])

    def shift(self, t: float) -> np.ndarray:
        """b(t) in phi(t, x) = A(t) @ x + b(t)."""
        s = self._scale(t)
        return -self.matrix(t) @ np.array([self.drift_coeff * (s - 1.0), 0.0])

    def det(self, t: float) -> float:
        a = self.matrix(t)
        return float(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])

    def phi(self, t: float, points: np.ndarray) -> np.ndarray:
        """Deformed position of reference points, shape (..., 2)."""
        # direct component form; identity parameters give phi(t,x) == x bitwise
        s = self._scale(t)
        pts = np.asarray(points, dtype=float)
        return np.stack(
            [(pts[..., 0] - self.drift_coeff * (s - 1.0)) / s, s * pts[..., 1]], axis=-1
        )

    def phi_inverse(self, t: float, points: np.ndarray) -> np.ndarray:
        """Reference position of deformed points."""
        s = self._scale(t)
        pts = np.asarray(points, dtype=float)
        return np.stack(
            [s * pts[..., 0] + self.drift_coeff * (s - 1.0), pts[..., 1] / s], axis=-1
        )
