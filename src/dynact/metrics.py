"""Image-quality metrics against the rasterized ground truth.

These are artifact metrics for regression and comparison purposes; they
are not published reference numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MismatchError
from .phantom import PhantomSpec
from .reconstruct import Image


@dataclass
class MetricsReport:
    rmse: float
    relative_l2: float
    psnr: float
    region_rmse: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        def enc(v: float):
            # strings, not JSON's missing NaN and Infinity: finite images can
            # still overflow a sum
            if np.isnan(v):
                return "nan"
            if np.isposinf(v):
                return "inf"
            if np.isneginf(v):
                return "-inf"
            return float(v)

        return {
            "rmse": enc(self.rmse),
            "relative_l2": enc(self.relative_l2),
            "psnr": enc(self.psnr),
            "region_rmse": {k: enc(v) for k, v in self.region_rmse.items()},
        }


def region_masks(spec: PhantomSpec, points: np.ndarray) -> dict[str, np.ndarray]:
    """Union membership mask per non-body label ('lung' may repeat)."""
    masks: dict[str, np.ndarray] = {}
    for e in spec.ellipses:
        if not e.label or e.label == "body":
            continue
        m = e.contains(points)
        masks[e.label] = m | masks[e.label] if e.label in masks else m
    return masks


def evaluate(recon: Image, reference: Image, phantom: PhantomSpec | None = None) -> MetricsReport:
    """RMSE, relative l2, PSNR, and per-region RMSE of recon vs reference."""
    if recon.values.shape != reference.values.shape:
        raise MismatchError(
            f"image dimensions differ: {recon.values.shape} vs {reference.values.shape}"
        )
    b = reference.values
    diff = recon.values - b
    rmse = float(np.sqrt(np.mean(diff ** 2)))
    # einsum sums do not depend on the BLAS thread count (np.linalg.norm's dot does)
    norm_b = float(np.sqrt(np.einsum("ij,ij->", b, b)))
    relative_l2 = float(np.sqrt(np.einsum("ij,ij->", diff, diff)) / norm_b) if norm_b > 0 else float("inf")
    rng = float(b.max() - b.min())
    if rmse == 0.0:
        psnr = float("inf")
    elif rng == 0.0:
        psnr = float("-inf")
    else:
        psnr = float(20.0 * np.log10(rng / rmse))

    region_rmse: dict[str, float] = {}
    if phantom is not None:
        pts = reference.spec.pixel_points()
        for name, mask in region_masks(phantom, pts).items():
            if mask.any():
                region_rmse[name] = float(np.sqrt(np.mean(diff[mask] ** 2)))
    return MetricsReport(rmse=rmse, relative_l2=relative_l2, psnr=psnr, region_rmse=region_rmse)

