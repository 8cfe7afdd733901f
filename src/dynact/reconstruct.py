"""Motion-compensated filtered backprojection.

Each sinogram row is zero-padded, transformed, multiplied by
|sigma| * exp(-(gamma*sigma)^2 / 2) at the angular frequencies of the
detector sampling, and transformed back. Backprojection then accumulates,
for every pixel x and view n, the filtered row value at the deformed
detector coordinate (Phi_{t_n} x) . theta_n, weighted by the angular cell
width. A provider gives the moved pixels of a view as a linear form
(g, basis), so that coordinate is one contraction of the basis with
g . theta_n. A separately coded static path (no deformation lookup)
exists for the exact zero-motion cross-check.

Both paths split the views into BLOCKS contiguous blocks, each summed
into its own accumulator, and add the blocks in block order; a dynamic
block evaluates the provider through an evaluator of its own, which
``provider.bind`` makes on the calling thread. The blocks run on
WORKERS threads, the calling thread and WORKERS - 1 others; the heavy
per-view numpy calls release the GIL, so the threads use separate
cores. The partition is a constant, not the CPU count, so an image has
the same bytes for any worker count.

Normalization: with this filter convention the continuous inversion
constant is 1/(2*pi). Calibration run (static disk of radius 0.8 and
density 1, 660 views x 451 detectors, gamma = detector spacing, 257x257
image): eroded interior mean 0.94812 at dft_size 1024, 0.99736 at 4096,
0.99975 at 8192 with C_NORM = 1/(2*pi) - the deficit is the ramp's
missing DC frequency cell, which shrinks as (1/dft_size)^2. The
theoretical constant is kept exactly and the default dft_size is 4096.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass

import numpy as np

from .deformation import AnalyticDeformation, FieldDeformation
from .errors import ConfigError
from .projection import ScanGeometry, Sinogram

C_NORM = 1.0 / (2.0 * np.pi)
# view blocks (fixed, so the bytes of an image do not depend on the
# machine) and the threads that run them, the calling thread included
BLOCKS = 2
WORKERS = 2
# rows filtered per transform call: the padded transforms of a whole
# sinogram (about 11 MB each at 330 x 4096) would stay in the process
# heap after the filter, next to the fields that reconstruction loads
FILTER_ROWS = 32


@dataclass
class FilterSpec:
    """Riesz-potential filter with Gaussian low-pass of width gamma."""

    gamma: float
    dft_size: int = 4096

    def validate(self, num_detectors: int):
        if not self.gamma > 0:
            raise ConfigError("gamma must be positive")
        n = self.dft_size
        if n < 2 * num_detectors:
            raise ConfigError(f"dft_size {n} must be >= 2 * num_detectors {2 * num_detectors}")
        if n & (n - 1):
            raise ConfigError(f"dft_size {n} must be a power of two")

    @classmethod
    def for_geometry(cls, geometry: ScanGeometry, gamma: float | None = None, dft_size: int | None = None) -> "FilterSpec":
        spacing = (geometry.detector_max - geometry.detector_min) / (geometry.num_detectors - 1)
        if dft_size is None:
            # 8x padding keeps the ramp's DC-cell deficit below 0.3%
            dft_size = 1 << int(np.ceil(np.log2(8 * geometry.num_detectors)))
        spec = cls(gamma=spacing if gamma is None else gamma, dft_size=dft_size)
        spec.validate(geometry.num_detectors)
        return spec


@dataclass
class ImageSpec:
    nx: int = 257
    ny: int = 257
    # extent is fixed to [-1, 1]^2

    @property
    def x(self) -> np.ndarray:
        return np.linspace(-1.0, 1.0, self.nx)

    @property
    def y(self) -> np.ndarray:
        return np.linspace(-1.0, 1.0, self.ny)

    def pixel_points(self) -> np.ndarray:
        X, Y = np.meshgrid(self.x, self.y, indexing="ij")
        return np.stack([X, Y], axis=-1)


@dataclass
class Image:
    spec: ImageSpec
    values: np.ndarray  # (nx, ny) indexed [ix, iy]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.spec.nx, self.spec.ny):
            raise ConfigError(f"image shape {self.values.shape} != spec ({self.spec.nx}, {self.spec.ny})")


def filter_sinogram(sino: Sinogram, filter_spec: FilterSpec) -> np.ndarray:
    """Filter every row on the zero-padded DFT of size ``dft_size``.

    The multiplier is real and even, so the filtered rows are real and the
    half-spectrum transforms ``rfft``/``irfft`` give them exactly.
    """
    geo = sino.geometry
    filter_spec.validate(geo.num_detectors)
    n = filter_spec.dft_size
    spacing = (geo.detector_max - geo.detector_min) / (geo.num_detectors - 1)
    sigma = 2.0 * np.pi * np.fft.rfftfreq(n, d=spacing)
    multiplier = sigma * np.exp(-0.5 * (filter_spec.gamma * sigma) ** 2)  # sigma >= 0 here
    rows = np.empty(sino.values.shape)
    for i in range(0, len(rows), FILTER_ROWS):
        padded = np.fft.rfft(sino.values[i : i + FILTER_ROWS], n=n, axis=1) * multiplier
        rows[i : i + FILTER_ROWS] = np.fft.irfft(padded, n=n, axis=1)[:, : geo.num_detectors]
    return rows


def _angle_weights(angles: np.ndarray) -> np.ndarray:
    """Per-view angular cell widths; constant spacing gives constant weight."""
    w = np.empty(len(angles))
    if len(angles) == 1:
        return np.array([np.pi])
    w[0] = angles[1] - angles[0]
    w[-1] = angles[-1] - angles[-2]
    w[1:-1] = 0.5 * (angles[2:] - angles[:-2])
    return w


def _sum_view_blocks(num_views: int, num_points: int, run_block) -> np.ndarray:
    """Sum over the BLOCKS contiguous view blocks of ``run_block(b, views,
    acc)``, which adds block b's views into its own zeroed accumulator.

    The calling thread runs blocks 0, WORKERS, 2 WORKERS, ...; worker w of
    the others runs blocks w, w + WORKERS, ... An exception raised in a
    block is raised here once every worker has stopped (the lowest
    worker's first).
    """
    edges = [num_views * b // BLOCKS for b in range(BLOCKS + 1)]
    acc = np.zeros((BLOCKS, num_points))
    workers = min(WORKERS, BLOCKS)
    errors: list[Exception | None] = [None] * workers

    def work(w: int) -> None:
        try:
            for b in range(w, BLOCKS, workers):
                run_block(b, range(edges[b], edges[b + 1]), acc[b])
        except Exception as exc:  # re-raised on the calling thread
            errors[w] = exc

    threads = [threading.Thread(target=work, args=(w,)) for w in range(1, workers)]
    for t in threads:
        t.start()
    work(0)
    for t in threads:
        t.join()
    for exc in errors:
        if exc is not None:
            raise exc
    for b in range(1, BLOCKS):
        acc[0] += acc[b]
    return acc[0]


def backproject(filtered: np.ndarray, geometry: ScanGeometry, provider, image_spec: ImageSpec) -> Image:
    """Backproject filtered rows along motion-deformed lines.

    For each view n the pixel's detector coordinate is
    (Phi_{t_n} x) . theta_n, with Phi_{t_n} x the linear form (g, basis)
    that ``provider.eval(t_n, e)`` returns: g (J, 2), basis (J, P) and
    Phi_{t_n} x_p = sum_j g[j] basis[j, p]. So the coordinates are
    ``einsum("j,jp->p", g @ theta_n, basis)``, written into one buffer per
    block. e is block b's evaluator, made by ``provider.bind`` on the
    calling thread; a provider with moved points (P, 2) of its own can
    return (I_2, moved.T). Rows are interpolated linearly and contribute
    zero outside the detector interval. Views accumulate in ascending order within a block and the
    blocks in block order, for bit-reproducibility.

    The providers of this package keep every buffer a call writes in the
    evaluator, so the blocks call them at the same time. Any other
    provider, such as a user's own or a wrapper that times or records
    calls, is called by one block at a time and need not be thread-safe.
    """
    angles = geometry.angles
    times = geometry.view_times
    dets = geometry.detectors
    weights = _angle_weights(angles)
    pts = image_spec.pixel_points().reshape(-1, 2)
    movers = [provider.bind(pts) for _ in range(BLOCKS)]
    own = type(provider) in (AnalyticDeformation, FieldDeformation)
    turn = contextlib.nullcontext() if own else threading.Lock()

    cos, sin = np.cos(angles), np.sin(angles)

    def run_block(b: int, views: range, acc: np.ndarray) -> None:
        p = np.empty(len(pts))
        for n in views:
            with turn:
                g, basis = provider.eval(times[n], movers[b])
            np.einsum("j,jp->p", g[:, 0] * cos[n] + g[:, 1] * sin[n], basis, out=p)
            acc += weights[n] * np.interp(p, dets, filtered[n], left=0.0, right=0.0)

    acc = _sum_view_blocks(geometry.num_angles, len(pts), run_block)
    return Image(image_spec, (C_NORM * acc).reshape(image_spec.nx, image_spec.ny))


def backproject_static(filtered: np.ndarray, geometry: ScanGeometry, image_spec: ImageSpec) -> Image:
    """Static backprojection path, coded independently of the dynamic one."""
    angles = geometry.angles
    dets = geometry.detectors
    weights = _angle_weights(angles)
    pts = image_spec.pixel_points().reshape(-1, 2)
    px, py = np.ascontiguousarray(pts.T)  # contiguous coordinate rows

    def run_block(b: int, views: range, acc: np.ndarray) -> None:
        for n in views:
            p = px * np.cos(angles[n]) + py * np.sin(angles[n])
            acc += weights[n] * np.interp(p, dets, filtered[n], left=0.0, right=0.0)

    acc = _sum_view_blocks(geometry.num_angles, len(pts), run_block)
    return Image(image_spec, (C_NORM * acc).reshape(image_spec.nx, image_spec.ny))

