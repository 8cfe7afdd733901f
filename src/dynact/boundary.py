"""Boundary displacement data: exact sampling, noise, and sparsification.

Boundary displacements psi(t, x) = phi(t, x) - x are sampled at a finite
list of observation times (by default one per scan view) for the snapped
boundary nodes of a grid; the solver interpolates linearly in time
between samples. The clamped time interpolation (`lerp_in_time`) and
the periodic arc-length interpolation along the boundary
(`arclength_weights`) live here once; the field provider in
`deformation` uses both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grid import Grid2D
from .phantom import Ellipse
from .rng import StableRng


@dataclass
class BoundarySpec:
    mode: str = "exact"  # exact | noisy | sparse
    noise_std: float = 0.1
    num_nodes: int = 32
    rng_seed: int = 0
    time_constant_noise: bool = False

    def validate(self):
        if self.mode not in ("exact", "noisy", "sparse"):
            raise ConfigError(f"mode must be exact, noisy or sparse, got {self.mode!r}")
        if self.noise_std < 0:
            raise ConfigError("noise_std must be >= 0")
        if self.num_nodes < 3:
            raise ConfigError("num_nodes must be >= 3")
        if not 0 <= self.rng_seed < 2**64:
            raise ConfigError(f"rng_seed must be in [0, 2**64), got {self.rng_seed}")


@dataclass
class BoundaryData:
    """Displacement samples for the boundary nodes of one grid.

    values[k, b, :] is the displacement of boundary node b (in
    grid.boundary_ij order) at times[k].
    """

    times: np.ndarray  # (K,), ascending
    values: np.ndarray  # (K, B, 2)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 3 or self.values.shape[0] != len(self.times):
            raise ConfigError("boundary values must have shape (num_times, num_nodes, 2)")
        if np.any(np.diff(self.times) <= 0):
            raise ConfigError("boundary sample times must be strictly ascending")

    @property
    def num_nodes(self) -> int:
        return self.values.shape[1]

    def at_time(self, t: float) -> np.ndarray:
        return lerp_in_time(self.times, self.values, t)


def lerp_in_time(times: np.ndarray, values, t: float, out=None, scratch=None) -> np.ndarray:
    """Linear interpolation of values[k], sampled at ascending times[k], at
    time t; clamped to the first and last sample outside their range.

    ``values`` needs only indexing by 0 <= k < len(times); a call reads
    at most two samples, k before k + 1. A blend is written into ``out``
    and uses ``scratch`` (arrays of a sample's shape), each allocated when
    None; a clamped t returns the sample.
    """
    last = len(times) - 1
    if t <= times[0]:
        return values[0]
    if t >= times[last]:
        return values[last]
    k = int(np.searchsorted(times, t, side="right")) - 1
    w = (t - times[k]) / (times[k + 1] - times[k])
    out = np.multiply(values[k], 1.0 - w, out=out)
    return np.add(out, np.multiply(values[k + 1], w, out=scratch), out=out)


def sample_boundary(motion, grid: Grid2D, times) -> BoundaryData:
    """Exact boundary displacements psi(t_k, x) = phi(t_k, x) - x."""
    times = np.asarray(times, dtype=float)
    pts = grid.boundary_positions()
    values = np.empty((len(times), len(pts), 2))
    for k, t in enumerate(times):
        values[k] = motion.phi(t, pts) - pts
    return BoundaryData(times=times, values=values)


def perturb(bd: BoundaryData, spec: BoundarySpec) -> BoundaryData:
    """Add i.i.d. N(0, noise_std^2) to every (time, node, component) entry.

    With time_constant_noise one draw per (node, component) is reused for
    all times. Seeded and reproducible: same spec gives identical bytes.
    """
    spec.validate()
    if spec.mode != "noisy":
        raise ConfigError("perturb requires boundary mode 'noisy'")
    rng = StableRng(spec.rng_seed)
    if spec.time_constant_noise:
        noise = np.broadcast_to(rng.normals(bd.values.shape[1:]), bd.values.shape)
    else:
        noise = rng.normals(bd.values.shape)
    return BoundaryData(times=bd.times.copy(), values=bd.values + spec.noise_std * noise)


def boundary_arclengths(grid: Grid2D) -> np.ndarray:
    """Arc length of each boundary node (grid.boundary_ij order) on the
    grid's elliptic domain."""
    domain = grid.domain
    if not isinstance(domain, Ellipse):
        raise ConfigError("boundary arc-length ordering requires an elliptic domain")
    return domain.arclength_of_angle(domain.param_angle(grid.boundary_positions()))


def arclength_weights(
    s_knots: np.ndarray, s: np.ndarray, perimeter: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Periodic linear interpolation in arc length.

    Knots at arc lengths s_knots (in any order) on a closed curve of the
    given perimeter; returns knot indices lo, hi and weights w such that
    the value at s is (1 - w) * v[lo] + w * v[hi]. Queries before the
    first or after the last knot interpolate across the wrap.
    """
    order = np.argsort(s_knots, kind="stable")
    s_sorted = s_knots[order]
    s_ext = np.concatenate([s_sorted, [s_sorted[0] + perimeter]])
    q = np.where(s < s_sorted[0], s + perimeter, s)
    seg = np.clip(np.searchsorted(s_ext, q, side="right") - 1, 0, len(s_sorted) - 1)
    w = (q - s_ext[seg]) / (s_ext[seg + 1] - s_ext[seg])
    return order[seg], order[(seg + 1) % len(order)], w


def sparsify(bd: BoundaryData, spec: BoundarySpec, grid: Grid2D) -> BoundaryData:
    """Keep num_nodes boundary nodes, linearly interpolate the rest.

    Retained nodes are the boundary nodes nearest to equally spaced
    arc-length targets; every other node receives, at each time, the
    linear interpolation (in arc-length, periodic) between its two
    enclosing retained nodes.
    """
    spec.validate()
    if spec.mode != "sparse":
        raise ConfigError("sparsify requires boundary mode 'sparse'")
    n_b = bd.num_nodes
    if spec.num_nodes > n_b:
        raise ConfigError(f"num_nodes {spec.num_nodes} exceeds boundary node count {n_b}")
    if spec.num_nodes == n_b:
        return BoundaryData(times=bd.times.copy(), values=bd.values.copy())

    s = boundary_arclengths(grid)
    if len(s) != n_b:
        raise ConfigError("boundary data does not match the grid boundary nodes")
    perimeter = grid.domain.perimeter()
    targets = perimeter * np.arange(spec.num_nodes) / spec.num_nodes
    order = np.argsort(s, kind="stable")
    s_sorted = s[order]
    # circular nearest boundary node per target
    pick = np.searchsorted(s_sorted, targets) % len(s_sorted)
    prev = (pick - 1) % len(s_sorted)
    d_pick = np.minimum(np.abs(s_sorted[pick] - targets), perimeter - np.abs(s_sorted[pick] - targets))
    d_prev = np.minimum(np.abs(s_sorted[prev] - targets), perimeter - np.abs(s_sorted[prev] - targets))
    chosen = np.sort(np.where(d_prev < d_pick, prev, pick))
    # distinct by sort: np.unique keeps about 600 KB allocated after its first call
    retained_sorted = chosen[np.concatenate([[True], np.diff(chosen) > 0])]
    if len(retained_sorted) < 3:
        raise ConfigError("fewer than 3 distinct retained boundary nodes")
    retained = order[retained_sorted]

    lo, hi, w = arclength_weights(s_sorted[retained_sorted], s, perimeter)
    vals_ret = bd.values[:, retained, :]  # (K, R, 2)
    new_vals = (1.0 - w)[None, :, None] * vals_ret[:, lo, :] + w[None, :, None] * vals_ret[:, hi, :]
    new_vals[:, retained, :] = bd.values[:, retained, :]
    return BoundaryData(times=bd.times.copy(), values=new_vals)
