"""Boundary displacement data: exact sampling, noise, and sparsification.

Boundary displacements psi(t, x) = phi(t, x) - x are observed at a
finite schedule of sample times (by default one per scan view) for the
snapped boundary nodes of a grid, and blended linearly in time to the
times a solver needs (`BoundaryData.at_times`). Noise and
sparsification act on each sample time alone, so only the samples that
the blend reads (`samples_read`: at most two per time) are sampled,
perturbed or sparsified (the caller picks the mode; neither reads the
spec's). A sample's noise is the one it gets when the whole schedule is
perturbed: `rng.normals` is a pure function of seed and counters. Noisy
samples are then low-passed in the boundary angle (`low_pass`), with a
mode count that the discrepancy principle takes from the noise level,
before they are blended: noise about the size of the motion would
otherwise fold the solved field, and the low-passed data spans a few
boundary directions instead of one per snapshot. The time blend (`time_bracket`: which samples a time reads,
with what weight) and the periodic arc-length interpolation along the
boundary (`arclength_weights`) live here once; the field provider in
`deformation` uses both, and `sparsify` the latter's bracket search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grid import Grid2D
from .phantom import Ellipse
from .rng import normals


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

    def at_times(self, times) -> "BoundaryData":
        """The data blended to each of ``times`` (ascending) as `time_bracket` says."""
        times = np.asarray(times, dtype=float)
        values = np.empty((len(times),) + self.values.shape[1:])
        for out, t in zip(values, times):
            k0, k1, w = time_bracket(self.times, t)
            np.multiply(self.values[k0], 1.0 - w, out=out)
            out += w * self.values[k1]
        return BoundaryData(times=times, values=values)


def time_bracket(times: np.ndarray, t: float) -> tuple[int, int, float]:
    """The samples k0, k1 of ascending ``times`` and the weight w whose blend
    (1 - w) v[k0] + w v[k1] is the linear interpolation at t, clamped to the
    first and last sample outside their range. At a sample time and when t
    is clamped, k1 = k0 and w = 0, so the blend of a finite v[k0] is v[k0]
    bit for bit, -0.0 included."""
    k0 = int(np.searchsorted(times, t, side="right")) - 1
    if k0 < 0:
        return 0, 0, 0.0
    if k0 == len(times) - 1 or t == times[k0]:
        return k0, k0, 0.0
    return k0, k0 + 1, (t - times[k0]) / (times[k0 + 1] - times[k0])


def samples_read(sample_times: np.ndarray, times) -> np.ndarray:
    """Mask over ``sample_times`` of the samples that a blend to ``times``
    reads: `time_bracket`'s k0 and k1 at each time. A blend from these
    samples alone has the bits of one from the whole schedule."""
    read = np.zeros(len(sample_times), dtype=bool)
    for t in times:
        k0, k1, _ = time_bracket(sample_times, t)
        read[k0] = read[k1] = True
    return read


def sample_boundary(motion, grid: Grid2D, times) -> BoundaryData:
    """Exact boundary displacements psi(t_k, x) = phi(t_k, x) - x."""
    times = np.asarray(times, dtype=float)
    pts = grid.boundary_positions()
    values = np.empty((len(times), len(pts), 2))
    for k, t in enumerate(times):
        values[k] = motion.phi(t, pts) - pts
    return BoundaryData(times=times, values=values)


def perturb(bd: BoundaryData, spec: BoundarySpec, taken=None) -> BoundaryData:
    """Add i.i.d. N(0, noise_std^2) to every (time, node, component) entry.

    With time_constant_noise one draw per (node, component) is reused for
    all times. The noise is `rng.normals` of the spec's seed, so the same
    spec gives identical bytes. ``taken``, a mask over a schedule of sample
    times (all of ``bd``'s when None), marks the ones ``bd`` holds: each
    gets the noise it gets when the whole schedule is perturbed.
    """
    spec.validate()
    shape = bd.values.shape
    if spec.time_constant_noise:
        noise = normals(spec.rng_seed, shape[1:])  # broadcast over the times
    else:
        taken = np.ones(shape[0], dtype=bool) if taken is None else taken
        noise = normals(spec.rng_seed, (len(taken),) + shape[1:], rows=np.flatnonzero(taken))
    noise *= spec.noise_std
    return BoundaryData(times=bd.times.copy(), values=bd.values + noise)


def boundary_angles(grid: Grid2D) -> np.ndarray:
    """Parametric angle of each boundary node (grid.boundary_ij order) on
    the grid's elliptic domain."""
    domain = grid.domain
    if not isinstance(domain, Ellipse):
        raise ConfigError("boundary angles and arc lengths require an elliptic domain")
    return domain.param_angle(grid.boundary_positions())


def boundary_arclengths(grid: Grid2D) -> np.ndarray:
    """Arc length of each boundary node (grid.boundary_ij order) on the
    grid's elliptic domain."""
    return grid.domain.arclength_of_angle(boundary_angles(grid))


def low_pass(bd: BoundaryData, grid: Grid2D, noise_std: float) -> BoundaryData:
    """Each sample's displacements, per component, projected onto the
    Fourier modes 0..M of the boundary nodes' parametric angle.

    M is the smallest mode count whose residual, pooled over every sample
    and both components, is at most N noise_std^2 for the N entries of
    ``bd``: Morozov's discrepancy principle (Soviet Math. Dokl. 7, 1966),
    with the noise level the data was perturbed with. M is at most
    (B - 1) / 2 for B nodes. noise_std 0 returns ``bd`` itself.

    The Fourier columns are orthonormalised by Gram-Schmidt, twice, and the
    data is projected by einsum, so the result does not depend on the BLAS
    threads. Apply it to the perturbed samples before `at_times` blends
    them: a blend shrinks the noise, and the bound would then over-smooth.
    """
    if noise_std == 0.0:
        return bd
    theta = boundary_angles(grid)
    y = bd.values
    budget = y.size * noise_std**2
    residual = np.einsum("kbc,kbc->", y, y)
    Q = np.empty((0, len(theta)))  # orthonormal rows
    for m in range((len(theta) - 1) // 2 + 1):
        for col in [np.ones_like(theta)] if m == 0 else [np.cos(m * theta), np.sin(m * theta)]:
            for _ in range(2):
                col = col - np.einsum("i,ib->b", np.einsum("ib,b->i", Q, col), Q)
            q = col / np.sqrt(np.einsum("b,b->", col, col))
            c = np.einsum("b,kbc->kc", q, y)
            residual -= np.einsum("kc,kc->", c, c)
            Q = np.vstack([Q, q])
        if residual <= budget:
            break
    values = np.einsum("ib,ikc->kbc", Q, np.einsum("ib,kbc->ikc", Q, y))
    return BoundaryData(times=bd.times.copy(), values=values)


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

    Retained nodes are the boundary nodes nearest, in periodic arc length,
    to equally spaced arc-length targets: of the two nodes that
    `arclength_weights` brackets a target with, the one it weighs more.
    Every other node receives, at each time, the linear interpolation (in
    arc length, periodic) between its two enclosing retained nodes.
    """
    spec.validate()
    n_b = bd.values.shape[1]
    if spec.num_nodes > n_b:
        raise ConfigError(f"num_nodes {spec.num_nodes} exceeds boundary node count {n_b}")
    if spec.num_nodes == n_b:
        return BoundaryData(times=bd.times.copy(), values=bd.values.copy())

    s = boundary_arclengths(grid)
    if len(s) != n_b:
        raise ConfigError("boundary data does not match the grid boundary nodes")
    perimeter = grid.domain.perimeter()
    lo, hi, w = arclength_weights(s, perimeter * np.arange(spec.num_nodes) / spec.num_nodes, perimeter)
    chosen = np.sort(np.where(w < 0.5, lo, hi))
    # distinct by sort: np.unique keeps about 600 KB allocated after its first call
    retained = chosen[np.concatenate([[True], np.diff(chosen) > 0])]
    if len(retained) < 3:
        raise ConfigError("fewer than 3 distinct retained boundary nodes")

    lo, hi, w = arclength_weights(s[retained], s, perimeter)
    vals_ret = bd.values[:, retained, :]  # (K, R, 2)
    new_vals = (1.0 - w)[None, :, None] * vals_ret[:, lo, :] + w[None, :, None] * vals_ret[:, hi, :]
    new_vals[:, retained, :] = bd.values[:, retained, :]
    return BoundaryData(times=bd.times.copy(), values=new_vals)
