"""Platform-stable seeded random draws.

A splitmix64 counter stream feeding Box-Muller; pure 64-bit integer and
float64 numpy ops, so identical seeds give bit-identical draws on every
platform and numpy version. There is no generator state: a draw is a pure
function of the seed and its counters. The counter layout (C-order over
the requested shape; pair j of a draw of P pairs reads counters j and
P + j) is the reproducibility contract of perturbed boundary data.
"""

from __future__ import annotations

import numpy as np

_MULT1 = np.uint64(0xBF58476D1CE4E5B9)
_MULT2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_BLOCK = 1 << 14  # normal pairs per block


def _splitmix64(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        z = (x + _GOLDEN).astype(np.uint64)
        z = (z ^ (z >> np.uint64(30))) * _MULT1
        z = (z ^ (z >> np.uint64(27))) * _MULT2
        return z ^ (z >> np.uint64(31))


def _uniforms(seed: int, idx: np.ndarray) -> np.ndarray:
    """The doubles strictly inside (0, 1) at counters ``idx`` of the seed's stream."""
    bits = _splitmix64(_splitmix64(np.uint64(seed)) + idx) >> np.uint64(11)
    return (bits.astype(np.float64) + 0.5) * 2.0 ** -53


def normals(seed: int, shape: tuple, rows=None) -> np.ndarray:
    """Standard normal draws via Box-Muller, C-order over ``shape``; pair j
    of the whole draw's P pairs reads counters j (u1) and P + j (u2).

    ``rows``, indices along the first axis of ``shape`` (every row when
    None), selects the rows of the draw that are computed, each at its own
    counters, and returned in that order. Each row must hold an even
    number of draws, so that no pair straddles two rows."""
    row_pairs, odd = divmod(int(np.prod(shape[1:], dtype=np.int64)), 2)
    if odd:
        raise ValueError(f"the rows of a {tuple(shape)} draw hold an odd number of draws")
    pairs = np.uint64(shape[0] * row_pairs)
    rows = np.arange(shape[0]) if rows is None else rows
    sel = (np.asarray(rows, dtype=np.uint64)[:, None] * np.uint64(row_pairs) + np.arange(row_pairs, dtype=np.uint64)).ravel()
    out = np.empty((len(sel), 2))
    for lo in range(0, len(sel), _BLOCK):
        idx = sel[lo : lo + _BLOCK]
        r = np.sqrt(-2.0 * np.log(_uniforms(seed, idx)))
        ang = 2.0 * np.pi * _uniforms(seed, idx + pairs)
        out[lo : lo + _BLOCK, 0] = r * np.cos(ang)
        out[lo : lo + _BLOCK, 1] = r * np.sin(ang)
    return out.reshape((-1,) + tuple(shape[1:]))
