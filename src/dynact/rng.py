"""Platform-stable seeded random draws.

A splitmix64 counter stream feeding Box-Muller; pure 64-bit integer and
float64 numpy ops, so identical seeds give bit-identical draws on every
platform and numpy version. The draw order (C-order over the requested
shape, two uniforms per normal pair) is part of the reproducibility
contract of perturbed boundary data.
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


class StableRng:
    """Counter-based generator; draws never depend on chunking."""

    def __init__(self, seed: int):
        self._base = _splitmix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
        self._counter = np.uint64(0)

    def _at(self, idx: np.ndarray) -> np.ndarray:
        """The doubles strictly inside (0, 1) at counters ``idx``."""
        bits = _splitmix64(self._base + idx) >> np.uint64(11)
        return (bits.astype(np.float64) + 0.5) * 2.0 ** -53

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles strictly inside (0, 1)."""
        with np.errstate(over="ignore"):
            idx = self._counter + np.arange(n, dtype=np.uint64)
            self._counter += np.uint64(n)
        return self._at(idx)

    def normals(self, shape, rows=None) -> np.ndarray:
        """Standard normal draws via Box-Muller, C-order over shape; pair j
        reads counters start + j (u1) and start + pairs + j (u2), in blocks.

        With ``rows``, indices along the first axis of ``shape`` whose rows
        each hold an even number of draws, only those rows of the draw are
        computed, at their own counters, and returned in that order. The
        counter moves past the whole draw either way."""
        n = int(np.prod(shape, dtype=np.int64)) if np.ndim(shape) else int(shape)
        pairs = (n + 1) // 2
        start = self._counter
        with np.errstate(over="ignore"):
            self._counter += np.uint64(2 * pairs)
        if rows is None:
            count = pairs
        else:
            row_pairs, odd = divmod(n // shape[0], 2)
            if odd:
                raise ValueError(f"the rows of a {tuple(shape)} draw hold an odd number of draws")
            sel = (np.asarray(rows, dtype=np.uint64)[:, None] * np.uint64(row_pairs) + np.arange(row_pairs, dtype=np.uint64)).ravel()
            count = len(sel)
        out = np.empty((count, 2))
        for lo in range(0, count, _BLOCK):
            hi = min(lo + _BLOCK, count)
            idx = start + (np.arange(lo, hi, dtype=np.uint64) if rows is None else sel[lo:hi])
            r = np.sqrt(-2.0 * np.log(self._at(idx)))
            ang = 2.0 * np.pi * self._at(idx + np.uint64(pairs))
            out[lo:hi, 0] = r * np.cos(ang)
            out[lo:hi, 1] = r * np.sin(ang)
        if rows is None:
            return out.reshape(-1)[:n].reshape(shape)
        return out.reshape((-1,) + tuple(shape[1:]))
