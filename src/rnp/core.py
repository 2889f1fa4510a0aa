"""Deterministic randomness, image grids, and quality metrics.

Everything here operates on plain float64 numpy arrays.  Dense matrices used
by test oracles are ordinary 2-D ndarrays; images travel as :class:`ImageGrid`
(column-stacked vectors) at module boundaries and as flat vectors inside the
solvers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

__all__ = [
    "Rng",
    "ImageGrid",
    "standard_normal_matrix",
    "rademacher_matrix",
    "psnr",
]

PSNR_CAP_DB = 300.0

_SPAWN_MIX = 0x9E3779B97F4A7C15  # 64-bit golden-ratio constant for stream derivation


class Rng:
    """Counter-based deterministic random stream.

    Wraps a Philox-4x64 counter generator keyed by ``(seed, stream)``.
    Gaussian samples are produced by the inverse-CDF method applied to
    53-bit uniforms, so the stream is reproducible bit-for-bit for a fixed
    seed regardless of how callers batch their draws across columns.

    Not shareable across threads; spawn independent child streams instead.
    """

    def __init__(self, seed: int, stream: int = 0):
        if seed < 0:
            raise ValueError("seed must be a nonnegative 64-bit integer")
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.stream = int(stream) & 0xFFFFFFFFFFFFFFFF
        self._bits = np.random.Philox(key=np.array([self.seed, self.stream], dtype=np.uint64))

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed}, stream={self.stream})"

    def spawn(self, index: int) -> "Rng":
        """Deterministic independent child stream; same (seed, stream, index)
        always yields the same child."""
        child = (self.stream * _SPAWN_MIX + index + 1) & 0xFFFFFFFFFFFFFFFF
        return Rng(self.seed, child)

    def raw(self, n: int) -> np.ndarray:
        return self._bits.random_raw(n)

    def uniform(self, n: int) -> np.ndarray:
        """n uniforms strictly inside (0, 1), 53-bit resolution."""
        return _uniforms(self.raw(n))

    def normal(self, n: int) -> np.ndarray:
        """n standard normal samples via the inverse CDF."""
        return ndtri(self.uniform(n))

    def permutation(self, n: int) -> np.ndarray:
        """Uniform permutation of range(n) (argsort of fresh uniforms)."""
        return np.argsort(self.uniform(n), kind="stable")


@dataclass(frozen=True)
class ImageGrid:
    """Dense 2-D real image stored column-stacked: pixel (i, j) at j*rows + i."""

    rows: int
    cols: int
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("rows and cols must be positive")
        data = np.ascontiguousarray(np.asarray(self.data, dtype=np.float64).ravel())
        if data.size != self.rows * self.cols:
            raise ValueError(f"data length {data.size} != rows*cols {self.rows * self.cols}")
        if not np.all(np.isfinite(data)):
            raise ValueError("image contains non-finite values")
        object.__setattr__(self, "data", data)

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "ImageGrid":
        m = np.asarray(m, dtype=np.float64)
        if m.ndim != 2:
            raise ValueError("expected a 2-D array")
        return cls(m.shape[0], m.shape[1], m.ravel(order="F"))


def _uniforms(bits: np.ndarray) -> np.ndarray:
    return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * (2.0 ** -53)


def standard_normal_matrix(n: int, k: int, rng: Rng) -> np.ndarray:
    """n-by-k matrix of i.i.d. standard normals filled column by column.

    One draw of n*k samples fills the columns in order, so the result and
    the stream position equal k successive ``rng.normal(n)`` columns.  The
    draw is returned in its natural layout, the transpose of a C-ordered
    k x n array: Fortran order, each column contiguous, with no copy.  It
    runs on the calling thread; a caller that wants it off the critical
    path submits the whole call to an executor.
    """
    if n < 1 or k < 1:
        raise ValueError("matrix dimensions must be >= 1")
    return rng.normal(n * k).reshape(k, n).T


def rademacher_matrix(n: int, k: int, rng: Rng) -> np.ndarray:
    """n-by-k matrix of independent signs, each exactly +1 or -1.

    The n*k signs are the low n*k bits of ceil(n*k / 64) raw stream words,
    least significant bit first, filling the columns in order; a 1 bit gives
    -1.  The first j columns therefore depend only on the first n*j bits,
    and the stream advances by exactly that many words.  Like
    ``standard_normal_matrix``, the result is in Fortran order.
    """
    if n < 1 or k < 1:
        raise ValueError("matrix dimensions must be >= 1")
    words = rng.raw(-(-n * k // 64)).astype("<u8", copy=False)
    bits = np.unpackbits(words.view(np.uint8), count=n * k, bitorder="little")
    return (1.0 - 2.0 * bits).reshape(k, n).T


def psnr(x: ImageGrid, ref: ImageGrid, peak: float = 1.0) -> float:
    """Peak signal-to-noise ratio in dB, capped at 300 for a zero-error match."""
    if peak <= 0:
        raise ValueError("peak must be positive")
    if (x.rows, x.cols) != (ref.rows, ref.cols):
        raise ValueError(f"dimension mismatch: {x.rows}x{x.cols} vs {ref.rows}x{ref.cols}")
    mse = float(np.mean((x.data - ref.data) ** 2))
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(PSNR_CAP_DB, 10.0 * np.log10(peak * peak / mse))

