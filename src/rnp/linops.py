"""Matrix-free linear operators for the imaging experiments.

All operators act on flat float64 vectors; images use the column-stacked
convention of :class:`rnp.core.ImageGrid` (pixel (i, j) at index j*rows + i).
Boundary handling is periodic throughout, which keeps every adjoint exact.

Operators are immutable after construction and safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import sparse

from .core import Rng

__all__ = [
    "LinearOperator",
    "GroupStructure",
    "DiagonalWeight",
    "identity_operator",
    "matrix_operator",
    "compose",
    "transpose",
    "blur_operator",
    "downsample_operator",
    "grad_operator",
    "hessian_operator",
    "wavelet_operator",
    "radon_operator",
    "gram_operator",
    "operator_norm_sq",
    "adjoint_defect",
    "to_dense",
]


@dataclass(frozen=True)
class LinearOperator:
    """Matrix-free map with explicit adjoint and declared dimensions."""

    domain_dim: int
    range_dim: int
    apply: Callable[[np.ndarray], np.ndarray]
    adjoint: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.domain_dim <= 0 or self.range_dim <= 0:
            raise ValueError("operator dimensions must be positive")


@dataclass(frozen=True)
class GroupStructure:
    """Grouping of an operator's range into G groups of pi components.

    kind is one of "scalar" (pi = 1), "vector" (pi components per group), or
    "sym2x2" (pi = 3, storing (v11, v22, v12) of a symmetric 2x2 matrix with
    v21 = v12 implied).  For sym2x2 the natural pairing between groups is the
    matrix Frobenius inner product, which counts the off-diagonal twice; the
    component_weights vector carries that factor.
    """

    kind: str
    group_count: int
    group_size: int

    def __post_init__(self):
        if self.kind not in ("scalar", "vector", "sym2x2"):
            raise ValueError(f"unknown group kind {self.kind!r}")
        if self.kind == "scalar" and self.group_size != 1:
            raise ValueError("scalar groups must have size 1")
        if self.kind == "sym2x2" and self.group_size != 3:
            raise ValueError("sym2x2 groups store (v11, v22, v12)")
        if self.group_count <= 0 or self.group_size <= 0:
            raise ValueError("group counts and sizes must be positive")

    @property
    def range_dim(self) -> int:
        return self.group_count * self.group_size

    @property
    def component_weights(self) -> np.ndarray:
        if self.kind == "sym2x2":
            return np.array([1.0, 1.0, 2.0])
        return np.ones(self.group_size)

    def as_groups(self, v: np.ndarray) -> np.ndarray:
        """View a range vector as a (G, pi) array (groups are interleaved)."""
        return np.asarray(v).reshape(self.group_count, self.group_size)


@dataclass(frozen=True)
class DiagonalWeight:
    """Strictly positive diagonal weighting."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64).ravel()
        if values.size == 0 or not np.all(np.isfinite(values)) or np.any(values <= 0):
            raise ValueError("weights must be positive and finite")
        object.__setattr__(self, "values", values)


def identity_operator(n: int) -> LinearOperator:
    return LinearOperator(n, n, lambda x: np.asarray(x, dtype=np.float64).copy(),
                          lambda y: np.asarray(y, dtype=np.float64).copy())


def matrix_operator(m: np.ndarray) -> LinearOperator:
    m = np.asarray(m, dtype=np.float64)
    return LinearOperator(m.shape[1], m.shape[0], lambda x: m @ x, lambda y: m.T @ y)


def compose(outer: LinearOperator, inner: LinearOperator) -> LinearOperator:
    """outer o inner (apply inner first)."""
    if inner.range_dim != outer.domain_dim:
        raise ValueError("incompatible dimensions for composition")
    return LinearOperator(
        inner.domain_dim,
        outer.range_dim,
        lambda x: outer.apply(inner.apply(x)),
        lambda y: inner.adjoint(outer.adjoint(y)),
    )


def transpose(op: LinearOperator) -> LinearOperator:
    return LinearOperator(op.range_dim, op.domain_dim, op.adjoint, op.apply)


# ---------------------------------------------------------------------------
# Image-domain operators
# ---------------------------------------------------------------------------


def _as_image(x: np.ndarray, rows: int, cols: int) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).reshape(rows, cols, order="F")


def blur_operator(kernel: np.ndarray, rows: int, cols: int) -> LinearOperator:
    """Circular 2-D convolution with an odd-sized kernel (FFT-based).

    Images are real, so the transfer function is stored as the half
    spectrum ``rfft2`` of the centred, zero-padded kernel, and each apply is
    ``irfft2(rfft2(image) * otf)``; the adjoint multiplies by ``conj(otf)``.
    The transforms run on the column-stacked vector read as the transposed
    image (cols x rows, C order), which needs no copy, so the kernel is
    transposed to match.
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.ndim != 2 or kernel.shape[0] % 2 == 0 or kernel.shape[1] % 2 == 0:
        raise ValueError("kernel must be 2-D with odd side lengths")
    if kernel.shape[0] > rows or kernel.shape[1] > cols:
        raise ValueError("kernel larger than image")
    pad = np.zeros((cols, rows))
    kr, kc = kernel.shape
    pad[:kc, :kr] = kernel.T
    pad = np.roll(pad, (-(kc // 2), -(kr // 2)), axis=(0, 1))
    otf = np.fft.rfft2(pad)
    otf_conj = np.conj(otf)
    n = rows * cols

    def filtered(x, transfer):
        im_t = np.asarray(x, dtype=np.float64).reshape(cols, rows)
        return np.fft.irfft2(np.fft.rfft2(im_t) * transfer, s=(cols, rows)).ravel()

    return LinearOperator(n, n, lambda x: filtered(x, otf), lambda y: filtered(y, otf_conj))


def downsample_operator(blur: LinearOperator, rows: int, cols: int, factor: int) -> LinearOperator:
    """Blur followed by keeping every factor-th row/column (from index 0)."""
    if rows % factor or cols % factor:
        raise ValueError(f"image dims ({rows}, {cols}) not divisible by factor {factor}")
    if blur.domain_dim != rows * cols or blur.range_dim != rows * cols:
        raise ValueError("blur operator does not match the image size")
    out_rows, out_cols = rows // factor, cols // factor

    def apply(x):
        im = _as_image(blur.apply(x), rows, cols)
        return im[::factor, ::factor].ravel(order="F")

    def adjoint(y):
        up = np.zeros((rows, cols))
        up[::factor, ::factor] = _as_image(y, out_rows, out_cols)
        return blur.adjoint(up.ravel(order="F"))

    return LinearOperator(rows * cols, out_rows * out_cols, apply, adjoint)


def grad_operator(rows: int, cols: int) -> tuple[LinearOperator, GroupStructure]:
    """Per-pixel (vertical, horizontal) periodic first differences."""
    if rows < 2 or cols < 2:
        raise ValueError("need at least a 2x2 image")
    n = rows * cols
    structure = GroupStructure("vector", n, 2)

    def apply(x):
        im = _as_image(x, rows, cols)
        out = np.empty((n, 2))
        out[:, 0] = (im - np.roll(im, 1, axis=0)).ravel(order="F")
        out[:, 1] = (im - np.roll(im, 1, axis=1)).ravel(order="F")
        return out.ravel()

    def adjoint(g):
        grp = np.asarray(g, dtype=np.float64).reshape(n, 2)
        v = grp[:, 0].reshape(rows, cols, order="F")
        h = grp[:, 1].reshape(rows, cols, order="F")
        out = v - np.roll(v, -1, axis=0) + h - np.roll(h, -1, axis=1)
        return out.ravel(order="F")

    return LinearOperator(n, 2 * n, apply, adjoint), structure


def hessian_operator(rows: int, cols: int) -> tuple[LinearOperator, GroupStructure]:
    """Per-pixel symmetric second differences (v11, v22, v12), periodic."""
    if rows < 3 or cols < 3:
        raise ValueError("need at least a 3x3 image")
    n = rows * cols
    structure = GroupStructure("sym2x2", n, 3)

    def apply(x):
        im = _as_image(x, rows, cols)
        v11 = np.roll(im, 1, axis=0) - 2.0 * im + np.roll(im, -1, axis=0)
        v22 = np.roll(im, 1, axis=1) - 2.0 * im + np.roll(im, -1, axis=1)
        v12 = 0.25 * (
            np.roll(im, (-1, -1), axis=(0, 1))
            - np.roll(im, (-1, 1), axis=(0, 1))
            - np.roll(im, (1, -1), axis=(0, 1))
            + np.roll(im, (1, 1), axis=(0, 1))
        )
        out = np.empty((n, 3))
        out[:, 0] = v11.ravel(order="F")
        out[:, 1] = v22.ravel(order="F")
        out[:, 2] = v12.ravel(order="F")
        return out.ravel()

    def adjoint(g):
        grp = np.asarray(g, dtype=np.float64).reshape(n, 3)
        a = grp[:, 0].reshape(rows, cols, order="F")
        b = grp[:, 1].reshape(rows, cols, order="F")
        c = grp[:, 2].reshape(rows, cols, order="F")
        out = np.roll(a, -1, axis=0) - 2.0 * a + np.roll(a, 1, axis=0)
        out += np.roll(b, -1, axis=1) - 2.0 * b + np.roll(b, 1, axis=1)
        out += 0.25 * (
            np.roll(c, (1, 1), axis=(0, 1))
            - np.roll(c, (1, -1), axis=(0, 1))
            - np.roll(c, (-1, 1), axis=(0, 1))
            + np.roll(c, (-1, -1), axis=(0, 1))
        )
        return out.ravel(order="F")

    return LinearOperator(n, 3 * n, apply, adjoint), structure


# Orthonormal 4-tap Daubechies analysis filters.
_DB4_SQRT3 = np.sqrt(3.0)
_DB4_LO = np.array([1.0 + _DB4_SQRT3, 3.0 + _DB4_SQRT3, 3.0 - _DB4_SQRT3, 1.0 - _DB4_SQRT3]) / (4.0 * np.sqrt(2.0))
_DB4_HI = np.array([_DB4_LO[3], -_DB4_LO[2], _DB4_LO[1], -_DB4_LO[0]])


def _dwt_axis(block: np.ndarray, axis: int) -> np.ndarray:
    n = block.shape[axis]
    half = n // 2
    x = np.moveaxis(block, axis, 0)
    out = np.zeros_like(x)
    base = 2 * np.arange(half)
    for m in range(4):
        rows = (base + m) % n
        out[:half] += _DB4_LO[m] * x[rows]
        out[half:] += _DB4_HI[m] * x[rows]
    return np.moveaxis(out, 0, axis)


def _idwt_axis(block: np.ndarray, axis: int) -> np.ndarray:
    n = block.shape[axis]
    half = n // 2
    x = np.moveaxis(block, axis, 0)
    out = np.zeros_like(x)
    base = 2 * np.arange(half)
    for m in range(4):
        rows = (base + m) % n
        np.add.at(out, rows, _DB4_LO[m] * x[:half] + _DB4_HI[m] * x[half:])
    return np.moveaxis(out, 0, axis)


def wavelet_operator(rows: int, cols: int, levels: int) -> LinearOperator:
    """Orthonormal separable 2-D Daubechies-4 transform, periodic boundary.

    The adjoint inverts the transform exactly (the map is orthogonal).
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if rows % (1 << levels) or cols % (1 << levels):
        raise ValueError(f"dims ({rows}, {cols}) not divisible by 2**{levels}")
    if min(rows, cols) >> (levels - 1) < 4:
        raise ValueError("deepest level would transform a signal shorter than the filter")
    n = rows * cols

    def apply(x):
        im = _as_image(x, rows, cols).copy()
        r, c = rows, cols
        for _ in range(levels):
            im[:r, :c] = _dwt_axis(_dwt_axis(im[:r, :c], 0), 1)
            r //= 2
            c //= 2
        return im.ravel(order="F")

    def adjoint(w):
        im = _as_image(w, rows, cols).copy()
        sizes = [(rows >> k, cols >> k) for k in range(levels)]
        for r, c in reversed(sizes):
            im[:r, :c] = _idwt_axis(_idwt_axis(im[:r, :c], 1), 0)
        return im.ravel(order="F")

    return LinearOperator(n, n, apply, adjoint)


def radon_operator(n: int, views: int, detector_bins: int) -> LinearOperator:
    """Parallel-beam line integrals over equispaced angles in [0, pi).

    Joseph-style interpolation: each ray marches one pixel at a time along
    its dominant axis and linearly interpolates along the other; the adjoint
    backprojects the identical weights, so the pair is exactly matched.
    Detector spacing equals pixel spacing; the weight matrix is precomputed
    sparse (desk scale), which keeps apply/adjoint cheap and consistent.
    """
    if n < 1 or views < 1 or detector_bins < 1:
        raise ValueError("n, views, and detector_bins must be >= 1")
    c = (n - 1) / 2.0
    t = np.arange(detector_bins) - (detector_bins - 1) / 2.0
    rows_idx, cols_idx, vals = [], [], []
    march = np.arange(n) - c  # coordinate of the axis being marched over
    for v in range(views):
        theta = v * np.pi / views
        ct, st = np.cos(theta), np.sin(theta)
        if abs(ct) >= abs(st):
            # march over image rows; interpolate between columns
            coord = (t[:, None] - march[None, :] * st) / ct + c
            weight = 1.0 / abs(ct)
            fixed = np.broadcast_to(np.arange(n)[None, :], coord.shape)
            interp_stride, fixed_stride = n, 1  # pixel index = j*n + i
        else:
            # march over image columns; interpolate between rows
            coord = (t[:, None] - march[None, :] * ct) / st + c
            weight = 1.0 / abs(st)
            fixed = np.broadcast_to(np.arange(n)[None, :], coord.shape)
            interp_stride, fixed_stride = 1, n
        lo = np.floor(coord).astype(np.int64)
        frac = coord - lo
        ray = v * detector_bins + np.broadcast_to(np.arange(detector_bins)[:, None], coord.shape)
        for cell, w in ((lo, (1.0 - frac) * weight), (lo + 1, frac * weight)):
            ok = (cell >= 0) & (cell < n)
            rows_idx.append(ray[ok])
            cols_idx.append((cell * interp_stride + fixed * fixed_stride)[ok])
            vals.append(w[ok])
    mat = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows_idx), np.concatenate(cols_idx))),
        shape=(views * detector_bins, n * n),
    )
    mat_t = mat.T.tocsr()
    return LinearOperator(n * n, views * detector_bins,
                          lambda x: mat @ np.asarray(x, dtype=np.float64),
                          lambda y: mat_t @ np.asarray(y, dtype=np.float64))


def gram_operator(A: LinearOperator, Wf: DiagonalWeight, L: LinearOperator,
                  Wg: DiagonalWeight, lam: float) -> LinearOperator:
    """Symmetric PSD map x -> A'(Wf (A x)) + lam * L'(Wg (L x))."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    if A.domain_dim != L.domain_dim:
        raise ValueError("A and L must share a domain")
    if Wf.values.size != A.range_dim or Wg.values.size != L.range_dim:
        raise ValueError("weight sizes must match operator ranges")
    wf, wg = Wf.values, Wg.values

    def apply(x):
        return A.adjoint(wf * A.apply(x)) + lam * L.adjoint(wg * L.apply(x))

    return LinearOperator(A.domain_dim, A.domain_dim, apply, apply)


def operator_norm_sq(op: LinearOperator, iters: int, rng: Rng) -> float:
    """Power-iteration underestimate of ||op||^2 = lambda_max(op' op)."""
    if iters < 1:
        raise ValueError("iters must be >= 1")
    v = rng.normal(op.domain_dim)
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(iters):
        w = op.adjoint(op.apply(v))
        est = float(np.dot(v, w))
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
    return est


def adjoint_defect(op: LinearOperator, rng: Rng, trials: int = 20) -> float:
    """Largest normalized adjoint mismatch over random probe pairs."""
    worst = 0.0
    for _ in range(trials):
        x = rng.normal(op.domain_dim)
        y = rng.normal(op.range_dim)
        ax = op.apply(x)
        aty = op.adjoint(y)
        num = abs(float(np.dot(ax, y)) - float(np.dot(x, aty)))
        den = (np.linalg.norm(ax) * np.linalg.norm(y)
               + np.linalg.norm(x) * np.linalg.norm(aty) + 1e-300)
        worst = max(worst, num / den)
    return worst


def to_dense(op: LinearOperator) -> np.ndarray:
    """Materialize a small operator column by column (test oracles only)."""
    out = np.empty((op.range_dim, op.domain_dim))
    probe = np.zeros(op.domain_dim)
    for j in range(op.domain_dim):
        probe[j] = 1.0
        out[:, j] = op.apply(probe)
        probe[j] = 0.0
    return out
