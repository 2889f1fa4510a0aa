"""Matrix-free linear operators for the imaging experiments.

All operators act on flat float64 vectors; images use the column-stacked
convention of :class:`rnp.core.ImageGrid` (pixel (i, j) at index j*rows + i).
Boundary handling is periodic throughout, which keeps every adjoint exact.

Both maps of an operator also take an N x K block of columns, and each
column of a block's image equals the vector map of that column bit for bit.
Maps without a native block product loop over the columns (``columnwise``).

Operators are immutable after construction and safe for concurrent use:
any number of threads may apply one operator at the same time.  Large
radon operators split each product across the usable cores, running one
row block on the calling thread and the others on a thread pool shared by
the whole process; nothing else runs on that pool.  The pool is created on
first use and recreated in a child after ``fork``, whose copy of the pool
has no threads.  No task running on the pool may submit to it and wait for
the result: with one worker, that task would wait on itself.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np
from scipy import sparse
from scipy.linalg import eigvalsh_tridiagonal

from .core import Rng

__all__ = [
    "LinearOperator",
    "GroupStructure",
    "DiagonalWeight",
    "columnwise",
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
    "apply_on_one_core",
    "gram_operator",
    "operator_norm_sq",
    "adjoint_defect",
    "to_dense",
]


@dataclass(frozen=True)
class LinearOperator:
    """Matrix-free map with explicit adjoint and declared dimensions.

    ``apply`` and ``adjoint`` each take a vector or a block of K columns
    (domain_dim x K and range_dim x K); each column of a block's image must
    equal the vector map of that column bit for bit.
    """

    domain_dim: int
    range_dim: int
    apply: Callable[[np.ndarray], np.ndarray]
    adjoint: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.domain_dim <= 0 or self.range_dim <= 0:
            raise ValueError("operator dimensions must be positive")


def columnwise(fn: Callable[[np.ndarray], np.ndarray],
               rows: int) -> Callable[[np.ndarray], np.ndarray]:
    """A vector map extended to blocks by mapping each column; a vector goes
    to ``fn`` unchanged and a block's image has ``rows`` rows."""

    def mapped(x):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            return fn(x)
        # Fortran order: each column's map reads and writes contiguous memory
        # when x is Fortran-ordered too, as the sketch's test matrix is
        out = np.empty((rows, x.shape[1]), order="F")
        for j in range(x.shape[1]):
            out[:, j] = fn(x[:, j])
        return out

    return mapped


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

    @cached_property
    def range_weights(self) -> np.ndarray:
        """The component weights of every group as one read-only range vector."""
        w = np.tile(self.component_weights, self.group_count)
        w.flags.writeable = False
        return w

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
    """The dense matrix ``m`` as an operator.  Blocks map column by column,
    because a BLAS matrix-matrix product may round differently from the
    matrix-vector products of its columns."""
    m = np.asarray(m, dtype=np.float64)
    return LinearOperator(m.shape[1], m.shape[0], columnwise(lambda x: m @ x, m.shape[0]),
                          columnwise(lambda y: m.T @ y, m.shape[1]))


def compose(outer: LinearOperator, inner: LinearOperator) -> LinearOperator:
    """outer o inner (apply inner first)."""
    if inner.range_dim != outer.domain_dim:
        raise ValueError("incompatible dimensions for composition")
    return LinearOperator(inner.domain_dim, outer.range_dim,
                          lambda x: outer.apply(inner.apply(x)),
                          lambda y: inner.adjoint(outer.adjoint(y)))


def transpose(op: LinearOperator) -> LinearOperator:
    return LinearOperator(op.range_dim, op.domain_dim, op.adjoint, op.apply)


# ---------------------------------------------------------------------------
# Image-domain operators
# ---------------------------------------------------------------------------


def _as_image(x: np.ndarray, rows: int, cols: int) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).reshape(rows, cols, order="F")


def _as_transposed_image(x: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The column-stacked vector as a (cols, rows) C-ordered view: element
    [j, i] is pixel (i, j), so pixel rows run along axis 1."""
    return np.asarray(x, dtype=np.float64).reshape(cols, rows)


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
        im_t = _as_transposed_image(x, rows, cols)
        return np.fft.irfft2(np.fft.rfft2(im_t) * transfer, s=(cols, rows)).ravel()

    return LinearOperator(n, n, columnwise(lambda x: filtered(x, otf), n),
                          columnwise(lambda y: filtered(y, otf_conj), n))


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

    return LinearOperator(rows * cols, out_rows * out_cols,
                          columnwise(apply, out_rows * out_cols), columnwise(adjoint, rows * cols))


def _periodic_shifts(t: np.ndarray) -> Callable[[int, int], np.ndarray]:
    """For a (cols, rows) view t of an image im, the map
    ``(di, dj) -> im[i + di, j + dj]`` (periodic, |di|, |dj| <= 1) in the
    same view, as slices of one copy of t with a one-pixel wrapped border."""
    cols, rows = t.shape
    pad = np.empty((cols + 2, rows + 2))
    pad[1:-1, 1:-1] = t
    pad[0, 1:-1], pad[-1, 1:-1] = t[-1], t[0]
    pad[:, 0], pad[:, -1] = pad[:, -2], pad[:, 1]
    return lambda di, dj: pad[1 + dj:1 + dj + cols, 1 + di:1 + di + rows]


def grad_operator(rows: int, cols: int) -> tuple[LinearOperator, GroupStructure]:
    """Per-pixel (vertical, horizontal) periodic first differences.

    Both maps take slice differences on the (cols, rows) view of the
    column-stacked vector, whose (pixel, component) output is a
    (cols, rows, 2) array in C order.
    """
    if rows < 2 or cols < 2:
        raise ValueError("need at least a 2x2 image")
    n = rows * cols
    structure = GroupStructure("vector", n, 2)

    def apply(x):
        t = _as_transposed_image(x, rows, cols)
        out = np.empty((cols, rows, 2))
        v, h = out[..., 0], out[..., 1]
        np.subtract(t[:, 1:], t[:, :-1], out=v[:, 1:])
        np.subtract(t[:, :1], t[:, -1:], out=v[:, :1])
        np.subtract(t[1:], t[:-1], out=h[1:])
        np.subtract(t[:1], t[-1:], out=h[:1])
        return out.ravel()

    def adjoint(g):
        grp = np.asarray(g, dtype=np.float64).reshape(cols, rows, 2)
        v, h = grp[..., 0], grp[..., 1]
        out = np.empty((cols, rows))
        np.subtract(v[:, :-1], v[:, 1:], out=out[:, :-1])
        np.subtract(v[:, -1:], v[:, :1], out=out[:, -1:])
        out += h
        out[:-1] -= h[1:]
        out[-1:] -= h[:1]
        return out.ravel()

    return LinearOperator(n, 2 * n, columnwise(apply, 2 * n), columnwise(adjoint, n)), structure


def hessian_operator(rows: int, cols: int) -> tuple[LinearOperator, GroupStructure]:
    """Per-pixel symmetric second differences (v11, v22, v12), periodic.

    Like ``grad_operator``, both maps work on the (cols, rows) view, here
    through the shifted slices of ``_periodic_shifts``.
    """
    if rows < 3 or cols < 3:
        raise ValueError("need at least a 3x3 image")
    n = rows * cols
    structure = GroupStructure("sym2x2", n, 3)

    def apply(x):
        t = _as_transposed_image(x, rows, cols)
        s = _periodic_shifts(t)
        out = np.empty((cols, rows, 3))
        out[..., 0] = s(-1, 0) - 2.0 * t + s(1, 0)
        out[..., 1] = s(0, -1) - 2.0 * t + s(0, 1)
        out[..., 2] = 0.25 * (s(1, 1) - s(1, -1) - s(-1, 1) + s(-1, -1))
        return out.ravel()

    def adjoint(g):
        grp = np.asarray(g, dtype=np.float64).reshape(cols, rows, 3)
        a, b, c = (_periodic_shifts(grp[..., m]) for m in range(3))
        out = a(1, 0) - 2.0 * a(0, 0) + a(-1, 0)
        out += b(0, 1) - 2.0 * b(0, 0) + b(0, -1)
        out += 0.25 * (c(-1, -1) - c(-1, 1) - c(1, -1) + c(1, 1))
        return out.ravel()

    return LinearOperator(n, 3 * n, columnwise(apply, 3 * n), columnwise(adjoint, n)), structure


# Orthonormal 4-tap Daubechies analysis filters.
_DB4_SQRT3 = np.sqrt(3.0)
_DB4_LO = np.array([1.0 + _DB4_SQRT3, 3.0 + _DB4_SQRT3, 3.0 - _DB4_SQRT3, 1.0 - _DB4_SQRT3]) / (4.0 * np.sqrt(2.0))
_DB4_HI = np.array([_DB4_LO[3], -_DB4_LO[2], _DB4_LO[1], -_DB4_LO[0]])


def _db4_bank(n: int) -> sparse.csr_matrix:
    """One periodic DB4 analysis level on a length-n signal as an n x n CSR
    matrix: row i < n/2 holds the lowpass taps and row n/2 + i the highpass
    taps, at columns (2i + m) % n.  Each row keeps its taps in order
    m = 0..3 (so the wrap rows are unsorted), which makes a product sum the
    same terms in the same order as the tap-by-tap loop."""
    half = n // 2
    cols = (2 * np.arange(half)[:, None] + np.arange(4)) % n
    data = np.concatenate([np.tile(_DB4_LO, half), np.tile(_DB4_HI, half)])
    bank = sparse.csr_matrix((data, np.concatenate([cols, cols]).ravel(),
                              np.arange(0, 4 * n + 1, 4)), shape=(n, n))
    bank.has_sorted_indices = False
    return bank


def wavelet_operator(rows: int, cols: int, levels: int) -> LinearOperator:
    """Orthonormal separable 2-D Daubechies-4 transform, periodic boundary.

    Level k filters the top-left (rows >> k) x (cols >> k) block along the
    rows, then along the columns.  Each level and axis is a sparse analysis
    bank built once here (see ``_db4_bank``), so one level is
    ``block = (Fc @ (Fr @ block).T).T``.  The adjoint applies the cached
    CSR transposes of the same banks, deepest level first; it inverts the
    transform exactly (the map is orthogonal).
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if rows % (1 << levels) or cols % (1 << levels):
        raise ValueError(f"dims ({rows}, {cols}) not divisible by 2**{levels}")
    if min(rows, cols) >> (levels - 1) < 4:
        raise ValueError("deepest level would transform a signal shorter than the filter")
    n = rows * cols
    banks = [(rows >> k, cols >> k, _db4_bank(rows >> k), _db4_bank(cols >> k))
             for k in range(levels)]
    banks_t = [(r, c, fr.T.tocsr(), fc.T.tocsr()) for r, c, fr, fc in reversed(banks)]

    def apply(x):
        im = _as_image(x, rows, cols).copy()
        for r, c, fr, fc in banks:
            im[:r, :c] = (fc @ (fr @ im[:r, :c]).T).T
        return im.ravel(order="F")

    def adjoint(w):
        im = _as_image(w, rows, cols).copy()
        for r, c, fr_t, fc_t in banks_t:
            im[:r, :c] = fr_t @ (fc_t @ im[:r, :c].T).T
        return im.ravel(order="F")

    return LinearOperator(n, n, columnwise(apply, n), columnwise(adjoint, n))


def radon_operator(n: int, views: int, detector_bins: int) -> LinearOperator:
    """Parallel-beam line integrals over equispaced angles in [0, pi).

    Joseph-style interpolation: each ray marches one pixel at a time along
    its dominant axis and linearly interpolates along the other; the adjoint
    backprojects the identical weights, so the pair is exactly matched.
    Detector spacing equals pixel spacing; the weight matrix is precomputed
    sparse (desk scale), which keeps apply/adjoint cheap and consistent.
    The matrices of the last geometry are kept (``_radon_matrices``), so
    the seeds of a sweep share one assembly.  Both directions accept a
    vector or an N x K block of columns, and a large matrix splits each
    product across the cores usable when the operator is built (see
    ``_row_blocked``); either way the result is bit-identical to one CSR
    product.
    """
    if n < 1 or views < 1 or detector_bins < 1:
        raise ValueError("n, views, and detector_bins must be >= 1")
    mat, mat_t = _radon_matrices(n, views, detector_bins)
    return LinearOperator(n * n, views * detector_bins, _row_blocked(mat), _row_blocked(mat_t))


@lru_cache(maxsize=1)
def _radon_matrices(n: int, views: int,
                    detector_bins: int) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """The radon weight matrix and its transpose as CSR, with read-only
    arrays: every operator of this geometry shares them."""
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
    pair = mat, mat.T.tocsr()
    for m in pair:
        for arr in (m.data, m.indices, m.indptr):
            arr.flags.writeable = False
    return pair


# Nonzeros each row block keeps, at least.  Measured on a 2-core x86_64 VM,
# 60 views, one A, A', A pass in 2 blocks against 1 (medians of 15 x 20):
# n=80 (0.69 M nonzeros) 2.2-2.8 -> 1.7-2.0 ms, n=96 (1.0 M) 4.0 -> 2.5 ms,
# n=128 (1.77 M) 8.5 -> 4.7 ms.  At n=64 (0.44 M) that pass gained
# 1.4-1.7 -> 1.1-1.4 ms, but whole WAPG TV solves did not (10 alternating
# pairs: K=0 0.267 -> 0.246 s, K=20 0.771 -> 0.808 s), so it stays unsplit.
_MIN_BLOCK_NNZ = 300_000

_pool: Optional[ThreadPoolExecutor] = None
_pool_lock = threading.Lock()
_one_core = False


def apply_on_one_core() -> None:
    """Build every later operator of this process unsplit.

    Workers of a process pool call this: their siblings already occupy the
    other cores, so splitting would only make the workers contend.
    """
    global _one_core
    _one_core = True


def _forget_pool() -> None:
    # a forked child inherits the pool object but none of its threads
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def _usable_cores() -> int:
    if _one_core:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _shared_pool() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max(_usable_cores() - 1, 1),
                                       thread_name_prefix="rnp-linops")
        return _pool


def _row_blocked(mat: sparse.csr_matrix) -> Callable[[np.ndarray], np.ndarray]:
    """``x -> mat @ x`` for a vector or a block of columns, split across cores.

    The rows are cut into contiguous CSR row slices holding about equal
    nonzeros, one per usable core while each keeps at least
    ``_MIN_BLOCK_NNZ``.  Every output row sums the same products in the same
    order as the whole product does, so the result is bit-identical.  The
    slices are built on slices of ``mat``'s arrays, since ``mat[a:b]`` would
    copy them (about 15 ms per direction at n=128), but scipy's constructor
    copies any slice under half its base array (``_prune_array``), such as
    the second transpose slice at n=128, 60 views, 2 blocks.  A block goes through scipy's
    multi-vector product, whose columns equal the single-vector products
    bit for bit.
    """
    blocks = max(1, min(_usable_cores(), mat.nnz // _MIN_BLOCK_NNZ))
    if blocks == 1:
        return lambda x: mat @ np.asarray(x, dtype=np.float64)
    cuts = np.searchsorted(mat.indptr, np.arange(1, blocks) * (mat.nnz / blocks))
    bounds = [0, *cuts.tolist(), mat.shape[0]]
    ptr, cols = mat.indptr, mat.shape[1]
    head, *rest = [sparse.csr_matrix((mat.data[ptr[a]:ptr[b]], mat.indices[ptr[a]:ptr[b]],
                                      ptr[a:b + 1] - ptr[a]), shape=(b - a, cols), copy=False)
                   for a, b in zip(bounds[:-1], bounds[1:])]

    def product(x):
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.shape[0] != cols:
            raise ValueError(f"dimension mismatch: expected {cols} rows, got {x.shape[0]}")
        pool = _shared_pool()
        pending = [pool.submit(part.__matmul__, x) for part in rest]
        return np.concatenate([head @ x] + [f.result() for f in pending])

    return product


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

    normal = columnwise(lambda x: A.adjoint(wf * A.apply(x)) + lam * L.adjoint(wg * L.apply(x)),
                        A.domain_dim)
    return LinearOperator(A.domain_dim, A.domain_dim, normal, normal)


# Relative move of the top Ritz value between two Lanczos steps at which
# ``operator_norm_sq`` stops.  At 1e-4 the estimate can stop on a plateau
# of a clustered top spectrum: 8 of 30 start vectors on a 32 x 32 gradient
# stopped 1.2e-3 to 5.5e-3 below lambda_max.  At 1e-5 the worst is 3.3e-5 below.
_RITZ_RTOL = 1e-5


def operator_norm_sq(op: LinearOperator, iters: int, rng: Rng) -> float:
    """Lanczos estimate of ||op||^2 = lambda_max(op' op), from below.

    Runs at most ``iters`` Lanczos steps on op'op (one apply and one adjoint
    each) from the unit vector along ``rng.normal(domain_dim)``, fully
    reorthogonalizing each new vector against the basis so far, and returns
    the largest eigenvalue of the tridiagonal projection (the top Ritz
    value).  That is a Rayleigh quotient of op'op, so it never exceeds
    lambda_max beyond rounding.  It stops early at breakdown, where the
    Krylov space is invariant and the Ritz value exact (the zero operator
    gives 0.0), or once the top Ritz value moves by at most ``_RITZ_RTOL``
    relative between two steps (Kuczynski & Wozniakowski, SIMAX 1992).
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    steps = min(iters, op.domain_dim)
    basis = np.empty((steps, op.domain_dim))
    diag, off = np.empty(steps), np.empty(steps)
    v = rng.normal(op.domain_dim)
    basis[0] = v / np.linalg.norm(v)
    top = 0.0
    for j in range(steps):
        w = op.adjoint(op.apply(basis[j]))
        done = basis[:j + 1]
        coef = done @ w
        diag[j] = coef[j]
        # classical Gram-Schmidt against every earlier vector, twice
        w = w - done.T @ coef
        w -= done.T @ (done @ w)
        prev, top = top, float(eigvalsh_tridiagonal(diag[:j + 1], off[:j], select="i",
                                                    select_range=(j, j))[0])
        off[j] = np.linalg.norm(w)
        if off[j] <= 1e-12 * top or abs(top - prev) <= _RITZ_RTOL * top or j + 1 == steps:
            break
        basis[j + 1] = w / off[j]
    return top


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
