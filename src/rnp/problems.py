"""Synthetic desk-scale problem instances: phantoms, degradations, noise."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import ImageGrid, Rng
from .linops import (GroupStructure, LinearOperator, adjoint_defect,
                     blur_operator, downsample_operator, grad_operator,
                     hessian_operator, radon_operator, wavelet_operator)

__all__ = [
    "ProblemInstance",
    "phantom",
    "gaussian_kernel",
    "uniform_kernel",
    "make_deblur",
    "make_sr",
    "make_ct",
    "add_salt_pepper",
]

WAVELET_LEVELS = 4


@dataclass(frozen=True)
class ProblemInstance:
    A: LinearOperator
    L: LinearOperator
    structure: GroupStructure
    y: np.ndarray = field(repr=False)
    ground_truth: ImageGrid = field(repr=False)
    peak: float = 1.0

    def __post_init__(self):
        n = self.ground_truth.rows * self.ground_truth.cols
        if self.A.domain_dim != n or self.L.domain_dim != n:
            raise ValueError("operator domains must match the ground truth size")
        if self.y.size != self.A.range_dim:
            raise ValueError("measurement length must match the forward range")
        if self.structure.range_dim != self.L.range_dim:
            raise ValueError("group structure must tile the regularizer range")


def _adjoint_checked(problem: ProblemInstance) -> ProblemInstance:
    """``problem`` once 5-trial adjoint checks of A and L pass.

    The factories run them once per instance they build; they are not in
    ``__post_init__``, so ``dataclasses.replace`` does not repeat them.
    """
    check = Rng(0)
    for op, tol in ((problem.A, 1e-8), (problem.L, 1e-10)):
        defect = adjoint_defect(op, check, trials=5)
        if defect > tol:
            raise ValueError(f"adjoint defect {defect:.2e} exceeds {tol:.0e}")
    return problem


# Modified Shepp-Logan ellipses: (value, a, b, x0, y0, angle_deg).
_SHEPP_LOGAN = [
    (1.00, 0.6900, 0.9200, 0.00, 0.0000, 0.0),
    (-0.80, 0.6624, 0.8740, 0.00, -0.0184, 0.0),
    (-0.20, 0.1100, 0.3100, 0.22, 0.0000, -18.0),
    (-0.20, 0.1600, 0.4100, -0.22, 0.0000, 18.0),
    (0.10, 0.2100, 0.2500, 0.00, 0.3500, 0.0),
    (0.10, 0.0460, 0.0460, 0.00, 0.1000, 0.0),
    (0.10, 0.0460, 0.0460, 0.00, -0.1000, 0.0),
    (0.10, 0.0460, 0.0230, -0.08, -0.6050, 0.0),
    (0.10, 0.0230, 0.0230, 0.00, -0.6060, 0.0),
    (0.10, 0.0230, 0.0460, 0.06, -0.6050, 0.0),
]

# Axis-aligned rectangles (row0, row1, col0, col1 as fractions of n, value).
_BLOCKS = [
    (0.15, 0.45, 0.20, 0.50, 0.90),
    (0.55, 0.85, 0.15, 0.40, 0.55),
    (0.60, 0.80, 0.55, 0.90, 0.75),
    (0.20, 0.35, 0.65, 0.85, 1.00),
]


def phantom(kind: str, n: int) -> ImageGrid:
    """Deterministic test image in [0, 1]; "blocks" is piecewise constant."""
    if n < 16:
        raise ValueError("phantom side must be >= 16")
    if kind == "shepp_logan":
        jj, ii = np.meshgrid(np.arange(n), np.arange(n))
        x = (2.0 * jj - n + 1.0) / n
        y = (n - 1.0 - 2.0 * ii) / n
        img = np.zeros((n, n))
        for value, a, b, x0, y0, deg in _SHEPP_LOGAN:
            ang = math.radians(deg)
            xr = (x - x0) * math.cos(ang) + (y - y0) * math.sin(ang)
            yr = -(x - x0) * math.sin(ang) + (y - y0) * math.cos(ang)
            img[(xr / a) ** 2 + (yr / b) ** 2 <= 1.0] += value
        return ImageGrid.from_matrix(np.clip(img, 0.0, 1.0))
    if kind == "blocks":
        img = np.full((n, n), 0.10)
        for r0, r1, c0, c1, value in _BLOCKS:
            img[int(r0 * n):int(r1 * n), int(c0 * n):int(c1 * n)] = value
        return ImageGrid.from_matrix(img)
    raise ValueError(f"unknown phantom kind {kind!r}")


def gaussian_kernel(size: int, sigma: float) -> np.ndarray:
    if size % 2 == 0:
        raise ValueError("kernel size must be odd")
    off = np.arange(size) - size // 2
    g = np.exp(-(off[:, None] ** 2 + off[None, :] ** 2) / (2.0 * sigma * sigma))
    return g / g.sum()


def uniform_kernel(size: int) -> np.ndarray:
    if size % 2 == 0:
        raise ValueError("kernel size must be odd")
    return np.full((size, size), 1.0 / (size * size))


_DEBLUR_KERNELS = {
    "uniform9": lambda: uniform_kernel(9),
    "gauss9": lambda: gaussian_kernel(9, 1.6),
}


def add_salt_pepper(x: ImageGrid, frac: float, rng: Rng) -> ImageGrid:
    """Set exactly floor(frac*N) pixels to 1, then the same count of the
    remaining pixels to 0 (the two draws are disjoint)."""
    if not 0.0 <= frac <= 0.5:
        raise ValueError("frac must lie in [0, 0.5]")
    data = x.data.copy()
    count = int(frac * data.size)
    if count:
        perm = rng.permutation(data.size)
        data[perm[:count]] = 1.0
        data[perm[count:2 * count]] = 0.0
    return ImageGrid(x.rows, x.cols, data)


def make_deblur(kernel: str, n: int, noise_frac: float, rng: Rng) -> ProblemInstance:
    """Circular blur + salt-and-pepper corruption, gradient-group regularizer."""
    if n < 32:
        raise ValueError("deblur image side must be >= 32")
    if kernel not in _DEBLUR_KERNELS:
        raise ValueError(f"kernel must be one of {sorted(_DEBLUR_KERNELS)}")
    truth = phantom("blocks", n)
    A = blur_operator(_DEBLUR_KERNELS[kernel](), n, n)
    L, structure = grad_operator(n, n)
    clean = ImageGrid(n, n, A.apply(truth.data))
    y = add_salt_pepper(clean, noise_frac, rng)
    return _adjoint_checked(ProblemInstance(A, L, structure, y.data, truth))


def make_sr(n: int, factor: int, noise_frac: float, rng: Rng) -> ProblemInstance:
    """7x7 Gaussian blur (sigma 1.6) then decimation by ``factor``."""
    if n % factor:
        raise ValueError(f"n={n} not divisible by factor={factor}")
    truth = phantom("blocks", n)
    blur = blur_operator(gaussian_kernel(7, 1.6), n, n)
    A = downsample_operator(blur, n, n, factor)
    L, structure = grad_operator(n, n)
    low = ImageGrid(n // factor, n // factor, A.apply(truth.data))
    y = add_salt_pepper(low, noise_frac, rng)
    return _adjoint_checked(ProblemInstance(A, L, structure, y.data, truth))


def make_ct(n: int, views: int, regularizer: str, noise_sigma: float,
            rng: Rng) -> ProblemInstance:
    """Parallel-beam measurements of a phantom with additive Gaussian noise
    scaled by the sinogram peak; regularizer is wavelet, tv, or hs."""
    if n < 16 or views < 1:
        raise ValueError("need n >= 16 and views >= 1")
    bins = int(math.ceil(n * math.sqrt(2.0)))
    bins += 1 - bins % 2  # odd so a ray passes through the exact center
    truth = phantom("shepp_logan", n)
    A = radon_operator(n, views, bins)
    if regularizer == "wavelet":
        if n % (1 << WAVELET_LEVELS):
            raise ValueError(f"wavelet regularizer needs n divisible by {1 << WAVELET_LEVELS}")
        L = wavelet_operator(n, n, WAVELET_LEVELS)
        structure = GroupStructure("scalar", n * n, 1)
    elif regularizer == "tv":
        L, structure = grad_operator(n, n)
    elif regularizer == "hs":
        L, structure = hessian_operator(n, n)
    else:
        raise ValueError("regularizer must be wavelet, tv, or hs")
    sino = A.apply(truth.data)
    y = sino.copy()
    if noise_sigma > 0:
        y += noise_sigma * float(np.abs(sino).max()) * rng.normal(sino.size)
    return _adjoint_checked(ProblemInstance(A, L, structure, y, truth))
