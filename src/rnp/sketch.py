"""Randomized Nystrom sketching and the derived preconditioner.

The sketch of a symmetric PSD operator Phi yields orthonormal directions U
and eigenvalue estimates S_hat; the preconditioner built from them is

    P     = U ((S_hat + mu) / (t + mu)) U' + (I - U U')
    P^-1  = U ((t + mu) / (S_hat + mu)) U' + (I - U U')

with tail value t = s_K (the smallest sketched eigenvalue) or sqrt(s_K)
when ``sqrt_tail`` is set, which empirically speeds up the weighted
proximal solvers.  All four powers of P share the rank-structured form
I + U diag(c) U' and apply in O(N K).

The sketch follows the stabilized Nystrom method (Tropp, Yurtsever, Udell
& Cevher, SIMAX 2017): shift, Cholesky of the K x K core, one triangular
solve for the N x K factor B, then the spectrum of B from the K x K matrix
B'B, so no N x K decomposition is needed.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import solve_triangular

from .core import Rng, standard_normal_matrix
from .linops import LinearOperator

__all__ = [
    "NystromFactor",
    "Preconditioner",
    "nystrom_approx",
    "nystrom_oracle_dense",
    "build_preconditioner",
    "effective_dimension",
    "recommended_sketch_size",
    "save_factor",
    "load_factor",
]

MACHINE_EPS = 2.2e-16


@dataclass(frozen=True)
class NystromFactor:
    """Output of the randomized sketch: Phi ~ U diag(S_hat) U'."""

    U: np.ndarray = field(repr=False)  # N x K, orthonormal where S_hat > 0, else zero
    S_hat: np.ndarray = field(repr=False)  # K nonneg eigenvalues, nonincreasing
    s_K: float  # smallest sketched eigenvalue
    shift: float  # stabilization shift actually used
    seed: int

    @property
    def rank(self) -> int:
        return self.U.shape[1]

    @classmethod
    def empty(cls, n: int, seed: int = 0) -> "NystromFactor":
        return cls(np.zeros((n, 0)), np.zeros(0), 0.0, 0.0, seed)


def nystrom_approx(phi: LinearOperator, K: int, rng: Rng,
                   eps: float = MACHINE_EPS) -> NystromFactor:
    """Randomized low-rank factorization of a symmetric PSD operator.

    Draws a Gaussian test matrix up front and applies ``phi`` column by
    column in a fixed order, so the result is bit-identical for a fixed
    seed no matter how the applications are scheduled.  The Gram matrix is
    shifted by nu = eps * ||Omega||_F before the Cholesky step; if that
    factorization fails the shift escalates (x10, at most 5 attempts,
    seeded from eps * ||Y||_F / sqrt(N) as a fallback scale) before giving
    up, which signals a non-PSD operator.

    With C the Cholesky factor, B = Y_nu C^-T is formed explicitly and its
    singular pairs come from eigh(B'B) = V Sigma^2 V' as U = B V Sigma^-1:
    a K x K eigensolve in place of an N x K SVD.  Squaring B's condition
    number leaves eigenvalues below about eps * S_hat[0] with absolute
    accuracy only, far below the solvers' default shift
    mu = mu_floor * S_hat[0].  Forming B matters: the eigenvalues of
    C^-1 Y_nu'Y_nu C^-T skip the triangular solve, but on an exactly
    rank-deficient operator they left spurious S_hat of ~0.02 where B gives
    ~1e-16.  Directions with sigma^2 <= nu get S_hat = 0 and a zero column
    in U (nothing is divided by their sigma); s_K is then 0, so they carry
    coefficient 0 in every power of the preconditioner.
    """
    n = phi.domain_dim
    if not 1 <= K <= n:
        raise ValueError(f"sketch size {K} out of range [1, {n}]")
    omega = standard_normal_matrix(n, K, rng)
    y = np.empty((n, K))
    for j in range(K):
        y[:, j] = phi.apply(omega[:, j])
    nu = eps * float(np.linalg.norm(omega))
    for attempt in range(5):
        y_nu = y + nu * omega
        gram = omega.T @ y_nu
        gram = 0.5 * (gram + gram.T)
        try:
            chol = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            if attempt == 0:
                nu = max(10.0 * nu, eps * float(np.linalg.norm(y)) / np.sqrt(n))
            else:
                nu *= 10.0
            continue
        b = solve_triangular(chol, y_nu.T, lower=True).T
        sigma_sq, v = np.linalg.eigh(b.T @ b)
        sigma_sq, v = sigma_sq[::-1], v[:, ::-1]
        r = int(np.count_nonzero(sigma_sq > nu))
        u = b @ v
        u[:, :r] /= np.sqrt(sigma_sq[:r])
        u[:, r:] = 0.0
        s_hat = np.maximum(sigma_sq - nu, 0.0)
        return NystromFactor(u, s_hat, float(s_hat[-1]), nu, rng.seed)
    raise np.linalg.LinAlgError(
        "Cholesky failed after shift escalation; operator is not PSD")


def nystrom_oracle_dense(phi: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Dense reference factorization (Phi Omega)(Omega' Phi Omega)^+(Phi Omega)'."""
    phi = np.asarray(phi, dtype=np.float64)
    y = phi @ omega
    gram = omega.T @ y
    gram = 0.5 * (gram + gram.T)
    return y @ np.linalg.pinv(gram, hermitian=True) @ y.T


@dataclass(frozen=True)
class Preconditioner:
    """Rank-structured preconditioner; all powers apply in O(N K)."""

    factor: NystromFactor
    mu: float
    s_tail: float
    sqrt_tail: bool
    # diag of U'(P)U relative to identity: P = I + U diag(d - 1) U'
    d: np.ndarray = field(repr=False)
    Ubar: np.ndarray = field(repr=False)  # columns scaled so P ~ I + Ubar Ubar'

    @property
    def dim(self) -> int:
        return self.factor.U.shape[0]

    @property
    def rank(self) -> int:
        return self.factor.rank

    @cached_property
    def gram(self) -> np.ndarray:
        """Ubar'Ubar, computed on first use and then shared by every weighted
        proximal map in this metric (IRM never asks for it)."""
        return self.Ubar.T @ self.Ubar

    @property
    def sigma_max_pinv(self) -> float:
        """Largest eigenvalue of P^-1 (exactly 1 unless sqrt_tail shrinks the tail)."""
        if self.d.size == 0:
            return 1.0
        return max(1.0, float(1.0 / self.d.min()))

    def _structured(self, coef: np.ndarray, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if coef.size == 0:
            return v.copy()
        u = self.factor.U
        return v + u @ (coef * (u.T @ v))

    def apply_P(self, v: np.ndarray) -> np.ndarray:
        return self._structured(self.d - 1.0, v)

    def apply_Pinv(self, v: np.ndarray) -> np.ndarray:
        return self._structured(1.0 / self.d - 1.0, v)

    def apply_Phalf(self, v: np.ndarray) -> np.ndarray:
        return self._structured(np.sqrt(self.d) - 1.0, v)

    def apply_Pinvhalf(self, v: np.ndarray) -> np.ndarray:
        return self._structured(1.0 / np.sqrt(self.d) - 1.0, v)


def build_preconditioner(factor: NystromFactor, mu: float,
                         sqrt_tail: bool = False) -> Preconditioner:
    """Assemble the preconditioner from a sketch with regularization mu > 0.

    With sqrt_tail the tail value s_K is replaced by sqrt(s_K), which keeps
    the last sketched direction active; directions whose scaled eigenvalue
    falls below 1 are dropped from Ubar (the full form still drives apply_P
    and friends).
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    tail = float(np.sqrt(factor.s_K)) if sqrt_tail else float(factor.s_K)
    d = (factor.S_hat + mu) / (tail + mu)
    radicand = d - 1.0
    keep = radicand >= 0.0
    ubar = factor.U[:, keep] * np.sqrt(radicand[keep])
    return Preconditioner(factor, float(mu), tail, sqrt_tail, d, ubar)


def effective_dimension(phi: np.ndarray, mu: float) -> float:
    """tr(Phi (Phi + mu I)^-1) for a dense symmetric PSD matrix."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    lam = np.linalg.eigvalsh(np.asarray(phi, dtype=np.float64))
    lam = np.maximum(lam, 0.0)
    return float(np.sum(lam / (lam + mu)))


def recommended_sketch_size(d_eff: float) -> int:
    """Sketch size 2*ceil(1.5*d_eff + 1); at this size the preconditioned
    condition number stays below a small constant in expectation."""
    return int(2 * np.ceil(1.5 * d_eff + 1))


# ---------------------------------------------------------------------------
# Optional binary dump for experiment resume: 16-byte header (magic "NYSF",
# N, K as uint32 LE, 4 reserved bytes), then seed (uint64), shift, s_K,
# S_hat[K], and U column-major, all little-endian float64.
# ---------------------------------------------------------------------------

_FACTOR_MAGIC = b"NYSF"


def save_factor(factor: NystromFactor, path) -> None:
    n, k = factor.U.shape
    with open(path, "wb") as f:
        f.write(_FACTOR_MAGIC)
        f.write(struct.pack("<III", n, k, 0))
        f.write(struct.pack("<Q", factor.seed))
        f.write(struct.pack("<dd", factor.shift, factor.s_K))
        f.write(factor.S_hat.astype("<f8").tobytes())
        f.write(factor.U.astype("<f8").tobytes(order="F"))


def load_factor(path) -> NystromFactor:
    with open(path, "rb") as f:
        if f.read(4) != _FACTOR_MAGIC:
            raise ValueError("not a sketch dump")
        n, k, _ = struct.unpack("<III", f.read(12))
        (seed,) = struct.unpack("<Q", f.read(8))
        shift, s_k = struct.unpack("<dd", f.read(16))
        s_hat = np.frombuffer(f.read(8 * k), dtype="<f8").copy()
        u = np.frombuffer(f.read(8 * n * k), dtype="<f8").reshape(n, k, order="F").copy()
    return NystromFactor(u, s_hat, s_k, shift, seed)
