"""Randomized Nystrom sketching and the derived preconditioner.

The sketch of a symmetric PSD operator Phi yields orthonormal directions U
and eigenvalue estimates S_hat; the preconditioner built from them is

    P     = U ((S_hat + mu) / (t + mu)) U' + (I - U U')
    P^-1  = U ((t + mu) / (S_hat + mu)) U' + (I - U U')

with tail value t = s_K, the smallest sketched eigenvalue (Frangella,
Tropp & Udell, SIMAX 2023).  The scaled eigenvalues d = (S_hat + mu) /
(s_K + mu) are therefore nonincreasing, all >= 1, and exactly 1 at the
tail, so the P-metric is I + Ubar Ubar' with Ubar = U diag(sqrt(d - 1)),
and P^-1 = I - Ubar diag(1/d) Ubar'.  WAPG uses the metric only in that
form, through ``prox.NewtonState`` (which computes Ubar'Ubar); IRM's PCG
applies P^-1 and WAPG's step size P^-1/2.  P, P^-1 and P^-1/2 share the
rank-structured form I + U diag(c) U' and apply in O(N K).

The sketch follows the stabilized Nystrom method (Tropp, Yurtsever, Udell
& Cevher, SIMAX 2017) with a random-sign test matrix drawn on the calling
thread: one shift sized by the sketch, one Cholesky of the K x K core,
one triangular solve for the N x K factor B, then the spectrum of B from
the K x K matrix B'B, so no N x K decomposition is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.linalg import solve_triangular

from .core import Rng, rademacher_matrix
from .core import standard_normal_matrix  # noqa: F401  (unused; bench/spans.py wraps it)
from .linops import LinearOperator, columnwise

__all__ = [
    "NystromFactor",
    "Preconditioner",
    "nystrom_approx",
    "nystrom_oracle_dense",
    "build_preconditioner",
    "default_mu",
    "effective_dimension",
    "recommended_sketch_size",
]

MACHINE_EPS = 2.2e-16
MU_FLOOR = 1e-6  # preconditioner shift relative to the top sketched eigenvalue


@dataclass(frozen=True)
class NystromFactor:
    """Output of the randomized sketch: Phi ~ U diag(S_hat) U'."""

    U: np.ndarray = field(repr=False)  # N x K, orthonormal where S_hat > 0, else zero
    S_hat: np.ndarray = field(repr=False)  # K nonneg eigenvalues, nonincreasing


def nystrom_approx(phi: LinearOperator, K: int, rng: Rng,
                   omega: Optional[np.ndarray] = None) -> NystromFactor:
    """Randomized low-rank factorization of a symmetric PSD operator.

    Draws the test matrix ``rademacher_matrix(N, K, rng)``, random signs,
    on the calling thread: Nystrom takes any test matrix (Halko, Martinsson
    & Tropp, SIREV 2011, sec. 4.6), and signs take an eighth of the time of
    Gaussians.  A test matrix given as ``omega`` is used as given, and
    ``rng`` is then left as it is.  The matrix and its image are kept in
    Fortran order, so each column is contiguous for an operator that maps a
    block column by column.  ``phi`` maps the whole block in one
    ``phi.apply`` call; by the operator contract each column equals the
    vector apply bit for bit, so the result is bit-identical for a fixed
    seed whether ``phi`` has a native block product or loops over the
    columns.  The sketch Y = Phi Omega is shifted
    to Y_nu = Y + nu Omega, nu = sqrt(N) * MACHINE_EPS * ||Y||_F (Frangella,
    Tropp & Udell, SIMAX 2023), and the core Omega'Y_nu is factored once; a
    failed Cholesky raises ``LinAlgError``: the operator is not PSD.  A
    sketch with a NaN or an infinity makes nu non-finite, which raises
    ``ValueError``; this one scalar is the only finiteness check.  A zero
    sketch (Y = 0) returns the exact zero factor, U = 0 and S_hat = 0.

    With C the Cholesky factor, B = Y_nu C^-T is formed explicitly and its
    singular pairs come from eigh(B'B) = V Sigma^2 V' as U = B V Sigma^-1:
    a K x K eigensolve in place of an N x K SVD.  Squaring B's condition
    number leaves eigenvalues below about MACHINE_EPS * S_hat[0] with absolute
    accuracy only, far below the solvers' shift mu = MU_FLOOR * S_hat[0]
    (``default_mu``).  Forming B matters: the eigenvalues of
    C^-1 Y_nu'Y_nu C^-T skip the triangular solve, but on an exactly
    rank-deficient operator they left spurious S_hat of ~0.02 where B gives
    ~1e-16.  Directions with sigma^2 <= nu get S_hat = 0 and a zero column
    in U (nothing is divided by their sigma); S_hat[-1] is then 0, so they carry
    coefficient 0 in every power of the preconditioner.
    """
    n = phi.domain_dim
    if not 1 <= K <= n:
        raise ValueError(f"sketch size {K} out of range [1, {n}]")
    if omega is None:
        omega = rademacher_matrix(n, K, rng)
    elif omega.shape != (n, K):
        raise ValueError(f"test matrix is {omega.shape}, expected {(n, K)}")
    # both in Fortran order, whatever layout a caller or phi's block product uses:
    # small products such as omega'Y sum in an order that follows the layouts
    omega = np.asfortranarray(omega)
    y = np.asfortranarray(phi.apply(omega))
    nu = np.sqrt(n) * MACHINE_EPS * float(np.linalg.norm(y))
    if not np.isfinite(nu):
        raise ValueError("the sketch Phi Omega is not finite")
    if nu == 0.0:  # Y = 0: Phi vanishes on the range of Omega
        return NystromFactor(np.zeros((n, K)), np.zeros(K))
    y_nu = y + nu * omega
    gram = omega.T @ y_nu
    gram = 0.5 * (gram + gram.T)
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            "Cholesky of the shifted sketch failed; operator is not PSD") from exc
    b = solve_triangular(chol, y_nu.T, lower=True, check_finite=False).T
    sigma_sq, v = np.linalg.eigh(b.T @ b)
    sigma_sq, v = sigma_sq[::-1], v[:, ::-1]
    r = int(np.count_nonzero(sigma_sq > nu))
    u = b @ v
    u[:, :r] /= np.sqrt(sigma_sq[:r])
    u[:, r:] = 0.0
    return NystromFactor(u, np.maximum(sigma_sq - nu, 0.0))


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
    # diag of U'(P)U relative to identity: P = I + U diag(d - 1) U'
    d: np.ndarray = field(repr=False)

    @cached_property
    def Ubar(self) -> np.ndarray:
        """U's columns scaled by sqrt(d - 1), so P = I + Ubar Ubar'.  Computed
        on first use, since IRM never asks for it."""
        # Fortran order: with a C-ordered Ubar the products over it sum in
        # another order, which moved seeded CT WAPG images by up to 7e-15
        return np.asfortranarray(self.factor.U * np.sqrt(self.d - 1.0))

    def _structured(self, coef: np.ndarray, v: np.ndarray) -> np.ndarray:
        """v + U diag(coef) U' v for a vector v, or for each column of a block."""
        u = self.factor.U
        return columnwise(lambda x: x + u @ (coef * (u.T @ x)), u.shape[0])(v)

    def apply_P(self, v: np.ndarray) -> np.ndarray:
        return self._structured(self.d - 1.0, v)

    def apply_Pinv(self, v: np.ndarray) -> np.ndarray:
        return self._structured(1.0 / self.d - 1.0, v)

    def apply_Pinvhalf(self, v: np.ndarray) -> np.ndarray:
        return self._structured(1.0 / np.sqrt(self.d) - 1.0, v)


def build_preconditioner(factor: NystromFactor, mu: float) -> Preconditioner:
    """Assemble the preconditioner from a sketch with regularization mu > 0."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    d = (factor.S_hat + mu) / (float(factor.S_hat[-1]) + mu)
    return Preconditioner(factor, d)


def default_mu(factor: NystromFactor) -> float:
    """The solvers' shift mu: MU_FLOOR * S_hat[0], or 1e-12 for a zero sketch."""
    top = factor.S_hat[0]
    return MU_FLOOR * top if top > 0 else 1e-12


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

