"""Conjugate gradient solvers for SPD operator equations.

Both solvers stop on the true relative residual ||b - Phi x|| / ||b||, so
iteration counts with and without a preconditioner compare the same
solution accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .linops import LinearOperator

__all__ = ["KrylovReport", "cg", "pcg"]

DEFAULT_TOL = 1e-4
DEFAULT_MAXITER = 500


@dataclass(frozen=True)
class KrylovReport:
    solution: np.ndarray = field(repr=False)
    iterations: int
    final_relres: float
    converged: bool


Pinv = Callable[[np.ndarray], np.ndarray]


def pcg(phi: LinearOperator, b: np.ndarray, pinv: Optional[Pinv],
        tol: float = DEFAULT_TOL, maxiter: int = DEFAULT_MAXITER,
        x0: Optional[np.ndarray] = None,
        build_pinv: Optional[Callable[[], Pinv]] = None) -> KrylovReport:
    """Preconditioned CG on Phi x = b; ``pinv=None`` reduces exactly to CG.

    The preconditioned residual enters the inner products; the stopping rule
    uses the true residual.  A nonpositive curvature p' Phi p aborts with a
    LinAlgError since it contradicts the SPD assumption.

    ``build_pinv``, in place of ``pinv``, is called once to make the
    preconditioner, and only when the starting point misses ``tol`` and an
    iteration will run: a solve that returns ``x0`` never pays for it.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if pinv is not None and build_pinv is not None:
        raise ValueError("pass pinv or build_pinv, not both")
    b = np.asarray(b, dtype=np.float64)
    x = np.zeros_like(b) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    norm_b = np.linalg.norm(b)
    if not np.isfinite(norm_b):
        raise ValueError("right-hand side is non-finite or overflows")
    if norm_b == 0.0:
        return KrylovReport(np.zeros_like(b), 0, 0.0, True)
    r = b - phi.apply(x)
    relres = np.linalg.norm(r) / norm_b
    if not (relres > tol and maxiter > 0):  # the loop below would not run
        return KrylovReport(x, 0, float(relres), relres <= tol)
    if build_pinv is not None:
        pinv = build_pinv()
    z = pinv(r) if pinv is not None else r
    p = z.copy()
    rz = float(np.dot(r, z))
    iterations = 0
    while relres > tol and iterations < maxiter:
        w = phi.apply(p)
        curvature = float(np.dot(p, w))
        if not np.isfinite(curvature) or curvature <= 0.0:
            raise np.linalg.LinAlgError(
                f"bad curvature {curvature} in CG; operator is not SPD "
                "or the system overflowed")
        alpha = rz / curvature
        x = x + alpha * p
        r = r - alpha * w
        z = pinv(r) if pinv is not None else r
        rz_next = float(np.dot(r, z))
        p = z + (rz_next / rz) * p
        rz = rz_next
        relres = np.linalg.norm(r) / norm_b
        iterations += 1
    return KrylovReport(x, iterations, float(relres), relres <= tol)


def cg(phi: LinearOperator, b: np.ndarray, tol: float = DEFAULT_TOL,
       maxiter: int = DEFAULT_MAXITER, x0: Optional[np.ndarray] = None) -> KrylovReport:
    """Plain CG; identical arithmetic to ``pcg`` with the identity preconditioner."""
    return pcg(phi, b, None, tol=tol, maxiter=maxiter, x0=x0)
