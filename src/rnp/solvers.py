"""Outer solvers: reweighted least squares with on-the-fly preconditioned CG
inner solves, and a weighted accelerated proximal gradient method whose
gradient and proximal steps live in the preconditioner metric.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import ImageGrid, Rng, psnr
from .krylov import cg, pcg  # noqa: F401  (unused; bench/spans.py wraps rnp.solvers.cg)
from .linops import (DiagonalWeight, GroupStructure, LinearOperator, compose,
                     gram_operator, operator_norm_sq, transpose)
from .prox import (P_PROX_TOL, BoxConstraint, NewtonState, SoftThresholdProx,
                   weighted_op_norm_sq, mixed_norm_value, wpm_mixed_dual, wpm_structured)
from .sketch import Preconditioner, build_preconditioner, default_mu, nystrom_approx

__all__ = [
    "IrmConfig",
    "WapgConfig",
    "TraceRecord",
    "SolverTrace",
    "half_quadratic_constants",
    "update_weights",
    "irm_cost",
    "original_cost",
    "irm_solve",
    "estimate_lipschitz_pnorm",
    "build_wapg_preconditioner",
    "wapg_solve",
]


@dataclass(frozen=True)
class TraceRecord:
    iter: int
    elapsed_s: float
    cost: float
    psnr: float
    inner_iters: int
    sketch_s: float


@dataclass
class SolverTrace:
    records: list[TraceRecord] = field(default_factory=list)

    def append(self, **kw) -> None:
        rec = TraceRecord(**kw)
        if self.records:
            last = self.records[-1]
            if rec.iter <= last.iter or rec.elapsed_s < last.elapsed_s:
                raise ValueError("trace must advance in iteration and time")
        self.records.append(rec)

    @property
    def costs(self) -> np.ndarray:
        return np.array([r.cost for r in self.records])

    @property
    def psnrs(self) -> np.ndarray:
        return np.array([r.psnr for r in self.records])

    @property
    def inner_iters(self) -> np.ndarray:
        return np.array([r.inner_iters for r in self.records])


WEIGHT_CAP = 1e6  # largest reweighting factor the default magnitude floor allows


def default_eps_smooth(exponent: float) -> float:
    """Magnitude floor (squared) so that m**(exponent-2) never exceeds WEIGHT_CAP."""
    if exponent >= 2.0:
        return 1e-12
    return float(WEIGHT_CAP ** (2.0 / (exponent - 2.0)))


def _check_budget(outer_max: int, inner_max: int, inner_tol: float, sketch_size: int) -> None:
    if outer_max < 1:
        raise ValueError(f"outer_max must be >= 1, got {outer_max}")
    if inner_max < 1:
        raise ValueError(f"inner_max must be >= 1, got {inner_max}")
    if inner_tol <= 0:
        raise ValueError(f"inner_tol must be positive, got {inner_tol}")
    if sketch_size < 0:
        raise ValueError(f"sketch_size must be >= 0, got {sketch_size}")


@dataclass(frozen=True)
class IrmConfig:
    p: float
    q: float
    lam: float
    outer_tol: float = 1e-6
    outer_max: int = 20
    inner_tol: float = 1e-4
    inner_max: int = 200
    sketch_size: int = 100  # 0 disables preconditioning

    def __post_init__(self):
        if not (0.0 < self.p <= 2.0 and 0.0 < self.q <= 2.0):
            raise ValueError("p and q must lie in (0, 2]")
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        _check_budget(self.outer_max, self.inner_max, self.inner_tol, self.sketch_size)


@dataclass(frozen=True)
class WapgConfig:
    lam: float
    phi: float = 1
    sketch_size: int = 20
    alpha: Optional[float] = None  # None: 1 / (1.1 * estimated Lipschitz)
    outer_max: int = 60
    box: BoxConstraint = BoxConstraint()  # dual mode only; separable mode warns
    prox_mode: str = "dual"  # "dual" (TV/HS) or "separable" (orthogonal L, l1)
    inner_tol: float = 1e-6
    inner_max: int = 200

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if self.prox_mode not in ("dual", "separable"):
            raise ValueError("prox_mode must be 'dual' or 'separable'")
        if self.alpha is not None and self.alpha <= 0:
            raise ValueError("alpha must be positive")
        _check_budget(self.outer_max, self.inner_max, self.inner_tol, self.sketch_size)


def half_quadratic_constants(p: float) -> tuple[float, float]:
    """(a_p, b_p) with |r|^p = min_{beta>0} beta r^2 + 1 / (b_p beta^{a_p})."""
    if not 0.0 < p < 2.0:
        raise ValueError(f"p must lie in (0, 2), got {p}")
    a = p / (2.0 - p)
    b = 2.0 ** (2.0 / (2.0 - p)) / ((2.0 - p) * p ** (p / (2.0 - p)))
    return a, b


def _group_magnitudes(values: np.ndarray, structure: GroupStructure,
                      floor: float) -> np.ndarray:
    groups = structure.as_groups(values)
    mag = np.sqrt((groups * groups * structure.component_weights).sum(axis=1))
    return np.maximum(mag, floor)


def update_weights(res: np.ndarray, lx: np.ndarray, structure: GroupStructure,
                   p: float, q: float, eps_smooth: float, eps_smooth_q: float
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form reweighting at an iterate x, given its residual
    ``res = A x - y`` and ``lx = L x``: v = (p/2)|r|^(p-2) on residuals and
    z = (q/2)|g|^(q-2) on group magnitudes, with residuals floored at
    sqrt(eps_smooth) and group magnitudes at sqrt(eps_smooth_q) so the
    singular case stays finite.  z is shared across the entries of each
    group.
    """
    if eps_smooth <= 0 or eps_smooth_q <= 0:
        raise ValueError("eps_smooth and eps_smooth_q must be positive")
    if p == 2.0:
        v = np.ones(res.size)
    else:
        v = 0.5 * p * np.maximum(np.abs(res), np.sqrt(eps_smooth)) ** (p - 2.0)
    if q == 2.0:
        z = np.ones(lx.size)
    else:
        mag = _group_magnitudes(lx, structure, np.sqrt(eps_smooth_q))
        z = np.repeat(0.5 * q * mag ** (q - 2.0), structure.group_size)
    return v, z


def irm_cost(res: np.ndarray, lx: np.ndarray, v: np.ndarray, z: np.ndarray,
             structure: GroupStructure, lam: float, p: float, q: float) -> float:
    """Half-quadratic surrogate value at an iterate x, given its residual
    ``res = A x - y`` and ``lx = L x``; exact quadratic terms plus the
    barrier-like penalties that make its envelope match the p/q powers.
    The p=2 (or q=2) branch returns the plain quadratic directly.
    """
    if p == 2.0:
        data = 0.5 * float(np.dot(res, res))
    else:
        a_p, b_p = half_quadratic_constants(p)
        data = (1.0 / p) * float(np.sum(v * res * res + 1.0 / (b_p * v ** a_p)))
    groups = structure.as_groups(lx)
    sq = (groups * groups * structure.component_weights).sum(axis=1)
    if q == 2.0:
        reg = 0.5 * lam * float(sq.sum())
    else:
        a_q, b_q = half_quadratic_constants(q)
        zg = structure.as_groups(z)[:, 0]
        reg = (lam / q) * float(np.sum(zg * sq + 1.0 / (b_q * zg ** a_q)))
    return data + reg


def original_cost(x: np.ndarray, A: LinearOperator, L: LinearOperator,
                  structure: GroupStructure, y: np.ndarray, lam: float,
                  p: float, q: float) -> float:
    """(1/p) sum |res|^p + (lam/q) sum_l (group l2 magnitude)^q."""
    res = A.apply(x) - y
    data = (1.0 / p) * float(np.sum(np.abs(res) ** p))
    mag = _group_magnitudes(L.apply(x), structure, 0.0)
    return data + (lam / q) * float(np.sum(mag ** q))


def irm_solve(problem, cfg: IrmConfig, rng: Rng,
              x0: Optional[np.ndarray] = None) -> tuple[np.ndarray, SolverTrace]:
    """Alternating reweighting with warm-started (P)CG inner solves.

    A fresh sketch of the weighted normal operator is drawn every outer
    iteration (the weights change), on the calling thread, from the
    iteration's child stream ``rng.spawn(k)``, so reruns reproduce the
    trace exactly whatever the core count.  The sketch is drawn only when
    PCG will iterate: once the warm start already meets ``inner_tol`` the
    solve returns it unchanged whatever the preconditioner, so that
    iteration records ``sketch_s = 0``.

    The residual A x - y and L x of each new iterate serve both its trace
    cost and the next iteration's reweighting, so each is computed once.

    When no ``x0`` is given, iteration 1 runs with unit weights (the
    p=q=2 subproblem) and only later iterations reweight.  For p < 1 the
    first weights would otherwise be computed at an arbitrary point and
    can mark corrupted dark pixels as the most trustworthy data, trapping
    the nonconvex iteration; for p = q = 2 unit weights are exact anyway.
    """
    A, L, structure, y = problem.A, problem.L, problem.structure, problem.y
    warmup = x0 is None
    if warmup:
        x = y.copy() if A.domain_dim == A.range_dim else A.adjoint(y)
    else:
        x = np.asarray(x0, dtype=np.float64).copy()
    K = min(cfg.sketch_size, A.domain_dim)
    trace = SolverTrace()
    start = time.perf_counter()
    if not warmup:
        res, lx = A.apply(x) - y, L.apply(x)
    for k in range(1, cfg.outer_max + 1):
        if warmup and k == 1:
            v, z = np.ones(A.range_dim), np.ones(L.range_dim)
        else:
            v, z = update_weights(res, lx, structure, cfg.p, cfg.q,
                                  default_eps_smooth(cfg.p), default_eps_smooth(cfg.q))
        wf = DiagonalWeight((2.0 / cfg.p) * v)
        wg = DiagonalWeight((2.0 / cfg.q) * z)
        phi = gram_operator(A, wf, L, wg, cfg.lam)
        rhs = A.adjoint(wf.values * y)
        sketch_s = 0.0

        def sketch_pinv():
            nonlocal sketch_s
            t0 = time.perf_counter()
            factor = nystrom_approx(phi, K, rng.spawn(k))
            sketch_s = time.perf_counter() - t0
            return build_preconditioner(factor, default_mu(factor)).apply_Pinv

        report = pcg(phi, rhs, None, tol=cfg.inner_tol, maxiter=cfg.inner_max, x0=x,
                     build_pinv=sketch_pinv if K > 0 else None)
        x_new = report.solution
        res, lx = A.apply(x_new) - y, L.apply(x_new)
        cost = irm_cost(res, lx, v, z, structure, cfg.lam, cfg.p, cfg.q)
        if not np.isfinite(cost):
            raise FloatingPointError(f"non-finite cost at outer iteration {k}")
        trace.append(iter=k, elapsed_s=time.perf_counter() - start, cost=cost,
                     psnr=_problem_psnr(problem, x_new), inner_iters=report.iterations,
                     sketch_s=sketch_s)
        rel = np.linalg.norm(x_new - x) / max(np.linalg.norm(x_new), 1e-300)
        x = x_new
        if rel < cfg.outer_tol and not (warmup and k == 1):
            break
    return x, trace


def _problem_psnr(problem, x: np.ndarray) -> float:
    gt = problem.ground_truth
    img = ImageGrid(gt.rows, gt.cols, np.clip(x, -1e12, 1e12))
    return psnr(img, gt, problem.peak)


def estimate_lipschitz_pnorm(A: LinearOperator, pre: Optional[Preconditioner],
                             iters: int, rng: Rng) -> float:
    """Lanczos estimate from below of lambda_max(P^-1/2 A'A P^-1/2), i.e. of
    ||A P^-1/2||^2, in at most ``iters`` steps (``operator_norm_sq``)."""
    if pre is not None:
        n = A.domain_dim
        A = compose(A, LinearOperator(n, n, pre.apply_Pinvhalf, pre.apply_Pinvhalf))
    return operator_norm_sq(A, iters, rng)


# Caps on the Lanczos steps of WAPG's two norm estimates; both usually stop
# well before (see ``linops.operator_norm_sq``).
LIPSCHITZ_STEPS = 30
L_NORM_STEPS = 100


def _effective_forward(problem, cfg: WapgConfig) -> LinearOperator:
    """Forward map seen by the smooth term; the separable mode works in the
    orthogonal transform domain (domain vector is L x)."""
    if cfg.prox_mode == "separable":
        return compose(problem.A, transpose(problem.L))
    return problem.A


def build_wapg_preconditioner(problem, cfg: WapgConfig,
                              rng: Rng) -> tuple[Optional[Preconditioner], float]:
    """One up-front sketch of the (possibly transformed) normal operator.

    The normal operator is a composition, so the sketch's whole test matrix
    goes through the forward map's block applies in one call.  Returns
    (preconditioner, sketch seconds); (None, 0.0) when the sketch size is
    zero.
    """
    if cfg.sketch_size <= 0:
        return None, 0.0
    fwd = _effective_forward(problem, cfg)
    t0 = time.perf_counter()
    factor = nystrom_approx(compose(transpose(fwd), fwd),
                            min(cfg.sketch_size, fwd.domain_dim), rng)
    sketch_s = time.perf_counter() - t0
    return build_preconditioner(factor, default_mu(factor)), sketch_s


def wapg_solve(problem, cfg: WapgConfig, pre: Optional[Preconditioner],
               rng: Rng, sketch_seconds: float = 0.0) -> tuple[np.ndarray, SolverTrace]:
    """Accelerated proximal gradient in the metric of ``pre`` (identity when
    None).  The dual state of the mixed-norm proximal subproblem is warm
    started across outer iterations; so is the Newton state of the P-metric
    proxes (one ``NewtonState`` per solve), which are the box projections
    of that dual loop or, in the separable mode, the soft thresholds
    themselves.  The metric is I + Ubar Ubar', Ubar ``pre.Ubar`` or no
    columns when ``pre`` is None, so the step u - alpha P^-1 g is
    (u - alpha g) + Ubar w, w = alpha (Ubar'g)/d; the soft threshold takes
    w as its shift.  The separable mode has no box: a bounded ``cfg.box``
    draws a warning and is ignored.  Returns the solution in the image domain.

    An iteration applies the forward map twice, both for the gradient at
    the momentum point u.  The trace cost of iterate k needs ``A img(x_k)``;
    since u_{k+1} = (1 + b_k) x_k - b_k x_{k-1} and the map is linear, it
    follows from iteration k+1's forward product, so row k is appended
    during iteration k+1 with the ``elapsed_s`` at which x_k and its PSNR
    were ready.  Only the last iterate's product is computed directly,
    after the loop; the last row is timed after it.
    """
    fwd = _effective_forward(problem, cfg)
    y = problem.y
    n = fwd.domain_dim
    if cfg.alpha is not None:
        alpha = cfg.alpha
    else:
        lip = estimate_lipschitz_pnorm(fwd, pre, LIPSCHITZ_STEPS, rng.spawn(0))
        alpha = 1.0 / (1.1 * lip)
    separable = cfg.prox_mode == "separable"
    if separable and cfg.box != BoxConstraint():
        # a box on the image is no box on its transform coefficients
        warnings.warn(f"separable WAPG ignores the box [{cfg.box.lo}, {cfg.box.hi}]",
                      stacklevel=2)
    l_norm_sq = None
    if not separable:
        l_norm_sq = 1.05 * weighted_op_norm_sq(problem.L, problem.structure,
                                               L_NORM_STEPS, rng.spawn(1))
    tau = alpha * cfg.lam
    x = np.zeros(n)
    u = x.copy()
    t_prev = 1.0
    q_dual = None
    ubar, d = (pre.Ubar, pre.d) if pre is not None else (np.zeros((n, 0)), np.zeros(0))
    newton = NewtonState(ubar)
    trace = SolverTrace()
    a_img = np.zeros(fwd.range_dim)  # A img(x_0)
    beta = 0.0
    row = None  # trace row of the last iterate, waiting for its cost
    # backdate the clock so elapsed_s accounts for the up-front sketch
    start = time.perf_counter() - sketch_seconds
    for k in range(1, cfg.outer_max + 1):
        fu = fwd.apply(u)
        if row is not None:
            a_img = (fu + beta * a_img) / (1.0 + beta)
            trace.append(cost=wapg_cost(problem, cfg, x, a_img), **row)
        grad = fwd.adjoint(fu - y)
        # u - alpha P^-1 grad = (u - alpha grad) + Ubar shift
        shift = alpha * (ubar.T @ grad) / d
        if separable:
            x_next, _ = wpm_structured(SoftThresholdProx(tau), u - alpha * grad, ubar,
                                       tol=P_PROX_TOL, newton=newton, shift=shift)
            inner = 0
        else:
            s = u - alpha * grad
            s += ubar @ shift
            x_next, q_dual, inner = wpm_mixed_dual(
                s, tau, problem.L, problem.structure, cfg.phi, pre, cfg.box,
                inner_tol=cfg.inner_tol, inner_max=cfg.inner_max, q0=q_dual,
                l_norm_sq=l_norm_sq, newton=newton)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_prev * t_prev))
        beta = (t_prev - 1.0) / t_next
        u = x_next + beta * (x_next - x)
        x, t_prev = x_next, t_next
        img = _wapg_image(problem, cfg, x)
        psnr_k = _problem_psnr(problem, img)
        row = dict(iter=k, elapsed_s=time.perf_counter() - start, psnr=psnr_k,
                   inner_iters=inner, sketch_s=sketch_seconds if k == 1 else 0.0)
    a_img = problem.A.apply(img)
    row["elapsed_s"] = time.perf_counter() - start
    trace.append(cost=wapg_cost(problem, cfg, x, a_img), **row)
    return img, trace


def wapg_cost(problem, cfg: WapgConfig, x: np.ndarray, a_img: np.ndarray) -> float:
    """0.5 ||A x - y||^2 + lam * g(x) in the domain the solver iterates in;
    ``a_img`` is A applied to the image of ``x`` (see ``_wapg_image``), which
    the caller supplies so that the cost makes no operator apply of A."""
    res = a_img - problem.y
    data = 0.5 * float(np.dot(res, res))
    if cfg.prox_mode == "separable":
        return data + cfg.lam * float(np.sum(np.abs(x)))
    return data + cfg.lam * mixed_norm_value(problem.L.apply(x), cfg.phi,
                                             problem.structure)


def _wapg_image(problem, cfg: WapgConfig, x: np.ndarray) -> np.ndarray:
    """The image an iterate stands for: L'x in separable mode, else x."""
    return problem.L.adjoint(x) if cfg.prox_mode == "separable" else x
