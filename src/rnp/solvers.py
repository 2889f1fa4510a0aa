"""Outer solvers: reweighted least squares with on-the-fly preconditioned CG
inner solves, and a weighted accelerated proximal gradient method whose
gradient and proximal steps live in the preconditioner metric.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import ImageGrid, Rng, psnr
from .krylov import cg, pcg  # noqa: F401  (unused; bench/spans.py wraps rnp.solvers.cg)
from .linops import (DiagonalWeight, GroupStructure, LinearOperator, compose,
                     gram_operator, transpose)
from .prox import (BoxConstraint, SoftThresholdProx, weighted_op_norm_sq,
                   mixed_norm_value, wpm_mixed_dual, wpm_structured)
from .sketch import Preconditioner, build_preconditioner, nystrom_approx

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


def default_eps_smooth(exponent: float, cap: float = WEIGHT_CAP) -> float:
    """Magnitude floor (squared) so that m**(exponent-2) never exceeds cap."""
    if exponent >= 2.0:
        return 1e-12
    return float(cap ** (2.0 / (exponent - 2.0)))


@dataclass(frozen=True)
class IrmConfig:
    p: float
    q: float
    lam: float
    eps_smooth: Optional[float] = None  # None: floor capping weights at WEIGHT_CAP
    outer_tol: float = 1e-6
    outer_max: int = 20
    inner_tol: float = 1e-4
    inner_max: int = 200
    sketch_size: int = 100  # 0 disables preconditioning
    mu_floor: float = 1e-6  # preconditioner shift relative to top sketched eigenvalue
    sqrt_tail: bool = False

    def __post_init__(self):
        if not (0.0 < self.p <= 2.0 and 0.0 < self.q <= 2.0):
            raise ValueError("p and q must lie in (0, 2]")
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.eps_smooth is not None and self.eps_smooth <= 0:
            raise ValueError("eps_smooth must be positive")

    @property
    def eps_p(self) -> float:
        return self.eps_smooth if self.eps_smooth is not None else default_eps_smooth(self.p)

    @property
    def eps_q(self) -> float:
        return self.eps_smooth if self.eps_smooth is not None else default_eps_smooth(self.q)


@dataclass(frozen=True)
class WapgConfig:
    lam: float
    phi: float = 1
    sketch_size: int = 20
    mu: Optional[float] = None  # None: mu_floor * top sketched eigenvalue
    mu_floor: float = 1e-6
    power_iters: int = 30
    alpha: Optional[float] = None  # None: 1 / (1.1 * estimated Lipschitz)
    outer_max: int = 60
    box: BoxConstraint = BoxConstraint()
    prox_mode: str = "dual"  # "dual" (TV/HS) or "separable" (orthogonal L, l1)
    inner_tol: float = 1e-6
    inner_max: int = 200
    # Replacing the tail value by its square root helps only when the sketched
    # eigenvalues sit near or below 1; at this artifact's operator scaling it
    # inflates the preconditioned metric and measurably slows convergence.
    sqrt_tail: bool = False

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if self.prox_mode not in ("dual", "separable"):
            raise ValueError("prox_mode must be 'dual' or 'separable'")
        if self.alpha is not None and self.alpha <= 0:
            raise ValueError("alpha must be positive")


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


def update_weights(x: np.ndarray, A: LinearOperator, L: LinearOperator,
                   structure: GroupStructure, y: np.ndarray, p: float, q: float,
                   eps_smooth: float, eps_smooth_q: Optional[float] = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form reweighting: v = (p/2)|r|^(p-2) on residuals and
    z = (q/2)|g|^(q-2) on group magnitudes, with magnitudes floored at
    sqrt(eps_smooth) so the singular case stays finite.  z is shared across
    the entries of each group; pass eps_smooth_q to floor it differently.
    """
    if eps_smooth <= 0:
        raise ValueError("eps_smooth must be positive")
    if p == 2.0:
        v = np.ones(A.range_dim)
    else:
        res = np.maximum(np.abs(A.apply(x) - y), np.sqrt(eps_smooth))
        v = 0.5 * p * res ** (p - 2.0)
    if q == 2.0:
        z = np.ones(L.range_dim)
    else:
        floor_q = np.sqrt(eps_smooth_q if eps_smooth_q is not None else eps_smooth)
        mag = _group_magnitudes(L.apply(x), structure, floor_q)
        z = np.repeat(0.5 * q * mag ** (q - 2.0), structure.group_size)
    return v, z


def irm_cost(x: np.ndarray, v: np.ndarray, z: np.ndarray, A: LinearOperator,
             L: LinearOperator, structure: GroupStructure, y: np.ndarray,
             lam: float, p: float, q: float) -> float:
    """Half-quadratic surrogate value; exact quadratic terms plus the
    barrier-like penalties that make its envelope match the p/q powers.
    The p=2 (or q=2) branch returns the plain quadratic directly.
    """
    res = A.apply(x) - y
    if p == 2.0:
        data = 0.5 * float(np.dot(res, res))
    else:
        a_p, b_p = half_quadratic_constants(p)
        data = (1.0 / p) * float(np.sum(v * res * res + 1.0 / (b_p * v ** a_p)))
    lx = L.apply(x)
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
    iteration (the weights change), seeded from a per-iteration child
    stream so reruns reproduce the trace exactly.  The sketch is drawn only
    when PCG will iterate: once the warm start already meets ``inner_tol``
    the solve returns it unchanged whatever the preconditioner, so that
    iteration records ``sketch_s = 0``.

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
    trace = SolverTrace()
    start = time.perf_counter()
    for k in range(1, cfg.outer_max + 1):
        if warmup and k == 1:
            v, z = np.ones(A.range_dim), np.ones(L.range_dim)
        else:
            v, z = update_weights(x, A, L, structure, y, cfg.p, cfg.q,
                                  cfg.eps_p, cfg.eps_q)
        wf = DiagonalWeight((2.0 / cfg.p) * v)
        wg = DiagonalWeight((2.0 / cfg.q) * z)
        phi = gram_operator(A, wf, L, wg, cfg.lam)
        rhs = A.adjoint(wf.values * y)
        sketch_s = 0.0

        def sketch_pinv():
            nonlocal sketch_s
            t0 = time.perf_counter()
            factor = nystrom_approx(phi, min(cfg.sketch_size, A.domain_dim), rng.spawn(k))
            sketch_s = time.perf_counter() - t0
            mu = cfg.mu_floor * factor.S_hat[0] if factor.S_hat[0] > 0 else 1e-12
            return build_preconditioner(factor, mu, cfg.sqrt_tail).apply_Pinv

        report = pcg(phi, rhs, None, tol=cfg.inner_tol, maxiter=cfg.inner_max, x0=x,
                     build_pinv=sketch_pinv if cfg.sketch_size > 0 else None)
        x_new = report.solution
        cost = irm_cost(x_new, v, z, A, L, structure, y, cfg.lam, cfg.p, cfg.q)
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
    """Power-iteration estimate of lambda_max(P^-1/2 A'A P^-1/2)."""
    if iters < 1:
        raise ValueError("iters must be >= 1")

    def op(v):
        w = pre.apply_Pinvhalf(v) if pre is not None else v
        w = A.adjoint(A.apply(w))
        return pre.apply_Pinvhalf(w) if pre is not None else w

    v = rng.normal(A.domain_dim)
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(iters):
        w = op(v)
        est = float(np.dot(v, w))
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
    return est


def _effective_forward(problem, cfg: WapgConfig) -> LinearOperator:
    """Forward map seen by the smooth term; the separable mode works in the
    orthogonal transform domain (domain vector is L x)."""
    if cfg.prox_mode == "separable":
        return compose(problem.A, transpose(problem.L))
    return problem.A


def build_wapg_preconditioner(problem, cfg: WapgConfig,
                              rng: Rng) -> tuple[Optional[Preconditioner], float]:
    """One up-front sketch of the (possibly transformed) normal operator.

    Returns (preconditioner, sketch seconds); (None, 0.0) when the sketch
    size is zero.
    """
    if cfg.sketch_size <= 0:
        return None, 0.0
    fwd = _effective_forward(problem, cfg)
    normal = LinearOperator(fwd.domain_dim, fwd.domain_dim,
                            lambda x: fwd.adjoint(fwd.apply(x)),
                            lambda x: fwd.adjoint(fwd.apply(x)))
    t0 = time.perf_counter()
    factor = nystrom_approx(normal, min(cfg.sketch_size, fwd.domain_dim), rng)
    sketch_s = time.perf_counter() - t0
    mu = cfg.mu if cfg.mu is not None else (
        cfg.mu_floor * factor.S_hat[0] if factor.S_hat[0] > 0 else 1e-12)
    return build_preconditioner(factor, mu, cfg.sqrt_tail), sketch_s


def wapg_solve(problem, cfg: WapgConfig, pre: Optional[Preconditioner],
               rng: Rng, sketch_seconds: float = 0.0,
               x0: Optional[np.ndarray] = None) -> tuple[np.ndarray, SolverTrace]:
    """Accelerated proximal gradient in the metric of ``pre`` (identity when
    None).  The dual state of the mixed-norm proximal subproblem is warm
    started across outer iterations; the separable mode needs no inner loop.
    Returns the solution in the image domain.
    """
    fwd = _effective_forward(problem, cfg)
    y = problem.y
    n = fwd.domain_dim
    if cfg.alpha is not None:
        alpha = cfg.alpha
    else:
        lip = estimate_lipschitz_pnorm(fwd, pre, cfg.power_iters, rng.spawn(0))
        alpha = 1.0 / (1.1 * lip)
    separable = cfg.prox_mode == "separable"
    l_norm_sq = None
    if not separable:
        l_norm_sq = 1.05 * weighted_op_norm_sq(problem.L, problem.structure,
                                               100, rng.spawn(1))
    tau = alpha * cfg.lam
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    u = x.copy()
    t_prev = 1.0
    q_dual = None
    trace = SolverTrace()
    # backdate the clock so elapsed_s accounts for the up-front sketch
    start = time.perf_counter() - sketch_seconds
    for k in range(1, cfg.outer_max + 1):
        grad = fwd.adjoint(fwd.apply(u) - y)
        s = u - alpha * (pre.apply_Pinv(grad) if pre is not None else grad)
        if separable:
            ubar = pre.Ubar if pre is not None else np.zeros((n, 0))
            x_next, _ = wpm_structured(SoftThresholdProx(tau), s, ubar, 1, tol=1e-11,
                                       gram=pre.gram if pre is not None else None)
            inner = 0
        else:
            x_next, q_dual, inner = wpm_mixed_dual(
                s, tau, problem.L, problem.structure, cfg.phi, pre, cfg.box,
                inner_tol=cfg.inner_tol, inner_max=cfg.inner_max, q0=q_dual,
                l_norm_sq=l_norm_sq)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_prev * t_prev))
        u = x_next + ((t_prev - 1.0) / t_next) * (x_next - x)
        x, t_prev = x_next, t_next
        trace.append(iter=k, elapsed_s=time.perf_counter() - start,
                     cost=wapg_cost(problem, cfg, x), psnr=_wapg_psnr(problem, cfg, x),
                     inner_iters=inner, sketch_s=sketch_seconds if k == 1 else 0.0)
    return (problem.L.adjoint(x) if separable else x), trace


def wapg_cost(problem, cfg: WapgConfig, x: np.ndarray) -> float:
    """0.5 ||A x - y||^2 + lam * g(x) in the domain the solver iterates in."""
    fwd = _effective_forward(problem, cfg)
    res = fwd.apply(x) - problem.y
    data = 0.5 * float(np.dot(res, res))
    if cfg.prox_mode == "separable":
        return data + cfg.lam * float(np.sum(np.abs(x)))
    return data + cfg.lam * mixed_norm_value(problem.L.apply(x), cfg.phi,
                                             problem.structure)


def _wapg_psnr(problem, cfg: WapgConfig, x: np.ndarray) -> float:
    img = problem.L.adjoint(x) if cfg.prox_mode == "separable" else x
    return _problem_psnr(problem, img)
