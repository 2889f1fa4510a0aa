"""Proximal maps, group-ball projections, and weighted proximal solvers.

Group-structured vectors follow :class:`rnp.linops.GroupStructure`: a range
vector of length G*pi viewed as G contiguous groups.  For sym2x2 groups the
natural pairing is the matrix Frobenius inner product (off-diagonal counted
twice); every duality computation here uses that pairing through the
structure's component weights, while operators keep their plain l2 adjoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dposv

from .core import Rng
from .linops import GroupStructure, LinearOperator, columnwise, operator_norm_sq
from .sketch import Preconditioner

__all__ = [
    "BoxConstraint",
    "SeparableProx",
    "BoxProx",
    "SoftThresholdProx",
    "soft_threshold",
    "project_group_ball",
    "mixed_norm_value",
    "group_pairing",
    "weighted_op_norm_sq",
    "NewtonState",
    "wpm_structured",
    "wpm_mixed_dual",
    "dual_exponent",
]


@dataclass(frozen=True)
class BoxConstraint:
    """Componentwise box [lo, hi]; use infinities for one-sided or no bounds."""

    lo: float = -math.inf
    hi: float = math.inf

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")

    def project(self, x: np.ndarray) -> np.ndarray:
        out = np.maximum(np.asarray(x, dtype=np.float64), self.lo)
        return np.minimum(out, self.hi, out=out)


def soft_threshold(x: np.ndarray, tau: float) -> np.ndarray:
    """x - clip(x, -tau, tau): sign(x) max(|x| - tau, 0), with +0 inside."""
    if tau < 0:
        raise ValueError("threshold must be nonnegative")
    x = np.asarray(x, dtype=np.float64)
    clipped = np.maximum(x, -tau)
    np.minimum(clipped, tau, out=clipped)
    return np.subtract(x, clipped, out=clipped)


class SeparableProx:
    """Componentwise proximal map plus a diagonal Clarke-subdifferential element.

    ``slope`` returns a boolean array: each map here is piecewise linear
    with slopes 0 and 1, and :class:`NewtonState` builds its Jacobians from
    that split of the rows.
    """

    def __call__(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def slope(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class BoxProx(SeparableProx):
    def __init__(self, box: BoxConstraint):
        self.box = box

    def __call__(self, u):
        return self.box.project(u)

    def slope(self, u):
        # 0 on the active boundary keeps the Newton Jacobian PSD
        on = u > self.box.lo
        on &= u < self.box.hi
        return on


class SoftThresholdProx(SeparableProx):
    def __init__(self, tau: float):
        if tau < 0:
            raise ValueError("threshold must be nonnegative")
        self.tau = tau

    def __call__(self, u):
        return soft_threshold(u, self.tau)

    def slope(self, u):
        return np.abs(u) > self.tau


def dual_exponent(phi) -> float:
    """psi with 1/phi + 1/psi = 1 for phi in {1, 2, inf}."""
    if phi == 1:
        return math.inf
    if phi == 2:
        return 2.0
    if phi == math.inf:
        return 1.0
    raise ValueError(f"phi must be 1, 2, or inf, got {phi}")


# ---------------------------------------------------------------------------
# Group geometry
# ---------------------------------------------------------------------------


def _sym_eig(groups: np.ndarray):
    """Closed-form eigenpairs of [[v11, v12], [v12, v22]] rows; lam1 >= lam2."""
    mean = 0.5 * (groups[:, 0] + groups[:, 1])
    delta = 0.5 * (groups[:, 0] - groups[:, 1])
    radius = np.hypot(delta, groups[:, 2])
    return mean + radius, mean - radius, delta, radius


def _sym_rebuild(c1: np.ndarray, c2: np.ndarray, delta: np.ndarray,
                 radius: np.ndarray, v12: np.ndarray) -> np.ndarray:
    avg = 0.5 * (c1 + c2)
    dif = 0.5 * (c1 - c2)
    scale = np.divide(dif, radius, out=np.zeros_like(dif), where=radius > 0)
    out = np.empty((c1.size, 3))
    out[:, 0] = avg + scale * delta
    out[:, 1] = avg - scale * delta
    out[:, 2] = scale * v12
    return out


def _project_linf_rows(q: np.ndarray) -> np.ndarray:
    out = np.maximum(q, -1.0)
    return np.minimum(out, 1.0, out=out)


def _project_l2_rows(q: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(q, axis=1, keepdims=True)
    return q / np.maximum(norms, 1.0)


def _project_l1_rows(q: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto the l1 unit ball (sort-based)."""
    a = np.abs(q)
    inside = a.sum(axis=1) <= 1.0
    s = np.sort(a, axis=1)[:, ::-1]
    cums = np.cumsum(s, axis=1)
    counts = np.arange(1, q.shape[1] + 1)
    active = s * counts > cums - 1.0
    rho = active.sum(axis=1)
    theta = (cums[np.arange(q.shape[0]), rho - 1] - 1.0) / rho
    out = np.sign(q) * np.maximum(a - theta[:, None], 0.0)
    out[inside] = q[inside]
    return out


_ROW_PROJECTIONS = {math.inf: _project_linf_rows, 2.0: _project_l2_rows, 1.0: _project_l1_rows}


def project_group_ball(q: np.ndarray, phi, structure: GroupStructure) -> np.ndarray:
    """Per-group projection onto the unit ball of the psi-norm dual to phi.

    Vector groups project in the Euclidean geometry; sym2x2 groups project
    their eigenvalue pair (a Schatten-psi projection, which is also the
    Frobenius-metric projection).
    """
    psi = dual_exponent(phi)
    project_rows = _ROW_PROJECTIONS[psi]
    groups = structure.as_groups(np.asarray(q, dtype=np.float64))
    if structure.kind in ("scalar", "vector"):
        return project_rows(groups).ravel()
    lam1, lam2, delta, radius = _sym_eig(groups)
    pair = project_rows(np.column_stack([lam1, lam2]))
    return _sym_rebuild(pair[:, 0], pair[:, 1], delta, radius, groups[:, 2]).ravel()


def _group_norms(groups: np.ndarray, phi, kind: str) -> np.ndarray:
    if kind == "sym2x2":
        lam1, lam2, _, _ = _sym_eig(groups)
        groups = np.column_stack([np.abs(lam1), np.abs(lam2)])  # singular values
    if phi == 1:
        return np.abs(groups).sum(axis=1)
    if phi == 2:
        return np.linalg.norm(groups, axis=1)
    if phi == math.inf:
        return np.abs(groups).max(axis=1)
    raise ValueError(f"phi must be 1, 2, or inf, got {phi}")


def mixed_norm_value(v: np.ndarray, phi, structure: GroupStructure) -> float:
    """Sum over groups of the per-group phi-norm (Schatten for sym2x2)."""
    return float(_group_norms(structure.as_groups(v), phi, structure.kind).sum())


def group_pairing(q: np.ndarray, v: np.ndarray, structure: GroupStructure) -> float:
    """<Q, V> under the group pairing (Frobenius for sym2x2 groups)."""
    return float(np.dot(np.asarray(q) * structure.range_weights, v))


def weighted_op_norm_sq(op: LinearOperator, structure: GroupStructure,
                        iters: int, rng: Rng) -> float:
    """Lanczos estimate from below of lambda_max(L' W L), W the group
    component weights, in at most ``iters`` steps (``operator_norm_sq``)."""
    sqrt_w = np.sqrt(structure.range_weights)
    weighted = LinearOperator(op.domain_dim, op.range_dim,
                              columnwise(lambda x: sqrt_w * op.apply(x), op.range_dim),
                              columnwise(lambda y: op.adjoint(sqrt_w * y), op.domain_dim))
    return operator_norm_sq(weighted, iters, rng)


# ---------------------------------------------------------------------------
# Weighted proximal mappings
# ---------------------------------------------------------------------------


def _newton_jacobian(ubar: np.ndarray, gram: np.ndarray, on: np.ndarray) -> np.ndarray:
    """I + Ubar' diag(on) Ubar for a boolean slope ``on``, from the smaller
    row set (``gram`` is Ubar'Ubar).

    Both sides occur: a box prox over an image keeps roughly half its
    pixels inside the box, while a soft threshold with a small weight often
    passes every coefficient, leaving just the Gram.
    """
    if 2 * np.count_nonzero(on) <= on.size:
        rows = ubar[on]
        weighted = rows.T @ rows
    else:
        rows = ubar[~on]
        weighted = gram - rows.T @ rows
    return np.eye(ubar.shape[1]) + weighted


class NewtonState:
    """Newton state of the proximal maps in the metric I + Ubar Ubar'.

    A state belongs to one Ubar, the caller's array itself when it is
    float64 (asarray with a dtype would copy an unpickled one), and holds
    ``gram`` = Ubar'Ubar, computed here once, ``gamma``,
    the root of the last map, from which the next :func:`wpm_structured`
    call starts, and a Jacobian memo: the last slope and its Jacobian.
    ``gamma`` is kept unshifted, as the root for the point the map was
    taken at: a call with ``shift=w`` starts from gamma - w and stores its
    root plus w, so warm starts carry across calls whatever their shifts.
    When at most 1/8 of the rows change slope, the next Jacobian is the
    last one plus Ubar_c' diag(+-1) Ubar_c over the changed rows c
    (+1 where a row turns on), a product over a few rows instead of up to
    half of Ubar; otherwise :func:`_newton_jacobian` rebuilds it.

    Make one per solve and pass it to each call: a fresh state makes a
    repeated solve bit-identical, and solves that run at the same time need
    one each.
    """

    def __init__(self, ubar: np.ndarray):
        ubar = np.asarray(ubar)
        self.ubar = ubar if ubar.dtype == np.float64 else ubar.astype(np.float64)
        self.gram = self.ubar.T @ self.ubar
        self.gamma = np.zeros(self.ubar.shape[1])
        self._slope: np.ndarray | None = None
        self._jac: np.ndarray | None = None

    def jacobian(self, slope: np.ndarray) -> np.ndarray:
        """I + Ubar' diag(slope) Ubar, as a rank update of the memo when
        few slopes changed, else from :func:`_newton_jacobian`."""
        if self._slope is not None:
            changed = slope != self._slope
            if not changed.any():
                self._slope = slope
                return self._jac
            changed = np.flatnonzero(changed)
            if 8 * changed.size <= slope.size:
                rows = self.ubar[changed]
                flips = np.where(slope[changed], 1.0, -1.0)
                self._jac = self._jac + rows.T @ (flips[:, None] * rows)
                self._slope = slope
                return self._jac
        self._slope = slope
        self._jac = _newton_jacobian(self.ubar, self.gram, slope)
        return self._jac


def _newton_step(jac: np.ndarray, resid: np.ndarray) -> np.ndarray:
    """jac^-1 resid by Cholesky (LAPACK posv), since jac >= I; LU if posv
    reports a failure."""
    _, step, info = dposv(jac, resid)
    if info == 0:
        return step
    return np.linalg.solve(jac, resid)


def _newton_residual(prox_d: SeparableProx, x: np.ndarray, ubar: np.ndarray,
                     gamma: np.ndarray, c: np.ndarray):
    """(x - Ubar gamma, its prox u, the residual Ubar'(x - u) + gamma + c,
    the residual's norm) of :func:`wpm_structured`'s root problem."""
    inner = ubar @ gamma
    np.subtract(x, inner, out=inner)
    u = prox_d(inner)
    resid = ubar.T @ (x - u)
    resid += gamma
    resid += c
    return inner, u, resid, math.sqrt(resid @ resid)


def wpm_structured(prox_d: SeparableProx, x: np.ndarray, ubar: np.ndarray,
                   tol: float = 1e-10, max_iter: int = 100,
                   newton: NewtonState | None = None,
                   shift: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Proximal map in the metric W = I + Ubar Ubar' of x + Ubar shift.

    Solves the r-dimensional root problem
        Ubar'(x - prox_d(x - Ubar gamma)) + gamma + c = 0,
    c = (I + Ubar'Ubar) shift (a missing shift is zero), by semismooth Newton
    with the generalized Jacobian I + Ubar' diag(slope) Ubar, falling back
    to damped fixed-point steps of length 1 / (1 + lambda_max(Ubar'Ubar))
    whenever a Newton candidate fails to shrink the residual; that step
    length is computed only once a fallback step happens.  The Jacobian is
    >= I, so each Newton step solves it by Cholesky.  Its root is the
    unshifted map's root for x + Ubar shift minus the shift, so a caller
    that moves its point along Ubar, as P^-1 = I - Ubar diag(1/d) Ubar'
    does, passes the move as ``shift`` and never forms the moved point.

    ``newton`` is the :class:`NewtonState` of this Ubar, made fresh when
    not given: Newton starts from its gamma, takes its Jacobians from its
    memo, and stores the root it finds, unshifted, so a solver that passes
    one state to every call starts each map from the last root.  A state of
    another Ubar raises ValueError.  A Ubar with no columns gives prox_d(x).
    Returns (prox value, unshifted gamma).
    """
    x = np.asarray(x, dtype=np.float64)
    if ubar.ndim != 2 or ubar.shape[1] == 0:
        return prox_d(x), np.zeros(0)
    if newton is None:
        newton = NewtonState(ubar)
        ubar = newton.ubar
    elif newton.ubar is not ubar:
        raise ValueError("the Newton state belongs to another Ubar")
    if shift is None:
        shift = np.zeros(ubar.shape[1])
    gamma = newton.gamma - shift
    c = newton.gram @ shift
    c += shift
    lip = None
    inner, u, resid, res_norm = _newton_residual(prox_d, x, ubar, gamma, c)
    for _ in range(max_iter):
        if res_norm <= tol:
            newton.gamma = gamma + shift
            return u, newton.gamma
        jac = newton.jacobian(prox_d.slope(inner))
        candidate = gamma - _newton_step(jac, resid)
        cand_state = _newton_residual(prox_d, x, ubar, candidate, c)
        if cand_state[3] < res_norm:
            gamma, (inner, u, resid, res_norm) = candidate, cand_state
        else:
            if lip is None:
                lip = 1.0 + float(np.linalg.eigvalsh(newton.gram).max())
            gamma = gamma - resid / lip
            inner, u, resid, res_norm = _newton_residual(prox_d, x, ubar, gamma, c)
    raise RuntimeError(
        f"weighted prox did not converge in {max_iter} iterations (residual {res_norm:.3e})")


# tolerance of every P-metric prox: WAPG's soft thresholds and the dual ascent's box projections
P_PROX_TOL = 1e-11


def wpm_mixed_dual(s: np.ndarray, lam_bar: float, L: LinearOperator,
                   structure: GroupStructure, phi,
                   pre: Preconditioner | None, box: BoxConstraint,
                   inner_tol: float = 1e-6, inner_max: int = 200,
                   q0: np.ndarray | None = None,
                   l_norm_sq: float | None = None,
                   newton: NewtonState | None = None) -> tuple[np.ndarray, np.ndarray, int]:
    """Mixed-norm weighted proximal map via accelerated ascent on its dual.

    Computes argmin_{x in box} 0.5*||x - s||_P^2 + lam_bar*||L x||_{1,phi}
    where P = I when ``pre`` is None.  The dual variable lives on the
    product of psi-norm unit balls; its gradient needs one box-projection
    in the P metric per iteration.  Stops once the relative primal change
    falls below inner_tol and the duality gap certifies the result within
    10*inner_tol*(1+|primal|), or at inner_max.  Returns (x, Q, iterations);
    pass Q back as ``q0`` to warm-start the next call.  The loop overwrites
    the arrays that ``L`` returns.

    In P = I + Ubar Ubar', Ubar is ``pre.Ubar``, or has no columns without ``pre``.
    The primal point of a dual point Q is the box projection of s - P^-1 h,
    h = lam_bar L'(W Q), P^-1 h = h - Ubar diag(1/d) Ubar' h: a
    :func:`wpm_structured` call on s - h with ``shift`` (Ubar'h)/d, a plain
    box projection when Ubar has no columns.  The gap check takes
    ||v||_P^2 = ||v||^2 + ||Ubar'v||^2.  Each projection runs to
    ``P_PROX_TOL`` and shares ``newton``, the :class:`NewtonState` of this
    Ubar: it starts from the previous projection's gamma and takes its
    Jacobians from the memo.  A solver passes one state to all its calls,
    so both carry across outer iterations; without one, this call makes a
    fresh state and its first projection starts from zero.
    """
    s = np.asarray(s, dtype=np.float64)
    if lam_bar < 0:
        raise ValueError("lam_bar must be nonnegative")
    ubar, d = (pre.Ubar, pre.d) if pre is not None else (np.zeros((s.size, 0)), np.zeros(0))
    box_prox = BoxProx(box)
    if newton is None:
        newton = NewtonState(ubar)
    comp_w = structure.range_weights
    if np.all(comp_w == 1.0):
        comp_w = None  # every weight is 1: nothing to multiply

    def recover(dual):
        h = L.adjoint(dual if comp_w is None else comp_w * dual)
        h *= lam_bar
        shift = ubar.T @ h
        shift /= d
        return wpm_structured(box_prox, np.subtract(s, h, out=h), ubar,
                              tol=P_PROX_TOL, newton=newton, shift=shift)[0]

    if lam_bar == 0.0:  # a zero dual point recovers the P-metric projection of s
        q = np.zeros(L.range_dim)
        return recover(q), q, 0

    if l_norm_sq is None:
        l_norm_sq = 1.05 * weighted_op_norm_sq(L, structure, 100, Rng(0x5EED))
    # P^-1 <= I, since d >= 1, so the identity metric's dual step is safe
    step = 1.0 / (2.0 * lam_bar * lam_bar * l_norm_sq)

    def gap_certified(dual, x_dual):
        lx = L.apply(x_dual)
        norm = mixed_norm_value(lx, phi, structure)
        gap = lam_bar * (norm - group_pairing(dual, lx, structure))
        diff = x_dual - s
        along = ubar.T @ diff
        quad = 0.5 * (float(diff @ diff) + float(along @ along))
        primal = quad + lam_bar * norm
        return gap <= 10.0 * inner_tol * (1.0 + abs(primal))

    q = np.zeros(L.range_dim) if q0 is None else np.array(q0, dtype=np.float64)
    z = q.copy()
    t = 1.0
    x_prev = None
    used = 0
    for _ in range(inner_max):
        used += 1
        x = recover(z)
        grad = L.apply(x)
        grad *= -2.0 * lam_bar
        grad *= step
        q_next = project_group_ball(np.subtract(z, grad, out=grad), phi, structure)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        np.subtract(q_next, q, out=z)
        z *= (t - 1.0) / t_next
        z += q_next
        q, t = q_next, t_next
        if x_prev is not None:
            change = np.subtract(x, x_prev, out=x_prev)
            if math.sqrt(change @ change) <= inner_tol * max(math.sqrt(x @ x), 1e-300):
                x_final = recover(q)
                if gap_certified(q, x_final):
                    return x_final, q, used
        x_prev = x
    return recover(q), q, used
