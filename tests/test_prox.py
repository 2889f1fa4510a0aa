import math

import numpy as np
import pytest

from rnp import prox
from rnp.core import Rng, standard_normal_matrix
from rnp.linops import (GroupStructure, LinearOperator, grad_operator,
                        identity_operator, to_dense)
from rnp.problems import make_ct
from rnp.prox import (BoxConstraint, BoxProx, NewtonState, SeparableProx,
                      SoftThresholdProx, _newton_jacobian, dual_exponent,
                      group_pairing, mixed_norm_value, project_group_ball,
                      soft_threshold, weighted_op_norm_sq, wpm_mixed_dual,
                      wpm_structured)
from rnp.sketch import NystromFactor, Preconditioner, build_preconditioner
from rnp.solvers import WapgConfig, build_wapg_preconditioner, wapg_solve


class IdentityProx(SeparableProx):
    def __call__(self, u):
        return np.asarray(u, dtype=np.float64).copy()

    def slope(self, u):
        return np.ones(np.shape(u), dtype=bool)


def difference_1d() -> LinearOperator:
    return LinearOperator(2, 1, lambda x: np.array([x[0] - x[1]]),
                          lambda y: np.array([y[0], -y[0]]))


class TestScalarProx:
    def test_soft_threshold_examples(self):
        assert soft_threshold(np.array([3.0]), 1.0)[0] == 2.0
        assert soft_threshold(np.array([-0.5]), 1.0)[0] == 0.0
        x = Rng(1).normal(10)
        assert np.array_equal(soft_threshold(x, 0.0), x)

    def test_project_box_examples(self):
        box = BoxConstraint(0.0, 1.0)
        inside = np.array([0.2, 0.8])
        assert np.array_equal(box.project(inside), inside)
        assert np.array_equal(box.project(np.array([-1.0, 2.0])), [0.0, 1.0])
        free = BoxConstraint()
        x = Rng(2).normal(5)
        assert np.array_equal(free.project(x), x)

    def test_box_requires_order(self):
        with pytest.raises(ValueError):
            BoxConstraint(1.0, 1.0)

    def test_dual_exponent(self):
        assert dual_exponent(1) == math.inf
        assert dual_exponent(2) == 2.0
        assert dual_exponent(math.inf) == 1.0
        with pytest.raises(ValueError):
            dual_exponent(3)


class TestGroupBallProjection:
    def test_vector_examples(self):
        gs = GroupStructure("vector", 1, 2)
        assert np.allclose(project_group_ball(np.array([3.0, 4.0]), 2, gs), [0.6, 0.8])
        assert np.allclose(project_group_ball(np.array([2.0, 0.0]), math.inf, gs), [1.0, 0.0])
        assert np.allclose(project_group_ball(np.array([0.5, -2.0]), 1, gs), [0.5, -1.0])

    def test_sym_identity_unchanged_for_linf(self):
        gs = GroupStructure("sym2x2", 1, 3)
        q = np.array([1.0, 1.0, 0.0])
        assert np.allclose(project_group_ball(q, 1, gs), q)

    def test_idempotent_and_nonexpansive(self):
        rng = Rng(3)
        for kind, pi in (("scalar", 1), ("vector", 3), ("sym2x2", 3)):
            gs = GroupStructure(kind, 40, pi)
            w = np.tile(gs.component_weights, gs.group_count)
            for phi in (1, 2, math.inf):
                a = 3.0 * rng.normal(gs.range_dim)
                b = 3.0 * rng.normal(gs.range_dim)
                pa = project_group_ball(a, phi, gs)
                pb = project_group_ball(b, phi, gs)
                assert np.abs(project_group_ball(pa, phi, gs) - pa).max() <= 1e-12
                # nonexpansive in the geometry the projection minimizes
                da = float(np.sum(w * (pa - pb) ** 2))
                db = float(np.sum(w * (a - b) ** 2))
                assert da <= db + 1e-12

    def test_projected_groups_are_feasible(self):
        rng = Rng(4)
        psi_norm = {1: lambda g: np.abs(g).max(),
                    2: lambda g: np.linalg.norm(g),
                    math.inf: lambda g: np.abs(g).sum()}
        for kind, pi in (("vector", 2), ("sym2x2", 3)):
            gs = GroupStructure(kind, 25, pi)
            for phi in (1, 2, math.inf):
                out = project_group_ball(5.0 * rng.normal(gs.range_dim), phi, gs)
                for g in gs.as_groups(out):
                    if kind == "sym2x2":
                        g = np.linalg.eigvalsh([[g[0], g[2]], [g[2], g[1]]])
                    assert psi_norm[phi](g) <= 1.0 + 1e-12

    def test_l1_ball_projection_matches_brute_force(self):
        # direct check of the sort-based algorithm against a dense scan
        gs = GroupStructure("vector", 1, 4)
        rng = Rng(5)
        for _ in range(20):
            q = 2.0 * rng.normal(4)
            p = project_group_ball(q, math.inf, gs)
            assert np.abs(p).sum() <= 1.0 + 1e-12
            for _ in range(200):
                z = rng.normal(4)
                z = z / np.abs(z).sum() * rng.uniform(1)[0]  # feasible point
                assert np.linalg.norm(q - p) <= np.linalg.norm(q - z) + 1e-10

    def test_schatten_projection_against_brute_force(self):
        # brute force = sampled feasible matrices + the variational
        # inequality <M - P(M), Z - P(M)> <= 0 characterizing projections
        rng = Rng(6)
        gs = GroupStructure("sym2x2", 1, 3)
        for phi in (1, 2, math.inf):
            psi = dual_exponent(phi)
            for trial in range(10):
                m = 2.0 * rng.normal(3)
                p = project_group_ball(m, phi, gs)
                dist_p = (m[0] - p[0]) ** 2 + (m[1] - p[1]) ** 2 + 2 * (m[2] - p[2]) ** 2
                for _ in range(400):
                    lam = rng.normal(2)
                    if psi == math.inf:
                        lam = np.clip(lam, -1, 1)
                    elif psi == 2.0:
                        lam = lam / max(1.0, np.linalg.norm(lam))
                    else:
                        lam = lam / max(1.0, np.abs(lam).sum())
                    ang = rng.uniform(1)[0] * np.pi
                    c, s = np.cos(ang), np.sin(ang)
                    rot = np.array([[c, -s], [s, c]])
                    zm = rot @ np.diag(lam) @ rot.T
                    z = np.array([zm[0, 0], zm[1, 1], zm[0, 1]])
                    dist_z = (m[0] - z[0]) ** 2 + (m[1] - z[1]) ** 2 + 2 * (m[2] - z[2]) ** 2
                    assert dist_p <= dist_z + 1e-8
                    vi = ((m[0] - p[0]) * (z[0] - p[0]) + (m[1] - p[1]) * (z[1] - p[1])
                          + 2 * (m[2] - p[2]) * (z[2] - p[2]))
                    assert vi <= 1e-8


class TestMixedNorm:
    def test_zero(self):
        gs = GroupStructure("vector", 5, 2)
        assert mixed_norm_value(np.zeros(10), 1, gs) == 0.0

    def test_tv_of_hand_stencil(self):
        from rnp.core import ImageGrid
        op, gs = grad_operator(2, 2)
        x = ImageGrid.from_matrix(np.array([[0.0, 1.0], [0.0, 1.0]])).data
        v = op.apply(x)
        assert mixed_norm_value(v, 1, gs) == pytest.approx(4.0)
        assert mixed_norm_value(v, 2, gs) == pytest.approx(4.0)

    def test_sym_identity_norms(self):
        gs = GroupStructure("sym2x2", 1, 3)
        v = np.array([1.0, 1.0, 0.0])
        assert mixed_norm_value(v, 1, gs) == pytest.approx(2.0)
        assert mixed_norm_value(v, 2, gs) == pytest.approx(math.sqrt(2.0))
        assert mixed_norm_value(v, math.inf, gs) == pytest.approx(1.0)

    def test_duality_pairing_bound(self):
        # |<Q, V>| <= ||Q||_{inf,psi} ||V||_{1,phi} with the group pairing
        rng = Rng(7)
        gs = GroupStructure("sym2x2", 12, 3)
        for phi in (1, 2, math.inf):
            v = rng.normal(gs.range_dim)
            q = project_group_ball(rng.normal(gs.range_dim) * 3, phi, gs)
            assert group_pairing(q, v, gs) <= mixed_norm_value(v, phi, gs) + 1e-10


class TestWpmStructured:
    def test_empty_ubar_returns_plain_prox(self):
        box = BoxConstraint(0.0, 1.0)
        x = np.array([-0.5, 0.5, 2.0])
        u, gamma = wpm_structured(BoxProx(box), x, np.zeros((3, 0)))
        assert np.array_equal(u, [0.0, 0.5, 1.0])
        assert gamma.size == 0

    def test_identity_prox_gives_gamma_zero(self):
        rng = Rng(8)
        x = rng.normal(6)
        ubar = standard_normal_matrix(6, 2, rng)
        u, gamma = wpm_structured(IdentityProx(), x, ubar, tol=1e-12)
        assert np.allclose(u, x, atol=1e-10)
        assert np.allclose(gamma, 0.0, atol=1e-10)

    def test_against_projected_gradient_oracle(self):
        box = BoxConstraint(0.0, 1.0)
        rng = Rng(9)
        for trial in range(10):
            r = rng.spawn(trial)
            x = 2.0 * r.normal(6)
            ubar = standard_normal_matrix(6, 2, r)
            u, gamma = wpm_structured(BoxProx(box), x, ubar, tol=1e-12)
            # oracle: projected gradient on 0.5||u-x||_W^2, W = I + Ubar Ubar'
            w = np.eye(6) + ubar @ ubar.T
            eta = 1.0 / np.linalg.eigvalsh(w).max()
            ref = np.clip(x, 0, 1)
            for _ in range(200000):
                nxt = np.clip(ref - eta * (w @ (ref - x)), 0, 1)
                if np.abs(nxt - ref).max() < 1e-14:
                    ref = nxt
                    break
                ref = nxt
            assert np.abs(u - ref).max() <= 1e-6
            resid = ubar.T @ (x - u) + gamma
            assert np.linalg.norm(resid) <= 1e-10

    def test_soft_threshold_metric_solution_is_optimal(self):
        # optimality of min tau||u||_1 + 0.5||u - x||_W^2 via subgradient check
        rng = Rng(10)
        x = rng.normal(8)
        ubar = 0.7 * standard_normal_matrix(8, 3, rng)
        tau = 0.4
        u, _ = wpm_structured(SoftThresholdProx(tau), x, ubar, tol=1e-12)
        w = np.eye(8) + ubar @ ubar.T
        g = w @ (u - x)
        on = np.abs(u) > 1e-12
        assert np.abs(g[on] + tau * np.sign(u[on])).max() <= 1e-8
        assert np.abs(g[~on]).max() <= tau + 1e-8

    def test_nonconvergence_raises(self):
        with pytest.raises(RuntimeError):
            wpm_structured(BoxProx(BoxConstraint(0.0, 1.0)), 3.0 * np.ones(4),
                           np.ones((4, 1)), tol=1e-16, max_iter=1)


class TestShiftedProx:
    """``shift=w`` gives the P-metric prox of v + Ubar w, and the state keeps
    the unshifted root."""

    @pytest.mark.parametrize("prox_d", [BoxProx(BoxConstraint(0.0, 1.0)),
                                        SoftThresholdProx(0.3)])
    def test_shift_matches_the_moved_point(self, prox_d):
        rng = Rng(33)
        n, r = 40, 5
        ubar = 0.7 * standard_normal_matrix(n, r, rng)
        ubar[:, -1] = 0.0  # the tail column, where d = 1
        folded_state, explicit_state = NewtonState(ubar), NewtonState(ubar)
        for _ in range(6):  # both states are reused across calls with different shifts
            v = 1.5 * rng.normal(n) + 0.5
            w = rng.normal(r)
            folded, gamma = wpm_structured(prox_d, v, ubar, tol=1e-12,
                                           newton=folded_state, shift=w)
            explicit, gamma_ref = wpm_structured(prox_d, v + ubar @ w, ubar, tol=1e-12,
                                                 newton=explicit_state)
            assert np.abs(folded - explicit).max() <= 1e-12 * np.abs(explicit).max()
            assert np.abs(gamma - gamma_ref).max() <= 1e-12 * np.abs(gamma_ref).max()
            assert folded_state.gamma is gamma
            assert gamma[-1] == 0.0

    def test_no_shift_and_zero_shift_agree(self):
        rng = Rng(35)
        ubar = standard_normal_matrix(30, 3, rng)
        x = 2.0 * rng.normal(30)
        box_prox = BoxProx(BoxConstraint(0.0, 1.0))
        plain, gamma = wpm_structured(box_prox, x, ubar, tol=1e-12)
        zero, gamma_zero = wpm_structured(box_prox, x, ubar, tol=1e-12, shift=np.zeros(3))
        assert np.array_equal(plain, zero) and np.array_equal(gamma, gamma_zero)


class TestWpmFastPath:
    def test_jacobian_matches_dense_formula(self):
        rng = Rng(30)
        n, r = 40, 4
        ubar = standard_normal_matrix(n, r, rng)
        gram = ubar.T @ ubar
        u = rng.uniform(n)
        few, most = u < 0.25, u < 0.75
        assert 2 * few.sum() <= n < 2 * most.sum()
        for slope in (few, most):
            dense = np.eye(r) + ubar.T @ np.diag(slope) @ ubar
            jac = _newton_jacobian(ubar, gram, slope)
            assert np.abs(jac - dense).max() <= 1e-12

    def test_warm_start_matches_cold_start(self):
        box_prox = BoxProx(BoxConstraint(0.0, 1.0))
        rng = Rng(31)
        ubar = 0.5 * standard_normal_matrix(50, 5, rng)
        x = 2.0 * rng.normal(50)
        state = NewtonState(ubar)
        _, gamma_prev = wpm_structured(box_prox, x, ubar, tol=1e-12, newton=state)
        assert state.gamma is gamma_prev
        x_next = x + 0.05 * rng.normal(50)
        tol = 1e-12
        cold, _ = wpm_structured(box_prox, x_next, ubar, tol=tol)
        warm, gamma = wpm_structured(box_prox, x_next, ubar, tol=tol, newton=state)
        assert np.abs(warm - cold).max() <= 1e-10
        assert np.linalg.norm(ubar.T @ (x_next - warm) + gamma) <= tol
        with pytest.raises(ValueError):  # a state of another Ubar
            wpm_structured(box_prox, x_next, ubar, newton=NewtonState(ubar.copy()))

    def test_warm_start_cuts_newton_steps_in_wapg(self, monkeypatch):
        problem = make_ct(32, 20, "tv", 0.01, Rng(0))
        cfg = WapgConfig(lam=0.05, sketch_size=8, outer_max=10,
                         box=BoxConstraint(0.0, 1.0))
        pre, _ = build_wapg_preconditioner(problem, cfg, Rng(1).spawn(0))
        steps = [0]
        slope = BoxProx.slope

        def counting_slope(self, u):  # one slope evaluation per Newton step
            steps[0] += 1
            return slope(self, u)

        monkeypatch.setattr(BoxProx, "slope", counting_slope)

        def solve():
            steps[0] = 0
            _, trace = wapg_solve(problem, cfg, pre, Rng(1).spawn(1))
            return steps[0], trace

        warm_steps, warm_trace = solve()
        warm_func = prox.wpm_structured
        # a fresh Newton state per projection: gamma starts from zero
        monkeypatch.setattr(prox, "wpm_structured",
                            lambda *a, newton=None, **kw: warm_func(*a, **kw))
        cold_steps, cold_trace = solve()
        assert 0 < warm_steps < cold_steps
        assert np.array_equal(warm_trace.inner_iters, cold_trace.inner_iters)
        assert np.allclose(warm_trace.costs, cold_trace.costs, rtol=1e-9, atol=0)


class TestWpmMixedDual:
    def test_zero_weight_is_pure_projection(self):
        gs = GroupStructure("scalar", 4, 1)
        box = BoxConstraint(0.0, 1.0)
        s = np.array([-1.0, 0.5, 2.0, 0.1])
        x, q, iters = wpm_mixed_dual(s, 0.0, identity_operator(4), gs, 1, None, box)
        assert np.array_equal(x, [0.0, 0.5, 1.0, 0.1])
        assert np.all(q == 0.0) and iters == 0

    def test_two_pixel_tv_closed_form(self):
        gs = GroupStructure("scalar", 1, 1)
        free = BoxConstraint()
        for s, lam in (((3.0, 1.0), 0.5), ((3.0, 1.0), 2.0), ((-1.0, 4.0), 1.2)):
            s = np.array(s)
            x, _, _ = wpm_mixed_dual(s, lam, difference_1d(), gs, 1, None, free,
                                     inner_tol=1e-14, inner_max=500)
            shrink = min(lam, abs(s[0] - s[1]) / 2.0)
            sign = np.sign(s[0] - s[1])
            expected = np.array([s[0] - sign * shrink, s[1] + sign * shrink])
            assert np.abs(x - expected).max() <= 1e-10

    def test_reduces_to_shrink_then_clip_for_identity_transform(self):
        gs = GroupStructure("scalar", 12, 1)
        box = BoxConstraint(0.0, 1.0)
        s = 2.0 * Rng(11).normal(12)
        x, _, _ = wpm_mixed_dual(s, 0.7, identity_operator(12), gs, 1, None, box,
                                 inner_tol=1e-12, inner_max=2000)
        ref = np.clip(soft_threshold(s, 0.7), 0.0, 1.0)
        assert np.abs(x - ref).max() <= 1e-8

    def test_8x8_tv_against_long_run_dual_oracle(self):
        n = 8
        op, gs = grad_operator(n, n)
        box = BoxConstraint(0.0, 1.0)
        rng = Rng(12)
        s = rng.normal(n * n) * 0.8 + 0.5
        lam = 0.15
        x, q, _ = wpm_mixed_dual(s, lam, op, gs, 1, None, box,
                                 inner_tol=1e-9, inner_max=20000)
        # oracle: plain projected gradient on the dual with a dense matrix
        dense_l = to_dense(op)
        step = 1.0 / (2.0 * lam * lam * np.linalg.norm(dense_l, 2) ** 2)
        qq = np.zeros(op.range_dim)
        for _ in range(200000):
            xx = np.clip(s - lam * (dense_l.T @ qq), 0.0, 1.0)
            nxt = project_group_ball(qq + step * 2.0 * lam * (dense_l @ xx), 1, gs)
            if np.abs(nxt - qq).max() < 1e-9:
                qq = nxt
                break
            qq = nxt
        ref = np.clip(s - lam * (dense_l.T @ qq), 0.0, 1.0)
        assert np.abs(x - ref).max() <= 1e-5

    def test_duality_gap_at_termination(self):
        n = 8
        op, gs = grad_operator(n, n)
        box = BoxConstraint(0.0, 1.0)
        rng = Rng(13)
        s = rng.normal(n * n) * 0.6 + 0.4
        lam = 0.2
        inner_tol = 1e-8
        factor_u, _ = np.linalg.qr(standard_normal_matrix(n * n, 4, rng))
        factor = NystromFactor(factor_u, np.array([5.0, 3.0, 2.0, 1.0]))
        pre = build_preconditioner(factor, mu=0.5)
        x, q, _ = wpm_mixed_dual(s, lam, op, gs, 1, pre, box,
                                 inner_tol=inner_tol, inner_max=50000)
        lx = op.apply(x)
        gap = lam * (mixed_norm_value(lx, 1, gs) - group_pairing(q, lx, gs))
        diff = x - s
        primal = 0.5 * float(diff @ pre.apply_P(diff)) + lam * mixed_norm_value(lx, 1, gs)
        assert gap >= -1e-12
        assert gap <= 10.0 * inner_tol * (1.0 + abs(primal))

    def test_isotropic_groups_and_hessian_groups_run(self):
        from rnp.linops import hessian_operator
        box = BoxConstraint(0.0, 1.0)
        s = Rng(14).normal(36) * 0.5 + 0.5
        op2, gs2 = grad_operator(6, 6)
        x2, _, _ = wpm_mixed_dual(s, 0.1, op2, gs2, 2, None, box)
        assert np.all((x2 >= 0) & (x2 <= 1))
        oph, gsh = hessian_operator(6, 6)
        xh, _, _ = wpm_mixed_dual(s, 0.05, oph, gsh, 1, None, box)
        assert np.all((xh >= 0) & (xh <= 1))


class TestCompositeProx:
    def test_weighted_norm_estimate_accounts_for_group_weights(self):
        op, gs = grad_operator(6, 6)
        plain = weighted_op_norm_sq(op, GroupStructure("vector", 36, 2), 100, Rng(15))
        assert plain == pytest.approx(8.0, rel=0.05)
        from rnp.linops import hessian_operator
        oph, gsh = hessian_operator(6, 6)
        est = weighted_op_norm_sq(oph, gsh, 150, Rng(16))
        dense = to_dense(oph)
        w = np.tile(gsh.component_weights, gsh.group_count)
        top = np.linalg.eigvalsh(dense.T @ (w[:, None] * dense))[-1]
        assert est == pytest.approx(top, rel=1e-2)
        assert est <= top + 1e-9


class TestDualProxWithPreconditioner:
    def test_hessian_groups_with_rank_structured_metric(self):
        # Frobenius-geometry gap certificate must also hold for sym2x2 groups
        from rnp.linops import hessian_operator
        n = 6
        op, gs = hessian_operator(n, n)
        rng = Rng(21)
        s = rng.normal(n * n) * 0.4 + 0.5
        u_cols, _ = np.linalg.qr(standard_normal_matrix(n * n, 3, rng))
        factor = NystromFactor(u_cols, np.array([4.0, 2.0, 1.0]))
        pre = build_preconditioner(factor, mu=0.3)
        lam = 0.1
        inner_tol = 1e-8
        x, q, _ = wpm_mixed_dual(s, lam, op, gs, 1, pre, BoxConstraint(0.0, 1.0),
                                 inner_tol=inner_tol, inner_max=50000)
        lx = op.apply(x)
        gap = lam * (mixed_norm_value(lx, 1, gs) - group_pairing(q, lx, gs))
        diff = x - s
        primal = 0.5 * float(diff @ pre.apply_P(diff)) + lam * mixed_norm_value(lx, 1, gs)
        assert -1e-12 <= gap <= 10.0 * inner_tol * (1.0 + abs(primal))
        assert np.all((x >= 0.0) & (x <= 1.0))


def _dual_setup(kind: str):
    from rnp.linops import hessian_operator
    n = 8
    op, gs = grad_operator(n, n) if kind == "grad" else hessian_operator(n, n)
    rng = Rng(34)
    s = rng.normal(n * n) * 0.6 + 0.4
    u_cols, _ = np.linalg.qr(standard_normal_matrix(n * n, 4, rng))
    pre = build_preconditioner(NystromFactor(u_cols, np.array([5.0, 3.0, 2.0, 1.0])), mu=0.5)
    q0 = project_group_ball(rng.normal(op.range_dim), 1, gs)
    return op, gs, s, pre, q0


class TestDualProxInNewtonCoordinates:
    @pytest.mark.parametrize("kind", ["grad", "hessian"])
    def test_recover_matches_the_explicit_pinv_point(self, kind, monkeypatch):
        op, gs, s, pre, q0 = _dual_setup(kind)
        lam = 0.2
        points = []
        original = prox.wpm_structured

        def recording(prox_d, v, ubar, **kwargs):
            points.append(v + ubar @ kwargs["shift"])
            return original(prox_d, v, ubar, **kwargs)

        monkeypatch.setattr(prox, "wpm_structured", recording)
        wpm_mixed_dual(s, lam, op, gs, 1, pre, BoxConstraint(0.0, 1.0), q0=q0, inner_max=1)
        # the first projection recovers the primal point of q0
        explicit = s - lam * pre.apply_Pinv(op.adjoint(gs.range_weights * q0))
        assert np.abs(points[0] - explicit).max() <= 1e-12 * np.abs(explicit).max()

    def test_dual_ascent_makes_no_pinv_apply(self, monkeypatch):
        op, gs, s, pre, q0 = _dual_setup("grad")
        calls = []
        apply_pinv = Preconditioner.apply_Pinv
        monkeypatch.setattr(Preconditioner, "apply_Pinv",
                            lambda self, v: calls.append(1) or apply_pinv(self, v))
        _, _, iters = wpm_mixed_dual(s, 0.2, op, gs, 1, pre, BoxConstraint(0.0, 1.0), q0=q0)
        assert iters > 1
        assert calls == []
