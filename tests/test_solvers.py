import math
from dataclasses import dataclass

import numpy as np
import pytest

from rnp.core import ImageGrid, Rng, standard_normal_matrix
from rnp.linops import (GroupStructure, LinearOperator, identity_operator,
                        matrix_operator)
from rnp.problems import make_deblur, phantom
from rnp.prox import BoxConstraint, weighted_op_norm_sq, wpm_mixed_dual
from rnp.sketch import build_preconditioner, nystrom_approx
from rnp.solvers import (IrmConfig, WapgConfig, default_eps_smooth,
                         estimate_lipschitz_pnorm, half_quadratic_constants,
                         irm_cost, irm_solve, original_cost, update_weights,
                         wapg_solve)


@dataclass(frozen=True)
class ToyProblem:
    A: LinearOperator
    L: LinearOperator
    structure: GroupStructure
    y: np.ndarray
    ground_truth: ImageGrid
    peak: float = 1.0


def scalar_toy(n, y):
    return ToyProblem(identity_operator(n), identity_operator(n),
                      GroupStructure("scalar", n, 1), y,
                      ImageGrid(n, 1, np.zeros(n)))


def golden_section_min(f, lo, hi, iters=150, dfdx=None):
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    if dfdx is None:
        return 0.5 * (a + b)
    # polish by bisecting the monotone derivative (f is convex in the bracket)
    lo, hi = a, b
    while dfdx(lo) > 0:
        lo *= 0.5
    while dfdx(hi) < 0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if dfdx(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestHalfQuadratic:
    def test_constants_at_p1(self):
        a, b = half_quadratic_constants(1.0)
        assert a == pytest.approx(1.0)
        assert b == pytest.approx(4.0)
        # cross-check the identity at r=2: min_beta 4*beta + 1/(4*beta) = 2
        beta = golden_section_min(lambda t: t * 4.0 + 1.0 / (4.0 * t), 1e-4, 10.0)
        assert beta * 4.0 + 1.0 / (4.0 * beta) == pytest.approx(2.0, abs=1e-10)

    def test_numeric_identity_p_half(self):
        p, r = 0.5, 3.0
        a, b = half_quadratic_constants(p)
        beta = 0.5 * p * r ** (p - 2.0)
        assert beta == pytest.approx(0.25 * 3.0 ** -1.5)
        assert beta * r * r + 1.0 / (b * beta ** a) == pytest.approx(r ** p, abs=1e-10)

    def test_envelope_matches_golden_section_oracle(self):
        for p in (0.3, 0.5, 1.0, 1.5):
            a, b = half_quadratic_constants(p)
            for r in (0.1, 0.7, 2.0, 10.0):
                f = lambda t: t * r * r + 1.0 / (b * t ** a)
                df = lambda t: r * r - a / (b * t ** (a + 1.0))
                beta_star = 0.5 * p * r ** (p - 2.0)
                beta_num = golden_section_min(f, beta_star * 1e-3, beta_star * 1e3,
                                              dfdx=df)
                assert f(beta_star) == pytest.approx(abs(r) ** p, abs=1e-8)
                assert beta_num == pytest.approx(beta_star, rel=1e-8, abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 2.0, -1.0])
    def test_rejects_out_of_range(self, p):
        with pytest.raises(ValueError):
            half_quadratic_constants(p)

    def test_default_floor_caps_weights(self):
        for p in (0.3, 0.5, 1.0, 1.5):
            eps = default_eps_smooth(p)
            assert 0.5 * p * np.sqrt(eps) ** (p - 2.0) <= 1e6 * 0.5 * p + 1e-9


class TestUpdateWeights:
    def setup_method(self):
        self.n = 4
        self.A = identity_operator(self.n)
        self.L = identity_operator(self.n)
        self.gs = GroupStructure("scalar", self.n, 1)

    def test_p2_gives_unit_weights(self):
        v, z = update_weights(np.zeros(self.n), self.A, self.L, self.gs,
                              Rng(1).normal(self.n), 2.0, 2.0, 1e-4)
        assert np.all(v == 1.0) and np.all(z == 1.0)

    def test_p1_residual_four(self):
        v, _ = update_weights(np.zeros(self.n), self.A, self.L, self.gs,
                              4.0 * np.ones(self.n), 1.0, 2.0, 1e-4)
        assert np.all(v == 0.125)

    def test_singular_residual_uses_floor(self):
        v, _ = update_weights(np.zeros(self.n), self.A, self.L, self.gs,
                              np.zeros(self.n), 1.0, 2.0, 1e-4)
        assert np.all(v == 50.0)

    def test_group_magnitude_shared_across_group(self):
        gs = GroupStructure("vector", 2, 2)
        L = LinearOperator(4, 4, lambda x: x.copy(), lambda y: y.copy())
        x = np.array([3.0, 4.0, 0.3, 0.4])
        _, z = update_weights(x, identity_operator(4), L, gs, np.zeros(4),
                              2.0, 1.0, 1e-8)
        assert z[0] == z[1] == pytest.approx(0.5 / 5.0)
        assert z[2] == z[3] == pytest.approx(0.5 / 0.5)

    def test_weights_always_positive_finite(self):
        v, z = update_weights(np.zeros(self.n), self.A, self.L, self.gs,
                              np.zeros(self.n), 0.5, 0.5, 1e-6)
        assert np.all(v > 0) and np.all(np.isfinite(v))
        assert np.all(z > 0) and np.all(np.isfinite(z))


class TestIrmCost:
    def test_envelope_equals_original_cost_at_optimal_weights(self):
        rng = Rng(2)
        n = 20
        mat = np.asarray([rng.normal(n) for _ in range(n)])
        A = matrix_operator(mat)
        L = identity_operator(n)
        gs = GroupStructure("scalar", n, 1)
        y = rng.normal(n)
        x = rng.normal(n)
        for p, q in ((1.0, 1.0), (0.5, 1.5), (1.5, 0.5)):
            v, z = update_weights(x, A, L, gs, y, p, q, 1e-30)
            f = irm_cost(x, v, z, A, L, gs, y, 0.7, p, q)
            ref = original_cost(x, A, L, gs, y, 0.7, p, q)
            assert f == pytest.approx(ref, rel=1e-8)

    def test_p2_branch_is_plain_quadratic(self):
        n = 6
        A = identity_operator(n)
        L = identity_operator(n)
        gs = GroupStructure("scalar", n, 1)
        y = Rng(3).normal(n)
        x = Rng(4).normal(n)
        f = irm_cost(x, np.ones(n), np.ones(n), A, L, gs, y, 2.0, 2.0, 2.0)
        expected = 0.5 * np.sum((x - y) ** 2) + np.sum(x ** 2)
        assert f == pytest.approx(expected, rel=1e-12)


class TestIrmSolve:
    def test_ridge_closed_form(self):
        n = 64
        y = Rng(5).normal(n)
        prob = scalar_toy(n, y)
        cfg = IrmConfig(p=2.0, q=2.0, lam=0.5, outer_max=1, inner_tol=1e-12,
                        inner_max=200, sketch_size=0)
        x, trace = irm_solve(prob, cfg, Rng(0))
        assert np.abs(x - y / 1.5).max() < 1e-8
        assert len(trace.records) == 1

    def test_monotone_cost_with_tight_inner_tol(self):
        prob = make_deblur("gauss9", 32, 0.05, Rng(0))
        cfg = IrmConfig(p=1.0, q=1.0, lam=0.05, outer_max=6, inner_tol=1e-10,
                        inner_max=20000, sketch_size=32, outer_tol=1e-12)
        _, trace = irm_solve(prob, cfg, Rng(1))
        costs = trace.costs[1:]  # reweighted iterations only
        assert np.all(np.diff(costs) <= 1e-9 * np.abs(costs[:-1]))

    def test_trace_reproducible_for_fixed_seed(self):
        prob = make_deblur("gauss9", 32, 0.05, Rng(0))
        cfg = IrmConfig(p=1.0, q=1.0, lam=0.05, outer_max=3, inner_tol=1e-4,
                        inner_max=500, sketch_size=16)
        _, t1 = irm_solve(prob, cfg, Rng(7))
        _, t2 = irm_solve(prob, cfg, Rng(7))
        assert np.array_equal(t1.costs, t2.costs)
        assert np.array_equal(t1.inner_iters, t2.inner_iters)

    def test_sketch_drawn_only_when_pcg_iterates(self, monkeypatch):
        import rnp.solvers as solvers
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return nystrom_approx(*args, **kwargs)

        monkeypatch.setattr(solvers, "nystrom_approx", counting)
        prob = make_deblur("gauss9", 32, 0.05, Rng(0))
        cfg = IrmConfig(p=1.0, q=1.0, lam=0.05, sketch_size=16)
        _, trace = irm_solve(prob, cfg, Rng(3))
        iterated = [r for r in trace.records if r.inner_iters > 0]
        skipped = [r for r in trace.records if r.inner_iters == 0]
        assert skipped  # the warm start met inner_tol at least once
        assert len(calls) == len(iterated)
        assert all(r.sketch_s == 0.0 for r in skipped)
        assert all(r.sketch_s > 0.0 for r in iterated)

    def test_overflowing_rhs_raises_value_error(self):
        n = 8
        y = np.full(n, 1e200)
        prob = scalar_toy(n, y)
        cfg = IrmConfig(p=2.0, q=2.0, lam=1.0, outer_max=1, sketch_size=0)
        with pytest.raises(ValueError):
            irm_solve(prob, cfg, Rng(0))


class TestLipschitzEstimate:
    def test_orthonormal_map_gives_one(self):
        q, _ = np.linalg.qr(standard_normal_matrix(12, 12, Rng(6)))
        est = estimate_lipschitz_pnorm(matrix_operator(q), None, 60, Rng(7))
        assert est == pytest.approx(1.0, abs=1e-8)

    def test_diagonal(self):
        op = matrix_operator(np.diag([1.0, 2.0, 3.0]))
        assert estimate_lipschitz_pnorm(op, None, 80, Rng(8)) == pytest.approx(9.0, abs=1e-6)

    def test_matches_dense_generalized_eigenvalue(self):
        rng = Rng(9)
        mat = np.asarray([rng.normal(20) for _ in range(20)])
        A = matrix_operator(mat)
        normal_op = matrix_operator(mat.T @ mat)
        factor = nystrom_approx(normal_op, 8, Rng(10))
        pre = build_preconditioner(factor, 1e-2, sqrt_tail=False)
        est = estimate_lipschitz_pnorm(A, pre, 300, Rng(11))
        half = np.column_stack([pre.apply_Pinvhalf(col) for col in np.eye(20)])
        dense = half @ (mat.T @ mat) @ half
        top = np.linalg.eigvalsh(0.5 * (dense + dense.T))[-1]
        assert est == pytest.approx(top, rel=1e-2)


class TestWapg:
    def test_momentum_sequence_lower_bound(self):
        t = 1.0
        for k in range(1, 200):
            t = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            assert t >= (k + 2) / 2.0

    def test_identity_metric_matches_textbook_apg_bitwise(self):
        n = 12
        rng = Rng(12)
        mat = np.asarray([rng.normal(n) for _ in range(n)])
        y = rng.normal(n)
        prob = ToyProblem(matrix_operator(mat), identity_operator(n),
                          GroupStructure("scalar", n, 1), y,
                          ImageGrid(n, 1, np.zeros(n)))
        alpha = 0.9 / np.linalg.eigvalsh(mat.T @ mat)[-1]
        box = BoxConstraint(0.0, 1.0)
        cfg = WapgConfig(lam=0.1, phi=1, sketch_size=0, outer_max=25,
                         box=box, alpha=alpha, inner_tol=1e-8, inner_max=400)
        x_solver, _ = wapg_solve(prob, cfg, None, Rng(13))

        lns = 1.05 * weighted_op_norm_sq(prob.L, prob.structure, 100, Rng(13).spawn(1))
        x = np.zeros(n)
        u = x.copy()
        t_prev = 1.0
        q = None
        for _ in range(25):
            grad = mat.T @ (mat @ u - y)
            s = u - alpha * grad
            x_next, q, _ = wpm_mixed_dual(s, alpha * 0.1, prob.L, prob.structure,
                                          1, None, box, inner_tol=1e-8,
                                          inner_max=400, q0=q, l_norm_sq=lns)
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_prev * t_prev))
            u = x_next + ((t_prev - 1.0) / t_next) * (x_next - x)
            x, t_prev = x_next, t_next
        assert np.array_equal(x_solver, x)

    def test_converges_to_least_squares_when_unregularized(self):
        rng = Rng(14)
        mat = np.asarray([rng.normal(8) for _ in range(12)])
        y = rng.normal(12)
        prob = ToyProblem(matrix_operator(mat), identity_operator(8),
                          GroupStructure("scalar", 8, 1), y,
                          ImageGrid(8, 1, np.zeros(8)))
        cfg = WapgConfig(lam=0.0, phi=1, sketch_size=0, outer_max=400,
                         box=BoxConstraint(), power_iters=80)
        x, _ = wapg_solve(prob, cfg, None, Rng(15))
        ref = np.linalg.solve(mat.T @ mat, mat.T @ y)
        d = x - ref
        assert math.sqrt(d @ (mat.T @ mat) @ d) < 1e-6

    def test_separable_path_satisfies_lasso_kkt(self):
        rng = Rng(16)
        n = 10
        mat = np.asarray([rng.normal(n) for _ in range(14)])
        q, _ = np.linalg.qr(standard_normal_matrix(n, n, rng))
        transform = matrix_operator(q.T)  # orthogonal "analysis" operator
        y = rng.normal(14)
        prob = ToyProblem(matrix_operator(mat), transform,
                          GroupStructure("scalar", n, 1), y,
                          ImageGrid(n, 1, np.zeros(n)))
        lam = 0.3
        cfg = WapgConfig(lam=lam, phi=1, sketch_size=4, outer_max=4000,
                         prox_mode="separable", power_iters=80)
        rng_s = Rng(17)
        from rnp.solvers import build_wapg_preconditioner
        pre, _ = build_wapg_preconditioner(prob, cfg, rng_s.spawn(0))
        x_img, _ = wapg_solve(prob, cfg, pre, rng_s.spawn(1))
        # KKT of min 0.5||A x - y||^2 + lam ||T x||_1 at x = T' xbar
        xbar = q.T @ x_img
        grad = q.T @ (mat.T @ (mat @ x_img - y))
        on = np.abs(xbar) > 1e-9
        assert np.abs(grad[on] + lam * np.sign(xbar[on])).max() <= 1e-5
        assert np.maximum(np.abs(grad[~on]) - lam, 0.0).max() <= 1e-5

    def test_trace_is_well_formed(self):
        n = 8
        y = Rng(18).normal(n)
        prob = scalar_toy(n, y)
        cfg = WapgConfig(lam=0.05, phi=1, sketch_size=0, outer_max=10)
        _, trace = wapg_solve(prob, cfg, None, Rng(19))
        iters = [r.iter for r in trace.records]
        assert iters == list(range(1, 11))
        elapsed = [r.elapsed_s for r in trace.records]
        assert all(b >= a for a, b in zip(elapsed, elapsed[1:]))


class TestCostClosedForms:
    def test_zero_data_leaves_only_penalty_terms(self):
        # x = 0, y = 0: residuals and group magnitudes hit the floor, so the
        # surrogate reduces to the closed-form barrier sums
        n = 10
        A = identity_operator(n)
        L = identity_operator(n)
        gs = GroupStructure("scalar", n, 1)
        p = q = 1.0
        lam = 0.7
        eps = 1e-4
        v, z = update_weights(np.zeros(n), A, L, gs, np.zeros(n), p, q, eps)
        f = irm_cost(np.zeros(n), v, z, A, L, gs, np.zeros(n), lam, p, q)
        a_p, b_p = half_quadratic_constants(p)
        floor_v = 0.5 * p * np.sqrt(eps) ** (p - 2.0)
        expected = (1.0 / p) * n / (b_p * floor_v ** a_p) * (1.0 + lam)
        assert f == pytest.approx(expected, rel=1e-12)


class TestWapgVariants:
    def test_sqrt_tail_option_runs_and_descends(self):
        from rnp.problems import make_ct
        prob = make_ct(32, 20, "tv", 0.01, Rng(30))
        from rnp.solvers import build_wapg_preconditioner
        cfg = WapgConfig(lam=0.5, phi=1, sketch_size=10, outer_max=15,
                         box=BoxConstraint(0.0, 1.0), sqrt_tail=True)
        rng = Rng(31)
        pre, _ = build_wapg_preconditioner(prob, cfg, rng.spawn(0))
        assert pre.sqrt_tail and pre.sigma_max_pinv >= 1.0
        _, trace = wapg_solve(prob, cfg, pre, rng.spawn(1))
        assert trace.costs[-1] < trace.costs[0]

    @pytest.mark.parametrize("reg,phi", [("tv", 2), ("hs", math.inf)])
    def test_other_group_norms_descend(self, reg, phi):
        from rnp.problems import make_ct
        prob = make_ct(32, 20, reg, 0.01, Rng(32))
        cfg = WapgConfig(lam=0.5, phi=phi, sketch_size=0, outer_max=15,
                         box=BoxConstraint(0.0, 1.0))
        _, trace = wapg_solve(prob, cfg, None, Rng(33))
        assert trace.costs[-1] < trace.costs[0]
        assert np.isfinite(trace.costs).all()
