import dataclasses
import math
import os
import signal
import subprocess
import sys
import textwrap
import threading
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest

from rnp import linops
from rnp.core import ImageGrid, Rng, standard_normal_matrix
from rnp.krylov import pcg
from rnp.linops import (GroupStructure, LinearOperator, grad_operator, hessian_operator,
                        identity_operator, matrix_operator)
from rnp.problems import make_ct, make_deblur
from rnp.prox import (BoxConstraint, soft_threshold, weighted_op_norm_sq,
                      wpm_mixed_dual, wpm_structured)
from rnp.sketch import Preconditioner, build_preconditioner, default_mu, nystrom_approx
from rnp.solvers import (LIPSCHITZ_STEPS, IrmConfig, WapgConfig,
                         _effective_forward, build_wapg_preconditioner,
                         default_eps_smooth, estimate_lipschitz_pnorm,
                         half_quadratic_constants, irm_cost, irm_solve,
                         original_cost, update_weights, wapg_solve)

from counting import counting


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
    # update_weights takes the residual A x - y and L x of the iterate x;
    # with x = 0 both are given directly
    def setup_method(self):
        self.n = 4
        self.zero = np.zeros(self.n)
        self.gs = GroupStructure("scalar", self.n, 1)

    def test_p2_gives_unit_weights(self):
        v, z = update_weights(-Rng(1).normal(self.n), self.zero, self.gs,
                              2.0, 2.0, 1e-4, 1e-4)
        assert np.all(v == 1.0) and np.all(z == 1.0)

    def test_p1_residual_four(self):
        v, _ = update_weights(-4.0 * np.ones(self.n), self.zero, self.gs,
                              1.0, 2.0, 1e-4, 1e-4)
        assert np.all(v == 0.125)

    def test_singular_residual_uses_floor(self):
        v, _ = update_weights(self.zero, self.zero, self.gs, 1.0, 2.0, 1e-4, 1e-4)
        assert np.all(v == 50.0)

    def test_group_magnitude_shared_across_group(self):
        gs = GroupStructure("vector", 2, 2)
        lx = np.array([3.0, 4.0, 0.3, 0.4])
        _, z = update_weights(np.zeros(4), lx, gs, 2.0, 1.0, 1e-8, 1e-8)
        assert z[0] == z[1] == pytest.approx(0.5 / 5.0)
        assert z[2] == z[3] == pytest.approx(0.5 / 0.5)

    def test_nonpositive_floor_rejected(self):
        for floors in ((0.0, 1e-4), (1e-4, 0.0), (1e-4, -1.0)):
            with pytest.raises(ValueError):
                update_weights(self.zero, self.zero, self.gs, 1.0, 1.0, *floors)

    def test_weights_always_positive_finite(self):
        v, z = update_weights(self.zero, self.zero, self.gs, 0.5, 0.5, 1e-6, 1e-6)
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
            res, lx = A.apply(x) - y, L.apply(x)
            v, z = update_weights(res, lx, gs, p, q, 1e-30, 1e-30)
            f = irm_cost(res, lx, v, z, gs, 0.7, p, q)
            ref = original_cost(x, A, L, gs, y, 0.7, p, q)
            assert f == pytest.approx(ref, rel=1e-8)

    def test_p2_branch_is_plain_quadratic(self):
        n = 6
        gs = GroupStructure("scalar", n, 1)
        y = Rng(3).normal(n)
        x = Rng(4).normal(n)
        f = irm_cost(x - y, x, np.ones(n), np.ones(n), gs, 2.0, 2.0, 2.0)
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

    def test_sketches_draw_on_the_calling_thread_whatever_the_core_count(self, monkeypatch):
        # a deblur solve has no split radon, so nothing may touch the pool
        def no_pool():
            raise AssertionError("the solve used the thread pool")

        monkeypatch.setattr(linops, "_shared_pool", no_pool)
        prob = make_deblur("gauss9", 32, 0.05, Rng(0))
        cfg = IrmConfig(p=1.0, q=1.0, lam=0.05, sketch_size=16)
        runs = []
        for cores in (1, 2):
            monkeypatch.setattr(linops, "_usable_cores", lambda: cores)
            runs.append(irm_solve(prob, cfg, Rng(3)))
        (x1, t1), (x2, t2) = runs
        assert np.count_nonzero(t1.inner_iters) >= 2  # more than one sketch
        assert np.array_equal(x1, x2)
        for attr in ("costs", "psnrs", "inner_iters"):
            assert np.array_equal(getattr(t1, attr), getattr(t2, attr))

    def test_concurrent_solves_share_the_pool_and_agree(self, monkeypatch):
        # every radon product of every solve splits across the one pool thread
        monkeypatch.setattr(linops, "_MIN_BLOCK_NNZ", 10_000)
        monkeypatch.setattr(linops, "_usable_cores", lambda: 2)
        monkeypatch.setattr(linops, "_pool", None)
        prob = make_ct(32, 20, "tv", 0.01, Rng(0))
        cfg = IrmConfig(p=1.0, q=1.0, lam=0.05, outer_max=4, sketch_size=8)
        ref_x, ref_trace = irm_solve(prob, cfg, Rng(5))
        assert linops._pool is not None
        results, errors = [None] * 8, []

        def solve(i):
            try:
                results[i] = irm_solve(prob, cfg, Rng(5))
            except Exception as exc:  # reported below
                errors.append(exc)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=solve, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        for x, trace in results:
            assert np.array_equal(x, ref_x)
            assert np.array_equal(trace.costs, ref_trace.costs)

    def test_split_radon_solve_with_drawn_ahead_matrices_finishes(self, tmp_path):
        # Radon products share one pool thread when two cores are forced, and
        # every test matrix is drawn on the solving thread; run in a subprocess
        # so that a deadlock fails the test instead of stalling the suite.
        script = textwrap.dedent("""
            import numpy as np
            from rnp import linops
            from rnp.core import Rng
            from rnp.problems import make_ct
            from rnp.solvers import IrmConfig, irm_solve

            linops._usable_cores = lambda: 2
            prob = make_ct(96, 60, "tv", 0.01, Rng(0))  # split: 1.0 M nonzeros
            cfg = IrmConfig(p=1.0, q=1.0, lam=0.05, outer_max=4, inner_max=60,
                            sketch_size=12)
            x2, t2 = irm_solve(prob, cfg, Rng(1))
            assert linops._pool is not None
            assert np.count_nonzero(t2.inner_iters) >= 2, t2.inner_iters
            linops._usable_cores = lambda: 1
            prob = make_ct(96, 60, "tv", 0.01, Rng(0))  # the same operator, unsplit
            x1, t1 = irm_solve(prob, cfg, Rng(1))
            assert np.array_equal(x1, x2) and np.array_equal(t1.costs, t2.costs)
            print("done")
            """)
        path = tmp_path / "irm_split_radon.py"
        path.write_text(script)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.Popen([sys.executable, str(path)], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, env=env,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=90)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("IRM on a split radon operator hung")
        assert proc.returncode == 0, err
        assert out.strip() == "done"

    @pytest.mark.parametrize("make", [
        lambda **kw: IrmConfig(p=1.0, q=1.0, lam=1.0, **kw),
        lambda **kw: WapgConfig(lam=1.0, **kw),
    ])
    @pytest.mark.parametrize("budget", [{"outer_max": 0}, {"outer_max": -1},
                                        {"sketch_size": -5}, {"inner_max": 0},
                                        {"inner_max": -1}, {"inner_tol": 0.0},
                                        {"inner_tol": -1e-6}])
    def test_configs_reject_out_of_range_budgets(self, make, budget):
        with pytest.raises(ValueError, match=next(iter(budget))):
            make(**budget)

    def test_overflowing_rhs_raises_value_error(self):
        n = 8
        y = np.full(n, 1e200)
        prob = scalar_toy(n, y)
        cfg = IrmConfig(p=2.0, q=2.0, lam=1.0, outer_max=1, sketch_size=0)
        with pytest.raises(ValueError):
            irm_solve(prob, cfg, Rng(0))


class TestIrmProducts:
    def test_one_forward_product_per_iterate_outside_pcg(self, monkeypatch):
        # the residual and L x of each new iterate serve its trace cost and
        # the next reweighting; the parent computed both twice per iterate
        import rnp.solvers as solvers
        prob = make_deblur("gauss9", 32, 0.05, Rng(0))
        A, a_calls = counting(prob.A)
        L, l_calls = counting(prob.L)
        prob = dataclasses.replace(prob, A=A, L=L)
        inside = Counter()

        def counted_pcg(*args, **kwargs):
            before = a_calls["apply"], l_calls["apply"]
            report = pcg(*args, **kwargs)
            inside["A"] += a_calls["apply"] - before[0]
            inside["L"] += l_calls["apply"] - before[1]
            return report

        monkeypatch.setattr(solvers, "pcg", counted_pcg)
        cfg = IrmConfig(p=1.0, q=1.0, lam=0.05, outer_max=5, sketch_size=8, outer_tol=0.0)
        _, trace = irm_solve(prob, cfg, Rng(3))
        outer = len(trace.records)
        assert outer == 5
        assert a_calls["apply"] - inside["A"] == outer
        assert l_calls["apply"] - inside["L"] == outer


class TestLipschitzEstimate:
    def test_orthonormal_map_gives_one(self):
        q, _ = np.linalg.qr(standard_normal_matrix(12, 12, Rng(6)))
        est = estimate_lipschitz_pnorm(matrix_operator(q), None, 60, Rng(7))
        assert est == pytest.approx(1.0, abs=1e-8)

    def test_diagonal(self):
        op = matrix_operator(np.diag([1.0, 2.0, 3.0]))
        assert estimate_lipschitz_pnorm(op, None, 80, Rng(8)) == pytest.approx(9.0, abs=1e-6)

    def test_equals_operator_norm_sq_of_the_composed_operator_bitwise(self):
        from rnp.linops import compose, operator_norm_sq, transpose

        prob = make_ct(32, 20, "wavelet", 0.01, Rng(60))
        fwd = compose(prob.A, transpose(prob.L))
        pre, _ = build_wapg_preconditioner(prob, WapgConfig(lam=0.02, sketch_size=8,
                                                            prox_mode="separable"), Rng(61))
        n = fwd.domain_dim
        half = LinearOperator(n, n, pre.apply_Pinvhalf, pre.apply_Pinvhalf)
        for p, op in ((None, fwd), (pre, compose(fwd, half))):
            for iters in (1, 30):
                assert (estimate_lipschitz_pnorm(fwd, p, iters, Rng(62))
                        == operator_norm_sq(op, iters, Rng(62)))
        assert estimate_lipschitz_pnorm(matrix_operator(np.zeros((3, 4))), None, 5, Rng(63)) == 0.0

    def test_preconditioned_radon_within_1e3_of_dense_top_eigenvalue(self):
        from rnp.linops import compose, radon_operator, to_dense, transpose
        A = radon_operator(24, 12, 35)
        factor = nystrom_approx(compose(transpose(A), A), 8, Rng(64))
        pre = build_preconditioner(factor, default_mu(factor))
        half = np.column_stack([pre.apply_Pinvhalf(col) for col in np.eye(A.domain_dim)])
        dense = to_dense(A) @ half
        top = np.linalg.eigvalsh(dense.T @ dense)[-1]
        for seed in range(5):
            est = estimate_lipschitz_pnorm(A, pre, LIPSCHITZ_STEPS, Rng(65 + seed))
            assert top * (1.0 - 1e-3) <= est <= top * (1.0 + 1e-12)

    @pytest.mark.parametrize("kind, n, K, steps", [
        ("wavelet", 128, 0, 7), ("wavelet", 128, 20, 15), ("tv", 64, 0, 7), ("tv", 64, 20, 12)])
    def test_lipschitz_estimate_stops_early(self, kind, n, K, steps):
        # the benchmark's CT geometries; the cap is LIPSCHITZ_STEPS = 30
        prob = make_ct(n, 60, kind, 0.01, Rng(70))
        cfg = WapgConfig(lam=0.02, sketch_size=K,
                         prox_mode="separable" if kind == "wavelet" else "dual")
        rng = Rng(71)
        pre, _ = build_wapg_preconditioner(prob, cfg, rng.spawn(0))
        fwd, calls = counting(_effective_forward(prob, cfg))
        estimate_lipschitz_pnorm(fwd, pre, LIPSCHITZ_STEPS, rng.spawn(1))
        assert calls["apply"] == calls["adjoint"] == steps

    @pytest.mark.parametrize("stencil, n", [
        (grad_operator, 64), (grad_operator, 128), (hessian_operator, 64)])
    def test_l_norm_takes_two_applies(self, stencil, n):
        # one impulse response for the symbol, one shifted impulse for the check
        op, gs = stencil(n, n)
        counted, calls = counting(op)
        weighted_op_norm_sq(counted, gs, n, n)
        assert (calls["apply"], calls["adjoint"]) == (2, 0)

    def test_matches_dense_generalized_eigenvalue(self):
        rng = Rng(9)
        mat = np.asarray([rng.normal(20) for _ in range(20)])
        A = matrix_operator(mat)
        normal_op = matrix_operator(mat.T @ mat)
        factor = nystrom_approx(normal_op, 8, Rng(10))
        pre = build_preconditioner(factor, 1e-2)
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

        lns = weighted_op_norm_sq(prob.L, prob.structure, n, 1)
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
                         box=BoxConstraint())
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
                         prox_mode="separable")
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

    def test_separable_mode_warns_once_that_it_ignores_a_box(self):
        prob = make_ct(32, 12, "wavelet", 0.01, Rng(54))
        cfg = WapgConfig(lam=0.02, sketch_size=0, alpha=2e-3, outer_max=5,
                         prox_mode="separable")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no box, no warning
            free, _ = wapg_solve(prob, cfg, None, Rng(55))
        with pytest.warns(UserWarning, match="ignores the box") as record:
            boxed, _ = wapg_solve(prob, dataclasses.replace(cfg, box=BoxConstraint(0.0, 1.0)),
                                  None, Rng(55))
        assert len(record) == 1
        assert np.array_equal(boxed, free)  # the box was never applied

    def test_dual_mode_takes_its_box_without_a_warning(self):
        prob = make_ct(32, 12, "tv", 0.01, Rng(54))
        cfg = WapgConfig(lam=0.02, sketch_size=0, alpha=2e-3, outer_max=2,
                         box=BoxConstraint(0.0, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wapg_solve(prob, cfg, None, Rng(55))

    def test_dual_mode_raises_before_its_clock_when_l_is_no_periodic_stencil(self):
        # the wavelet transform does not commute with a one-pixel shift
        prob = make_ct(32, 12, "wavelet", 0.01, Rng(54))
        counted, calls = counting(prob.A)
        prob = dataclasses.replace(prob, A=counted)
        cfg = WapgConfig(lam=0.02, sketch_size=0, outer_max=2, box=BoxConstraint(0.0, 1.0))
        with pytest.raises(ValueError, match="periodic stencil"):
            wapg_solve(prob, cfg, None, Rng(55))
        assert calls == {}  # neither the Lipschitz estimate nor an iteration ran

    @pytest.mark.parametrize("outer", [1, 2, 10])
    def test_trace_is_well_formed(self, outer):
        # the last row is appended after the loop, the others one iteration late
        n = 8
        y = Rng(18).normal(n)
        prob = scalar_toy(n, y)
        cfg = WapgConfig(lam=0.05, phi=1, sketch_size=0, outer_max=outer)
        _, trace = wapg_solve(prob, cfg, None, Rng(19))
        iters = [r.iter for r in trace.records]
        assert iters == list(range(1, outer + 1))
        elapsed = [r.elapsed_s for r in trace.records]
        assert all(b >= a for a, b in zip(elapsed, elapsed[1:]))


class TestWapgSeparableApplies:
    def test_one_synthesis_per_outer_iteration(self, monkeypatch):
        import rnp.solvers as solvers
        from rnp.solvers import build_wapg_preconditioner, wapg_cost
        iterates, states = [], []

        def recording(*args, **kwargs):
            result = wpm_structured(*args, **kwargs)
            iterates.append(result[0])
            states.append(kwargs["newton"])
            return result

        monkeypatch.setattr(solvers, "wpm_structured", recording)
        prob = make_ct(32, 20, "wavelet", 0.01, Rng(40))
        L = prob.L
        counted, calls = counting(L)
        prob = dataclasses.replace(prob, L=counted)
        # make_ct checked the adjoints of the original L; replace checks none
        assert not calls
        K, lanczos_steps, outer = 8, 5, 4
        monkeypatch.setattr(solvers, "LIPSCHITZ_STEPS", lanczos_steps)
        cfg = WapgConfig(lam=0.02, sketch_size=K, outer_max=outer, prox_mode="separable")
        rng = Rng(41)
        pre, _ = build_wapg_preconditioner(prob, cfg, rng.spawn(0))
        img, trace = wapg_solve(prob, cfg, pre, rng.spawn(1))
        # each apply of the transformed forward map A L' and of its adjoint
        # L A' calls L once: the sketch applies (L A')(A L') to its K-column
        # test matrix in one block call, the Lipschitz estimate runs its
        # lanczos_steps such applies (it stops no earlier on this operator),
        # and an outer iteration takes the gradient (2 calls) and synthesises
        # L'x once for its PSNR and, after the last one, for the direct A
        # apply of the final cost and the returned image
        assert calls.total() == 2 + 2 * lanczos_steps + 3 * outer
        # the last prox output is the final transform-domain iterate
        assert trace.costs[-1] == wapg_cost(prob, cfg, iterates[-1], prob.A.apply(img))
        assert np.array_equal(img, L.adjoint(iterates[-1]))
        # one Newton state carries gamma from each soft threshold to the next
        assert states[0] is not None and all(s is states[0] for s in states)


class TestWapgSeparableStep:
    """The separable step passes u - alpha P^-1 g to the soft threshold as
    the point u - alpha g shifted by alpha (Ubar'g)/d along Ubar."""

    @staticmethod
    def _solve(monkeypatch, outer):
        import rnp.solvers as solvers
        calls = []

        def recording(prox_d, v, ubar, **kwargs):
            result = wpm_structured(prox_d, v, ubar, **kwargs)
            calls.append((v, kwargs["shift"], result[0]))
            return result

        monkeypatch.setattr(solvers, "wpm_structured", recording)
        prob = make_ct(32, 20, "wavelet", 0.01, Rng(42))
        cfg = WapgConfig(lam=0.02, sketch_size=8, outer_max=outer, prox_mode="separable",
                         alpha=2e-3)
        rng = Rng(43)
        pre, _ = build_wapg_preconditioner(prob, cfg, rng.spawn(0))
        wapg_solve(prob, cfg, pre, rng.spawn(1))
        return prob, cfg, pre, calls

    def test_step_matches_the_explicit_pinv_point(self, monkeypatch):
        prob, cfg, pre, calls = self._solve(monkeypatch, 2)
        fwd = _effective_forward(prob, cfg)
        x1 = calls[0][2]
        # u = x_0 = 0 in the first iteration; the momentum weight of the
        # second is (t_1 - 1)/t_2 = 0, so its u is x_1
        for (v, shift, _), u in zip(calls, (np.zeros(fwd.domain_dim), x1)):
            grad = fwd.adjoint(fwd.apply(u) - prob.y)
            explicit = u - cfg.alpha * pre.apply_Pinv(grad)
            folded = v + pre.Ubar @ shift
            assert np.abs(folded - explicit).max() <= 1e-12 * np.abs(explicit).max()

    def test_separable_solve_makes_no_pinv_apply(self, monkeypatch):
        applies = []
        apply_pinv = Preconditioner.apply_Pinv
        monkeypatch.setattr(Preconditioner, "apply_Pinv",
                            lambda self, v: applies.append(1) or apply_pinv(self, v))
        _, _, _, calls = self._solve(monkeypatch, 3)
        assert len(calls) == 3
        assert applies == []


class TestWapgDualStep:
    """The dual mode passes u - alpha P^-1 g to the dual ascent as the point
    (u - alpha g) + Ubar w, w = alpha (Ubar'g)/d."""

    @staticmethod
    def _solve(monkeypatch, outer):
        import rnp.solvers as solvers
        points = []

        def recording(s, *args, **kwargs):
            result = wpm_mixed_dual(s, *args, **kwargs)
            points.append((s, result[0]))
            return result

        monkeypatch.setattr(solvers, "wpm_mixed_dual", recording)
        prob = make_ct(32, 20, "tv", 0.01, Rng(44))
        cfg = WapgConfig(lam=0.02, sketch_size=8, outer_max=outer, alpha=2e-3,
                         box=BoxConstraint(0.0, 1.0))
        rng = Rng(45)
        pre, _ = build_wapg_preconditioner(prob, cfg, rng.spawn(0))
        wapg_solve(prob, cfg, pre, rng.spawn(1))
        return prob, cfg, pre, points

    def test_step_matches_the_explicit_pinv_point(self, monkeypatch):
        prob, cfg, pre, points = self._solve(monkeypatch, 2)
        x1 = points[0][1]
        # u = x_0 = 0, then u = x_1 (the second momentum weight is 0)
        for (s, _), u in zip(points, (np.zeros(prob.A.domain_dim), x1)):
            grad = prob.A.adjoint(prob.A.apply(u) - prob.y)
            explicit = u - cfg.alpha * pre.apply_Pinv(grad)
            assert np.abs(s - explicit).max() <= 1e-12 * np.abs(explicit).max()

    def test_dual_solve_applies_neither_p_nor_pinv(self, monkeypatch):
        applies = []
        for name in ("apply_P", "apply_Pinv"):
            method = getattr(Preconditioner, name)
            monkeypatch.setattr(Preconditioner, name,
                                lambda self, v, m=method: applies.append(m) or m(self, v))
        _, _, _, points = self._solve(monkeypatch, 3)
        assert len(points) == 3
        assert applies == []


class TestWapgZeroColumnMetric:
    def test_separable_solve_matches_textbook_fista_bitwise(self):
        prob = make_ct(32, 20, "wavelet", 0.01, Rng(46))
        cfg = WapgConfig(lam=0.02, sketch_size=0, outer_max=15, prox_mode="separable",
                         alpha=2e-3)
        img, _ = wapg_solve(prob, cfg, None, Rng(47))

        A, L, y = prob.A, prob.L, prob.y
        x = np.zeros(L.range_dim)
        u = x.copy()
        t_prev = 1.0
        for _ in range(cfg.outer_max):
            grad = L.apply(A.adjoint(A.apply(L.adjoint(u)) - y))
            x_next = soft_threshold(u - cfg.alpha * grad, cfg.alpha * cfg.lam)
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_prev * t_prev))
            u = x_next + ((t_prev - 1.0) / t_next) * (x_next - x)
            x, t_prev = x_next, t_next
        assert np.array_equal(img, L.adjoint(x))


class TestWapgForwardProducts:
    """The trace cost of iterate k takes A img(x_k) from iteration k+1's
    forward product; only the last iterate's is computed directly."""

    @staticmethod
    def _ct(kind):
        """The problem, its prox mode and its box: separable mode takes none."""
        prob = make_ct(32, 12, kind, 0.01, Rng(50))
        if kind == "wavelet":
            return prob, "separable", BoxConstraint()
        return prob, "dual", BoxConstraint(0.0, 1.0)

    @pytest.mark.parametrize("kind", ["tv", "wavelet"])
    def test_two_forward_products_per_iteration(self, kind):
        prob, mode, box = self._ct(kind)
        alpha = 1.0 / (1.1 * estimate_lipschitz_pnorm(prob.A, None, 20, Rng(51)))
        A, calls = counting(prob.A)
        prob = dataclasses.replace(prob, A=A)
        outer = 5
        cfg = WapgConfig(lam=0.02, sketch_size=0, alpha=alpha, outer_max=outer,
                         prox_mode=mode, box=box)
        wapg_solve(prob, cfg, None, Rng(52))
        # the gradient's A and A' per iteration, and A img of the last iterate
        assert calls["apply"] == outer + 1
        assert calls["adjoint"] == outer

    @pytest.mark.parametrize("K", [0, 6])
    @pytest.mark.parametrize("kind", ["tv", "wavelet"])
    def test_trace_costs_match_direct_costs(self, kind, K, monkeypatch):
        import rnp.solvers as solvers
        from rnp.solvers import wapg_cost
        prob, mode, box = self._ct(kind)
        prox = "wpm_structured" if mode == "separable" else "wpm_mixed_dual"
        iterates = []
        original = getattr(solvers, prox)

        def recording(*args, **kwargs):
            result = original(*args, **kwargs)
            iterates.append(result[0])
            return result

        monkeypatch.setattr(solvers, prox, recording)
        outer = 8
        cfg = WapgConfig(lam=0.02, sketch_size=K, outer_max=outer,
                         prox_mode=mode, box=box)
        rng = Rng(53)
        pre, _ = build_wapg_preconditioner(prob, cfg, rng.spawn(0))
        _, trace = wapg_solve(prob, cfg, pre, rng.spawn(1))
        assert len(iterates) == outer
        direct = [wapg_cost(prob, cfg, x,
                            prob.A.apply(prob.L.adjoint(x) if mode == "separable" else x))
                  for x in iterates]
        np.testing.assert_allclose(trace.costs[:-1], direct[:-1], rtol=1e-12, atol=0)
        assert trace.costs[-1] == direct[-1]


class TestCostClosedForms:
    def test_zero_data_leaves_only_penalty_terms(self):
        # x = 0, y = 0: residuals and group magnitudes hit the floor, so the
        # surrogate reduces to the closed-form barrier sums
        n = 10
        zero = np.zeros(n)
        gs = GroupStructure("scalar", n, 1)
        p = q = 1.0
        lam = 0.7
        eps = 1e-4
        v, z = update_weights(zero, zero, gs, p, q, eps, eps)
        f = irm_cost(zero, zero, v, z, gs, lam, p, q)
        a_p, b_p = half_quadratic_constants(p)
        floor_v = 0.5 * p * np.sqrt(eps) ** (p - 2.0)
        expected = (1.0 / p) * n / (b_p * floor_v ** a_p) * (1.0 + lam)
        assert f == pytest.approx(expected, rel=1e-12)


class TestWapgVariants:
    @pytest.mark.parametrize("reg,phi", [("tv", 2), ("hs", math.inf)])
    def test_other_group_norms_descend(self, reg, phi):
        from rnp.problems import make_ct
        prob = make_ct(32, 20, reg, 0.01, Rng(32))
        cfg = WapgConfig(lam=0.5, phi=phi, sketch_size=0, outer_max=15,
                         box=BoxConstraint(0.0, 1.0))
        _, trace = wapg_solve(prob, cfg, None, Rng(33))
        assert trace.costs[-1] < trace.costs[0]
        assert np.isfinite(trace.costs).all()
