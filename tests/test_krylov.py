import numpy as np
import pytest

from rnp.core import Rng, standard_normal_matrix
from rnp.krylov import cg, pcg
from rnp.linops import identity_operator, matrix_operator
from rnp.sketch import (build_preconditioner, effective_dimension,
                        nystrom_approx, recommended_sketch_size)


def random_spd(n, seed, shift=1.0):
    m = standard_normal_matrix(n, n, Rng(seed))
    return m @ m.T / n + shift * np.eye(n)


class TestCg:
    def test_identity_converges_in_one_iteration(self):
        b = Rng(1).normal(12)
        rep = cg(identity_operator(12), b, tol=1e-10)
        assert rep.converged and rep.iterations == 1
        assert np.allclose(rep.solution, b, atol=1e-12)

    def test_matches_dense_solve(self):
        spd = random_spd(5, seed=2, shift=2.0)
        b = Rng(3).normal(5)
        rep = cg(matrix_operator(spd), b, tol=1e-12, maxiter=50)
        assert np.abs(rep.solution - np.linalg.solve(spd, b)).max() < 1e-8

    def test_exact_start_takes_zero_iterations(self):
        spd = random_spd(6, seed=4)
        b = Rng(5).normal(6)
        exact = np.linalg.solve(spd, b)
        rep = cg(matrix_operator(spd), b, tol=1e-8, x0=exact)
        assert rep.converged and rep.iterations == 0

    def test_zero_rhs(self):
        rep = cg(identity_operator(4), np.zeros(4))
        assert rep.converged and rep.iterations == 0
        assert np.all(rep.solution == 0.0)

    def test_breakdown_on_indefinite_operator(self):
        with pytest.raises(np.linalg.LinAlgError):
            cg(matrix_operator(np.diag([1.0, -1.0])), np.array([1.0, 1.0]), tol=1e-12)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflowing_operator_raises_linalg_error(self):
        from rnp.linops import LinearOperator
        blowup = LinearOperator(4, 4, lambda x: 1e200 * (1e200 * x),
                                lambda x: 1e200 * (1e200 * x))
        with pytest.raises(np.linalg.LinAlgError):
            cg(blowup, np.ones(4), tol=1e-10)

    def test_overflowing_rhs_norm_rejected(self):
        with pytest.raises(ValueError):
            cg(identity_operator(4), np.full(4, 1e200), tol=1e-10)

    def test_report_fields(self):
        spd = random_spd(8, seed=6)
        b = Rng(7).normal(8)
        rep = cg(matrix_operator(spd), b, tol=1e-6, maxiter=100)
        assert rep.converged
        assert rep.final_relres <= 1e-6
        true_res = np.linalg.norm(b - spd @ rep.solution) / np.linalg.norm(b)
        assert true_res <= 2e-6  # recursive and true residual agree here

    def test_monotone_energy_error(self):
        # CG decreases the Phi-norm error every iteration (dense oracle)
        spd = random_spd(12, seed=8)
        b = Rng(9).normal(12)
        exact = np.linalg.solve(spd, b)
        errors = []
        for j in range(1, 13):
            x = cg(matrix_operator(spd), b, tol=1e-300, maxiter=j).solution
            d = x - exact
            errors.append(np.dot(d, spd @ d))
        assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(errors, errors[1:]))


class TestPcg:
    def test_identity_preconditioner_is_bitwise_cg(self):
        spd = random_spd(10, seed=10)
        b = Rng(11).normal(10)
        plain = cg(matrix_operator(spd), b, tol=1e-9, maxiter=60)
        pre = pcg(matrix_operator(spd), b, lambda r: r, tol=1e-9, maxiter=60)
        assert plain.iterations == pre.iterations
        assert np.array_equal(plain.solution, pre.solution)

    def test_preconditioner_built_only_when_iterating(self):
        spd = random_spd(8, seed=15)
        b = Rng(16).normal(8)
        exact = np.linalg.solve(spd, b)
        built = []

        def build():
            built.append(1)
            return lambda r: r

        rep = pcg(matrix_operator(spd), b, None, tol=1e-8, x0=exact, build_pinv=build)
        assert rep.iterations == 0 and not built
        lazy = pcg(matrix_operator(spd), b, None, tol=1e-9, maxiter=60, build_pinv=build)
        eager = pcg(matrix_operator(spd), b, lambda r: r, tol=1e-9, maxiter=60)
        assert len(built) == 1
        assert np.array_equal(lazy.solution, eager.solution)
        with pytest.raises(ValueError):
            pcg(matrix_operator(spd), b, lambda r: r, build_pinv=build)

    def test_perfect_preconditioner_converges_fast(self):
        spd = random_spd(10, seed=12, shift=0.5)
        inv = np.linalg.inv(spd)
        b = Rng(13).normal(10)
        rep = pcg(matrix_operator(spd), b, lambda r: inv @ r, tol=1e-10, maxiter=50)
        assert rep.converged and rep.iterations <= 2

    def test_matches_split_preconditioned_cg_iteration_count(self):
        # left-PCG stopped on the true residual behaves like CG on the
        # split system P^-1/2 Phi P^-1/2 with the same stopping rule
        n, k, mu, tol = 60, 20, 1e-2, 1e-8
        eigs = 0.8 ** np.arange(n)
        q, _ = np.linalg.qr(standard_normal_matrix(n, n, Rng(14)))
        phi = (q * eigs) @ q.T
        factor = nystrom_approx(matrix_operator(phi), k, Rng(15))
        pre = build_preconditioner(factor, mu, sqrt_tail=False)
        shifted = phi + mu * np.eye(n)
        b = Rng(16).normal(n)
        left = pcg(matrix_operator(shifted), b, pre.apply_Pinv, tol=tol, maxiter=500)

        half = np.column_stack([pre.apply_Pinvhalf(col) for col in np.eye(n)])
        mat = 0.5 * (half @ shifted @ half + (half @ shifted @ half).T)
        bt = half @ b
        xt = np.zeros(n)
        r = bt.copy()
        p = r.copy()
        rz = float(r @ r)
        norm_b = np.linalg.norm(b)
        split_iters = 0
        while True:
            x_orig = half @ xt
            if np.linalg.norm(b - shifted @ x_orig) / norm_b <= tol or split_iters >= 500:
                break
            w = mat @ p
            alpha = rz / float(p @ w)
            xt = xt + alpha * p
            r = r - alpha * w
            rz_next = float(r @ r)
            p = r + (rz_next / rz) * p
            rz = rz_next
            split_iters += 1
        assert abs(left.iterations - split_iters) <= 1

    def test_sketch_preconditioner_halves_iterations_on_spread_diag(self):
        n = 200
        diag = np.linspace(1.0, 1000.0, n)
        phi = matrix_operator(np.diag(diag))
        mu = 1e-3
        k = min(n, recommended_sketch_size(effective_dimension(np.diag(diag), mu)))
        counts = []
        for seed in range(10):
            b = Rng(100 + seed).normal(n)
            factor = nystrom_approx(phi, k, Rng(seed))
            pre = build_preconditioner(factor, mu, sqrt_tail=False)
            it_cg = cg(phi, b, tol=1e-6, maxiter=2000).iterations
            it_pcg = pcg(phi, b, pre.apply_Pinv, tol=1e-6, maxiter=2000).iterations
            counts.append(it_pcg / it_cg)
        assert np.median(counts) <= 0.5

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            cg(identity_operator(3), np.ones(3), tol=0.0)
