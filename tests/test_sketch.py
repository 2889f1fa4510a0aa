import numpy as np
import pytest

from rnp.core import Rng, standard_normal_matrix
from rnp.linops import LinearOperator, matrix_operator
from rnp.sketch import (NystromFactor, build_preconditioner,
                        effective_dimension, load_factor, nystrom_approx,
                        nystrom_oracle_dense, save_factor, recommended_sketch_size)


def random_psd(n, eigs, seed):
    q, _ = np.linalg.qr(standard_normal_matrix(n, n, Rng(seed)))
    return (q * np.asarray(eigs)) @ q.T


def low_rank_reconstruction(factor):
    return (factor.U * factor.S_hat) @ factor.U.T


class TestNystromApprox:
    def test_exact_rank_recovery(self):
        eigs = np.zeros(50)
        eigs[:8] = np.linspace(2.0, 1.0, 8)
        phi = random_psd(50, eigs, seed=3)
        factor = nystrom_approx(matrix_operator(phi), 12, Rng(42))
        err = np.linalg.norm(low_rank_reconstruction(factor) - phi) / np.linalg.norm(phi)
        assert err <= 1e-6

    def test_full_sketch_reproduces_operator(self):
        phi = random_psd(30, np.linspace(1.0, 3.0, 30), seed=4)
        factor = nystrom_approx(matrix_operator(phi), 30, Rng(5))
        err = np.linalg.norm(low_rank_reconstruction(factor) - phi) / np.linalg.norm(phi)
        assert err <= 1e-6

    def test_matches_dense_pseudoinverse_formula(self):
        phi = random_psd(40, np.exp(np.linspace(0, -4, 40)), seed=6)
        rng = Rng(77)
        factor = nystrom_approx(matrix_operator(phi), 15, rng)
        omega = standard_normal_matrix(40, 15, Rng(77))  # same stream, same Omega
        oracle = nystrom_oracle_dense(phi, omega)
        err = np.linalg.norm(low_rank_reconstruction(factor) - oracle) / np.linalg.norm(oracle)
        assert err <= 1e-6

    def test_orthonormal_columns_and_ordering(self):
        phi = random_psd(25, np.linspace(0.1, 2.0, 25), seed=8)
        factor = nystrom_approx(matrix_operator(phi), 10, Rng(9))
        gram = factor.U.T @ factor.U
        assert np.abs(gram - np.eye(10)).max() <= 1e-8
        assert np.all(np.diff(factor.S_hat) <= 0)
        assert np.all(factor.S_hat >= 0)
        assert factor.s_K == factor.S_hat[-1]

    def test_result_is_psd(self):
        phi = random_psd(30, np.linspace(0.0, 1.0, 30), seed=10)
        factor = nystrom_approx(matrix_operator(phi), 12, Rng(11))
        eigs = np.linalg.eigvalsh(low_rank_reconstruction(factor))
        assert eigs.min() >= -1e-10

    def test_deterministic_for_fixed_seed(self):
        phi = random_psd(20, np.linspace(0.5, 2.0, 20), seed=12)
        f1 = nystrom_approx(matrix_operator(phi), 7, Rng(13))
        f2 = nystrom_approx(matrix_operator(phi), 7, Rng(13))
        assert np.array_equal(f1.U, f2.U)
        assert np.array_equal(f1.S_hat, f2.S_hat)

    def test_monotone_improvement_in_sketch_size(self):
        # nested Omega (same stream prefix): median error nonincreasing in K
        phi = random_psd(40, np.exp(np.linspace(0, -3, 40)), seed=14)
        gaps = []
        for seed in range(10):
            e1 = np.linalg.norm(low_rank_reconstruction(
                nystrom_approx(matrix_operator(phi), 8, Rng(seed))) - phi)
            e2 = np.linalg.norm(low_rank_reconstruction(
                nystrom_approx(matrix_operator(phi), 16, Rng(seed))) - phi)
            gaps.append(e1 - e2)
        assert np.median(gaps) >= -1e-12

    def test_steep_spectrum_factor_and_inverse_pair(self):
        # eigenvalues from 1 down to e^-30: the K=30 sketched ones fall to ~4e-7
        # of the largest, where squaring B's condition number in eigh(B'B)
        # would first cost accuracy
        for seed in range(10):
            phi = random_psd(60, np.exp(np.linspace(0.0, -30.0, 60)), seed=200 + seed)
            factor = nystrom_approx(matrix_operator(phi), 30, Rng(seed))
            oracle = nystrom_oracle_dense(phi, standard_normal_matrix(60, 30, Rng(seed)))
            err = np.linalg.norm(low_rank_reconstruction(factor) - oracle) / np.linalg.norm(oracle)
            assert err <= 1e-6
            u = factor.U[:, factor.S_hat > 0]
            assert np.abs(u.T @ u - np.eye(u.shape[1])).max() <= 1e-10
            for mu in (1e-6 * factor.S_hat[0], 1e-3):
                pre = build_preconditioner(factor, mu)
                # P^-1 (P v) loses about kappa(P) * eps relative accuracy; allow
                # 500 eps of slack per unit of kappa(P)
                kappa = (factor.S_hat[0] + mu) / (factor.s_K + mu)
                tol = 500 * np.finfo(float).eps * kappa
                for v in standard_normal_matrix(60, 5, Rng(300 + seed)).T:
                    back = pre.apply_Pinv(pre.apply_P(v))
                    assert np.linalg.norm(back - v) <= tol * np.linalg.norm(v)

    def test_non_psd_raises_after_escalation(self):
        bad = matrix_operator(np.diag([1.0, -5.0, 2.0]))
        with pytest.raises(np.linalg.LinAlgError):
            nystrom_approx(bad, 3, Rng(15))

    def test_rejects_bad_sketch_size(self):
        phi = matrix_operator(np.eye(4))
        with pytest.raises(ValueError):
            nystrom_approx(phi, 0, Rng(0))
        with pytest.raises(ValueError):
            nystrom_approx(phi, 5, Rng(0))


class TestOracleDense:
    def test_zero_matrix(self):
        omega = standard_normal_matrix(10, 4, Rng(1))
        assert np.allclose(nystrom_oracle_dense(np.zeros((10, 10)), omega), 0.0)

    def test_identity_with_orthonormal_omega(self):
        q, _ = np.linalg.qr(standard_normal_matrix(12, 12, Rng(2)))
        out = nystrom_oracle_dense(np.eye(12), q)
        assert np.abs(out - np.eye(12)).max() < 1e-10

    def test_rank_at_most_sketch_size(self):
        phi = random_psd(20, np.linspace(0.1, 1.0, 20), seed=16)
        omega = standard_normal_matrix(20, 6, Rng(17))
        s = np.linalg.svd(nystrom_oracle_dense(phi, omega), compute_uv=False)
        assert np.sum(s > 1e-10 * s[0]) <= 6


class TestPreconditioner:
    def setup_method(self):
        self.phi = random_psd(40, np.exp(np.linspace(0, -5, 40)), seed=20)
        self.factor = nystrom_approx(matrix_operator(self.phi), 15, Rng(21))
        self.pre = build_preconditioner(self.factor, mu=1e-3, sqrt_tail=False)

    def test_inverse_pair(self):
        rng = Rng(22)
        for _ in range(20):
            v = rng.normal(40)
            assert np.abs(self.pre.apply_Pinv(self.pre.apply_P(v)) - v).max() < 1e-9

    def test_identity_off_sketch_range(self):
        v = Rng(23).normal(40)
        v -= self.factor.U @ (self.factor.U.T @ v)
        assert np.abs(self.pre.apply_P(v) - v).max() < 1e-10

    def test_smallest_eigenvalue_is_one(self):
        rng = Rng(24)
        for _ in range(20):
            v = rng.normal(40)
            assert np.linalg.norm(self.pre.apply_P(v)) >= np.linalg.norm(v) - 1e-9
        assert self.pre.sigma_max_pinv == 1.0

    def test_half_power_composition(self):
        rng = Rng(25)
        for _ in range(10):
            v = rng.normal(40)
            twice = self.pre.apply_Phalf(self.pre.apply_Phalf(v))
            assert np.abs(twice - self.pre.apply_P(v)).max() < 1e-9
            assert np.abs(self.pre.apply_Pinvhalf(self.pre.apply_Phalf(v)) - v).max() < 1e-9

    def test_rank_structured_form_matches_P(self):
        # P = I + Ubar Ubar' when no columns are dropped
        v = Rng(26).normal(40)
        via_ubar = v + self.pre.Ubar @ (self.pre.Ubar.T @ v)
        assert np.abs(via_ubar - self.pre.apply_P(v)).max() < 1e-9

    def test_empty_factor_gives_identity_maps(self):
        pre = build_preconditioner(NystromFactor.empty(12), mu=1.0)
        v = Rng(27).normal(12)
        for m in (pre.apply_P, pre.apply_Pinv, pre.apply_Phalf, pre.apply_Pinvhalf):
            assert np.array_equal(m(v), v)

    def test_full_rank_limit_flattens_spectrum(self):
        phi = random_psd(30, np.linspace(0.2, 2.0, 30), seed=28)
        mu = 1e-2
        factor = nystrom_approx(matrix_operator(phi), 30, Rng(29))
        pre = build_preconditioner(factor, mu, sqrt_tail=False)
        shifted = phi + mu * np.eye(30)
        half = np.column_stack([pre.apply_Pinvhalf(col) for col in np.eye(30)])
        mat = half @ shifted @ half
        eigs = np.linalg.eigvalsh(0.5 * (mat + mat.T))
        assert eigs[-1] / eigs[0] == pytest.approx(1.0, abs=1e-6)

    def test_sqrt_tail_drops_shrunk_columns(self):
        factor = NystromFactor(np.eye(4)[:, :2], np.array([9.0, 4.0]), 4.0, 0.0, 0)
        pre = build_preconditioner(factor, mu=1.0, sqrt_tail=True)
        # tail = 2: d = (S+1)/3 = [10/3, 5/3]; both radicands positive here
        assert pre.Ubar.shape[1] == 2
        factor2 = NystromFactor(np.eye(4)[:, :2], np.array([9.0, 0.25]), 0.25, 0.0, 0)
        pre2 = build_preconditioner(factor2, mu=1.0, sqrt_tail=True)
        # tail = 0.5: d = [10/1.5, 1.25/1.5]; second radicand negative, dropped
        assert pre2.Ubar.shape[1] == 1
        assert pre2.sigma_max_pinv > 1.0

    def test_rejects_nonpositive_mu(self):
        with pytest.raises(ValueError):
            build_preconditioner(self.factor, 0.0)


class TestEffectiveDimension:
    def test_identity(self):
        assert effective_dimension(np.eye(10), 1.0) == pytest.approx(5.0)

    def test_zero(self):
        assert effective_dimension(np.zeros((6, 6)), 0.5) == 0.0

    def test_diagonal(self):
        assert effective_dimension(np.diag([4.0, 1.0]), 1.0) == pytest.approx(1.3)

    def test_recommended_sketch_size(self):
        assert recommended_sketch_size(5.0) == 2 * int(np.ceil(1.5 * 5.0 + 1))


class TestFactorSerialization:
    def test_roundtrip(self, tmp_path):
        phi = random_psd(18, np.linspace(0.3, 1.5, 18), seed=30)
        factor = nystrom_approx(matrix_operator(phi), 6, Rng(31))
        path = tmp_path / "factor.nysf"
        save_factor(factor, path)
        back = load_factor(path)
        assert np.array_equal(back.U, factor.U)
        assert np.array_equal(back.S_hat, factor.S_hat)
        assert back.s_K == factor.s_K
        assert back.shift == factor.shift
        assert back.seed == factor.seed
        assert path.read_bytes()[:4] == b"NYSF"


class TestFactorLoadErrors:
    def test_truncated_file_rejected(self, tmp_path):
        phi = random_psd(10, np.linspace(0.5, 1.0, 10), seed=40)
        factor = nystrom_approx(matrix_operator(phi), 4, Rng(41))
        path = tmp_path / "factor.nysf"
        save_factor(factor, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ValueError):
            load_factor(path)
