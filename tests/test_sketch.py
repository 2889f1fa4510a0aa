import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnp import linops
from rnp.core import Rng, rademacher_matrix, standard_normal_matrix
from rnp.linops import (DiagonalWeight, LinearOperator, columnwise, compose,
                        gram_operator, matrix_operator, radon_operator, transpose)
from rnp.problems import make_ct, make_deblur
from rnp.sketch import (NystromFactor, build_preconditioner, default_mu,
                        effective_dimension, nystrom_approx,
                        nystrom_oracle_dense, recommended_sketch_size)


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
        omega = rademacher_matrix(40, 15, Rng(77))  # same stream, same Omega
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
            oracle = nystrom_oracle_dense(phi, rademacher_matrix(60, 30, Rng(seed)))
            err = np.linalg.norm(low_rank_reconstruction(factor) - oracle) / np.linalg.norm(oracle)
            assert err <= 1e-6
            u = factor.U[:, factor.S_hat > 0]
            assert np.abs(u.T @ u - np.eye(u.shape[1])).max() <= 1e-10
            for mu in (1e-6 * factor.S_hat[0], 1e-3):
                pre = build_preconditioner(factor, mu)
                # P^-1 (P v) loses about kappa(P) * eps relative accuracy; allow
                # 500 eps of slack per unit of kappa(P)
                kappa = (factor.S_hat[0] + mu) / (factor.S_hat[-1] + mu)
                tol = 500 * np.finfo(float).eps * kappa
                for v in standard_normal_matrix(60, 5, Rng(300 + seed)).T:
                    back = pre.apply_Pinv(pre.apply_P(v))
                    assert np.linalg.norm(back - v) <= tol * np.linalg.norm(v)

    def test_block_sketch_of_ct_wavelet_normal_operator_equals_columnwise_sketch(self, monkeypatch):
        # a split radon, so the sketch runs the split multi-vector product
        monkeypatch.setattr(linops, "_MIN_BLOCK_NNZ", 100_000)
        monkeypatch.setattr(linops, "_usable_cores", lambda: 3)
        prob = make_ct(64, 60, "wavelet", 0.01, Rng(50))
        fwd = compose(prob.A, transpose(prob.L))
        n = fwd.domain_dim

        def normal(x):
            return fwd.adjoint(fwd.apply(x))

        block = nystrom_approx(compose(transpose(fwd), fwd), 20, Rng(51))
        loop = columnwise(normal, n)
        looped = nystrom_approx(LinearOperator(n, n, loop, loop), 20, Rng(51))
        assert np.array_equal(block.U, looped.U)
        assert np.array_equal(block.S_hat, looped.S_hat)

    def test_rebuilt_radon_sketches_in_one_product_per_direction(self):
        # an operator rebuilt from a radon operator's apply and adjoint, as a
        # tracing wrapper builds it, keeps the native block product
        radon = radon_operator(32, 20, 45)
        shapes = {"apply": [], "adjoint": []}

        def recorded(name, fn):
            def mapped(x):
                shapes[name].append(np.shape(x))
                return fn(x)
            return mapped

        rebuilt = LinearOperator(radon.domain_dim, radon.range_dim,
                                 recorded("apply", radon.apply),
                                 recorded("adjoint", radon.adjoint))
        factor = nystrom_approx(compose(transpose(rebuilt), rebuilt), 12, Rng(52))
        assert shapes == {"apply": [(32 * 32, 12)], "adjoint": [(20 * 45, 12)]}
        direct = nystrom_approx(compose(transpose(radon), radon), 12, Rng(52))
        assert np.array_equal(factor.U, direct.U)
        assert np.array_equal(factor.S_hat, direct.S_hat)

    def test_small_sketch_does_not_depend_on_the_block_map_layout(self):
        # 40 x 15 is small enough for BLAS kernels whose sums follow the
        # memory layout, so a C-ordered block result must not reach them
        d = np.exp(np.linspace(0.0, -6.0, 40))
        scale = columnwise(lambda x: d * x, 40)
        looped = LinearOperator(40, 40, scale, scale)

        def c_scale(x):
            # the same products, with a block's image in C order
            return np.ascontiguousarray((d * x.T).T)

        c_block = LinearOperator(40, 40, c_scale, c_scale)
        a = nystrom_approx(looped, 15, Rng(63))
        b = nystrom_approx(c_block, 15, Rng(63))
        given = nystrom_approx(looped, 15, Rng(63),
                               omega=np.ascontiguousarray(rademacher_matrix(40, 15, Rng(63))))
        for f in (b, given):
            assert np.array_equal(f.U, a.U)
            assert np.array_equal(f.S_hat, a.S_hat)

    def test_predrawn_test_matrix_gives_the_same_factor(self):
        prob = make_deblur("gauss9", 32, 0.05, Rng(60))
        r = Rng(61)
        phi = gram_operator(prob.A, DiagonalWeight(np.exp(r.normal(prob.A.range_dim))),
                            prob.L, DiagonalWeight(np.exp(r.normal(prob.L.range_dim))), 0.05)
        drawn = nystrom_approx(phi, 20, Rng(62))
        given_rng = Rng(62)
        given = nystrom_approx(phi, 20, given_rng,
                               omega=rademacher_matrix(32 * 32, 20, Rng(62)))
        assert np.array_equal(given.U, drawn.U)
        assert np.array_equal(given.S_hat, drawn.S_hat)
        assert np.array_equal(given_rng.raw(4), Rng(62).raw(4))  # not drawn from
        with pytest.raises(ValueError):
            nystrom_approx(phi, 20, Rng(62), omega=rademacher_matrix(32 * 32, 19, Rng(62)))

    def test_non_psd_raises(self):
        bad = matrix_operator(np.diag([1.0, -5.0, 2.0]))
        with pytest.raises(np.linalg.LinAlgError):
            nystrom_approx(bad, 3, Rng(15))

    @pytest.mark.parametrize("orthonormal", [False, True])
    def test_rank_deficient_large_operator_factors_once(self, monkeypatch, orthonormal):
        # a rank-5 operator at scale 1e6: the shift grows with the sketch, so
        # the one Cholesky succeeds, with the sketch's own sign test matrix or
        # with the orthonormal one a subspace-iteration step would pass in
        eigs = np.zeros(200)
        eigs[:5] = 1e6 * np.linspace(3.0, 1.0, 5)
        phi = random_psd(200, eigs, seed=30)
        omega = rademacher_matrix(200, 20, Rng(31))
        if orthonormal:
            omega = np.linalg.qr(omega)[0]
        calls = []
        cholesky = np.linalg.cholesky

        def counting(a):
            calls.append(1)
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        factor = nystrom_approx(matrix_operator(phi), 20, Rng(31), omega=omega)
        assert len(calls) == 1
        err = np.linalg.norm(low_rank_reconstruction(factor) - phi) / np.linalg.norm(phi)
        assert err <= 1e-6

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sketch_raises(self, bad):
        def apply(x):
            y = np.array(x, dtype=np.float64)
            y[3] = bad  # one row of the image, of a vector or of each column
            return y

        with pytest.raises(ValueError, match="sketch Phi Omega is not finite"):
            nystrom_approx(LinearOperator(20, 20, apply, apply), 5, Rng(35))

    def test_zero_operator_gives_the_zero_factor(self):
        factor = nystrom_approx(matrix_operator(np.zeros((20, 20))), 5, Rng(32))
        assert np.array_equal(factor.S_hat, np.zeros(5))
        assert np.array_equal(factor.U, np.zeros((20, 5)))
        assert default_mu(factor) == 1e-12

    def test_eigenvalues_scale_with_the_operator(self):
        phi = random_psd(40, np.exp(np.linspace(0.0, -3.0, 40)), seed=33)
        ref = nystrom_approx(matrix_operator(phi), 15, Rng(34)).S_hat
        for c in (1e-6, 1.0, 1e6):
            s_hat = nystrom_approx(matrix_operator(c * phi), 15, Rng(34)).S_hat
            assert np.abs(s_hat - c * ref).max() <= 1e-12 * c * ref[0]

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


@st.composite
def nystrom_factors(draw):
    """Factors shaped like ``nystrom_approx`` output: S_hat nonnegative and
    nonincreasing, with any number of exactly zero trailing entries (all K
    for a zero sketch) and zero columns of U there."""
    n = draw(st.integers(1, 30))
    k = draw(st.integers(1, n))
    zeros = draw(st.integers(0, k))
    s_hat = np.zeros(k)
    s_hat[:k - zeros] = sorted(draw(st.lists(st.floats(1e-12, 1e4), min_size=k - zeros,
                                             max_size=k - zeros)), reverse=True)
    u, _ = np.linalg.qr(standard_normal_matrix(n, k, Rng(draw(st.integers(0, 2**31)))))
    u[:, k - zeros:] = 0.0
    return NystromFactor(u, s_hat)


class TestPreconditionerInvariant:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(factor=nystrom_factors(), mu=st.one_of(st.just(None), st.floats(1e-8, 1e2)))
    def test_scaled_eigenvalues_nonincreasing_and_one_at_tail(self, factor, mu):
        pre = build_preconditioner(factor, default_mu(factor) if mu is None else mu)
        assert np.all(np.diff(pre.d) <= 0.0)
        assert pre.d[-1] == 1.0  # so every d >= 1 and P^-1 <= I
        assert pre.Ubar.shape == factor.U.shape


class TestPreconditioner:
    def setup_method(self):
        self.phi = random_psd(40, np.exp(np.linspace(0, -5, 40)), seed=20)
        self.factor = nystrom_approx(matrix_operator(self.phi), 15, Rng(21))
        self.pre = build_preconditioner(self.factor, mu=1e-3)

    def test_inverse_pair(self):
        rng = Rng(22)
        for _ in range(20):
            v = rng.normal(40)
            assert np.abs(self.pre.apply_Pinv(self.pre.apply_P(v)) - v).max() < 1e-9

    def test_identity_off_sketch_range(self):
        v = Rng(23).normal(40)
        v -= self.factor.U @ (self.factor.U.T @ v)
        assert np.abs(self.pre.apply_P(v) - v).max() < 1e-10

    def test_half_power_composition(self):
        rng = Rng(25)
        for _ in range(10):
            v = rng.normal(40)
            twice = self.pre.apply_Pinvhalf(self.pre.apply_Pinvhalf(v))
            assert np.abs(twice - self.pre.apply_Pinv(v)).max() < 1e-9

    def test_rank_structured_form_matches_P(self):
        v = Rng(26).normal(40)
        via_ubar = v + self.pre.Ubar @ (self.pre.Ubar.T @ v)
        assert np.abs(via_ubar - self.pre.apply_P(v)).max() < 1e-9

    def test_full_rank_limit_flattens_spectrum(self):
        phi = random_psd(30, np.linspace(0.2, 2.0, 30), seed=28)
        mu = 1e-2
        factor = nystrom_approx(matrix_operator(phi), 30, Rng(29))
        pre = build_preconditioner(factor, mu)
        shifted = phi + mu * np.eye(30)
        half = np.column_stack([pre.apply_Pinvhalf(col) for col in np.eye(30)])
        mat = half @ shifted @ half
        eigs = np.linalg.eigvalsh(0.5 * (mat + mat.T))
        assert eigs[-1] / eigs[0] == pytest.approx(1.0, abs=1e-6)

    def test_ubar_is_scaled_u_in_fortran_order(self):
        # Fortran order keeps seeded WAPG outputs bit-identical: on seed 180 a
        # C-ordered Ubar moved the final K=20 ct-tv and ct-wavelet images by up
        # to 6.8e-15 and 3.1e-15, a drift acceptance 8(a) cannot see (it runs K=0)
        for u in (self.factor.U, np.ascontiguousarray(self.factor.U),
                  np.asfortranarray(self.factor.U)):
            pre = build_preconditioner(NystromFactor(u, self.factor.S_hat), mu=1e-3)
            assert np.array_equal(pre.Ubar, u * np.sqrt(pre.d - 1.0))
            assert pre.Ubar.flags.f_contiguous

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

