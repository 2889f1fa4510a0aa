import numpy as np
import pytest

from rnp.core import ImageGrid, Rng
from rnp.linops import adjoint_defect, grad_operator
from rnp.problems import (ProblemInstance, add_salt_pepper, gaussian_kernel,
                          make_ct, make_deblur, make_sr, phantom,
                          uniform_kernel)


class TestPhantoms:
    @pytest.mark.parametrize("kind", ["shepp_logan", "blocks"])
    def test_range_and_determinism(self, kind):
        a = phantom(kind, 32)
        b = phantom(kind, 32)
        assert a.data.min() >= 0.0 and a.data.max() <= 1.0
        assert np.array_equal(a.data, b.data)

    def test_blocks_is_piecewise_constant(self):
        n = 32
        img = phantom("blocks", n)
        op, structure = grad_operator(n, n)
        g = structure.as_groups(op.apply(img.data))
        nonzero_groups = int(np.sum(np.abs(g).max(axis=1) > 0))
        # only region boundaries produce gradients; boundaries are O(n)
        assert 0 < nonzero_groups < 0.35 * n * n

    def test_rejects_small_or_unknown(self):
        with pytest.raises(ValueError):
            phantom("blocks", 8)
        with pytest.raises(ValueError):
            phantom("nope", 32)


class TestKernels:
    def test_uniform9_entries(self):
        k = uniform_kernel(9)
        assert k.shape == (9, 9)
        assert np.all(k == 1.0 / 81.0)

    def test_gaussian_symmetric_and_normalized(self):
        k = gaussian_kernel(9, 1.6)
        assert abs(k.sum() - 1.0) <= 1e-12
        assert np.array_equal(k, k.T)
        assert np.array_equal(k, k[::-1, ::-1])

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            gaussian_kernel(8, 1.6)


class TestSaltPepper:
    def test_zero_fraction_is_identity(self):
        g = phantom("blocks", 32)
        out = add_salt_pepper(g, 0.0, Rng(1))
        assert np.array_equal(out.data, g.data)

    def test_exact_counts(self):
        g = ImageGrid(20, 20, np.full(400, 0.5))
        out = add_salt_pepper(g, 0.05, Rng(2))
        assert int(np.sum(out.data == 1.0)) == 20
        assert int(np.sum(out.data == 0.0)) == 20
        assert int(np.sum(out.data == 0.5)) == 360

    def test_corruptions_take_exact_binary_values(self):
        g = ImageGrid(16, 16, Rng(3).uniform(256) * 0.5 + 0.25)
        out = add_salt_pepper(g, 0.1, Rng(4))
        changed = out.data != g.data
        assert np.all(np.isin(out.data[changed], (0.0, 1.0)))

    def test_deterministic(self):
        g = ImageGrid(16, 16, np.full(256, 0.5))
        a = add_salt_pepper(g, 0.05, Rng(5))
        b = add_salt_pepper(g, 0.05, Rng(5))
        assert np.array_equal(a.data, b.data)

    def test_rejects_bad_fraction(self):
        g = ImageGrid(4, 4, np.zeros(16))
        with pytest.raises(ValueError):
            add_salt_pepper(g, 0.6, Rng(0))


class TestDeblur:
    def test_noiseless_measurement_is_exact_blur(self):
        prob = make_deblur("gauss9", 32, 0.0, Rng(0))
        assert np.array_equal(prob.y, prob.A.apply(prob.ground_truth.data))

    def test_deterministic_given_seed(self):
        a = make_deblur("uniform9", 32, 0.05, Rng(9))
        b = make_deblur("uniform9", 32, 0.05, Rng(9))
        assert np.array_equal(a.y, b.y)

    def test_rejects_unknown_kernel(self):
        with pytest.raises(ValueError):
            make_deblur("box5", 32, 0.0, Rng(0))


class TestSuperResolution:
    def test_dimensions(self):
        prob = make_sr(32, 2, 0.0, Rng(0))
        assert prob.A.range_dim == 32 * 32 // 4
        assert prob.A.domain_dim == 32 * 32

    def test_constant_truth_noiseless_gives_constant_measurement(self):
        prob = make_sr(32, 2, 0.0, Rng(0))
        const = np.full(32 * 32, 0.4)
        out = prob.A.apply(const)
        assert np.allclose(out, 0.4, atol=1e-12)

    def test_forward_adjoint(self):
        prob = make_sr(32, 2, 0.05, Rng(1))
        assert adjoint_defect(prob.A, Rng(2)) < 1e-10

    def test_rejects_indivisible(self):
        with pytest.raises(ValueError):
            make_sr(33, 2, 0.0, Rng(0))


class TestCt:
    def test_noiseless_measurement_is_exact(self):
        prob = make_ct(32, 12, "tv", 0.0, Rng(0))
        assert np.array_equal(prob.y, prob.A.apply(prob.ground_truth.data))

    def test_wavelet_regularizer_is_orthogonal(self):
        prob = make_ct(64, 10, "wavelet", 0.0, Rng(0))
        x = Rng(1).normal(prob.L.domain_dim)
        assert np.abs(prob.L.adjoint(prob.L.apply(x)) - x).max() < 1e-10

    def test_group_structures(self):
        assert make_ct(32, 8, "tv", 0.0, Rng(0)).structure.kind == "vector"
        assert make_ct(32, 8, "hs", 0.0, Rng(0)).structure.kind == "sym2x2"

    def test_noise_scales_with_sinogram_peak(self):
        clean = make_ct(32, 12, "tv", 0.0, Rng(3))
        noisy = make_ct(32, 12, "tv", 0.01, Rng(3))
        peak = np.abs(clean.y).max()
        resid = noisy.y - clean.y
        assert 0.5 * 0.01 * peak < resid.std() < 2.0 * 0.01 * peak

    def test_wavelet_requires_divisible_side(self):
        with pytest.raises(ValueError):
            make_ct(40, 10, "wavelet", 0.0, Rng(0))


class TestProblemInstanceValidation:
    def test_all_instances_pass_adjoint_checks_at_construction(self):
        # constructors already run the checks; just make sure they build
        make_deblur("gauss9", 32, 0.05, Rng(0))
        make_sr(32, 2, 0.05, Rng(0))
        make_ct(32, 10, "hs", 0.01, Rng(0))

    def test_mismatched_measurement_rejected(self):
        prob = make_deblur("gauss9", 32, 0.0, Rng(0))
        with pytest.raises(ValueError):
            ProblemInstance(prob.A, prob.L, prob.structure, prob.y[:-1], prob.ground_truth)
