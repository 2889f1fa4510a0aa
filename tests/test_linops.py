import numpy as np
import pytest

from rnp.core import ImageGrid, Rng
from rnp.linops import (DiagonalWeight, adjoint_defect, blur_operator, compose,
                        downsample_operator, grad_operator, gram_operator,
                        hessian_operator, identity_operator, matrix_operator,
                        operator_norm_sq, radon_operator, to_dense, transpose,
                        wavelet_operator)
from rnp.problems import gaussian_kernel, uniform_kernel


def vec(m):
    return ImageGrid.from_matrix(np.asarray(m, dtype=float)).data


class TestBlur:
    def test_delta_kernel_is_identity(self):
        op = blur_operator(np.array([[1.0]]), 8, 8)
        x = Rng(1).normal(64)
        assert np.allclose(op.apply(x), x, atol=1e-12)

    def test_uniform_kernel_preserves_constants(self):
        op = blur_operator(uniform_kernel(3), 8, 8)
        x = np.full(64, 0.7)
        assert np.allclose(op.apply(x), x, atol=1e-12)

    def test_adjoint(self):
        op = blur_operator(gaussian_kernel(9, 1.6), 16, 16)
        assert adjoint_defect(op, Rng(5)) < 1e-10

    def test_rejects_even_kernel(self):
        with pytest.raises(ValueError):
            blur_operator(np.ones((2, 2)) / 4, 8, 8)

    def test_matches_dense_circular_convolution_on_odd_nonsquare_image(self):
        rows, cols = 15, 17
        kernel = Rng(6).uniform(15).reshape(5, 3)  # asymmetric, so orientation shows
        kr, kc = kernel.shape
        eye = np.eye(rows * cols)
        dense = np.zeros((rows * cols, rows * cols))
        for p in range(rows * cols):
            im = eye[p].reshape(rows, cols, order="F")
            out = sum(kernel[a, b] * np.roll(im, (a - kr // 2, b - kc // 2), axis=(0, 1))
                      for a in range(kr) for b in range(kc))
            dense[:, p] = out.ravel(order="F")
        op = blur_operator(kernel, rows, cols)
        applied = np.column_stack([op.apply(e) for e in eye])
        adjoint = np.column_stack([op.adjoint(e) for e in eye])
        assert np.abs(applied - dense).max() <= 1e-12
        assert np.abs(adjoint - dense.T).max() <= 1e-12


class TestDownsample:
    def test_identity_blur_factor_one(self):
        op = downsample_operator(identity_operator(16), 4, 4, 1)
        x = Rng(2).normal(16)
        assert np.allclose(op.apply(x), x)

    def test_constant_image_with_delta_blur(self):
        blur = blur_operator(np.array([[1.0]]), 4, 4)
        op = downsample_operator(blur, 4, 4, 2)
        out = op.apply(np.full(16, 0.3))
        assert out.shape == (4,)
        assert np.allclose(out, 0.3)

    def test_adjoint(self):
        blur = blur_operator(gaussian_kernel(7, 1.6), 16, 16)
        op = downsample_operator(blur, 16, 16, 2)
        assert adjoint_defect(op, Rng(3)) < 1e-10

    def test_rejects_indivisible(self):
        with pytest.raises(ValueError):
            downsample_operator(identity_operator(25), 5, 5, 2)


class TestGrad:
    def test_constant_image_maps_to_zero(self):
        op, _ = grad_operator(6, 6)
        assert np.all(op.apply(np.full(36, 2.5)) == 0.0)

    def test_hand_evaluated_2x2_stencil(self):
        # X = [[0, 1], [0, 1]]: horizontal differences +-1, vertical 0,
        # groups interleaved (vertical, horizontal) in column-stacked order.
        op, structure = grad_operator(2, 2)
        out = op.apply(vec([[0.0, 1.0], [0.0, 1.0]]))
        assert np.array_equal(out, [0.0, -1.0, 0.0, -1.0, 0.0, 1.0, 0.0, 1.0])
        assert structure.kind == "vector"
        assert (structure.group_count, structure.group_size) == (4, 2)

    def test_adjoint(self):
        op, _ = grad_operator(8, 8)
        assert adjoint_defect(op, Rng(4)) < 1e-10


class TestHessian:
    def test_constant_image_maps_to_zero(self):
        op, _ = hessian_operator(6, 6)
        assert np.all(op.apply(np.full(36, 1.2)) == 0.0)

    def test_linear_ramp_interior_second_difference_zero(self):
        n = 8
        ramp = np.tile(np.arange(n, dtype=float)[:, None], (1, n))
        op, structure = hessian_operator(n, n)
        v11 = structure.as_groups(op.apply(vec(ramp)))[:, 0].reshape(n, n, order="F")
        assert np.allclose(v11[1:-1, :], 0.0, atol=1e-14)

    def test_adjoint(self):
        op, _ = hessian_operator(8, 8)
        assert adjoint_defect(op, Rng(6)) < 1e-10

    def test_group_structure(self):
        _, structure = hessian_operator(5, 5)
        assert structure.kind == "sym2x2"
        assert structure.group_size == 3
        assert np.array_equal(structure.component_weights, [1.0, 1.0, 2.0])


class TestWavelet:
    def test_perfect_reconstruction(self):
        op = wavelet_operator(16, 16, 2)
        x = Rng(7).normal(256)
        assert np.abs(op.adjoint(op.apply(x)) - x).max() < 1e-10
        assert np.abs(op.apply(op.adjoint(x)) - x).max() < 1e-10

    def test_parseval(self):
        op = wavelet_operator(32, 32, 3)
        for trial in range(5):
            x = Rng(trial).normal(1024)
            assert np.linalg.norm(op.apply(x)) == pytest.approx(
                np.linalg.norm(x), abs=1e-10)

    def test_constant_energy_in_approximation_band(self):
        rows = cols = 16
        op = wavelet_operator(rows, cols, 2)
        w = op.apply(np.full(rows * cols, 1.0)).reshape(rows, cols, order="F")
        approx = w[:4, :4].copy()
        w[:4, :4] = 0.0
        assert np.abs(w).max() < 1e-12
        assert np.linalg.norm(approx) == pytest.approx(16.0)  # sqrt(N)*mean

    def test_rejects_indivisible_dims(self):
        with pytest.raises(ValueError):
            wavelet_operator(24, 24, 4)

    def test_rejects_too_deep(self):
        # deepest level would transform a length-2 signal
        with pytest.raises(ValueError):
            wavelet_operator(16, 16, 4)


class TestRadon:
    def test_zero_image(self):
        op = radon_operator(16, 10, 23)
        assert np.all(op.apply(np.zeros(256)) == 0.0)

    def test_center_chord_of_disk(self):
        n, radius, bins = 33, 10.3, 47
        c = (n - 1) / 2
        jj, ii = np.meshgrid(np.arange(n), np.arange(n))
        disk = (((ii - c) ** 2 + (jj - c) ** 2) <= radius ** 2).astype(float)
        op = radon_operator(n, 8, bins)
        sino = op.apply(vec(disk)).reshape(8, bins)
        center = sino[:, (bins - 1) // 2]
        assert np.all(np.abs(center - 2 * radius) <= 2.0)

    def test_adjoint(self):
        op = radon_operator(32, 20, 45)
        assert adjoint_defect(op, Rng(8)) < 1e-8


class TestGram:
    def test_double_identity(self):
        op = gram_operator(identity_operator(10), DiagonalWeight(np.ones(10)),
                           identity_operator(10), DiagonalWeight(np.ones(10)), 1.0)
        x = Rng(1).normal(10)
        assert np.allclose(op.apply(x), 2 * x, atol=1e-14)

    def test_symmetry_and_psd(self):
        rng = Rng(9)
        a = matrix_operator(np.asarray([rng.normal(12) for _ in range(8)]))
        l, _ = grad_operator(3, 4)
        wf = DiagonalWeight(rng.uniform(8) + 0.5)
        wg = DiagonalWeight(rng.uniform(24) + 0.5)
        phi = gram_operator(a, wf, l, wg, 0.7)
        for _ in range(10):
            x, y = rng.normal(12), rng.normal(12)
            assert np.dot(phi.apply(x), y) == pytest.approx(
                np.dot(x, phi.apply(y)), abs=1e-10 * (1 + abs(np.dot(x, y))))
            assert np.dot(phi.apply(x), x) >= -1e-12

    def test_identity_weights_small_lam_is_normal_operator(self):
        rng = Rng(10)
        mat = np.asarray([rng.normal(9) for _ in range(6)])
        a = matrix_operator(mat)
        phi = gram_operator(a, DiagonalWeight(np.ones(6)), identity_operator(9),
                            DiagonalWeight(np.ones(9)), 1e-300)
        for _ in range(5):
            x = rng.normal(9)
            assert np.allclose(phi.apply(x), mat.T @ (mat @ x), atol=1e-12)

    def test_rejects_nonpositive_lam(self):
        with pytest.raises(ValueError):
            gram_operator(identity_operator(4), DiagonalWeight(np.ones(4)),
                          identity_operator(4), DiagonalWeight(np.ones(4)), 0.0)


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm_sq(identity_operator(20), 5, Rng(1)) == pytest.approx(1.0, abs=1e-10)

    def test_diagonal(self):
        op = matrix_operator(np.diag([1.0, 2.0, 3.0]))
        assert operator_norm_sq(op, 50, Rng(2)) == pytest.approx(9.0, abs=1e-6)

    def test_grad_spectral_bound(self):
        op, _ = grad_operator(16, 16)
        est = operator_norm_sq(op, 100, Rng(3))
        assert 7.5 <= est <= 8.0 + 1e-9

    def test_grad_matches_dense_eig_at_8x8(self):
        op, _ = grad_operator(8, 8)
        dense = to_dense(op)
        top = np.linalg.eigvalsh(dense.T @ dense)[-1]
        est = operator_norm_sq(op, 200, Rng(4))
        assert est <= top + 1e-9
        assert est == pytest.approx(top, rel=1e-3)

    def test_underestimates(self):
        op = matrix_operator(np.diag([1.0, 5.0]))
        for iters in (1, 2, 5, 20):
            assert operator_norm_sq(op, iters, Rng(5)) <= 25.0 + 1e-12


class TestCombinators:
    def test_compose_and_transpose(self):
        rng = Rng(12)
        a = np.asarray([rng.normal(4) for _ in range(3)])
        b = np.asarray([rng.normal(5) for _ in range(4)])
        ab = compose(matrix_operator(a), matrix_operator(b))
        x = rng.normal(5)
        assert np.allclose(ab.apply(x), a @ (b @ x))
        t = transpose(ab)
        y = rng.normal(3)
        assert np.allclose(t.apply(y), b.T @ (a.T @ y))

    def test_every_operator_passes_randomized_adjoint_suite(self):
        blur = blur_operator(gaussian_kernel(9, 1.6), 16, 16)
        ops = [
            blur,
            downsample_operator(blur_operator(gaussian_kernel(7, 1.6), 16, 16), 16, 16, 2),
            grad_operator(8, 8)[0],
            hessian_operator(8, 8)[0],
            wavelet_operator(16, 16, 2),
        ]
        for op in ops:
            assert adjoint_defect(op, Rng(13), trials=20) < 1e-10
        assert adjoint_defect(radon_operator(24, 12, 35), Rng(13), trials=20) < 1e-8
