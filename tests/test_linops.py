import sys
import threading
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnp import linops
from rnp.core import ImageGrid, Rng
from rnp.linops import (DiagonalWeight, LinearOperator, adjoint_defect, blur_operator,
                        columnwise, compose, downsample_operator, grad_operator, gram_operator,
                        hessian_operator, identity_operator, matrix_operator,
                        operator_norm_sq, radon_operator, to_dense, transpose,
                        wavelet_operator)
from rnp.problems import gaussian_kernel, uniform_kernel

from counting import counting


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


    @pytest.mark.parametrize("rows,cols", [(2, 3), (7, 5), (9, 13), (33, 17)])
    def test_equals_roll_formulas_bitwise_on_odd_nonsquare_images(self, rows, cols):
        op, _ = grad_operator(rows, cols)
        rng = Rng(rows * cols)
        x, g = rng.normal(rows * cols), rng.normal(2 * rows * cols)
        im = x.reshape(rows, cols, order="F")
        ref = np.stack([(im - np.roll(im, 1, axis=0)).ravel(order="F"),
                        (im - np.roll(im, 1, axis=1)).ravel(order="F")], axis=1).ravel()
        assert np.array_equal(op.apply(x), ref)
        v = g.reshape(-1, 2)[:, 0].reshape(rows, cols, order="F")
        h = g.reshape(-1, 2)[:, 1].reshape(rows, cols, order="F")
        ref = (v - np.roll(v, -1, axis=0) + h - np.roll(h, -1, axis=1)).ravel(order="F")
        assert np.array_equal(op.adjoint(g), ref)


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

    @pytest.mark.parametrize("rows,cols", [(3, 5), (7, 5), (9, 13), (33, 17)])
    def test_equals_roll_formulas_bitwise_on_odd_nonsquare_images(self, rows, cols):
        op, _ = hessian_operator(rows, cols)
        rng = Rng(rows + cols)
        x, g = rng.normal(rows * cols), rng.normal(3 * rows * cols)
        im = x.reshape(rows, cols, order="F")
        v11 = np.roll(im, 1, axis=0) - 2.0 * im + np.roll(im, -1, axis=0)
        v22 = np.roll(im, 1, axis=1) - 2.0 * im + np.roll(im, -1, axis=1)
        v12 = 0.25 * (
            np.roll(im, (-1, -1), axis=(0, 1))
            - np.roll(im, (-1, 1), axis=(0, 1))
            - np.roll(im, (1, -1), axis=(0, 1))
            + np.roll(im, (1, 1), axis=(0, 1))
        )
        ref = np.stack([m.ravel(order="F") for m in (v11, v22, v12)], axis=1).ravel()
        assert np.array_equal(op.apply(x), ref)
        a, b, c = (g.reshape(-1, 3)[:, m].reshape(rows, cols, order="F") for m in range(3))
        ref = np.roll(a, -1, axis=0) - 2.0 * a + np.roll(a, 1, axis=0)
        ref += np.roll(b, -1, axis=1) - 2.0 * b + np.roll(b, 1, axis=1)
        ref += 0.25 * (
            np.roll(c, (1, 1), axis=(0, 1))
            - np.roll(c, (1, -1), axis=(0, 1))
            - np.roll(c, (-1, 1), axis=(0, 1))
            + np.roll(c, (-1, -1), axis=(0, 1))
        )
        assert np.array_equal(op.adjoint(g), ref.ravel(order="F"))

    def test_group_structure(self):
        _, structure = hessian_operator(5, 5)
        assert structure.kind == "sym2x2"
        assert structure.group_size == 3
        assert np.array_equal(structure.component_weights, [1.0, 1.0, 2.0])


def _db4_axis_reference(block, axis, adjoint):
    """Tap-by-tap periodic DB4 level along one axis (fancy-indexed gathers
    for the analysis, scatter-adds for the synthesis)."""
    s3 = np.sqrt(3.0)
    lo = np.array([1.0 + s3, 3.0 + s3, 3.0 - s3, 1.0 - s3]) / (4.0 * np.sqrt(2.0))
    hi = np.array([lo[3], -lo[2], lo[1], -lo[0]])
    n = block.shape[axis]
    half = n // 2
    x = np.moveaxis(block, axis, 0)
    out = np.zeros_like(x)
    base = 2 * np.arange(half)
    for m in range(4):
        idx = (base + m) % n
        if adjoint:
            np.add.at(out, idx, lo[m] * x[:half] + hi[m] * x[half:])
        else:
            out[:half] += lo[m] * x[idx]
            out[half:] += hi[m] * x[idx]
    return np.moveaxis(out, 0, axis)


def _wavelet_reference(v, rows, cols, levels, adjoint=False):
    im = v.reshape(rows, cols, order="F").copy()
    sizes = [(rows >> k, cols >> k) for k in range(levels)]
    axes = (1, 0) if adjoint else (0, 1)
    for r, c in (reversed(sizes) if adjoint else sizes):
        for axis in axes:
            im[:r, :c] = _db4_axis_reference(im[:r, :c], axis, adjoint)
    return im.ravel(order="F")


class TestWavelet:
    @pytest.mark.parametrize("rows,cols,levels", [(32, 64, 3), (48, 16, 2)])
    def test_matches_tap_loop_reference_on_nonsquare_images(self, rows, cols, levels):
        op = wavelet_operator(rows, cols, levels)
        rng = Rng(21)
        for _ in range(3):
            x = rng.normal(rows * cols)
            assert np.array_equal(op.apply(x), _wavelet_reference(x, rows, cols, levels))
            ref = _wavelet_reference(x, rows, cols, levels, adjoint=True)
            assert np.abs(op.adjoint(x) - ref).max() <= 1e-14

    def test_dense_matrix_is_orthogonal_on_nonsquare_image(self):
        dense = to_dense(wavelet_operator(16, 32, 2))
        assert np.abs(dense.T @ dense - np.eye(16 * 32)).max() <= 1e-13
        assert np.abs(dense @ dense.T - np.eye(16 * 32)).max() <= 1e-13

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(levels=st.integers(1, 3), row_blocks=st.integers(2, 6),
           col_blocks=st.integers(2, 6), seed=st.integers(0, 2**31))
    def test_orthogonality_properties_on_random_shapes(self, levels, row_blocks,
                                                       col_blocks, seed):
        # side = blocks * 2**levels, so the deepest level sees >= 4 samples
        rows, cols = row_blocks << levels, col_blocks << levels
        op = wavelet_operator(rows, cols, levels)
        rng = Rng(seed)
        assert adjoint_defect(op, rng, trials=3) <= 1e-12
        x = rng.normal(rows * cols)
        w = op.apply(x)
        assert np.abs(op.adjoint(w) - x).max() <= 1e-12
        assert np.abs(op.apply(op.adjoint(x)) - x).max() <= 1e-12
        assert abs(np.linalg.norm(w) - np.linalg.norm(x)) <= 1e-12 * np.linalg.norm(x)

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

    @pytest.mark.parametrize("n", [96, 128])
    def test_split_products_equal_one_csr_product_bitwise(self, n, monkeypatch):
        bins = 2 * n - 1
        monkeypatch.setattr(linops, "_usable_cores", lambda: 1)
        whole = radon_operator(n, 60, bins)
        monkeypatch.setattr(linops, "_usable_cores", lambda: 4)
        pool = CountingPool()
        monkeypatch.setattr(linops, "_shared_pool", lambda: pool)
        split = radon_operator(n, 60, bins)
        rng = Rng(n)
        xs = rng.normal(n * n * 20).reshape(n * n, 20)
        ys = rng.normal(60 * bins * 20).reshape(60 * bins, 20)
        for j in (0, 7, 19):
            assert np.array_equal(split.apply(xs[:, j]), whole.apply(xs[:, j]))
            assert np.array_equal(split.adjoint(ys[:, j]), whole.adjoint(ys[:, j]))
        assert pool.submits > 0
        block, block_t = split.apply(xs), split.adjoint(ys)
        for j in range(20):
            assert np.array_equal(block[:, j], whole.apply(xs[:, j]))
            assert np.array_equal(block_t[:, j], whole.adjoint(ys[:, j]))
        assert np.array_equal(block, whole.apply(xs))
        assert np.array_equal(block_t, whole.adjoint(ys))

    def test_block_count_follows_nonzeros_and_cores(self, monkeypatch):
        monkeypatch.setattr(linops, "_usable_cores", lambda: 4)
        pool = CountingPool()
        monkeypatch.setattr(linops, "_shared_pool", lambda: pool)
        small = radon_operator(64, 60, 91)  # 0.44 M nonzeros: one block
        small.apply(np.ones(64 * 64))
        small.adjoint(np.ones((60 * 91, 3)))
        assert pool.submits == 0
        large = radon_operator(128, 60, 181)  # 1.77 M nonzeros: one block per core
        large.apply(np.ones(128 * 128))
        assert pool.submits == 3
        monkeypatch.setattr(linops, "_usable_cores", lambda: 1)
        radon_operator(128, 60, 181).apply(np.ones(128 * 128))
        assert pool.submits == 3

    def test_apply_on_one_core_builds_later_operators_unsplit(self, monkeypatch):
        monkeypatch.setattr(linops, "_one_core", False)
        pool = CountingPool()
        monkeypatch.setattr(linops, "_shared_pool", lambda: pool)
        linops.apply_on_one_core()
        assert linops._usable_cores() == 1
        radon_operator(128, 60, 181).apply(np.ones(128 * 128))
        assert pool.submits == 0

    def test_concurrent_applies_create_one_pool_and_agree(self, monkeypatch):
        created = []

        class CountingExecutor(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                created.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(linops, "ThreadPoolExecutor", CountingExecutor)
        monkeypatch.setattr(linops, "_pool", None)
        monkeypatch.setattr(linops, "_usable_cores", lambda: 1)
        whole = radon_operator(96, 60, 137)
        monkeypatch.setattr(linops, "_usable_cores", lambda: 3)
        split = radon_operator(96, 60, 137)
        xs = Rng(16).normal(96 * 96 * 16).reshape(16, 96 * 96)
        results = [[] for _ in xs]

        def worker(i):
            for _ in range(5):
                results[i].append(split.apply(xs[i]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(xs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            for pool in created:
                pool.shutdown()
        assert not any(t.is_alive() for t in threads)
        assert len(created) == 1
        for x, outs in zip(xs, results):
            expected = whole.apply(x)
            assert len(outs) == 5 and all(np.array_equal(out, expected) for out in outs)

    def test_rejects_wrong_length_when_split(self, monkeypatch):
        monkeypatch.setattr(linops, "_usable_cores", lambda: 2)
        op = radon_operator(128, 60, 181)
        with pytest.raises(ValueError):
            op.apply(np.ones(100))


    def test_builds_of_one_geometry_share_the_matrices(self):
        linops._radon_matrices.cache_clear()
        first = radon_operator(32, 20, 45)
        second = radon_operator(32, 20, 45)
        info = linops._radon_matrices.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        mat, mat_t = linops._radon_matrices.__wrapped__(32, 20, 45)  # uncached assembly
        rng = Rng(17)
        xs, ys = rng.normal(32 * 32 * 3).reshape(-1, 3), rng.normal(20 * 45 * 3).reshape(-1, 3)
        for op in (first, second):
            assert np.array_equal(op.apply(xs), mat @ xs)
            assert np.array_equal(op.adjoint(ys), mat_t @ ys)
            assert np.array_equal(op.apply(xs[:, 1]), mat @ xs[:, 1])
            assert np.array_equal(op.adjoint(ys[:, 2]), mat_t @ ys[:, 2])

    def test_cached_geometry_still_splits_by_the_cores_at_build(self, monkeypatch):
        pool = CountingPool()
        monkeypatch.setattr(linops, "_shared_pool", lambda: pool)
        monkeypatch.setattr(linops, "_usable_cores", lambda: 1)
        whole = radon_operator(128, 60, 181)
        monkeypatch.setattr(linops, "_usable_cores", lambda: 2)
        split = radon_operator(128, 60, 181)
        assert linops._radon_matrices.cache_info().currsize == 1
        x = np.ones(128 * 128)
        expected = whole.apply(x)
        assert pool.submits == 0
        assert np.array_equal(split.apply(x), expected)
        assert pool.submits == 1

    def test_cached_arrays_are_read_only(self):
        radon_operator(16, 8, 23)
        for mat in linops._radon_matrices(16, 8, 23):
            for arr in (mat.data, mat.indices, mat.indptr):
                with pytest.raises(ValueError):
                    arr[0] = arr[0]


class CountingPool:
    """Stands in for the shared pool: runs each task at once and counts it."""

    def __init__(self):
        self.submits = 0

    def submit(self, fn, *args):
        self.submits += 1
        future = Future()
        future.set_result(fn(*args))
        return future


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


    @pytest.mark.parametrize("kind", ["psd", "rectangular", "low_rank"])
    def test_never_exceeds_the_dense_top_eigenvalue(self, kind):
        rng = Rng(6)
        g = np.asarray([rng.normal(20) for _ in range(30)])
        mat = {"psd": g.T @ g, "rectangular": g,
               "low_rank": g[:, :3] @ np.asarray([rng.normal(20) for _ in range(3)])}[kind]
        top = np.linalg.eigvalsh(mat.T @ mat)[-1]
        for seed in range(5):
            for iters in (1, 2, 5, 50):
                est = operator_norm_sq(matrix_operator(mat), iters, Rng(7 + seed))
                assert 0.0 < est <= top * (1.0 + 1e-12)

    def test_zero_operator_gives_exactly_zero(self):
        zero = matrix_operator(np.zeros((5, 7)))
        for iters in (1, 10):
            assert operator_norm_sq(zero, iters, Rng(8)) == 0.0

    @pytest.mark.parametrize("stencil", [grad_operator, hessian_operator])
    def test_stencils_within_1e3_of_the_dense_top_eigenvalue(self, stencil):
        op, _ = stencil(32, 32)
        dense = to_dense(op)
        top = np.linalg.eigvalsh(dense.T @ dense)[-1]
        for seed in range(5):
            est = operator_norm_sq(op, 100, Rng(9 + seed))
            assert top * (1.0 - 1e-3) <= est <= top * (1.0 + 1e-12)

    def test_iters_caps_the_steps(self):
        # each Lanczos step applies the operator and its adjoint once
        op, _ = grad_operator(16, 16)
        for iters in (1, 3, 7):
            counted, calls = counting(op)
            operator_norm_sq(counted, iters, Rng(10))
            assert calls["apply"] == calls["adjoint"] == iters

    def test_stops_at_breakdown(self):
        # a Krylov space of the diagonal map spans its 3 eigenvectors
        counted, calls = counting(matrix_operator(np.diag([1.0, 2.0, 3.0] * 2)))
        assert operator_norm_sq(counted, 50, Rng(11)) == pytest.approx(9.0, rel=1e-14)
        assert calls["apply"] == 3


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

    def test_columnwise_block_maps_equal_the_vector_maps(self):
        rng = Rng(14)
        blur = blur_operator(gaussian_kernel(5, 1.2), 12, 10)
        xs = rng.normal(120 * 6).reshape(120, 6)
        expected = np.column_stack([blur.apply(x) for x in xs.T])
        block = blur.apply(xs)
        assert np.array_equal(block, expected) and block.flags.f_contiguous
        expected_t = np.column_stack([blur.adjoint(x) for x in xs.T])
        assert np.array_equal(blur.adjoint(xs), expected_t)
        # a vector reaches the vector map unchanged, and its image is returned as is
        image = np.zeros(5)
        seen = []
        mapped = columnwise(lambda x: seen.append(x) or image, 5)
        x = rng.normal(7)
        assert mapped(x) is image and seen[0] is x

    def test_compose_and_transpose_use_native_block_maps(self):
        calls = []

        def native(name, fn):
            def mapped(x):
                calls.append((name, np.ndim(x)))
                return fn(x)
            return mapped

        mat = Rng(15).normal(12).reshape(3, 4)
        op = LinearOperator(4, 3, native("apply", lambda x: mat @ x),
                            native("adjoint", lambda y: mat.T @ y))
        xs, ys = np.eye(4)[:, :2], np.eye(3)[:, :2]
        outer = compose(op, identity_operator(4))
        assert np.array_equal(outer.apply(xs), mat[:, :2])
        assert np.array_equal(outer.adjoint(ys), mat.T[:, :2])
        t = transpose(op)
        assert np.array_equal(t.apply(ys), mat.T[:, :2])
        assert np.array_equal(t.adjoint(xs), mat[:, :2])
        # each block reaches the native map whole, in one call
        assert calls == [("apply", 2), ("adjoint", 2), ("adjoint", 2), ("apply", 2)]

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
