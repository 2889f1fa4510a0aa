import numpy as np
import pytest

from rnp.core import ImageGrid, Rng, psnr, rademacher_matrix, standard_normal_matrix


class TestRng:
    def test_same_seed_same_stream(self):
        a = standard_normal_matrix(3, 2, Rng(7))
        b = standard_normal_matrix(3, 2, Rng(7))
        assert np.array_equal(a, b)

    def test_streams_are_bit_reproducible(self):
        # determinism must cover raw draws, not just whole matrices
        r1, r2 = Rng(123), Rng(123)
        assert np.array_equal(r1.normal(1000), r2.normal(1000))
        assert np.array_equal(r1.uniform(10), r2.uniform(10))

    def test_different_seeds_differ(self):
        assert not np.array_equal(Rng(1).normal(50), Rng(2).normal(50))

    def test_spawn_is_deterministic_and_independent(self):
        a = Rng(5).spawn(3).normal(20)
        b = Rng(5).spawn(3).normal(20)
        c = Rng(5).spawn(4).normal(20)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_moments_at_10k_draws(self):
        sample = standard_normal_matrix(10000, 1, Rng(1)).ravel()
        assert -0.05 <= sample.mean() <= 0.05
        assert 0.9 <= sample.var() <= 1.1

    def test_shape(self):
        assert standard_normal_matrix(2, 3, Rng(0)).shape == (2, 3)

    def test_matrix_equals_column_by_column_draws(self):
        n, k = 37, 5
        drawn, ref_rng = Rng(17), Rng(17)
        out = standard_normal_matrix(n, k, drawn)
        ref = np.empty((n, k))
        for j in range(k):
            ref[:, j] = ref_rng.normal(n)
        assert np.array_equal(out, ref)
        assert out.flags.f_contiguous
        # both streams stand at the same position
        assert np.array_equal(drawn.raw(4), ref_rng.raw(4))

    def test_permutation(self):
        p = Rng(9).permutation(100)
        assert sorted(p) == list(range(100))

    def test_uniform_open_interval(self):
        u = Rng(4).uniform(10000)
        assert u.min() > 0.0 and u.max() < 1.0

    def test_bad_seed(self):
        with pytest.raises(ValueError):
            Rng(-1)


class TestRademacher:
    def test_exact_signs_in_fortran_order(self):
        m = rademacher_matrix(37, 5, Rng(3))
        assert m.shape == (37, 5) and m.dtype == np.float64
        assert m.flags.f_contiguous
        assert np.all((m == 1.0) | (m == -1.0))

    def test_deterministic_per_seed_and_stream(self):
        a = rademacher_matrix(50, 4, Rng(8, stream=2))
        assert np.array_equal(a, rademacher_matrix(50, 4, Rng(8, stream=2)))
        assert not np.array_equal(a, rademacher_matrix(50, 4, Rng(8, stream=3)))
        assert not np.array_equal(a, rademacher_matrix(50, 4, Rng(9, stream=2)))

    @pytest.mark.parametrize("n, k", [(1, 1), (64, 1), (65, 1), (10, 13), (100, 7)])
    def test_advances_the_stream_by_whole_words(self, n, k):
        drawn, ref = Rng(21), Rng(21)
        rademacher_matrix(n, k, drawn)
        ref.raw(-(-n * k // 64))
        assert np.array_equal(drawn.raw(4), ref.raw(4))

    def test_columns_follow_the_stream_in_order(self):
        # the first j columns of a wider draw are the narrower draw
        assert np.array_equal(rademacher_matrix(30, 7, Rng(5))[:, :3],
                              rademacher_matrix(30, 3, Rng(5)))

    def test_signs_near_balanced(self):
        m = rademacher_matrix(1000, 100, Rng(1))
        # 1e5 fair signs: the sum has standard deviation ~316
        assert abs(m.sum()) <= 1500
        assert np.abs(m.sum(axis=0)).max() <= 160  # 5 sigma per column of 1000

    @pytest.mark.parametrize("n, k", [(0, 3), (3, 0), (-1, 2)])
    def test_rejects_empty_dimensions(self, n, k):
        with pytest.raises(ValueError):
            rademacher_matrix(n, k, Rng(0))


class TestPsnr:
    def test_equal_images_hit_cap(self):
        g = ImageGrid(4, 4, np.linspace(0, 1, 16))
        assert psnr(g, g, 1.0) == 300.0

    def test_twenty_db(self):
        ref = ImageGrid(1, 4, np.zeros(4))
        x = ImageGrid(1, 4, np.full(4, 0.1))  # MSE = 0.01
        assert psnr(x, ref, 1.0) == pytest.approx(20.0)

    def test_zero_db(self):
        ref = ImageGrid(1, 2, np.zeros(2))
        x = ImageGrid(1, 2, np.full(2, 255.0))  # MSE = 255^2
        assert psnr(x, ref, 255.0) == pytest.approx(0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            psnr(ImageGrid(2, 2, np.zeros(4)), ImageGrid(4, 1, np.zeros(4)), 1.0)


class TestImageGrid:
    def test_column_stacking(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        g = ImageGrid.from_matrix(m)
        # element (i, j) at index j*rows + i
        assert list(g.data) == [1.0, 3.0, 2.0, 4.0]

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            ImageGrid(2, 2, np.array([1.0, np.nan, 0.0, 0.0]))

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            ImageGrid(2, 2, np.zeros(3))


class TestSpawnChains:
    def test_nested_spawns_are_distinct(self):
        root = Rng(42)
        streams = [root.spawn(0).normal(8), root.spawn(1).normal(8),
                   root.spawn(0).spawn(0).normal(8), root.spawn(0).spawn(1).normal(8)]
        for i in range(len(streams)):
            for j in range(i + 1, len(streams)):
                assert not np.array_equal(streams[i], streams[j])
