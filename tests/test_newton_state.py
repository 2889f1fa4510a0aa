"""The Newton state of the P-metric proxes: Jacobian memo, Woodbury move,
per-solve state in WAPG, and the Cholesky step."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnp import prox
from rnp.core import Rng, standard_normal_matrix
from rnp.problems import make_ct
from rnp.prox import (BoxConstraint, BoxProx, NewtonState, SoftThresholdProx,
                      _newton_jacobian, _newton_step, wpm_structured)
from rnp.solvers import WapgConfig, build_wapg_preconditioner, wapg_solve


class TestJacobianMemo:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**31),
           flips=st.lists(st.integers(0, 24), min_size=2, max_size=12))
    def test_memo_matches_rebuild(self, seed, flips):
        # n = 64 puts the 1/8 cut at 8 changed rows, so flip counts up to 24
        # take both the rank update and the rebuild
        rng = Rng(seed)
        n, r = 64, 5
        ubar = standard_normal_matrix(n, r, rng)
        gram = ubar.T @ ubar
        state = NewtonState(ubar)
        slope = rng.uniform(n) < 0.5
        for count in flips:
            slope = slope.copy()
            slope[rng.permutation(n)[:count]] ^= True
            jac = state.jacobian(slope)
            ref = _newton_jacobian(ubar, gram, slope)
            assert np.abs(jac - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_few_flips_update_many_flips_rebuild(self, monkeypatch):
        rng = Rng(50)
        n, r = 64, 4
        ubar = standard_normal_matrix(n, r, rng)
        builds = []
        monkeypatch.setattr(prox, "_newton_jacobian",
                            lambda *a: builds.append(1) or _newton_jacobian(*a))
        state = NewtonState(ubar)
        slope = rng.uniform(n) < 0.5
        state.jacobian(slope)
        assert len(builds) == 1
        few = slope.copy()
        few[:8] ^= True  # exactly 1/8 of the rows: rank update
        state.jacobian(few)
        assert len(builds) == 1
        many = few.copy()
        many[:9] ^= True  # 9 > n/8 rows changed: rebuild
        state.jacobian(many)
        assert len(builds) == 2


class TestNewtonStateUbar:
    def test_along_is_the_woodbury_move_for_any_ubar(self):
        # columns that are neither orthogonal nor of equal norm
        rng = Rng(73)
        n, r = 30, 4
        ubar = standard_normal_matrix(n, r, rng)
        ubar[:, 1] += 2.0 * ubar[:, 0]
        state = NewtonState(ubar)
        dense_pinv = np.linalg.inv(np.eye(n) + ubar @ ubar.T)
        for _ in range(5):
            x = rng.normal(n)
            ref = dense_pinv @ x
            assert np.abs(x - ubar @ state.along(x) - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("prox_d", [BoxProx(BoxConstraint(0.0, 1.0)),
                                        SoftThresholdProx(0.3)])
    def test_zero_column_state_gives_the_plain_prox(self, prox_d):
        state = NewtonState(np.zeros((20, 0)))
        x = 2.0 * Rng(74).normal(20)
        shift = state.along(x)
        assert shift.shape == (0,)
        u, gamma = wpm_structured(prox_d, x, state, shift=shift)
        assert np.array_equal(u, prox_d(x)) and gamma.size == 0

    def test_converts_other_dtypes(self):
        ubar = standard_normal_matrix(20, 2, Rng(72)).astype(np.float32)
        state = NewtonState(ubar)
        assert state.ubar.dtype == np.float64
        assert np.array_equal(state.gram, state.ubar.T @ state.ubar)


def _tv_solve():
    problem = make_ct(32, 20, "tv", 0.01, Rng(60))
    cfg = WapgConfig(lam=0.05, sketch_size=8, outer_max=15, box=BoxConstraint(0.0, 1.0))
    rng = Rng(61)
    pre, _ = build_wapg_preconditioner(problem, cfg, rng.spawn(0))
    return wapg_solve(problem, cfg, pre, rng.spawn(1))


class TestNewtonStatePerSolve:
    def test_repeats_and_concurrent_solves_are_bit_identical(self):
        img, trace = _tv_solve()
        img2, trace2 = _tv_solve()
        assert np.array_equal(img, img2)
        assert np.array_equal(trace.costs, trace2.costs)
        assert np.array_equal(trace.inner_iters, trace2.inner_iters)
        results = [None] * 4

        def run(i):
            results[i] = _tv_solve()

        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the solves finely
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for got_img, got_trace in results:
            assert np.array_equal(got_img, img)
            assert np.array_equal(got_trace.costs, trace.costs)
            assert np.array_equal(got_trace.inner_iters, trace.inner_iters)

    def test_memo_matches_rebuilding_every_jacobian(self, monkeypatch):
        builds = []
        monkeypatch.setattr(prox, "_newton_jacobian",
                            lambda *a: builds.append(1) or _newton_jacobian(*a))
        steps = []
        memo_jacobian = NewtonState.jacobian

        def counting(self, *a):
            steps.append(1)
            return memo_jacobian(self, *a)

        monkeypatch.setattr(NewtonState, "jacobian", counting)
        _, trace = _tv_solve()
        assert 0 < len(builds) < len(steps)  # the memo served some steps
        monkeypatch.setattr(NewtonState, "jacobian",
                            lambda self, slope: _newton_jacobian(self.ubar, self.gram, slope))
        _, rebuilt = _tv_solve()
        assert np.array_equal(trace.inner_iters, rebuilt.inner_iters)
        assert np.allclose(trace.costs, rebuilt.costs, rtol=1e-9, atol=0)


class TestNewtonStep:
    def test_cholesky_matches_lu(self):
        rng = Rng(70)
        ubar = standard_normal_matrix(40, 6, rng)
        jac = _newton_jacobian(ubar, ubar.T @ ubar, rng.uniform(40) < 0.5)
        resid = rng.normal(6)
        chol = _newton_step(jac, resid)
        lu = np.linalg.solve(jac, resid)
        assert np.abs(chol - lu).max() <= 1e-12 * np.abs(lu).max()

    def test_failed_cholesky_takes_lu(self, monkeypatch):
        calls = []
        posv = prox.dposv
        monkeypatch.setattr(prox, "dposv", lambda *a: calls.append(1) or posv(*a))
        indefinite = np.diag([1.0, -1.0])
        step = _newton_step(indefinite, np.ones(2))
        assert calls and np.array_equal(step, np.linalg.solve(indefinite, np.ones(2)))

