import csv
import dataclasses
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from rnp import harness
from rnp.core import Rng
from rnp.harness import (ExperimentSpec, TRACE_HEADER, build_problem,
                         compare_inner_iterations, run_experiment, saved_time,
                         write_trace_csv)
from rnp.linops import GroupStructure, wavelet_operator
from rnp.problems import make_deblur
from rnp.solvers import SolverTrace


class TestSavedTime:
    def test_examples(self):
        assert saved_time(100.0, 5.0) == pytest.approx(0.95)
        assert saved_time(3.0, 3.0) == 0.0

    def test_rejects_nonpositive_baseline(self):
        with pytest.raises(ValueError):
            saved_time(0.0, 1.0)


def tiny_spec(tmp_path, **kw):
    defaults = dict(
        name="tiny", task="deblur", solver="irm", out_dir=str(tmp_path),
        n=32, sketch_sizes=(0, 16), lam_grid=(0.05,), seeds=(1,),
        kernel="gauss9", outer_max=3, inner_max=300,
    )
    defaults.update(kw)
    return ExperimentSpec(**defaults)


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


class TestRunExperiment:
    def test_writes_run_and_summary_csvs(self, tmp_path):
        spec = tiny_spec(tmp_path)
        results = run_experiment(spec)
        assert len(results) == 2
        for r in results:
            assert r.status == "ok"
            rows = read_rows(r.csv_path)
            assert rows[0] == TRACE_HEADER
            iters = [int(row[0]) for row in rows[1:]]
            assert iters == sorted(iters)
        summary = read_rows(Path(tmp_path) / "tiny" / "summary.csv")
        assert summary[0][0] == "run_id"
        st_col = summary[0].index("st")
        by_k = {int(row[3]): row for row in summary[1:]}
        assert by_k[0][st_col] == ""  # baseline has no ST
        assert by_k[16][st_col] != ""  # preconditioned run pairs with baseline

    def test_k_zero_only_has_no_st_values(self, tmp_path):
        spec = tiny_spec(tmp_path, name="base_only", sketch_sizes=(0,))
        run_experiment(spec)
        summary = read_rows(Path(tmp_path) / "base_only" / "summary.csv")
        st_col = summary[0].index("st")
        assert all(row[st_col] == "" for row in summary[1:])

    def test_rerun_reproduces_non_timing_columns(self, tmp_path):
        spec_a = tiny_spec(tmp_path, name="runA")
        spec_b = tiny_spec(tmp_path, name="runB")
        ra = run_experiment(spec_a)
        rb = run_experiment(spec_b)
        timing = {TRACE_HEADER.index("elapsed_s"), TRACE_HEADER.index("sketch_s")}
        for a, b in zip(ra, rb):
            rows_a, rows_b = read_rows(a.csv_path), read_rows(b.csv_path)
            assert len(rows_a) == len(rows_b)
            for row_a, row_b in zip(rows_a, rows_b):
                for idx, (va, vb) in enumerate(zip(row_a, row_b)):
                    if idx not in timing:
                        assert va == vb

    def test_builds_each_problem_once_per_seed(self, tmp_path, monkeypatch):
        built = []

        def counting(spec, seed):
            built.append(seed)
            return build_problem(spec, seed)

        monkeypatch.setattr(harness, "build_problem", counting)
        spec = tiny_spec(tmp_path, name="shared", lam_grid=(0.05, 0.2),
                         sketch_sizes=(0, 8), seeds=(1, 2), outer_max=2)
        shared = run_experiment(spec)
        assert sorted(built) == [1, 2]
        assert [(r.lam, r.K, r.seed) for r in shared] == [
            (lam, K, seed) for lam in spec.lam_grid for K in spec.sketch_sizes
            for seed in spec.seeds]
        built.clear()
        timing = {TRACE_HEADER.index("elapsed_s"), TRACE_HEADER.index("sketch_s")}
        for r in shared:
            alone = run_experiment(dataclasses.replace(
                spec, name=f"alone_{r.run_id}", lam_grid=(r.lam,), sketch_sizes=(r.K,),
                seeds=(r.seed,)))[0]
            assert r.status == alone.status == "ok"
            rows_shared, rows_alone = read_rows(r.csv_path), read_rows(alone.csv_path)
            assert [[v for i, v in enumerate(row) if i not in timing] for row in rows_shared] \
                == [[v for i, v in enumerate(row) if i not in timing] for row in rows_alone]
        assert len(built) == len(shared)

    def test_failed_build_reports_every_combination_of_its_seed(self, tmp_path, monkeypatch):
        def failing_for_seed_2(spec, seed):
            if seed == 2:
                raise ValueError("no problem for seed 2")
            return build_problem(spec, seed)

        monkeypatch.setattr(harness, "build_problem", failing_for_seed_2)
        spec = tiny_spec(tmp_path, name="half", lam_grid=(0.05, 0.2),
                         sketch_sizes=(0, 8), seeds=(1, 2), outer_max=2)
        results = run_experiment(spec)
        assert len(results) == 8
        for r in results:
            if r.seed == 2:
                assert r.status == "error: no problem for seed 2"
            else:
                assert r.status == "ok"
        assert len(read_rows(Path(tmp_path) / "half" / "summary.csv")) == 9

    def test_dual_wapg_whose_l_is_no_periodic_stencil_is_recorded_as_an_error(
            self, tmp_path, monkeypatch):
        def wavelet_regularized(spec, seed):
            problem = build_problem(spec, seed)
            return dataclasses.replace(problem, L=wavelet_operator(spec.n, spec.n, 2),
                                       structure=GroupStructure("scalar", spec.n ** 2, 1))

        monkeypatch.setattr(harness, "build_problem", wavelet_regularized)
        spec = tiny_spec(tmp_path, name="no_stencil", task="ct", solver="wapg",
                         regularizer="tv", views=12, sketch_sizes=(0, 8), outer_max=2)
        results = run_experiment(spec)
        assert [r.status for r in results] == [
            "error: L is not a periodic stencil, so its norm has no Fourier symbol"] * 2

    def test_lambda_grid_marks_best_psnr(self, tmp_path):
        spec = tiny_spec(tmp_path, name="grid", sketch_sizes=(16,),
                         lam_grid=(1e-6, 0.05))
        results = run_experiment(spec)
        summary = read_rows(Path(tmp_path) / "grid" / "summary.csv")
        head = summary[0]
        lam_col, best_col = head.index("lambda"), head.index("best_lambda")
        psnr_col = head.index("best_psnr")
        marked = [row for row in summary[1:] if row[best_col] == "1"]
        assert len(marked) == 1
        best_by_hand = max(summary[1:], key=lambda row: float(row[psnr_col]))
        assert marked[0][lam_col] == best_by_hand[lam_col]

    def test_failed_run_recorded_without_aborting(self, tmp_path):
        spec = tiny_spec(tmp_path, name="mixed", n=33, sketch_sizes=(0,))
        results = run_experiment(spec)  # 33 not divisible for SR; deblur ok...
        assert len(results) == 1  # deblur at n=33 still works
        spec_bad = tiny_spec(tmp_path, name="bad", task="sr", n=33,
                             sketch_sizes=(0, 16))
        results = run_experiment(spec_bad)
        assert all(r.status.startswith("error") for r in results)
        summary = read_rows(Path(tmp_path) / "bad" / "summary.csv")
        assert len(summary) == 3

    def test_parallel_jobs_match_serial(self, tmp_path):
        serial = run_experiment(tiny_spec(tmp_path, name="serial"))
        parallel = run_experiment(tiny_spec(tmp_path, name="parallel", jobs=2))
        for a, b in zip(serial, parallel):
            assert a.final_cost == b.final_cost
            assert a.best_psnr == b.best_psnr

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                        reason="radon splits need 2 usable cores")
    def test_forked_workers_after_a_split_apply_finish_and_match(self, tmp_path):
        # A split apply starts the shared pool's threads; forked children get
        # the pool object without its threads.  Run in a subprocess so that a
        # hang fails the test instead of stalling the suite.
        script = textwrap.dedent(f"""
            import multiprocessing
            import numpy as np
            from rnp import linops
            from rnp.core import Rng
            from rnp.harness import ExperimentSpec, run_experiment
            from rnp.problems import make_ct

            def child_apply(op, x, conn):
                conn.send(op.apply(x))
                conn.close()

            if __name__ == "__main__":
                prob = make_ct(128, 60, "wavelet", 0.01, Rng(0))
                x = Rng(1).normal(128 * 128)
                parent = prob.A.apply(x)
                assert linops._pool is not None
                ctx = multiprocessing.get_context("fork")
                recv, send = ctx.Pipe(duplex=False)
                proc = ctx.Process(target=child_apply, args=(prob.A, x, send))
                proc.start()
                child = recv.recv()
                proc.join()
                assert np.array_equal(child, parent)
                spec = dict(task="ct", solver="wapg", out_dir={str(tmp_path)!r}, n=128,
                            views=60, regularizer="wavelet", sketch_sizes=(0, 8),
                            lam_grid=(0.02,), seeds=(1,), outer_max=3)
                serial = run_experiment(ExperimentSpec(name="serial", **spec))
                parallel = run_experiment(ExperimentSpec(name="parallel", jobs=2, **spec))
                for a, b in zip(serial, parallel):
                    assert a.status == b.status == "ok", (a.status, b.status)
                    assert a.final_cost == b.final_cost and a.best_psnr == b.best_psnr
                print("done")
            """)
        path = tmp_path / "fork_after_split.py"
        path.write_text(script)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        # its own session, so a timeout kills the forked children as well
        proc = subprocess.Popen([sys.executable, str(path)], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, env=env,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=90)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("forked workers hung after a split radon apply")
        assert proc.returncode == 0, err
        assert out.strip() == "done"

    def test_spec_validation(self, tmp_path):
        with pytest.raises(ValueError):
            tiny_spec(tmp_path, seeds=(1, 1))
        with pytest.raises(ValueError):
            tiny_spec(tmp_path, task="mri")
        with pytest.raises(ValueError):
            tiny_spec(tmp_path, lam_grid=())
        with pytest.raises(ValueError):
            tiny_spec(tmp_path, sketch_sizes=(0, -5))
        with pytest.raises(ValueError):
            tiny_spec(tmp_path, outer_max=0)


class TestCompareInnerIterations:
    def test_k_zero_vs_k_zero_gives_zero_ratio(self):
        prob = make_deblur("gauss9", 32, 0.05, Rng(0))
        cmp = compare_inner_iterations(prob, 1.0, 1.0, 0.05, 0, [1],
                                       outer_max=2, inner_max=300)
        assert cmp.median_reduction == 0.0


class TestTraceCsv:
    def test_header_and_precision(self, tmp_path):
        trace = SolverTrace()
        trace.append(iter=1, elapsed_s=0.5, cost=1.0 / 3.0, psnr=20.0,
                     inner_iters=7, sketch_s=0.1)
        path = tmp_path / "t.csv"
        write_trace_csv(path, trace)
        rows = read_rows(path)
        assert rows[0] == TRACE_HEADER
        assert float(rows[1][2]) == 1.0 / 3.0  # full precision round-trip

    def test_trace_rejects_regressions(self):
        trace = SolverTrace()
        trace.append(iter=1, elapsed_s=1.0, cost=1.0, psnr=0.0, inner_iters=1,
                     sketch_s=0.0)
        with pytest.raises(ValueError):
            trace.append(iter=1, elapsed_s=2.0, cost=1.0, psnr=0.0,
                         inner_iters=1, sketch_s=0.0)
        with pytest.raises(ValueError):
            trace.append(iter=2, elapsed_s=0.5, cost=1.0, psnr=0.0,
                         inner_iters=1, sketch_s=0.0)


class TestPerfectPreconditionerLimit:
    def test_full_sketch_reduces_inner_iterations_by_ninety_percent(self):
        # dense desk problem small enough for a full-rank sketch
        rng = Rng(31)
        n = 48
        mat = np.asarray([rng.normal(n) for _ in range(n)]) / np.sqrt(n)
        from rnp.linops import identity_operator, matrix_operator, GroupStructure
        from rnp.core import ImageGrid
        from rnp.problems import ProblemInstance
        truth = ImageGrid(n, 1, np.clip(rng.uniform(n), 0, 1))
        y = matrix_operator(mat).apply(truth.data)
        prob = ProblemInstance(matrix_operator(mat), identity_operator(n),
                               GroupStructure("scalar", n, 1), y, truth)
        cmp = compare_inner_iterations(prob, 1.0, 1.0, 1e-3, n, [1, 2],
                                       inner_tol=1e-8, outer_max=4)
        assert cmp.median_reduction >= 0.9


class TestSavedTimeRecomputable:
    def test_summary_st_matches_csv_walls(self, tmp_path):
        spec = tiny_spec(tmp_path, name="st_check", sketch_sizes=(0, 16),
                         seeds=(1, 2))
        results = run_experiment(spec)
        walls = {}
        for r in results:
            rows = read_rows(r.csv_path)
            walls[r.run_id] = float(rows[-1][TRACE_HEADER.index("elapsed_s")])
            assert r.wall_s == walls[r.run_id]
        summary = read_rows(Path(tmp_path) / "st_check" / "summary.csv")
        head = summary[0]
        for row in summary[1:]:
            if row[head.index("st")]:
                base_id = row[head.index("run_id")].replace("K16", "K0")
                expected = saved_time(walls[base_id], walls[row[head.index("run_id")]])
                assert float(row[head.index("st")]) == pytest.approx(expected, abs=1e-15)
