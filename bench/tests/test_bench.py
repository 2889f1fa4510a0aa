"""Tests of the benchmark's own code.  Run with ``python -m pytest bench/tests``."""

import json
import math
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run as bench  # noqa: E402
from checks import check_solve, read_trace, seeded_outputs, solve_failed  # noqa: E402
from rnp.harness import RunResult  # noqa: E402
from spans import (BEFORE_CLOCK, SOLVER_ROOTS, Patches, Span, Tracer, instrumented,  # noqa: E402
                   layer_metrics, layer_self_times, self_times, targets)
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def config():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke_results(tmp_path_factory):
    """Untraced and traced smoke runs of every workload, with their wall time."""
    out = {}
    for name, workload in WORKLOADS.items():
        for trace in (False, True):
            t0 = time.perf_counter()
            out_dir = tmp_path_factory.mktemp(f"{name}-{int(trace)}")
            result = bench.run(workload.smoke(), 0, 0, trace, out_dir, 0.0, setup_samples=1)
            out[name, trace] = result, time.perf_counter() - t0
    return out


def test_benchmark_json_is_well_formed(config):
    assert set(config) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                           "per_layer"}
    assert config["command"] == ["python3", "bench/run.py"]
    assert config["paths"] == ["bench"]
    assert 1 <= config["run_seconds"] <= 60
    names = [w["name"] for w in config["workloads"]]
    names += [m["name"] for m in config["end_to_end"] + config["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    for w in config["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in config["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in config["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in config["end_to_end"] + config["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    setup = next(m for m in config["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in config["end_to_end"])


def test_benchmark_json_matches_the_code(config):
    assert {w["name"]: w["why"] for w in config["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert {m["name"]: (m["unit"], m["better"]) for m in config["end_to_end"]} == bench.END_TO_END


def test_every_metric_is_printed(config, smoke_results):
    end_to_end = {m["name"]: m["unit"] for m in config["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in config["per_layer"]}
    for (name, trace), (result, _) in smoke_results.items():
        expected = per_layer if trace else end_to_end
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected, (name, trace)
        assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_smoke_runs_pass_their_checks_in_seconds(smoke_results):
    for (name, trace), (result, seconds) in smoke_results.items():
        assert result["correct"], (name, trace)
        assert result["failed"] == 0 and result["attempted"] >= 4
        assert seconds < 30, (name, trace, seconds)
        json.dumps(result, allow_nan=False)


def test_traced_smoke_run_splits_work_by_layer(smoke_results):
    deblur = smoke_results["deblur-irm", True][0]["metrics"]
    ct_tv = smoke_results["ct-tv-wapg", True][0]["metrics"]
    assert deblur["sketch.calls"]["value"] > 0 and deblur["krylov.iters"]["value"] > 0
    assert deblur["prox.wpm_calls"]["value"] == 0
    assert ct_tv["prox.dual_calls"]["value"] > 0 and ct_tv["krylov.calls"]["value"] == 0


def test_wrappers_are_restored_even_after_an_error():
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in targets()]
    with pytest.raises(ZeroDivisionError):
        with instrumented(Tracer()):
            assert all(owner.__dict__[attr] is not fn for owner, attr, fn in originals)
            1 / 0
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)


def test_patches_report_a_wrapper_left_in_place():
    class Owner:
        value = 1

    patches = Patches()
    patches.set(Owner, "value", 2)
    patches._saved.append((Owner, "value", 3))  # an original that cannot come back
    with pytest.raises(RuntimeError, match="not restored"):
        patches.restore()


def _result(**kw):
    base = dict(run_id="irm_K0", K=0, lam=0.05, seed=0, status="ok", iterations=2, wall_s=0.5,
                sketch_s=0.0, final_cost=3.0, final_psnr=20.0, best_psnr=21.0, csv_path="")
    base.update(kw)
    return RunResult(**base)


ROWS = [(1, 0.2, 4.0, 21.0, 5), (2, 0.5, 3.0, 20.0, 4)]


def test_checks_pass_a_consistent_solve():
    assert check_solve(_result(), ROWS, psnr_floor=10.0, cost_ceiling=5.0) == []


@pytest.mark.parametrize("change", [
    dict(status="error: weighted prox did not converge"),
    dict(final_cost=math.nan),
    dict(final_psnr=math.inf),
    dict(wall_s=math.nan),
])
def test_checks_reject_a_failed_or_nonfinite_solve(change):
    result = _result(**change)
    assert solve_failed(result)
    assert check_solve(result, ROWS, psnr_floor=10.0)


@pytest.mark.parametrize("change, floor, ceiling", [
    (dict(final_cost=2.5), 10.0, 5.0),  # CSV disagrees with the result
    (dict(iterations=3), 10.0, 5.0),  # missing trace rows
    ({}, 25.0, 5.0),  # does not beat the trivial estimate
    ({}, 10.0, 2.0),  # ends above the starting cost
])
def test_checks_reject_inconsistent_or_useless_output(change, floor, ceiling):
    assert check_solve(_result(**change), ROWS, floor, ceiling)


def test_seeded_outputs_ignore_timing_only():
    moved = [(i, t + 1.0, c, p, k) for i, t, c, p, k in ROWS]
    assert seeded_outputs(_result(), ROWS) == seeded_outputs(_result(wall_s=9.0), moved)
    assert seeded_outputs(_result(), ROWS) != seeded_outputs(_result(), ROWS[:1] + [
        (2, 0.5, 3.0, 20.0, 5)])


def test_read_trace_round_trips_the_harness_csv(tmp_path):
    from rnp.harness import write_trace_csv
    from rnp.solvers import SolverTrace
    trace = SolverTrace()
    trace.append(iter=1, elapsed_s=0.1, cost=1 / 3, psnr=20.5, inner_iters=7, sketch_s=0.0)
    write_trace_csv(tmp_path / "t.csv", trace)
    assert read_trace(tmp_path / "t.csv") == [(1, 0.1, 1 / 3, 20.5, 7)]


def test_self_times_and_coverage_from_spans():
    spans = [
        Span(SOLVER_ROOTS[2], 0.0, 10.0, -1),
        Span(BEFORE_CLOCK[0], 0.0, 1.0, 0),
        Span("linops.A.apply", 0.25, 0.75, 1),
        Span("krylov.pcg", 2.0, 6.0, 0, {"iters": 9, "converged": False}),
        Span("linops.A.apply", 3.0, 4.0, 3),
        Span("harness.write_trace_csv", 10.0, 10.5, -1),
        Span("linops.A.apply", 11.0, 12.0, -1),  # outside any solver: not counted
    ]
    assert self_times(spans) == [5.0, 0.5, 0.5, 3.0, 1.0, 0.5, 1.0]
    assert layer_self_times(spans) == {"solvers": 5.5, "linops": 1.5, "krylov": 3.0}
    m = layer_metrics(spans, wall_s=9.25)
    assert (m["linops.A_applies"], m["linops.A_s"]) == (2, 1.5)
    assert (m["krylov.iters"], m["krylov.unconverged"], m["krylov.self_s"]) == (9, 1, 3.0)
    assert m["solvers.lipschitz_s"] == 1.0 and m["harness.csv_s"] == 0.5
    assert m["trace.unattributed_s"] == pytest.approx(0.25)


def test_tracer_records_nesting_and_errors():
    tracer = Tracer()
    inner = tracer.wrap("prox.wpm_structured", lambda: (_ for _ in ()).throw(RuntimeError("x")))
    outer = tracer.wrap("prox.wpm_mixed_dual", lambda: inner())
    with pytest.raises(RuntimeError):
        outer()
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("prox.wpm_mixed_dual", -1), ("prox.wpm_structured", 0)]
    assert tracer.spans[1].info == {"error": "RuntimeError"}
    assert tracer._open == []


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "ct-tv-wapg", "--seed",
                           "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
