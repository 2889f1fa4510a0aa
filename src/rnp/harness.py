"""Experiment orchestration: parameter sweeps, trace CSVs, saved-time summary.

Every run owns one CSV under ``out_dir/<experiment>/<run-id>.csv`` whose
columns are the fields of ``solvers.TraceRecord``; a sweep also writes
``summary.csv``.  Re-running with the same seeds reproduces every
non-timing column exactly.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from .core import Rng
from .linops import apply_on_one_core
from .problems import ProblemInstance, make_ct, make_deblur, make_sr
from .prox import BoxConstraint
from .solvers import (IrmConfig, SolverTrace, TraceRecord, WapgConfig,
                      build_wapg_preconditioner, irm_solve, wapg_solve)

__all__ = [
    "ExperimentSpec",
    "RunResult",
    "saved_time",
    "saved_times",
    "run_experiment",
    "compare_inner_iterations",
    "write_trace_csv",
    "TRACE_HEADER",
]

TRACE_HEADER = [f.name for f in fields(TraceRecord)]


def saved_time(t_without: float, t_with: float) -> float:
    """Fraction of wall time removed by preconditioning."""
    if t_without <= 0:
        raise ValueError("baseline time must be positive")
    return (t_without - t_with) / t_without


def _lam_label(lam: float) -> str:  # lambda as its run id writes it
    return f"{lam:g}"


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    task: str  # deblur | sr | ct
    solver: str  # irm | wapg
    out_dir: str
    n: int = 64
    sketch_sizes: tuple[int, ...] = (0, 100)
    lam_grid: tuple[float, ...] = (1e-2,)
    seeds: tuple[int, ...] = (0,)
    kernel: str = "gauss9"
    factor: int = 2
    views: int = 60
    regularizer: str = "tv"
    noise_frac: float = 0.05
    noise_sigma: float = 0.01
    p: float = 1.0
    q: float = 1.0
    phi: float = 1
    outer_max: int = 20
    inner_tol: Optional[float] = None  # None: the solver config's default
    inner_max: int = 200
    box_lo: float = -math.inf
    box_hi: float = math.inf
    jobs: int = 1

    def __post_init__(self):
        if self.task not in ("deblur", "sr", "ct"):
            raise ValueError("task must be deblur, sr, or ct")
        if self.solver not in ("irm", "wapg"):
            raise ValueError("solver must be irm or wapg")
        if not self.sketch_sizes or not self.lam_grid or not self.seeds:
            raise ValueError("sketch sizes, lambda grid, and seeds must be nonempty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be distinct")
        if len(set(self.sketch_sizes)) != len(self.sketch_sizes):
            raise ValueError(f"sketch sizes must be distinct, got {list(self.sketch_sizes)}")
        labels = [_lam_label(lam) for lam in self.lam_grid]
        clashes = [lam for lam, label in zip(self.lam_grid, labels) if labels.count(label) > 1]
        if clashes:
            raise ValueError(f"lambda values {clashes} share a run id")
        if min(self.sketch_sizes) < 0:
            raise ValueError("sketch sizes must be nonnegative")
        if self.outer_max < 1:
            raise ValueError(f"outer_max must be >= 1, got {self.outer_max}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")


@dataclass(frozen=True)
class RunResult:
    run_id: str
    K: int
    lam: float
    seed: int
    status: str  # "ok" or the error message
    iterations: int
    wall_s: float
    sketch_s: float
    final_cost: float
    final_psnr: float
    best_psnr: float
    csv_path: str


def build_problem(spec: ExperimentSpec, seed: int) -> ProblemInstance:
    rng = Rng(seed)
    if spec.task == "deblur":
        return make_deblur(spec.kernel, spec.n, spec.noise_frac, rng)
    if spec.task == "sr":
        return make_sr(spec.n, spec.factor, spec.noise_frac, rng)
    return make_ct(spec.n, spec.views, spec.regularizer, spec.noise_sigma, rng)


def _run_seed(spec: ExperimentSpec, seed: int,
              pairs: list[tuple[float, int]]) -> list[RunResult]:
    """Run each (lambda, K) pair on the seed's problem, built once for all of
    them; a failed build gives every pair an error result."""
    try:
        problem = build_problem(spec, seed)
    except Exception as exc:  # reported by each pair's result
        problem = exc
    return [_run_one(spec, lam, K, seed, problem) for lam, K in pairs]


def _run_one(spec: ExperimentSpec, lam: float, K: int, seed: int,
             problem: ProblemInstance | Exception) -> RunResult:
    run_id = f"{spec.solver}_K{K}_lam{_lam_label(lam)}_seed{seed}"
    out = Path(spec.out_dir) / spec.name
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{run_id}.csv"
    try:
        if isinstance(problem, Exception):
            raise problem
        rng = Rng(seed).spawn(1)  # solver stream; problem noise used stream 0
        tol = {} if spec.inner_tol is None else {"inner_tol": spec.inner_tol}
        if spec.solver == "irm":
            cfg = IrmConfig(p=spec.p, q=spec.q, lam=lam, outer_max=spec.outer_max,
                            inner_max=spec.inner_max, sketch_size=K, **tol)
            _, trace = irm_solve(problem, cfg, rng)
        else:
            cfg = WapgConfig(lam=lam, phi=spec.phi, sketch_size=K,
                             outer_max=spec.outer_max,
                             box=BoxConstraint(spec.box_lo, spec.box_hi),
                             prox_mode="separable" if spec.regularizer == "wavelet" else "dual",
                             inner_max=spec.inner_max, **tol)
            pre, sketch_s = build_wapg_preconditioner(problem, cfg, rng.spawn(0))
            _, trace = wapg_solve(problem, cfg, pre, rng.spawn(1), sketch_seconds=sketch_s)
        # wall time is the trace's final elapsed_s (sketching included), so
        # every summary ST value can be recomputed from the CSVs alone
        wall = float(trace.records[-1].elapsed_s)
        write_trace_csv(csv_path, trace)
        return RunResult(run_id, K, lam, seed, "ok", len(trace.records), wall,
                         float(sum(r.sketch_s for r in trace.records)),
                         float(trace.costs[-1]), float(trace.psnrs[-1]),
                         float(trace.psnrs.max()), str(csv_path))
    except Exception as exc:  # record the failure, keep sweeping
        return RunResult(run_id, K, lam, seed, f"error: {exc}", 0, 0.0, 0.0,
                         math.nan, math.nan, math.nan, str(csv_path))


def run_experiment(spec: ExperimentSpec) -> list[RunResult]:
    """Run every (lambda, K, seed) combination and write per-run plus summary CSVs.

    Each seed's problem is built once and solved for all its (lambda, K)
    pairs.  With ``jobs > 1`` the seeds run in parallel, or, when there are
    fewer seeds than jobs, the single combinations, each building its own
    problem.  Results come back in (lambda, K, seed) order either way.
    """
    pairs = [(lam, K) for lam in spec.lam_grid for K in spec.sketch_sizes]
    tasks = [(seed, pairs) for seed in spec.seeds]
    if 1 < spec.jobs and len(spec.seeds) < spec.jobs:
        tasks = [(seed, [pair]) for seed in spec.seeds for pair in pairs]
    if spec.jobs > 1:
        with ProcessPoolExecutor(max_workers=spec.jobs, initializer=apply_on_one_core) as pool:
            done = list(pool.map(_run_seed, *zip(*[(spec, seed, ps) for seed, ps in tasks])))
    else:
        done = [_run_seed(spec, seed, ps) for seed, ps in tasks]
    by_combo = {(r.lam, r.K, r.seed): r for results in done for r in results}
    results = [by_combo[lam, K, seed] for lam, K in pairs for seed in spec.seeds]
    _write_summary(spec, results)
    return results


def saved_times(results: list[RunResult]) -> list[Optional[float]]:
    """ST of each successful K > 0 run against the successful K = 0 run of
    its (lambda, seed); None where there is no such pair."""
    baseline = {(r.lam, r.seed): r.wall_s for r in results
                if r.K == 0 and r.status == "ok"}
    return [saved_time(baseline[r.lam, r.seed], r.wall_s)
            if r.K > 0 and r.status == "ok" and (r.lam, r.seed) in baseline else None
            for r in results]


def _write_summary(spec: ExperimentSpec, results: list[RunResult]) -> None:
    best_lam: dict[int, float] = {}
    for K in spec.sketch_sizes:
        scores = {}
        for lam in spec.lam_grid:
            vals = [r.best_psnr for r in results
                    if r.K == K and r.lam == lam and r.status == "ok"]
            if vals:
                scores[lam] = float(np.mean(vals))
        if scores:
            best_lam[K] = max(scores, key=scores.get)
    path = Path(spec.out_dir) / spec.name / "summary.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["run_id", "solver", "task", "K", "lambda", "seed", "status",
                         "iters", "wall_s", "sketch_s", "final_cost", "final_psnr",
                         "best_psnr", "st", "best_lambda"])
        for r, st in zip(results, saved_times(results)):
            writer.writerow([r.run_id, spec.solver, spec.task, r.K, _fmt(r.lam),
                             r.seed, r.status, r.iterations, _fmt(r.wall_s),
                             _fmt(r.sketch_s), _fmt(r.final_cost), _fmt(r.final_psnr),
                             _fmt(r.best_psnr), "" if st is None else _fmt(st),
                             int(best_lam.get(r.K) == r.lam)])


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def write_trace_csv(path, trace: SolverTrace) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(TRACE_HEADER)
        for r in trace.records:
            values = (getattr(r, name) for name in TRACE_HEADER)
            writer.writerow([_fmt(v) if isinstance(v, float) else v for v in values])


@dataclass(frozen=True)
class InnerIterationComparison:
    median_reduction: float


def compare_inner_iterations(problem: ProblemInstance, p: float, q: float,
                             lam: float, K: int, seeds: list[int],
                             inner_tol: float = 1e-4, outer_max: int = 8,
                             inner_max: int = 20000) -> InnerIterationComparison:
    """Run the reweighted solver twice per seed (without and with the
    preconditioner, identical streams) and report the median over seeds of
    the inner-iteration reduction 1 - sum(with)/sum(without).

    Both runs start from zero with an uncapped inner budget so counts
    reflect solves to the same accuracy, never the iteration ceiling.
    """
    x0 = np.zeros(problem.A.domain_dim)
    reductions = []
    for seed in seeds:
        base_cfg = IrmConfig(p=p, q=q, lam=lam, inner_tol=inner_tol,
                             outer_max=outer_max, inner_max=inner_max,
                             sketch_size=0)
        pre_cfg = IrmConfig(p=p, q=q, lam=lam, inner_tol=inner_tol,
                            outer_max=outer_max, inner_max=inner_max,
                            sketch_size=K)
        _, trace0 = irm_solve(problem, base_cfg, Rng(seed), x0=x0)
        _, trace1 = irm_solve(problem, pre_cfg, Rng(seed), x0=x0)
        total0 = int(trace0.inner_iters.sum())
        total1 = int(trace1.inner_iters.sum())
        reductions.append(0.0 if total0 == 0 else 1.0 - total1 / total0)
    return InnerIterationComparison(float(np.median(reductions)))
