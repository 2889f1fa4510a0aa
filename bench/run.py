"""rnp benchmark: paired K=0 / K>0 reconstructions, as the CLI runs them.

    python3 bench/run.py --workload deblur-irm --seed 1 --seconds 30 --trace 0

Run from anywhere; the library is imported from ``src/`` beside this
directory.  Each run sets up (imports, builds the seeded problem, runs a
short warm-up solve) three times, twice in fresh child processes, then
solves K=0/K>0 pairs through ``rnp.harness.run_experiment`` for about
``--seconds`` seconds, checks every output, and prints the metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md.
"""

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from checks import check_solve, read_trace, seeded_outputs, solve_failed  # noqa: E402
from spans import Tracer, instrumented, layer_metrics, layer_self_times  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SETUP_SAMPLES = 3  # set-ups per run: this process plus two fresh children
CHILD_TIMEOUT_S = 60
# |unattributed_s| may be at most this share of the traced wall time plus a few
# milliseconds of solver prelude and epilogue that run outside the solvers' clocks
COVERAGE_TOL, COVERAGE_SLACK_S = 0.10, 0.010
# One BLAS thread: at these sizes a second thread gains little, and when
# anything else wants a core, OpenBLAS threads spinning at their barriers
# slowed the small r x r solves of ct-tv-wapg ten-fold.  Seeded outputs
# depend on the thread count, so it is fixed.
BLAS_THREADS = "1"

END_TO_END = {  # name: (unit, better)
    "solve_s": ("s", "lower"),
    "baseline_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "psnr_db": ("dB", "higher"),
    "baseline_psnr_db": ("dB", "higher"),
    "final_cost": ("1", "lower"),
    "ok_frac": ("1", "higher"),
}


def parse_args(argv):
    def nonnegative(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("must be >= 0")
        return value

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=nonnegative, required=True)
    parser.add_argument("--seconds", type=nonnegative, required=True,
                        help="how long to solve pairs after set-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one cold set-up and print it as JSON (used for the "
                             "benchmark's own child processes)")
    return parser.parse_args(argv)


# --------------------------------------------------------------------------- set-up


def setup_sample(workload: Workload, seed: int, out_dir: Path, import_s: float):
    """Build the first instance's problem and run a one-iteration warm-up pair,
    which pays lazy initialisation such as the first BLAS call's thread start-up."""
    from rnp.harness import build_problem, run_experiment
    spec = workload.experiment(workload.problem_seeds(seed)[0], str(out_dir))
    t0 = time.perf_counter()
    problem = build_problem(spec, spec.seeds[0])
    build_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    warm = run_experiment(dataclasses.replace(spec, outer_max=1))
    warmup_s = time.perf_counter() - t0
    sample = {"import_s": import_s, "build_s": build_s, "warmup_s": warmup_s,
              "setup_s": import_s + build_s + warmup_s,
              "errors": [f"warm-up {r.run_id}: {r.status}" for r in warm if r.status != "ok"]}
    return sample, problem


def child_setup(workload: Workload, seed: int) -> dict:
    """One cold set-up in a fresh interpreter (subprocess.run kills it on timeout)."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", workload.name,
             "--seed", str(seed), "--seconds", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return {"errors": [f"set-up child took over {CHILD_TIMEOUT_S} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"errors": [f"set-up child exited {proc.returncode}: {tail[0]}"]}
    return json.loads(lines[-1])


# --------------------------------------------------------------------------- solving


@dataclasses.dataclass
class Instance:
    """One seeded problem and the reference outputs its pairs must repeat."""

    spec: object
    psnr_floor: float
    cost_ceiling: float
    reference: dict = dataclasses.field(default_factory=dict)  # K -> seeded outputs


def make_instance(workload: Workload, problem_seed: int, out_dir: Path, problem=None) -> Instance:
    from rnp.core import ImageGrid, psnr
    from rnp.harness import build_problem
    spec = workload.experiment(problem_seed, str(out_dir))
    problem = problem if problem is not None else build_problem(spec, problem_seed)
    gt = problem.ground_truth
    # The trivial estimate: the observation itself for deblurring, the zero
    # image (the solver's starting point) for CT.
    guess = problem.y if problem.y.size == gt.data.size else 0.0 * gt.data
    floor = psnr(ImageGrid(gt.rows, gt.cols, guess), gt, problem.peak)
    # WAPG starts at zero, where the objective is 0.5 ||y||^2.
    ceiling = 0.5 * float(problem.y @ problem.y) if spec.solver == "wapg" else math.inf
    return Instance(spec, floor, ceiling)


@dataclasses.dataclass
class Tally:
    """What a run's solves produced and every check that failed."""

    attempted: int = 0
    failed: int = 0
    problems: list = dataclasses.field(default_factory=list)
    walls: dict = dataclasses.field(default_factory=dict)  # (traced, K) -> [wall_s]
    finals: dict = dataclasses.field(default_factory=dict)  # (seed, K) -> RunResult
    missing: set = dataclasses.field(default_factory=set)  # call sites the tracer did not find


def solve(spec, inst: Instance, tally: Tally, traced: bool):
    """One run_experiment call, checked; returns (results, spans or None)."""
    from rnp.harness import run_experiment
    tracer = Tracer() if traced else None
    try:
        if traced:
            with instrumented(tracer):
                results = run_experiment(spec)
        else:
            results = run_experiment(spec)
    except RuntimeError as exc:  # a wrapper left in place
        tally.problems.append(str(exc))
        return [], None
    if traced and tracer.missing:
        tally.missing.update(tracer.missing)
    for r in results:
        rows = read_trace(r.csv_path) if Path(r.csv_path).is_file() else []
        tally.attempted += 1
        tally.failed += solve_failed(r)
        tally.problems += check_solve(r, rows, inst.psnr_floor, inst.cost_ceiling)
        outputs = seeded_outputs(r, rows)
        reference = inst.reference.setdefault(r.K, outputs)
        if outputs != reference:
            what = "traced run" if traced else "repeat"
            tally.problems.append(f"{r.run_id}: {what} changed the seeded outputs")
        if not solve_failed(r):
            tally.walls.setdefault((traced, r.K), []).append(r.wall_s)
            tally.finals[(r.seed, r.K)] = r
    return results, (tracer.spans if traced else None)


def solve_for(seconds: float, workload: Workload, instances: list, tally: Tally, trace: bool):
    """Visit the instances round-robin, each at least once, until the next
    visit would overrun ``seconds``.  A visit solves the K=0/K>0 pair; then,
    untraced, the K=0 problem ``baseline_repeats - 1`` more times, or,
    traced, the pair once more with tracing on."""
    layer_samples, coverage = [], []
    start = time.perf_counter()
    durations = []
    while True:
        visit = len(durations)
        if visit >= len(instances) and (
                time.perf_counter() - start + statistics.fmean(durations) > seconds):
            break
        t0 = time.perf_counter()
        inst = instances[visit % len(instances)]
        solve(inst.spec, inst, tally, traced=False)
        for _ in range(0 if trace else workload.baseline_repeats - 1):
            solve(dataclasses.replace(inst.spec, sketch_sizes=(0,)), inst, tally, traced=False)
        if trace:
            results, spans = solve(inst.spec, inst, tally, traced=True)
            if spans is not None and results and not any(solve_failed(r) for r in results):
                wall = sum(r.wall_s for r in results)
                layer_samples.append(layer_metrics(spans, wall))
                coverage.append((wall, layer_self_times(spans)))
        durations.append(time.perf_counter() - t0)
    return layer_samples, coverage, time.perf_counter() - start


# --------------------------------------------------------------------------- reporting


def machine_facts() -> dict:
    import numpy
    import scipy

    def blas(config):
        deps = config.get("Build Dependencies", {}).get("blas", {})
        return deps.get("openblas configuration") or f"{deps.get('name')} {deps.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.__config__.CONFIG),
        "scipy_blas": blas(scipy.__config__.CONFIG),
        "blas_threads_set": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_seen": openblas_threads(),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
    }


def openblas_threads() -> dict:
    """Threads each bundled OpenBLAS reports, asked through its own API."""
    import ctypes
    import numpy
    import scipy
    seen = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib_path in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
            lib = ctypes.CDLL(str(lib_path))
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    seen[pkg.__name__] = fn()
                    break
    return seen


def git_sha():
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over src/rnp, which identifies the code in a checkout without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "rnp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def spread(values: list) -> str:
    if not values:
        return "n=0"
    return (f"median {statistics.median(values):.4f} min {min(values):.4f} "
            f"max {max(values):.4f} n={len(values)}")


def median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end_values(workload: Workload, seeds: list, samples: list, tally: Tally) -> dict:
    def mean_final(K, attr):
        values = [getattr(tally.finals[s, K], attr) for s in seeds if (s, K) in tally.finals]
        return statistics.fmean(values) if values else 0.0

    return {
        "solve_s": median(tally.walls.get((False, workload.K), [])),
        "baseline_s": median(tally.walls.get((False, 0), [])),
        "setup_s": median([s["setup_s"] for s in samples]),
        "psnr_db": mean_final(workload.K, "final_psnr"),
        "baseline_psnr_db": mean_final(0, "final_psnr"),
        "final_cost": mean_final(workload.K, "final_cost"),
        "ok_frac": 1.0 - tally.failed / max(tally.attempted, 1),
    }


def layer_values(workload: Workload, samples: list, tally: Tally, layer_samples: list,
                 coverage: list) -> dict:
    """Medians of the traced pairs' layer metrics plus the set-up split; prints
    the coverage of the traced wall time and records a coverage failure."""
    if not layer_samples:
        tally.problems.append("no traced pair completed")
        return {}
    values = {name: median([m[name] for m in layer_samples]) for name in layer_samples[0]}
    values["problems.build_s"] = median([s["build_s"] for s in samples])
    values["setup.import_s"] = median([s["import_s"] for s in samples])
    values["setup.warmup_s"] = median([s["warmup_s"] for s in samples])
    solve_s = median(tally.walls.get((False, workload.K), []))
    values["trace.overhead_s"] = median(tally.walls.get((True, workload.K), [])) - solve_s
    if tally.missing:
        print(f"  call sites not traced (absent from the library): {sorted(tally.missing)}")
    for wall, by_layer in coverage:
        parts = " ".join(f"{layer} {t:.4f}" for layer, t in sorted(by_layer.items()))
        print(f"  self time by layer: {parts} | sum {sum(by_layer.values()):.4f} "
              f"vs wall {wall:.4f}")
    unattributed = values["trace.unattributed_s"]
    wall = median([w for w, _ in coverage])
    print(f"  coverage: unattributed_s {unattributed:+.4f} of traced wall {wall:.4f} s; "
          f"tracing overhead {values['trace.overhead_s']:+.4f} s on solve_s {solve_s:.4f} s; "
          f"layer metrics are medians over n={len(layer_samples)} traced pairs")
    if abs(unattributed) > COVERAGE_TOL * wall + COVERAGE_SLACK_S:
        tally.problems.append(f"layer self times leave {unattributed:+.4f} s of {wall:.4f} s "
                              "unattributed")
    return values


def run(workload: Workload, seed: int, seconds: float, trace: bool, out_dir: Path,
        import_s: float, setup_samples: int = SETUP_SAMPLES) -> dict:
    """Set up, solve pairs for ``seconds``, check, and return the result object."""
    sample, problem = setup_sample(workload, seed, out_dir, import_s)
    samples = [sample] + [child_setup(workload, seed) for _ in range(setup_samples - 1)]
    tally = Tally(problems=[e for s in samples for e in s["errors"]])
    samples = [s for s in samples if "setup_s" in s]

    # A traced run solves only the first instance, so that its counts repeat
    # exactly for a seed and traced and untraced times compare like with like.
    seeds = workload.problem_seeds(seed)[:1 if trace else None]
    instances = [make_instance(workload, seeds[0], out_dir, problem)]
    instances += [make_instance(workload, s, out_dir) for s in seeds[1:]]
    layer_samples, coverage, elapsed = solve_for(seconds, workload, instances, tally, trace)

    print(f"rnp benchmark: workload {workload.name} (K=0 vs K={workload.K}), seed {seed}, "
          f"problem seeds {seeds}, {elapsed:.1f} s of solving, trace {int(trace)}")
    print("machine " + json.dumps(machine_facts(), sort_keys=True))
    for key in ("setup_s", "import_s", "build_s", "warmup_s"):
        print(f"  setup {key:10s} {spread([s[key] for s in samples])}")
    for (traced, K), values in sorted(tally.walls.items()):
        print(f"  {'traced' if traced else 'untraced'} K={K:<4d} wall_s {spread(values)}")
    for s in seeds:
        for K in (0, workload.K):
            r = tally.finals.get((s, K))
            if r is not None:
                print(f"  seed {s} K={K:<4d} iters {r.iterations} final_cost {r.final_cost:.6f} "
                      f"psnr {r.final_psnr:.4f} dB")
    solve_s = median(tally.walls.get((False, workload.K), []))
    baseline_s = median(tally.walls.get((False, 0), []))
    if baseline_s > 0:
        print(f"  ST = (baseline_s - solve_s) / baseline_s = ({baseline_s:.4f} - {solve_s:.4f}) "
              f"/ {baseline_s:.4f} = {(baseline_s - solve_s) / baseline_s:+.3f}")

    if trace:
        values = layer_values(workload, samples, tally, layer_samples, coverage)
        units = {name: "s" if name.endswith(("_s", ".s")) else "count" for name in values}
    else:
        values = end_to_end_values(workload, seeds, samples, tally)
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    for name, m in metrics.items():
        print(f"  metric {name} = {m['value']!r} {m['unit']}")
    for problem_text in tally.problems:
        print(f"  CHECK FAILED: {problem_text}")
    return {"correct": not tally.problems, "attempted": max(tally.attempted, 1),
            "failed": tally.failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "rnp" / "__init__.py").is_file():
        print(f"error: no rnp sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import rnp
    import rnp.harness  # noqa: F401
    import_s = time.perf_counter() - t0
    if Path(rnp.__file__).resolve().parent != (SRC / "rnp").resolve():
        print(f"error: imported rnp from {rnp.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    out_dir = ROOT / ".bench_out" / f"{workload.name}-{os.getpid()}"
    try:
        if args.setup_only:
            sample, _ = setup_sample(workload, args.seed, out_dir, import_s)
            print(json.dumps(sample))
            return 0
        result = run(workload, args.seed, args.seconds, bool(args.trace), out_dir, import_s)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
