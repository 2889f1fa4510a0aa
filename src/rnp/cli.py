"""Command-line entry point: experiment sweeps and dense-oracle diagnostics.

Configuration files are flat ``key=value`` text (one per line, ``#`` starts
a comment); keys use the long flag names with dashes or underscores.  Flags
given on the command line override file values.  The default output root is
``$RNP_OUT_DIR`` or ``./out``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .core import Rng, rademacher_matrix, standard_normal_matrix
from .harness import ExperimentSpec, run_experiment, saved_times
from .linops import matrix_operator
from .sketch import (build_preconditioner, effective_dimension, nystrom_approx,
                     nystrom_oracle_dense, recommended_sketch_size)
from .solvers import IrmConfig, WapgConfig, half_quadratic_constants

CONDITION_NUMBER_BOUND = 28.0


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key=value config file (default: none)")
    sub.add_argument("--n", type=int, default=64, help="image side length (default: %(default)s)")
    lam = sub.add_mutually_exclusive_group()
    lam.add_argument("--lambda", dest="lam", type=float, default=None,
                     help="single regularization weight (default: 0.05 for deblur, "
                          "0.1 for sr; for ct 0.02 with --reg wavelet, else 0.05)")
    lam.add_argument("--lambda-grid", type=_parse_floats, default=None,
                     help="comma-separated weights to sweep (default: the --lambda value)")
    sub.add_argument("--K", type=_parse_ints, default=None,
                     help="comma-separated sketch sizes, 0 = no preconditioner "
                          "(default: 0,100; for ct 0,20, or 0,100 with --reg hs)")
    sub.add_argument("--seed", type=_parse_ints, default=(0,),
                     help="comma-separated seeds (default: 0)")
    sub.add_argument("--jobs", type=int, default=1,
                     help="parallel run slots (default: %(default)s)")
    sub.add_argument("--out", default=None,
                     help="output root directory (default: $RNP_OUT_DIR, else ./out)")
    sub.add_argument("--tol", type=float, default=None,
                     help=f"inner solver tolerance (default: {IrmConfig.inner_tol:g} PCG, "
                          f"{WapgConfig.inner_tol:g} dual)")
    sub.add_argument("--max-iter", type=int, default=None,
                     help=f"outer iterations (default: {IrmConfig.outer_max} for deblur "
                          f"and sr, {WapgConfig.outer_max} for ct)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rnp",
        description="Sketch-preconditioned variational image reconstruction")
    subs = parser.add_subparsers(dest="command", required=True)
    d = " (default: %(default)s)"

    deblur = subs.add_parser("deblur", help="blur + salt-and-pepper restoration")
    _add_common(deblur)
    deblur.add_argument("--kernel", choices=["uniform9", "gauss9"], default="gauss9",
                        help="blur kernel" + d)
    deblur.add_argument("--p", type=float, default=1.0, help="data-fit exponent" + d)
    deblur.add_argument("--q", type=float, default=1.0, help="regularizer exponent" + d)
    deblur.add_argument("--noise-frac", type=float, default=0.05,
                        help="fraction of salt-and-pepper pixels" + d)

    sr = subs.add_parser("sr", help="super-resolution restoration")
    _add_common(sr)
    sr.add_argument("--factor", type=int, default=2, help="downsampling factor" + d)
    sr.add_argument("--p", type=float, default=1.0, help="data-fit exponent" + d)
    sr.add_argument("--q", type=float, default=1.0, help="regularizer exponent" + d)
    sr.add_argument("--noise-frac", type=float, default=0.05,
                    help="fraction of salt-and-pepper pixels" + d)

    ct = subs.add_parser("ct", help="parallel-beam tomography reconstruction")
    _add_common(ct)
    ct.add_argument("--reg", dest="regularizer", choices=["wavelet", "tv", "hs"],
                    default="tv", help="regularizer" + d)
    ct.add_argument("--views", type=int, default=60, help="projection angles" + d)
    ct.add_argument("--phi", type=float, default=1.0,
                    help="per-group norm of the regularizer: 1, 2 or inf" + d)
    ct.add_argument("--noise-sigma", type=float, default=0.01,
                    help="Gaussian sinogram noise level, relative to the sinogram peak" + d)

    diag = subs.add_parser("diag", help="dense-oracle diagnostic suite")
    diag.add_argument("--seed", type=int, default=0, help="seed" + d)
    diag.add_argument("--identity-grid", choices=["coarse", "fine"], default="coarse",
                      help="radii checked by the half-quadratic identity: "
                           "50 (coarse) or 200 (fine)" + d)
    return parser


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Expand --config into ``--key=value`` tokens placed right after the
    subcommand, so explicit flags, which come later, still win."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    known, _ = probe.parse_known_args(argv)
    if not known.config:
        return argv
    at = next((i for i, tok in enumerate(argv) if not tok.startswith("-")), None)
    if at is None:
        return argv  # let argparse report the missing subcommand
    tokens, origin = [], {}
    with open(known.config, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SystemExit(f"{known.config}:{lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            token = f"--{key.replace('_', '-')}={value}"
            tokens.append(token)
            origin[token] = f"{known.config}:{lineno}: unknown key {key!r}"
    # a first parse with only the file's tokens after the subcommand names
    # the line of a key the subcommand does not take
    _, unknown = parser.parse_known_args(argv[:at + 1] + tokens)
    bad = [origin[tok] for tok in unknown if tok in origin]
    if bad:
        raise SystemExit(bad[0])
    return argv[:at + 1] + tokens + argv[at + 1:]


def _default_k(command: str, args) -> tuple[int, ...]:
    if command == "ct":
        return (0, 100) if args.regularizer == "hs" else (0, 20)
    return (0, 100)


def _default_lam(command: str, args) -> tuple[float, ...]:
    if command == "ct":
        return {"wavelet": (2e-2,), "tv": (5e-2,), "hs": (5e-2,)}[args.regularizer]
    # chosen by final PSNR at the default p = q = 1 (n in {32, 64}, seeds
    # 0-2); 2e-3 left both reconstructions below the corrupted input
    return {"deblur": (5e-2,), "sr": (1e-1,)}[command]


# ExperimentSpec fields that only some subcommands take, under the same names
_TASK_FLAGS = ("kernel", "factor", "views", "regularizer", "noise_frac", "noise_sigma",
               "p", "q", "phi")


def _run_task(command: str, args) -> int:
    out = args.out or os.environ.get("RNP_OUT_DIR", "out")
    lam_grid = args.lambda_grid or ((args.lam,) if args.lam is not None
                                    else _default_lam(command, args))
    sketch_sizes = args.K if args.K is not None else _default_k(command, args)
    variant = {"deblur": lambda: args.kernel, "sr": lambda: f"x{args.factor}",
               "ct": lambda: args.regularizer}[command]()
    # the image box [0, 1]; the separable wavelet prox takes none
    boxed = command == "ct" and args.regularizer != "wavelet"
    spec = ExperimentSpec(
        name=f"{command}_{variant}_n{args.n}",
        task=command,
        solver="wapg" if command == "ct" else "irm",
        out_dir=out,
        n=args.n,
        sketch_sizes=sketch_sizes,
        lam_grid=lam_grid,
        seeds=args.seed,
        outer_max=(args.max_iter if args.max_iter is not None
                   else (WapgConfig if command == "ct" else IrmConfig).outer_max),
        inner_tol=args.tol,
        box_lo=0.0 if boxed else -math.inf,
        box_hi=1.0 if boxed else math.inf,
        jobs=args.jobs,
        **{k: v for k, v in vars(args).items() if k in _TASK_FLAGS},
    )
    results = run_experiment(spec)
    print(f"{'run':34s} {'status':8s} {'best_psnr':>10s} {'wall_s':>9s} {'ST':>7s}")
    failures = 0
    for r, st in zip(results, saved_times(results)):
        st_text = "" if st is None else f"{st:.3f}"
        status = "ok" if r.status == "ok" else "FAIL"
        failures += status == "FAIL"
        best = "" if math.isnan(r.best_psnr) else f"{r.best_psnr:.2f}"
        print(f"{r.run_id:34s} {status:8s} {best:>10s} {r.wall_s:9.2f} {st_text:>7s}")
    print(f"summary: {os.path.join(out, spec.name, 'summary.csv')}")
    return 1 if failures else 0


def _run_diag(args) -> int:
    ok = True

    # Sketch vs the dense pseudo-inverse formulation on random PSD matrices.
    rng = Rng(args.seed)
    worst = 0.0
    for trial in range(5):
        n, k = 40, 15
        basis, _ = np.linalg.qr(standard_normal_matrix(n, n, rng.spawn(trial)))
        lam = np.exp(np.linspace(0.0, -6.0, n))
        dense = (basis * lam) @ basis.T
        probe_rng = rng.spawn(100 + trial)
        omega = rademacher_matrix(n, k, probe_rng)
        factor = nystrom_approx(matrix_operator(dense), k, probe_rng, omega=omega)
        oracle = nystrom_oracle_dense(dense, omega)
        approx = (factor.U * factor.S_hat) @ factor.U.T
        worst = max(worst, np.linalg.norm(approx - oracle) / np.linalg.norm(oracle))
    print(f"sketch vs dense oracle: max relative error {worst:.3e} (threshold 1e-6)")
    ok &= worst <= 1e-6

    # Condition number of the preconditioned matrix at the recommended sketch size.
    n, mu = 200, 1e-2
    lam = 0.9 ** np.arange(1, n + 1)
    phi = np.diag(lam)
    k = recommended_sketch_size(effective_dimension(phi, mu))
    kappas = []
    for trial in range(20):
        factor = nystrom_approx(matrix_operator(phi), min(k, n), Rng(args.seed).spawn(trial))
        pre = build_preconditioner(factor, mu)
        half = np.column_stack([pre.apply_Pinvhalf(col) for col in np.eye(n)])
        mat = half @ (phi + mu * np.eye(n)) @ half
        eig = np.linalg.eigvalsh(0.5 * (mat + mat.T))
        kappas.append(eig[-1] / eig[0])
    med = float(np.median(kappas))
    print(f"preconditioned condition number: median {med:.2f} "
          f"(K={k}, threshold {CONDITION_NUMBER_BOUND})")
    ok &= med < CONDITION_NUMBER_BOUND

    # Envelope identity for the half-quadratic constants.
    grid = 200 if args.identity_grid == "fine" else 50
    worst_val, worst_arg = 0.0, 0.0
    for p in (0.3, 0.5, 1.0, 1.5):
        a, b = half_quadratic_constants(p)
        for r in np.logspace(-1, 1, grid):
            beta = 0.5 * p * r ** (p - 2.0)
            value = beta * r * r + 1.0 / (b * beta ** a)
            worst_val = max(worst_val, abs(value - r ** p))
            # stationarity of the bracket at the closed-form minimizer
            deriv = r * r - a / (b * beta ** (a + 1.0))
            worst_arg = max(worst_arg, abs(deriv) * abs(beta) / max(r * r, 1.0))
    print(f"half-quadratic identity: max envelope error {worst_val:.3e}, "
          f"max scaled stationarity {worst_arg:.3e} (threshold 1e-8)")
    ok &= worst_val <= 1e-8 and worst_arg <= 1e-8

    print("diagnostics:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    argv = _apply_config_file(parser, argv)
    args = parser.parse_args(argv)
    try:
        if args.command == "diag":
            return _run_diag(args)
        return _run_task(args.command, args)
    except (ValueError, OSError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
