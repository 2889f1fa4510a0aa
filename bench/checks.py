"""Output checks: a solve must succeed, stay finite, agree with its trace CSV,
beat a trivial estimate, and repeat bit for bit."""

from __future__ import annotations

import csv
import math


def read_trace(path) -> list[tuple]:
    """Rows of a trace CSV as (iter, elapsed_s, cost, psnr, inner_iters)."""
    with open(path, newline="", encoding="utf-8") as f:
        return [(int(r["iter"]), float(r["elapsed_s"]), float(r["cost"]), float(r["psnr"]),
                 int(r["inner_iters"])) for r in csv.DictReader(f)]


def solve_failed(result) -> bool:
    """A solve fails when its status is not ok or an output is non-finite."""
    values = (result.wall_s, result.final_cost, result.final_psnr, result.best_psnr)
    return result.status != "ok" or not all(math.isfinite(v) for v in values)


def check_solve(result, rows: list[tuple], psnr_floor: float,
                cost_ceiling: float = math.inf) -> list[str]:
    """Problems found with one solve; an empty list means it passed."""
    if solve_failed(result):
        return [f"{result.run_id}: failed (status {result.status!r}, cost {result.final_cost}, "
                f"psnr {result.final_psnr})"]
    found = []
    if len(rows) != result.iterations or not rows:
        found.append(f"{result.run_id}: trace has {len(rows)} rows for "
                     f"{result.iterations} iterations")
    else:
        _, elapsed, cost, psnr, _ = rows[-1]
        if ((cost, psnr, elapsed) != (result.final_cost, result.final_psnr, result.wall_s)
                or max(r[3] for r in rows) != result.best_psnr):
            found.append(f"{result.run_id}: trace CSV disagrees with the run result")
    if not result.final_psnr > psnr_floor:
        found.append(f"{result.run_id}: psnr {result.final_psnr:.3f} dB does not beat the "
                     f"trivial estimate's {psnr_floor:.3f} dB")
    if not result.final_cost < cost_ceiling:
        found.append(f"{result.run_id}: final cost {result.final_cost:.6g} not below the "
                     f"starting point's {cost_ceiling:.6g}")
    return found


def seeded_outputs(result, rows: list[tuple]) -> tuple:
    """Every non-timing output of a solve; equal tuples mean bit-identical runs."""
    return (result.status, result.iterations, result.final_cost.hex(), result.final_psnr.hex(),
            result.best_psnr.hex(), tuple((r[0], r[2].hex(), r[3].hex(), r[4]) for r in rows))
