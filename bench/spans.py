"""Span tracing for the benchmark's traced run.

The benchmark records spans from its own files: for the length of one
traced experiment it replaces, in each rnp module, the names that module
calls in the layer below with wrappers that time the call, and puts every
original back afterwards.  No file of the library is changed.  Spans stay
in memory; ``layer_metrics`` turns one experiment's spans into the
per-layer numbers.

A span's self time is its duration minus the durations of its direct
children, so self times over all spans under a solver root add up to the
roots' total.
"""

from __future__ import annotations

import dataclasses
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

# Entry points the harness calls for one solve; all solve work nests under them.
SOLVER_ROOTS = ("solvers.irm_solve", "solvers.build_wapg_preconditioner", "solvers.wapg_solve")
# Spans that run before a solver starts its own clock, so they are not in wall_s.
BEFORE_CLOCK = ("solvers.estimate_lipschitz_pnorm", "solvers.weighted_op_norm_sq")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the tracer's list, -1 at top level
    info: Optional[dict] = None


class Tracer:
    """Collects spans in call order; a parent always precedes its children."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []  # call sites ``instrumented`` could not find
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable,
             describe: Optional[Callable[[object, tuple, dict], dict]] = None) -> Callable:
        """``fn`` recorded as a span named ``name``; ``describe(result, args,
        kwargs)`` attaches counts to the span, an exception attaches its type."""

        def wrapper(*args, **kwargs):
            span = Span(name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1)
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.info = {"error": type(exc).__name__}
                raise
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if describe is not None:
                span.info = describe(result, args, kwargs)
            return result

        return wrapper


class Patches:
    """Attribute replacements that ``restore`` undoes and then verifies."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        leaked = [f"{owner.__name__}.{attr}" for owner, attr, original in self._saved
                  if owner.__dict__[attr] is not original]
        self._saved.clear()
        if leaked:
            raise RuntimeError(f"wrappers not restored: {', '.join(leaked)}")


def _solver_trace(result, args, kwargs) -> dict:
    trace = result[1]
    return {"outer": len(trace.records), "inner": int(sum(r.inner_iters for r in trace.records))}


def _krylov(report, args, kwargs) -> dict:
    return {"iters": report.iterations, "converged": bool(report.converged)}


def _rank(pre, args, kwargs) -> dict:
    return {"rank": pre.Ubar.shape[1]}


def _dual(result, args, kwargs) -> dict:
    from rnp.prox import wpm_mixed_dual
    bound = inspect.signature(wpm_mixed_dual).bind(*args, **kwargs)
    bound.apply_defaults()
    return {"iters": result[2], "capped": result[2] >= bound.arguments["inner_max"]}


def targets():
    """(owner, attribute, span name, describe) for every wrapped call site.

    The owner is the module whose code makes the call, because each rnp
    module binds the functions it imports under its own names.
    """
    from rnp import harness, prox, sketch, solvers
    return [
        (harness, "irm_solve", "solvers.irm_solve", _solver_trace),
        (harness, "build_wapg_preconditioner", "solvers.build_wapg_preconditioner", None),
        (harness, "wapg_solve", "solvers.wapg_solve", _solver_trace),
        (harness, "write_trace_csv", "harness.write_trace_csv", None),
        (solvers, "nystrom_approx", "sketch.nystrom_approx", None),
        (solvers, "build_preconditioner", "sketch.build_preconditioner", _rank),
        (solvers, "pcg", "krylov.pcg", _krylov),
        (solvers, "cg", "krylov.cg", _krylov),
        (solvers, "wpm_structured", "prox.wpm_structured", None),
        (solvers, "wpm_mixed_dual", "prox.wpm_mixed_dual", _dual),
        (solvers, "estimate_lipschitz_pnorm", "solvers.estimate_lipschitz_pnorm", None),
        (solvers, "weighted_op_norm_sq", "solvers.weighted_op_norm_sq", None),
        (solvers, "update_weights", "solvers.update_weights", None),
        (solvers, "irm_cost", "solvers.irm_cost", None),
        (solvers, "wapg_cost", "solvers.wapg_cost", None),
        (prox, "wpm_structured", "prox.wpm_structured", None),
        (prox, "project_group_ball", "prox.project_group_ball", None),
        (sketch, "standard_normal_matrix", "core.standard_normal_matrix", None),
        (sketch.Preconditioner, "apply_Pinv", "sketch.apply_Pinv", None),
    ]


def _traced_operator(tracer: Tracer, name: str, op):
    from rnp.linops import LinearOperator
    return LinearOperator(op.domain_dim, op.range_dim,
                          tracer.wrap(f"{name}.apply", op.apply),
                          tracer.wrap(f"{name}.adjoint", op.adjoint))


def _traced_problems(tracer: Tracer, make: Callable) -> Callable:
    """Problem factory whose forward operator and regularizer are traced."""

    def wrapper(*args, **kwargs):
        problem = make(*args, **kwargs)
        return dataclasses.replace(problem, A=_traced_operator(tracer, "linops.A", problem.A),
                                   L=_traced_operator(tracer, "linops.L", problem.L))

    return wrapper


@contextmanager
def instrumented(tracer: Tracer):
    """Route every call site in ``targets`` through ``tracer`` until exit.

    A call site the library no longer has is listed in ``tracer.missing``
    and left alone; its work then counts as its caller's self time.
    """
    from rnp import harness
    patches = Patches()
    sites = [(owner, attr, lambda fn, n=name, d=describe: tracer.wrap(n, fn, d))
             for owner, attr, name, describe in targets()]
    sites += [(harness, attr, lambda fn: _traced_problems(tracer, fn))
              for attr in ("make_deblur", "make_sr", "make_ct")]
    try:
        for owner, attr, make_wrapper in sites:
            if attr in owner.__dict__:
                patches.set(owner, attr, make_wrapper(owner.__dict__[attr]))
            else:
                tracer.missing.append(f"{owner.__name__}.{attr}")
        yield tracer
    finally:
        patches.restore()


def self_times(spans: list[Span]) -> list[float]:
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def under_roots(spans: list[Span]) -> list[bool]:
    """Whether each span is a solver root or nested inside one."""
    under = [False] * len(spans)
    for i, s in enumerate(spans):
        under[i] = s.name in SOLVER_ROOTS or (s.parent >= 0 and under[s.parent])
    return under


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer counts and seconds of one traced experiment.

    Only spans under a solver root count, except CSV writing, which the
    harness does after the solve.  ``wall_s`` is the summed ``RunResult.wall_s``
    of the experiment's solves; ``trace.unattributed_s`` is the part of it
    that no traced solver span covers (negative when traced work inside the
    solver calls ran outside their clocks, beyond the known BEFORE_CLOCK spans).
    """
    by_name: dict[str, list[tuple[Span, float]]] = {}
    for s, own, under in zip(spans, self_times(spans), under_roots(spans)):
        if under:
            by_name.setdefault(s.name, []).append((s, own))

    def pick(*names):
        return [entry for name in names for entry in by_name.get(name, [])]

    def total(*names):
        return sum(s.end - s.start for s, _ in pick(*names))

    def self_sum(*names):
        return sum(t for _, t in pick(*names))

    def info_sum(key, *names):
        return sum(int(s.info[key]) for s, _ in pick(*names) if s.info and key in s.info)

    a_ops = ("linops.A.apply", "linops.A.adjoint")
    l_ops = ("linops.L.apply", "linops.L.adjoint")
    krylov = ("krylov.pcg", "krylov.cg")
    solver_spans = SOLVER_ROOTS + BEFORE_CLOCK + ("solvers.update_weights", "solvers.irm_cost",
                                                  "solvers.wapg_cost")
    ranks = sorted(s.info["rank"] for s, _ in pick("sketch.build_preconditioner"))
    return {
        "linops.A_applies": len(pick(*a_ops)),
        "linops.A_s": total(*a_ops),
        "linops.L_applies": len(pick(*l_ops)),
        "linops.L_s": total(*l_ops),
        "core.rng_s": total("core.standard_normal_matrix"),
        "sketch.calls": len(pick("sketch.nystrom_approx")),
        "sketch.s": total("sketch.nystrom_approx"),
        "sketch.self_s": self_sum("sketch.nystrom_approx"),
        "sketch.rank": ranks[len(ranks) // 2] if ranks else 0,
        "sketch.pinv_applies": len(pick("sketch.apply_Pinv")),
        "sketch.pinv_s": total("sketch.apply_Pinv"),
        "krylov.calls": len(pick(*krylov)),
        "krylov.iters": info_sum("iters", *krylov),
        "krylov.s": total(*krylov),
        "krylov.self_s": self_sum(*krylov),
        "krylov.unconverged": sum(1 for s, _ in pick(*krylov)
                                  if s.info and s.info.get("converged") is False),
        "prox.wpm_calls": len(pick("prox.wpm_structured")),
        "prox.wpm_s": total("prox.wpm_structured"),
        "prox.wpm_failures": sum(1 for s, _ in pick("prox.wpm_structured")
                                 if s.info and s.info.get("error") == "RuntimeError"),
        "prox.dual_calls": len(pick("prox.wpm_mixed_dual")),
        "prox.dual_iters": info_sum("iters", "prox.wpm_mixed_dual"),
        "prox.dual_capped": sum(1 for s, _ in pick("prox.wpm_mixed_dual")
                                if s.info and s.info.get("capped")),
        "prox.dual_s": total("prox.wpm_mixed_dual"),
        "prox.dual_self_s": self_sum("prox.wpm_mixed_dual"),
        "prox.ball_proj_s": total("prox.project_group_ball"),
        "solvers.outer_iters": info_sum("outer", *SOLVER_ROOTS),
        "solvers.inner_iters": info_sum("inner", *SOLVER_ROOTS),
        "solvers.lipschitz_s": total(*BEFORE_CLOCK),
        "solvers.weights_s": total("solvers.update_weights"),
        "solvers.cost_s": total("solvers.irm_cost", "solvers.wapg_cost"),
        "solvers.self_s": self_sum(*solver_spans),
        "harness.csv_s": sum(s.end - s.start for s in spans if s.name == "harness.write_trace_csv"),
        "trace.unattributed_s": wall_s - (total(*SOLVER_ROOTS) - total(*BEFORE_CLOCK)),
    }


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per layer (the name's first component) under the solver roots;
    the values add up to the solver roots' total."""
    out: dict[str, float] = {}
    for s, own, under in zip(spans, self_times(spans), under_roots(spans)):
        if under:
            layer = s.name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + own
    return out
