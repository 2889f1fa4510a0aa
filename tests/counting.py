"""An operator wrapper that counts calls, for tests that pin apply counts."""

from collections import Counter

from rnp.linops import LinearOperator


def counting(op: LinearOperator) -> tuple[LinearOperator, Counter]:
    """``op`` with counted maps, and the counter: ``counts["apply"]`` and
    ``counts["adjoint"]`` are the calls so far (a block call counts once)."""
    counts = Counter()

    def apply(x):
        counts["apply"] += 1
        return op.apply(x)

    def adjoint(w):
        counts["adjoint"] += 1
        return op.adjoint(w)

    return LinearOperator(op.domain_dim, op.range_dim, apply, adjoint), counts
