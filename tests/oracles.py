"""Brute-force oracles the tests check the package against.

Nothing in ``chronosim`` depends on these; they enumerate directly what the
solver and the simulator compute by other means.
"""

import math
from fractions import Fraction

from chronosim.errors import UsageError
from chronosim.model import TaskSet
from chronosim.optimizer import (
    OptimizationProblem,
    OptimizationResult,
    SolverStats,
    _build_result,
)

BRUTE_FORCE_BOUND = 10


def required_ticks(task_set: TaskSet, horizon: int) -> list[int]:
    """All time points in [1, horizon] at which some task releases a job.

    The synchronous release at t=0 is modeled as tasks starting ready, so only
    t >= 1 counts.  This is the brute-force release oracle: it enumerates the
    multiples of every period directly.
    """
    if horizon < 1:
        raise UsageError(f"horizon must be >= 1, got {horizon}")
    ticks: set[int] = set()
    for task in task_set.tasks:
        ticks.update(range(task.period, horizon + 1, task.period))
    return sorted(ticks)


def brute_force_reference(problem: OptimizationProblem) -> OptimizationResult:
    """Enumerate every set partition into at most ``m`` blocks.

    Enumerates restricted growth strings in lexicographic order; keeping the
    first strict improvement therefore realizes the same tie-break as
    :func:`chronosim.optimizer.solve` (fewer timers, then smallest assignment
    vector).  The result's method is ``"brute-force"``.
    """
    n = len(problem.periods)
    if n > BRUTE_FORCE_BOUND:
        raise UsageError(
            f"{n} distinct periods exceed the brute-force bound ({BRUTE_FORCE_BOUND})"
        )
    stats = SolverStats()
    best_value: tuple[Fraction, int] | None = None
    best_rgs: list[int] | None = None
    rgs = [0] * n

    def evaluate() -> None:
        nonlocal best_value, best_rgs
        stats.subsets += 1
        stats.nodes += 1
        blocks = max(rgs) + 1
        objective = Fraction(0)
        for b in range(blocks):
            members = [problem.periods[i] for i in range(n) if rgs[i] == b]
            objective += Fraction(1, math.gcd(*members))
        value = (objective, blocks)
        if best_value is None or value < best_value:
            best_value = value
            best_rgs = rgs.copy()

    def descend(i: int, prefix_max: int) -> None:
        if i == n:
            evaluate()
            return
        for v in range(min(prefix_max + 1, problem.m - 1) + 1):
            rgs[i] = v
            descend(i + 1, max(prefix_max, v))

    descend(1, 0)
    assert best_rgs is not None
    blocks = max(best_rgs) + 1
    group_masks = []
    for b in range(blocks):
        mask = 0
        for i in range(n):
            if best_rgs[i] == b:
                mask |= 1 << i
        group_masks.append(mask)
    return _build_result(problem, group_masks, stats, "brute-force")
