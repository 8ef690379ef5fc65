"""Optimal task-to-timer partitioning.

Finds the partition of the distinct task periods into at most ``m`` groups,
with each group's timer period set to the group GCD, minimizing the total
expected interrupt rate (sum of 1/GCD over groups).  Ties are broken by fewer
timers used, then by the lexicographically smallest assignment vector (groups
numbered in order of their first period, periods in ascending order).

The solver searches partitions with a memoized subset DP over
(remaining-set, timers-left) rather than the raw mixed-integer model: setting
a timer period below the group GCD can never win because 1/P is minimized by
the largest common divisor, and absorbing every remaining multiple of a
group's GCD into that group never increases the objective, the timer count,
or the lexicographic rank of the assignment.  Both dominance lemmas are
validated against the brute-force enumerator in the test suite.  The search
compares one integer per state, ``rate * (m + 1) + timers``, in place of
rational sums of 1/GCD: the rate is scaled by lcm(periods), which every group
GCD divides, and a state uses at most m timers, so the comparison is exact
and carries the fewer-timers tie-break.  The rational objective is built
once from the chosen groups.  Each candidate group's scaled rate is cached by
group mask, and its GCD is computed with an early exit at the divisor that
cut the group.  The search runs under a node budget.  A state reached after
the budget is spent is not expanded; its value is its whole remaining set on
one timer.  So the search always finishes with a feasible partition: the
proven optimum, reported as exact, when the search completed, and otherwise
the best partition assembled from the states it evaluated, reported as
heuristic.  The literal mixed-integer model is still available through
:func:`export_miqcp` for external validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import UsageError
from .model import (
    Mapping, Task, TaskSet, TimerConfig, mapping_to_json, rational_to_json,
)

DEFAULT_NODE_BUDGET = 20_000


@dataclass(frozen=True)
class OptimizationProblem:
    """Distinct task periods plus a timer budget.

    Tasks sharing a period always ride the same timer without affecting its
    period, so the search space is over distinct periods only.  When built
    from a task set, the solution mapping covers the original task ids.
    """

    periods: tuple[int, ...]
    m: int
    task_set: TaskSet | None = None

    def __post_init__(self) -> None:
        if not self.periods:
            raise UsageError("period set must be nonempty")
        if any(p < 1 for p in self.periods):
            raise UsageError(f"periods must be >= 1, got {self.periods}")
        if self.m < 1:
            raise UsageError(f"timer budget must be >= 1, got {self.m}")
        object.__setattr__(self, "periods", tuple(sorted(set(self.periods))))

    @classmethod
    def from_task_set(cls, task_set: TaskSet, m: int) -> "OptimizationProblem":
        return cls(periods=task_set.distinct_periods(), m=m, task_set=task_set)

    @property
    def max_period(self) -> int:
        return max(self.periods)


@dataclass
class SolverStats:
    nodes: int = 0      # distinct search states explored
    subsets: int = 0    # candidate groups / partitions evaluated


@dataclass
class OptimizationResult:
    mapping: Mapping
    objective: Fraction
    timers_used: int
    stats: SolverStats
    method: str                       # "exact" | "heuristic"
    groups: tuple[tuple[int, ...], ...]  # period groups in canonical order

    def to_json(self) -> dict:
        return {
            **mapping_to_json(self.mapping),
            "objective": rational_to_json(self.objective),
            "timers_used": self.timers_used,
            "method": self.method,
            "stats": {"nodes": self.stats.nodes, "subsets": self.stats.subsets},
        }


class _PartitionSearch:
    """Memoized DP over (remaining period bitmask, timers left).

    A state's value is one integer, ``rate * (m + 1) + timers``.  The rate is
    exact and scaled by L = lcm(periods): a group with GCD g adds L // g,
    which is exact because g divides every member and so divides L.  Scaling
    by L > 0 keeps order and equality, and since a state never uses more than
    m timers, integer order is the order of ``(rate, timers)`` pairs, which
    is the rational objective with its fewer-timers tie-break.

    The memo holds one dict per timers-left, keyed by mask.  A candidate
    group's own value, ``(L // g) * (m + 1) + 1``, is cached by group mask;
    on a miss its GCD is folded from the lowest member up and stops as soon
    as it reaches the divisor ``d`` that cut the group, since every member is
    a multiple of ``d`` and the GCD can go no lower.
    """

    def __init__(self, periods: tuple[int, ...], m: int, node_budget: int):
        self.periods = periods
        self.n = len(periods)
        self.m = m
        self.node_budget = node_budget
        self.stats = SolverStats()
        self._scale = math.lcm(*periods) * (m + 1)
        self._memo: list[dict[int, int]] = [{} for _ in range(m + 1)]
        self._group_values: dict[int, int] = {}
        # For every divisor of any period, the bitmask of periods it divides,
        # in order of the divisor's first appearance.
        self._divisor_masks: dict[int, int] = {}
        divisors_of = [_divisors(p) for p in periods]
        for i, divs in enumerate(divisors_of):
            for d in divs:
                self._divisor_masks[d] = self._divisor_masks.get(d, 0) | 1 << i
        # Per period, its (divisor, divisor mask) pairs in ascending divisor
        # order.  Every divisor-closed group containing the lowest remaining
        # period is one of these masks cut down to the remaining set; the
        # order fixes the search's node and subset counts and where the
        # budget runs out.  The first pair is always divisor 1, whose group
        # is the whole remaining set.
        self._candidates = [
            tuple((d, self._divisor_masks[d]) for d in divs) for divs in divisors_of
        ]

    def group_gcd(self, group: int, d: int) -> int:
        """GCD of the periods in ``group``, all of which are multiples of ``d``."""
        periods = self.periods
        low = group & -group
        g = periods[low.bit_length() - 1]
        rest = group ^ low
        while rest and g != d:
            bit = rest & -rest
            g = math.gcd(g, periods[bit.bit_length() - 1])
            rest ^= bit
        return g

    def group_value(self, group: int, d: int = 1) -> int:
        """One timer for ``group``: its rate scaled by L, times m + 1, plus 1."""
        value = self._group_values.get(group)
        if value is None:
            value = self._group_values[group] = (
                self._scale // self.group_gcd(group, d) + 1)
        return value

    def best(self, mask: int, timers_left: int) -> int:
        """Best value found for ``mask`` on at most ``timers_left`` timers.

        Counts one node.  The caller has found ``(mask, timers_left)`` missing
        from the memo, with ``mask`` nonempty and ``timers_left`` already cut
        to ``1 <= timers_left <= popcount(mask)``.  Every such state is
        feasible: the whole of ``mask`` on one timer always is.  Once the node
        budget is spent, a new state is not expanded: its value is that one
        group, and ``stats.nodes`` stays at ``node_budget + 1``.  So every
        memo value is the value of a feasible partition, and it is the
        minimum whenever the search completed.
        """
        stats = self.stats
        group_values = self._group_values
        best = group_values.get(mask)
        if best is None:
            best = self.group_value(mask)
        if stats.nodes >= self.node_budget:
            stats.nodes = self.node_budget + 1
            stats.subsets += 1
            self._memo[timers_left][mask] = best
            return best
        stats.nodes += 1
        candidates = self._candidates[(mask & -mask).bit_length() - 1]
        if timers_left == 1:
            # Any smaller group would leave periods without a timer.
            seen = {divisor_mask & mask for _, divisor_mask in candidates}
        else:
            memo = self._memo
            below = timers_left - 1
            seen = {mask}
            for d, divisor_mask in candidates:
                sub = divisor_mask & mask
                if sub in seen:
                    continue   # distinct divisors yielding the same group
                seen.add(sub)
                rest = mask ^ sub
                left = rest.bit_count()
                if left > below:
                    left = below
                value = memo[left].get(rest)
                if value is None:
                    value = self.best(rest, left)
                group_value = group_values.get(sub)
                if group_value is None:
                    group_value = self.group_value(sub, d)
                value += group_value
                if value < best:
                    best = value
        stats.subsets += len(seen)
        self._memo[timers_left][mask] = best
        return best

    def reconstruct(self) -> list[int]:
        """Search from the full set, then walk the memoized states to the groups.

        Among candidate groups achieving a state's value, the winner is the
        one containing the earliest period at which the memberships differ.
        Every state the walk visits was memoized by the search, so the walk
        adds no node, and a group that two divisors both yield ties with
        itself.  A candidate whose group or rest the search never evaluated
        (the candidates of a state left unexpanded by a budget cut) is
        skipped; the state's own value is its whole mask, which always was.
        """
        mask = (1 << self.n) - 1
        timers_left = min(self.m, self.n)
        target = self.best(mask, timers_left)
        groups: list[int] = []
        while mask:
            chosen = None
            for _, divisor_mask in self._candidates[(mask & -mask).bit_length() - 1]:
                sub = divisor_mask & mask
                rest = mask ^ sub
                if rest and timers_left == 1:
                    continue
                value = self._group_values.get(sub)
                if rest:
                    left = min(timers_left - 1, rest.bit_count())
                    rest_value = self._memo[left].get(rest)
                    if value is None or rest_value is None:
                        continue
                    value += rest_value
                if value != target:
                    continue
                # The lowest period in exactly one of the two groups decides.
                if chosen is None or (differ := sub ^ chosen) & -differ & sub:
                    chosen = sub
            assert chosen is not None
            groups.append(chosen)
            target -= self._group_values[chosen]
            mask ^= chosen
            timers_left = min(timers_left - 1, mask.bit_count())
        return groups


def _divisors(value: int) -> tuple[int, ...]:
    divs = []
    i = 1
    while i * i <= value:
        if value % i == 0:
            divs.append(i)
            if i != value // i:
                divs.append(value // i)
        i += 1
    return tuple(sorted(divs))


def _build_result(problem: OptimizationProblem, group_masks: list[int],
                  stats: SolverStats, method: str) -> OptimizationResult:
    periods = problem.periods
    groups: list[tuple[int, ...]] = []
    timers: list[TimerConfig] = []
    period_to_timer: dict[int, int] = {}
    objective = Fraction(0)
    for idx, mask in enumerate(group_masks, start=1):
        members = tuple(periods[i] for i in range(len(periods)) if mask >> i & 1)
        g = math.gcd(*members)
        groups.append(members)
        timers.append(TimerConfig(id=idx, period=g))
        for p in members:
            period_to_timer[p] = idx
        objective += Fraction(1, g)

    task_set = problem.task_set
    if task_set is None:
        # One placeholder task per distinct period keeps the mapping concrete.
        task_set = TaskSet(tuple(
            Task.implicit(i + 1, wcet=0, period=p)
            for i, p in enumerate(periods)
        ))
    assignment = {t.id: period_to_timer[t.period] for t in task_set.tasks}
    mapping = Mapping(timers=tuple(timers), assignment=assignment)
    mapping.validate(task_set)
    return OptimizationResult(
        mapping=mapping,
        objective=objective,
        timers_used=len(groups),
        stats=stats,
        method=method,
        groups=tuple(groups),
    )


def solve(problem: OptimizationProblem,
          node_budget: int = DEFAULT_NODE_BUDGET) -> OptimizationResult:
    """Minimal-rate partition of the distinct periods into at most ``m`` groups.

    Runs the divisor-closed partition search under ``node_budget``.  When the
    search completes, the result is the proven optimum and its method is
    ``"exact"``.  When the budget runs out (``stats.nodes`` is then
    ``node_budget + 1``), every state reached after that point counts its
    whole remaining set as one group, so the result is the best partition
    the search can assemble from what it evaluated, never worse than the
    single-group mapping, and its method is ``"heuristic"``.
    """
    search = _PartitionSearch(problem.periods, problem.m, node_budget)
    group_masks = search.reconstruct()
    method = "heuristic" if search.stats.nodes > node_budget else "exact"
    return _build_result(problem, group_masks, search.stats, method)


# ---------------------------------------------------------------------------
# Solver-file export
# ---------------------------------------------------------------------------

def export_miqcp(problem: OptimizationProblem, path: str) -> None:
    """Write the full mixed-integer model in LP text format.

    Decision variables per timer j: continuous rate f_j in [1/maxT, 1],
    integer period P_j in [1, maxT], binary usage flag u_j.  Per task i:
    integer divisor witness d_i in [1, T_i] and binary assignments m_i_j.
    The trilinear divisor condition d_i * P_j * m_i_j = T_i is rewritten with
    auxiliary products w_i_j = P_j * m_i_j via the standard bounded-variable
    linearization, leaving one quadratic row per task.  The rate definition
    f_j * P_j = 1 stays a quadratic equality, which makes the model
    non-convex; a solver with nonconvex QCQP support is required.
    """
    periods = problem.periods
    n = len(periods)
    m = problem.m
    max_t = problem.max_period
    f_lower = repr(1.0 / max_t) if max_t > 1 else "1"

    lines: list[str] = []
    lines.append("\\ Tick-interrupt minimization: partition tasks over timers")
    lines.append(f"\\ periods={list(periods)} timers={m}")
    lines.append("\\ The rate_def_* rows are quadratic equalities (non-convex);")
    lines.append("\\ solve with a nonconvex-capable MIQCP solver.")
    lines.append("Minimize")
    obj_terms = " + ".join(f"2 f_{j} * u_{j}" for j in range(1, m + 1))
    lines.append(f" obj: [ {obj_terms} ] / 2")
    lines.append("Subject To")
    for j in range(1, m + 1):
        lines.append(f" rate_def_{j}: [ f_{j} * P_{j} ] = 1")
    for i in range(1, n + 1):
        terms = " + ".join(f"m_{i}_{j}" for j in range(1, m + 1))
        lines.append(f" assign_once_{i}: {terms} = 1")
    for i, t_i in enumerate(periods, start=1):
        terms = " + ".join(f"d_{i} * w_{i}_{j}" for j in range(1, m + 1))
        lines.append(f" divisor_{i}: [ {terms} ] = {t_i}")
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            lines.append(f" w_ub_m_{i}_{j}: w_{i}_{j} - {max_t} m_{i}_{j} <= 0")
            lines.append(f" w_ub_p_{i}_{j}: w_{i}_{j} - P_{j} <= 0")
            lines.append(f" w_lb_p_{i}_{j}: w_{i}_{j} - P_{j} - {max_t} m_{i}_{j} >= -{max_t}")
            lines.append(f" w_nonneg_{i}_{j}: w_{i}_{j} >= 0")
    for j in range(1, m + 1):
        for i in range(1, n + 1):
            lines.append(f" timer_used_ge_{i}_{j}: u_{j} - m_{i}_{j} >= 0")
    for j in range(1, m + 1):
        terms = " - ".join(f"m_{i}_{j}" for i in range(1, n + 1))
        lines.append(f" timer_used_le_{j}: u_{j} - {terms} <= 0")
    lines.append("Bounds")
    for j in range(1, m + 1):
        lines.append(f" {f_lower} <= f_{j} <= 1")
        lines.append(f" 1 <= P_{j} <= {max_t}")
    for i, t_i in enumerate(periods, start=1):
        lines.append(f" 1 <= d_{i} <= {t_i}")
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            lines.append(f" 0 <= w_{i}_{j} <= {max_t}")
    lines.append("Generals")
    names = [f"P_{j}" for j in range(1, m + 1)]
    names += [f"d_{i}" for i in range(1, n + 1)]
    names += [f"w_{i}_{j}" for i in range(1, n + 1) for j in range(1, m + 1)]
    lines.append(" " + " ".join(names))
    lines.append("Binaries")
    names = [f"m_{i}_{j}" for i in range(1, n + 1) for j in range(1, m + 1)]
    names += [f"u_{j}" for j in range(1, m + 1)]
    lines.append(" " + " ".join(names))
    lines.append("End")

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
