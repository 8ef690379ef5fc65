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
once from the chosen groups.  The search computes no GCD: a table built once
holds, for each divisor d of each period, the periods d divides and the
scaled rate of one timer at period d, and each candidate group takes its
value from the largest divisor that cuts it, which is its GCD (the argument
is in :meth:`_PartitionSearch.groups`).  The search runs under a node budget.
A state reached after the budget is spent is not expanded; its value is its
whole remaining set on one timer.  So the search always finishes with a
feasible partition: the proven optimum, reported as exact, when the search
completed, and otherwise the best partition assembled from the states it
evaluated, reported as heuristic.  The literal mixed-integer model is still
available through :func:`export_miqcp` for external validation.
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

    The memo holds one dict per timers-left, keyed by mask; ``memo[0]`` holds
    only the empty set, at value 0.  The candidate table holds, per period,
    one ``(divisor mask, L * (m + 1) // d + 1)`` pair for each divisor d of
    the period, in ascending divisor order: the periods d divides, and the
    value of one timer at period d.  :meth:`groups` reads a state's groups
    and their values off this table, with no GCD computed.
    """

    def __init__(self, periods: tuple[int, ...], m: int, node_budget: int):
        self.n = len(periods)
        self.m = m
        self.node_budget = node_budget
        self.stats = SolverStats()
        self._memo: list[dict[int, int]] = [{0: 0}] + [{} for _ in range(m)]
        scale = math.lcm(*periods) * (m + 1)
        divisors_of = [_divisors(p) for p in periods]
        divisor_masks: dict[int, int] = {}
        for i, divs in enumerate(divisors_of):
            for d in divs:
                divisor_masks[d] = divisor_masks.get(d, 0) | 1 << i
        self._candidates = [
            tuple((divisor_masks[d], scale // d + 1) for d in divs)
            for divs in divisors_of
        ]

    def groups(self, mask: int) -> dict[int, int]:
        """The candidate groups of ``mask``, each with its one-timer value.

        Every divisor-closed group containing the lowest period of ``mask`` is
        a divisor mask of that period cut down to ``mask``.  The keys are the
        distinct groups in order of the first divisor that cuts each, which
        fixes the search's node and subset counts and where the budget runs
        out; the first is ``mask`` itself, cut by divisor 1.  A later divisor
        overwrites an earlier one that cut the same group, so each group keeps
        the value of the largest divisor that cuts it, and that divisor is the
        group's GCD g.  g divides the lowest period, so it is a candidate.  g
        cuts exactly the group: every member is a multiple of g, and a period
        of ``mask`` that g divides is divided by the divisor d that cut the
        group (d divides every member, so d divides g), so it is a member.
        And every divisor that cuts the group divides all of its members, so
        it divides g.
        """
        return {divisor_mask & mask: value for divisor_mask, value
                in self._candidates[(mask & -mask).bit_length() - 1]}

    def best(self, mask: int, timers_left: int) -> int:
        """Best value found for ``mask`` on at most ``timers_left`` timers.

        Counts one node.  The caller has found ``(mask, timers_left)`` missing
        from the memo, with ``mask`` nonempty and ``timers_left`` already cut
        to ``1 <= timers_left <= popcount(mask)``.  Every such state is
        feasible: the whole of ``mask`` on one timer always is.  Once the node
        budget is spent, a new state is not expanded: its value is that one
        group, and ``stats.nodes`` stays at ``node_budget + 1``.  So every
        memo value is the value of a feasible partition, and it is the
        minimum whenever the search completed.  Each candidate group's value
        comes from :meth:`groups`; only the rest is searched.
        """
        stats = self.stats
        groups = self.groups(mask)
        best = groups.pop(mask)   # the whole of ``mask`` on one timer
        if stats.nodes >= self.node_budget:
            stats.nodes = self.node_budget + 1
            stats.subsets += 1
            self._memo[timers_left][mask] = best
            return best
        stats.nodes += 1
        stats.subsets += len(groups) + 1
        if timers_left > 1:   # else any smaller group leaves periods untimed
            memo = self._memo
            below = timers_left - 1
            for sub, value in groups.items():
                rest = mask ^ sub
                left = rest.bit_count()
                if left > below:
                    left = below
                rest_value = memo[left].get(rest)
                if rest_value is None:
                    rest_value = self.best(rest, left)
                value += rest_value
                if value < best:
                    best = value
        self._memo[timers_left][mask] = best
        return best

    def reconstruct(self) -> list[int]:
        """Search from the full set, then walk the memoized states to the groups.

        Among candidate groups achieving a state's value, the winner is the
        one containing the earliest period at which the memberships differ.
        Every state the walk visits was memoized by the search, so the walk
        adds no node, and every group's value is known from the table.  A
        candidate whose rest the search never evaluated (a candidate of a
        state left unexpanded by a budget cut, or a nonempty rest with no
        timer left) is skipped.  An unexpanded state's value is its whole
        mask, which comes first and wins every tie.
        """
        memo = self._memo
        mask = (1 << self.n) - 1
        timers_left = min(self.m, self.n)
        target = self.best(mask, timers_left)
        groups: list[int] = []
        while mask:
            chosen = None
            for sub, value in self.groups(mask).items():
                rest = mask ^ sub
                rest_value = memo[min(timers_left - 1, rest.bit_count())].get(rest)
                if rest_value is None or value + rest_value != target:
                    continue
                # The lowest period in exactly one of the two groups decides.
                if chosen is None or (differ := sub ^ chosen) & -differ & sub:
                    chosen, chosen_value = sub, value
            assert chosen is not None
            groups.append(chosen)
            target -= chosen_value
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

def _rate_lower_bound(max_t: int) -> str:
    """The shortest decimal of the largest float whose decimal is at most
    1/max_t, so the bound row never excludes a timer at period max_t."""
    rate = 1.0 / max_t
    while Fraction(repr(rate)) > Fraction(1, max_t):
        rate = math.nextafter(rate, 0.0)
    return repr(rate)


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
    f_lower = _rate_lower_bound(max_t) if max_t > 1 else "1"

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
