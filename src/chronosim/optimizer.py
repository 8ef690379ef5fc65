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
compares integer rates scaled by lcm(periods) in place of rational sums of
1/GCD; every group GCD divides that lcm, so the comparison is still exact,
and the rational objective is built once from the chosen groups.  The search
runs under a node budget; a result is reported as exact exactly when the
search completed, and as heuristic when the budget ran out.  The literal
mixed-integer model is still available through :func:`export_miqcp` for
external validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import UsageError
from .model import (
    Mapping, Task, TaskSet, TimerConfig, mapping_to_json, rational_to_json,
)

BRUTE_FORCE_BOUND = 10
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
    method: str                       # "exact" | "brute-force" | "heuristic"
    groups: tuple[tuple[int, ...], ...]  # period groups in canonical order
    divisor_witnesses: dict[int, int]    # task id -> period // timer period

    def to_json(self) -> dict:
        return {
            **mapping_to_json(self.mapping),
            "objective": rational_to_json(self.objective),
            "timers_used": self.timers_used,
            "method": self.method,
            "stats": {"nodes": self.stats.nodes, "subsets": self.stats.subsets},
        }


class _BudgetExceeded(Exception):
    pass


class _PartitionSearch:
    """Memoized DP over (remaining period bitmask, timers left).

    Rates are exact integers scaled by L = lcm(periods): a group with GCD g
    adds L // g, which is exact because g divides every member and so
    divides L.  Scaling by L > 0 keeps order and equality, so the
    ``(rate, timers)`` tuples compare exactly as the rational objective and
    its tie-break would.
    """

    def __init__(self, periods: tuple[int, ...], m: int, node_budget: int):
        self.periods = periods
        self.n = len(periods)
        self.m = m
        self.node_budget = node_budget
        self.stats = SolverStats()
        self._scale = math.lcm(*periods)
        self._memo: dict[tuple[int, int], tuple[int, int] | None] = {}
        self._gcds: dict[int, int] = {}
        self._rates: dict[int, int] = {}   # group GCD -> L // GCD
        # For every divisor of any period, the bitmask of periods it divides.
        self._divisor_masks: dict[int, int] = {}
        divisors_of = [_divisors(p) for p in periods]
        for divs in divisors_of:
            for d in divs:
                if d not in self._divisor_masks:
                    self._divisor_masks[d] = 0
        for d in self._divisor_masks:
            mask = 0
            for i, p in enumerate(periods):
                if p % d == 0:
                    mask |= 1 << i
            self._divisor_masks[d] = mask
        # Per period, the masks of its divisors in ascending divisor order.
        # Every divisor-closed group containing the lowest remaining period is
        # one of these masks cut down to the remaining set; the order fixes
        # the search's node and subset counts and where the budget runs out.
        self._masks_of = [
            tuple(self._divisor_masks[d] for d in divs) for divs in divisors_of
        ]

    def _gcd_of_mask(self, mask: int) -> int:
        cached = self._gcds.get(mask)
        if cached is not None:
            return cached
        g = 0
        rest = mask
        while rest:
            bit = rest & -rest
            g = math.gcd(g, self.periods[bit.bit_length() - 1])
            rest ^= bit
        self._gcds[mask] = g
        return g

    def _rate_of_mask(self, mask: int) -> int:
        """L // gcd(group): the group's interrupt rate scaled by L."""
        g = self._gcd_of_mask(mask)
        rate = self._rates.get(g)
        if rate is None:
            rate = self._rates[g] = self._scale // g
        return rate

    def best(self, mask: int, timers_left: int) -> tuple[int, int] | None:
        """Minimal (scaled rate, timers used) for covering ``mask``; None if infeasible."""
        if mask == 0:
            return (0, 0)
        timers_left = min(timers_left, mask.bit_count())
        if timers_left == 0:
            return None
        key = (mask, timers_left)
        if key in self._memo:
            return self._memo[key]
        self.stats.nodes += 1
        if self.stats.nodes > self.node_budget:
            raise _BudgetExceeded
        best: tuple[int, int] | None = None
        seen: set[int] = set()
        for divisor_mask in self._masks_of[(mask & -mask).bit_length() - 1]:
            sub = divisor_mask & mask
            if sub in seen:
                continue   # distinct divisors yielding the same group
            seen.add(sub)
            self.stats.subsets += 1
            rest = self.best(mask ^ sub, timers_left - 1)
            if rest is None:
                continue
            value = (self._rate_of_mask(sub) + rest[0], 1 + rest[1])
            if best is None or value < best:
                best = value
        self._memo[key] = best
        return best

    def reconstruct(self, mask: int, timers_left: int) -> list[int]:
        """Walk optimal states picking the lexicographically smallest assignment.

        Among candidate groups achieving the optimum, the winner is the one
        containing the earliest period at which the memberships differ.
        Every state visited here was memoized by :meth:`best`, so no node is
        added, and a group that two divisors both yield ties with itself.
        """
        groups: list[int] = []
        while mask:
            timers_left = min(timers_left, mask.bit_count())
            target = self.best(mask, timers_left)
            assert target is not None
            chosen = None
            chosen_key = -1
            for divisor_mask in self._masks_of[(mask & -mask).bit_length() - 1]:
                sub = divisor_mask & mask
                rest = self.best(mask ^ sub, timers_left - 1)
                if rest is None:
                    continue
                value = (self._rate_of_mask(sub) + rest[0], 1 + rest[1])
                if value != target:
                    continue
                key = self._membership_key(sub)
                if key > chosen_key:
                    chosen, chosen_key = sub, key
            assert chosen is not None
            groups.append(chosen)
            mask ^= chosen
            timers_left -= 1
        return groups

    def _membership_key(self, mask: int) -> int:
        # Earlier periods weigh heavier, so the max key prefers groups that
        # keep low-index periods together (entry 1 beats any later entry).
        key = 0
        for i in range(self.n):
            if mask >> i & 1:
                key |= 1 << (self.n - 1 - i)
        return key


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
    witnesses = {
        t.id: t.period // mapping.timer_by_id(assignment[t.id]).period
        for t in task_set.tasks
    }
    return OptimizationResult(
        mapping=mapping,
        objective=objective,
        timers_used=len(groups),
        stats=stats,
        method=method,
        groups=tuple(groups),
        divisor_witnesses=witnesses,
    )


def solve(problem: OptimizationProblem,
          node_budget: int = DEFAULT_NODE_BUDGET) -> OptimizationResult:
    """Minimal-rate partition of the distinct periods into at most ``m`` groups.

    Runs the divisor-closed partition search under ``node_budget``.  When the
    search completes, the result is the proven optimum and its method is
    ``"exact"``.  When the budget runs out (``stats.nodes`` then exceeds it),
    greedy extraction of the densest divisor-closed group takes over; that
    result is never worse than the trivial single-group mapping, and its
    method is ``"heuristic"``.
    """
    full = (1 << len(problem.periods)) - 1
    search = _PartitionSearch(problem.periods, problem.m, node_budget)
    try:
        group_masks = search.reconstruct(full, problem.m)
    except _BudgetExceeded:
        candidate = _build_result(problem, _greedy_extract(search), search.stats,
                                  "heuristic")
        single = _build_result(problem, [full], search.stats, "heuristic")
        return min(candidate, single, key=lambda r: (r.objective, r.timers_used))
    return _build_result(problem, group_masks, search.stats, "exact")


def brute_force_reference(problem: OptimizationProblem) -> OptimizationResult:
    """Test oracle: enumerate every set partition into at most ``m`` blocks.

    Enumerates restricted growth strings in lexicographic order; keeping the
    first strict improvement therefore realizes the same tie-break as
    :func:`solve` (fewer timers, then smallest assignment vector).
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


def _greedy_extract(search: _PartitionSearch) -> list[int]:
    """Repeatedly take the divisor-closed group with the best rate per period."""
    remaining = (1 << search.n) - 1
    groups: list[int] = []
    while remaining:
        if search.m - len(groups) <= 1:
            groups.append(remaining)
            break
        best_mask = None
        best_key: tuple | None = None
        seen: set[int] = set()
        for mask in search._divisor_masks.values():
            sub = mask & remaining
            if not sub or sub in seen:
                continue
            seen.add(sub)
            search.stats.subsets += 1
            size = sub.bit_count()
            key = (Fraction(1, search._gcd_of_mask(sub) * size), -size, sub)
            if best_key is None or key < best_key:
                best_key, best_mask = key, sub
        assert best_mask is not None
        groups.append(best_mask)
        remaining ^= best_mask
    return groups


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
