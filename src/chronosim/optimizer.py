"""Optimal task-to-timer partitioning.

Finds the partition of the distinct task periods into at most ``m`` groups,
with each group's timer period set to the group GCD, minimizing the total
expected interrupt rate (sum of 1/GCD over groups).  Ties are broken by fewer
timers used, then by the lexicographically smallest assignment vector (groups
numbered in order of their first period, periods in ascending order).

The solver searches covers, not the raw mixed-integer model: at most ``m``
timer periods such that every period is a multiple of one of them.  A cover
is a partition (give each period one timer that divides it; the group GCD is
a multiple of that timer's period, so no worse), and a timer below the GCD
of its periods never wins, so the candidates are the periods' divisors that
are the GCD of all the periods they divide.  A period with a proper divisor
among the periods is covered by any timer that covers that divisor, so only
the divisibility-minimal periods are searched.
The search compares one integer per cover, ``rate * (m + 1) + timers``: the
rate is scaled by lcm(periods), which every candidate divides, and a cover
uses at most m timers, so the comparison is exact and carries the
fewer-timers tie-break.  It is a depth-first branch and bound, memoizing an
exact value or a proven lower bound per (uncovered set U, timers left k).
It prunes with a Lagrangian relaxation of the timer limit: for any lam >= 0,
a cover of U by at most k timers has a rate of at least the sum over e in U
of the least (1/d + lam) / |c| over the candidates holding e, with c the
candidate's cut of U and d its period, less lam * k.  The float sum adds
-lam * k first, then one least term per period of U in ascending order.  A
period's least term is taken over all its candidates, not over its distinct
cuts only: of two candidates with the same cut, the larger d has the smaller
rate, and IEEE rounding is monotone, so both minima are the same float.  The
search branches on the first period of U in the fewest distinct cuts and
tries its cuts by rate per covered period, each cut at its largest d; equal
rates go in order of the least candidate that makes the cut.  The tie-break
then walks the divisor-closed groups of the lowest remaining period in order
of preference and takes the first whose rest still reaches the optimum,
which a search bounded by that optimum decides.  The mixed-integer model
itself is available through :func:`export_miqcp`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from .errors import ConfigError, UsageError
from .model import (
    Mapping, Task, TaskSet, TimerConfig, mapping_to_json, rational_to_json,
)

NODE_LIMIT = 500_000        # states one solve may expand
DIVISOR_LIMIT = 4_000_000   # trial divisions one solve may make
BOUND_MARGIN = 1e-9         # relative slack on the float lower bound


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
    nodes: int = 0      # search states expanded, the tie-break walk's included
    subsets: int = 0    # candidate groups tried


@dataclass
class OptimizationResult:
    mapping: Mapping
    objective: Fraction
    timers_used: int
    stats: SolverStats
    method: str                       # "exact"
    groups: tuple[tuple[int, ...], ...]  # period groups in canonical order

    def to_json(self) -> dict:
        return {
            **mapping_to_json(self.mapping),
            "objective": rational_to_json(self.objective),
            "timers_used": self.timers_used,
            "method": self.method,
            "stats": {"nodes": self.stats.nodes, "subsets": self.stats.subsets},
        }


class _CoverSearch:
    """The table holds, per period, one ``(mask, value, rate)`` triple per
    distinct mask among its divisors d, at the largest such d (the GCD of the
    mask's periods), in ascending order of d: the periods d divides,
    ``lcm * (m + 1) // d + 1`` and 1/d."""

    def __init__(self, periods: tuple[int, ...], m: int):
        self.periods = periods
        self.m = m
        self.stats = SolverStats()
        self.scale = scale = math.lcm(*periods) * (m + 1)
        self._memo: dict[tuple[int, int], tuple[int, bool]] = {}
        divisor_masks: dict[int, int] = {}
        for i, p in enumerate(periods):
            for d in _divisors(p):
                divisor_masks[d] = divisor_masks.get(d, 0) | 1 << i
        largest: dict[int, int] = {}
        for d in sorted(divisor_masks, reverse=True):
            largest.setdefault(divisor_masks[d], d)
        self._table: list[list[tuple[int, int, float]]] = [[] for _ in periods]
        for mask, d in reversed(largest.items()):
            entry = (mask, scale // d + 1, 1 / d)
            for i in _members(mask):
                self._table[i].append(entry)
        self._multiples = [divisor_masks[p] for p in periods]   # each with itself

    def groups(self, mask: int) -> list[tuple[int, int]]:
        """The divisor-closed groups holding the lowest period of ``mask``,
        each with its one-timer value: the table masks of that period cut to
        ``mask``, each at its GCD.  Of two groups, the one holding the lowest
        period in which they differ comes first, so ``mask`` itself does."""
        cuts = {entry[0] & mask: entry[1]
                for entry in self._table[(mask & -mask).bit_length() - 1]}
        width = len(self.periods)
        return [(group, cuts[group]) for group in sorted(
            cuts, key=lambda group: f"{group:0{width}b}"[::-1], reverse=True)]

    def best(self, mask: int, timers_left: int, limit: int, floor: int = 0) -> int:
        """The least value of ``mask`` on ``timers_left`` timers if it is at
        most ``limit``, else a proven lower bound above it.  ``floor`` is a
        proven lower bound: a cover at ``floor`` ends the search."""
        minimal = 0
        while mask:   # in ascending order, each minimal period drops its multiples
            low = mask & -mask
            minimal |= low
            mask &= ~self._multiples[low.bit_length() - 1]
        return self._search(minimal, min(timers_left, minimal.bit_count()), limit, floor)

    def _search(self, uncovered: int, timers_left: int, limit: int, floor: int) -> int:
        """:meth:`best` on divisibility-minimal periods; one node unless the
        memo answers.  The bound is a float sum, so it prunes only past a
        relative margin on the rate ``limit`` allows."""
        key = (uncovered, timers_left)
        known = self._memo.get(key)
        if known is not None:
            value, exact = known
            if exact or value > limit:
                return value
            floor = max(floor, value)
        stats = self.stats
        stats.nodes += 1
        if stats.nodes > NODE_LIMIT:
            raise ConfigError(f"the partition search passed {NODE_LIMIT} states "
                              f"on {len(self.periods)} periods")
        if timers_left == 1:
            # A fold, not gcd(*periods): the star-call's argument tuples pile
            # up on the interpreter's free lists across calls.
            g = 0
            for i in _members(uncovered):
                g = math.gcd(g, self.periods[i])
            self._memo[key] = (self.scale // g + 1, True)
            return self._memo[key][0]
        bound, fewest = self._relax(uncovered, timers_left, limit)
        if bound > max(limit, 0) / self.scale * (1 + BOUND_MARGIN):
            self._memo[key] = (limit + 1, False)
            return limit + 1
        best = low = None
        for cut, (_, value, _) in self._branch(uncovered, fewest):
            stats.subsets += 1
            rest = uncovered ^ cut
            total = value
            if rest and value <= limit:
                total += self._search(rest, min(timers_left - 1, rest.bit_count()),
                                      limit - value, floor - value)
            if total <= limit:
                best = limit = total
                if total <= floor:
                    break
                limit -= 1
            elif low is None or total < low:
                low = total
        self._memo[key] = (low, False) if best is None else (best, True)
        return self._memo[key][0]

    def _relax(self, uncovered: int, timers_left: int, limit: int) -> tuple[float, int]:
        """The Lagrangian bound on the rate of covering ``uncovered`` by
        ``timers_left`` timers, and the member to branch on: the first in the
        fewest distinct cuts.  lam is the rate ``limit`` allows, over twice
        the timers left.  A member's least term is taken over all its table
        entries; the module docstring says why that is the least over its
        distinct cuts."""
        lam = max(limit, 0) / self.scale / (2 * timers_left)
        table = self._table
        bound = -lam * timers_left
        fewest = count = 0
        rest = uncovered
        while rest:
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            cuts = {}
            least = math.inf
            for mask, _, rate in table[i]:
                cut = mask & uncovered
                cuts[cut] = None
                term = (rate + lam) / cut.bit_count()
                if term < least:
                    least = term
            bound += least
            if not count or len(cuts) < count:
                fewest, count = i, len(cuts)
        return bound, fewest

    def _branch(self, uncovered: int, i: int) -> list[tuple[int, tuple[int, int, float]]]:
        """Period i's distinct cuts of ``uncovered``, each with the table
        entry of its largest divisor (the last write), by rate per covered
        period."""
        cuts = {entry[0] & uncovered: entry for entry in self._table[i]}
        return sorted(cuts.items(), key=lambda item: item[1][2] / item[0].bit_count())

    def reconstruct(self) -> list[int]:
        """The optimum's groups: at each step the first of :meth:`groups`
        whose rest reaches the remaining target.  The target is a lower bound
        on every rest, so each check stops at its first cover at the target."""
        mask = (1 << len(self.periods)) - 1
        timers_left = min(self.m, len(self.periods))
        target = self.best(mask, timers_left, self.scale // math.gcd(*self.periods) + 1)
        chosen: list[int] = []
        while mask:
            for group, value in self.groups(mask):
                self.stats.subsets += 1
                rest, goal = mask ^ group, target - value
                if rest == goal == 0 or rest and goal > 0 and timers_left > 1 and \
                        self.best(rest, timers_left - 1, goal, goal) == goal:
                    break
            chosen.append(group)
            mask, target = rest, goal
            timers_left = min(timers_left - 1, mask.bit_count())
        return chosen


def _members(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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
                  stats: SolverStats) -> OptimizationResult:
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
            Task.implicit(i + 1, 0, p)
            for i, p in enumerate(periods)
        ))
    assignment = dict(zip(map(itemgetter(0), task_set.tasks),
                          map(period_to_timer.__getitem__, task_set.periods())))
    mapping = Mapping(timers=tuple(timers), assignment=assignment)
    mapping.validate(task_set)
    return OptimizationResult(
        mapping=mapping,
        objective=objective,
        timers_used=len(groups),
        stats=stats,
        method="exact",
        groups=tuple(groups),
    )


def solve(problem: OptimizationProblem) -> OptimizationResult:
    """Minimal-rate partition of the distinct periods into at most ``m`` groups.

    The result is the proven optimum with its tie-break, and its method is
    ``"exact"``.  Raises :class:`ConfigError` when the periods' divisors are
    too costly to enumerate or the search passes ``NODE_LIMIT`` states.
    """
    work = sum(math.isqrt(p) for p in problem.periods)
    if work > DIVISOR_LIMIT:
        raise ConfigError(f"enumerating the divisors of {len(problem.periods)} "
                          f"periods takes {work} trial divisions; the limit is "
                          f"{DIVISOR_LIMIT}")
    search = _CoverSearch(problem.periods, problem.m)
    group_masks = search.reconstruct()
    return _build_result(problem, group_masks, search.stats)


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

    The model has min(m, n) timers, as the search does: each of the n
    distinct periods rides one timer, so a timer beyond the n-th is never
    used and the optimum is the same.  The header still states the budget m.
    """
    periods = problem.periods
    n = len(periods)
    m = min(problem.m, n)
    max_t = problem.max_period
    f_lower = _rate_lower_bound(max_t) if max_t > 1 else "1"

    lines: list[str] = []
    lines.append("\\ Tick-interrupt minimization: partition tasks over timers")
    lines.append(f"\\ periods={list(periods)} timers={problem.m}")
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
