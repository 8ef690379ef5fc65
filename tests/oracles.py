"""Brute-force oracles the tests check the package against.

Nothing in ``chronosim`` depends on these; they enumerate directly what the
solver and the simulator compute by other means, ``reference_run``
re-derives the simulator's loop one time unit at a time, ``SpecDispatcher``
re-derives the dispatcher's charges one primitive at a time, ``read_lp`` with
``miqcp_minimum`` solves the exported mixed-integer model by enumeration, and
``response_time`` is the closed-form fixed-priority analysis.
The views at the top (``hyperperiod``, ``release_trace``, ``interrupt_log``
and ``rational_from_json``) read package values that only the tests need.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction

from chronosim.dispatch import (
    COUNTERS,
    TIME_MAX,
    DispatcherState,
    Strategy,
    delay_task,
    tick,
)
from chronosim.errors import UsageError
from chronosim.model import Mapping, Task, TaskSet, _json_int, expected_interrupt_rate
from chronosim.optimizer import (
    OptimizationProblem,
    OptimizationResult,
    SolverStats,
    _build_result,
)
from chronosim.sim import SimConfig, SimMetrics, TimerStats

BRUTE_FORCE_BOUND = 10


def hyperperiod(task_set: TaskSet) -> int:
    """LCM of all periods."""
    return math.lcm(*task_set.periods())


def release_trace(metrics: SimMetrics) -> list[tuple[int, int]] | None:
    """(time, task) of every timer-driven release, from ``metrics.events``."""
    if metrics.events is None:
        return None
    return [(t, task) for t, kind, _, task in metrics.events if kind == "release"]


def interrupt_log(metrics: SimMetrics) -> list[tuple[int, int, int]] | None:
    """(time, timer, released) per interrupt, from ``metrics.events``:
    released counts the release events at the same time and timer."""
    if metrics.events is None:
        return None
    released = Counter((t, timer) for t, kind, timer, _ in metrics.events
                       if kind == "release")
    return [(t, timer, released[t, timer])
            for t, kind, timer, _ in metrics.events if kind == "interrupt"]


def rational_from_json(obj: dict) -> Fraction:
    """Read back ``model.rational_to_json``; JSON integers only."""
    try:
        return Fraction(_json_int(obj["num"]), _json_int(obj["den"]))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"malformed rational: {obj!r} ({exc})") from exc


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


def response_time(task: Task, higher: list[Task]) -> int:
    """The worst-case response time of ``task``'s jobs when ``higher`` are
    the tasks of higher priority, with every task released at once (the
    critical instant; Liu & Layland 1973).  It is the least fixed point of
    R = C + sum over h in ``higher`` of ceil(R / T_h) * C_h (Joseph & Pandya
    1986), iterated up from R = C, so a job with no work responds at once.
    The iteration stops at the first R past the deadline and returns it: the
    job misses, and at a utilisation of one or more there is no fixed point.
    """
    r = task.wcet
    while r <= task.deadline:
        nxt = task.wcet + sum(-(-r // h.period) * h.wcet for h in higher)
        if nxt == r:
            break
        r = nxt
    return r


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
    result = _build_result(problem, group_masks, stats)
    result.method = "brute-force"
    return result


def cover_state(periods: tuple[int, ...], m: int, uncovered: int,
                timers_left: int, limit: int) -> tuple[float, list[tuple[int, int]]]:
    """The Lagrangian bound and the branch of one cover-search state, as the
    ``optimizer`` module docstring states them.

    For each period e of ``uncovered`` in ascending order, every candidate d
    of e (a divisor of e that is the GCD of all the periods it divides) is
    tried in ascending order and cuts ``uncovered`` to the periods it
    divides; a cut keeps its largest d.  The bound is -lam * timers_left plus,
    per e, the least (1/d + lam) / |cut| over e's distinct cuts, with lam the
    rate ``limit`` allows (``limit`` / (lcm(periods) * (m + 1))) over twice
    the timers left.  The branch is the cut dict of the first period in the
    fewest distinct cuts, sorted by (1/d) / |cut|, as (cut, value) pairs with
    value = lcm(periods) * (m + 1) // d + 1.
    """
    scale = math.lcm(*periods) * (m + 1)
    lam = max(limit, 0) / scale / (2 * timers_left)
    members = [i for i in range(len(periods)) if uncovered >> i & 1]
    bound = -lam * timers_left
    fewest: dict[int, int] | None = None
    for e in members:
        cuts: dict[int, int] = {}
        for d in range(1, periods[e] + 1):
            if periods[e] % d == 0 and d == math.gcd(*(p for p in periods if p % d == 0)):
                cuts[sum(1 << i for i in members if periods[i] % d == 0)] = d
        bound += min((1 / d + lam) / cut.bit_count() for cut, d in cuts.items())
        if fewest is None or len(cuts) < len(fewest):
            fewest = cuts
    branch = sorted(fewest.items(), key=lambda item: 1 / item[1] / item[0].bit_count())
    return bound, [(cut, scale // d + 1) for cut, d in branch]


def _lp_terms(tokens: list[str]) -> list[list]:
    """``[coefficient, variables]`` per term of an LP expression.

    Tokens are separated by spaces, as ``export_miqcp`` writes them; a
    bracketed quadratic part followed by ``/ k`` has its terms divided by k.
    """
    terms: list[list] = []
    sign, coef, names = 1, Fraction(1), []
    group = end = 0
    tokens = iter(tokens)
    for tok in tokens:
        if tok in ("+", "-", "]") and names:
            terms.append([sign * coef, tuple(names)])
            sign, coef, names = 1, Fraction(1), []
        if tok in ("+", "-"):
            sign = -1 if tok == "-" else 1
        elif tok == "[":
            group = len(terms)
        elif tok == "]":
            end = len(terms)
        elif tok == "/":
            divisor = Fraction(next(tokens))
            for term in terms[group:end]:
                term[0] /= divisor
        elif tok[0].isdigit():
            coef = Fraction(tok)
        elif tok != "*":
            names.append(tok)
    if names:
        terms.append([sign * coef, tuple(names)])
    return terms


def read_lp(text: str) -> dict:
    """The LP subset that ``export_miqcp`` writes, in exact arithmetic.

    Returns ``objective`` (terms), ``rows`` (name -> (terms, sense, rhs)),
    ``bounds`` (variable -> (lo, hi)), ``generals`` and ``binaries``.  Every
    number, the decimal rate bound included, is read as a ``Fraction``.
    """
    model: dict = {"objective": [], "rows": {}, "bounds": {},
                   "generals": set(), "binaries": set()}
    section = None
    for line in text.splitlines():
        if line.startswith("\\") or not line.strip():
            continue
        if line in ("Minimize", "Subject To", "Bounds", "Generals", "Binaries",
                    "End"):
            section = line
            continue
        tokens = line.split()
        if section == "Minimize":
            model["objective"] = _lp_terms(tokens[1:])  # past "obj:"
        elif section == "Subject To":
            name = tokens[0].rstrip(":")
            model["rows"][name] = (_lp_terms(tokens[1:-2]), tokens[-2],
                                   Fraction(tokens[-1]))
        elif section == "Bounds":
            lo, _, var, _, hi = tokens
            model["bounds"][var] = (Fraction(lo), Fraction(hi))
        elif section == "Generals":
            model["generals"].update(tokens)
        elif section == "Binaries":
            model["binaries"].update(tokens)
    return model


def lp_value(terms: list[list], point: dict) -> Fraction:
    return sum((coef * math.prod(point[v] for v in names)
                for coef, names in terms), Fraction(0))


def _row_holds(row: tuple, point: dict) -> bool:
    terms, sense, rhs = row
    value = lp_value(terms, point)
    if sense == "<=":
        return value <= rhs
    return value >= rhs if sense == ">=" else value == rhs


def lp_feasible(model: dict, point: dict) -> bool:
    """Whether ``point`` meets every row, bound and integrality of ``model``."""
    if not all(_row_holds(row, point) for row in model["rows"].values()):
        return False
    if any(not lo <= point[var] <= hi for var, (lo, hi) in model["bounds"].items()):
        return False
    if any(point[var] not in (0, 1) for var in model["binaries"]):
        return False
    return all(Fraction(point[var]).denominator == 1 for var in model["generals"])


def lp_timers(model: dict) -> int:
    """The number of timers in ``model``: its P_j variables."""
    return sum(1 for var in model["bounds"] if var.startswith("P_"))


def lp_point(periods, timer_periods, assignment) -> dict:
    """The one point of the exported model with these timer periods and this
    assignment (``assignment[i]`` is period i's timer, from 1): f_j = 1 / P_j,
    d_i = T_i / P_j, w_i_j = P_j * m_i_j, and u_j = 1 iff timer j has a task."""
    point: dict = {}
    for j, p in enumerate(timer_periods, start=1):
        point[f"P_{j}"] = p
        point[f"f_{j}"] = Fraction(1, p)
        point[f"u_{j}"] = int(j in assignment)
    for i, (t_i, a) in enumerate(zip(periods, assignment), start=1):
        point[f"d_{i}"] = Fraction(t_i, timer_periods[a - 1])
        for j, p in enumerate(timer_periods, start=1):
            point[f"m_{i}_{j}"] = int(a == j)
            point[f"w_{i}_{j}"] = p if a == j else 0
    return point


def _free_points(model: dict, forced: dict):
    """The points that keep ``forced``'s P, f and m and take u, w and d
    anywhere in their bounds, each row checked as soon as its variables are
    set (u, then w, then d)."""
    names = sorted((var for var in forced if var[0] in "uwd"),
                   key=lambda var: "uwd".index(var[0]))
    position = {var: k for k, var in enumerate(names)}
    due: list[list] = [[] for _ in names]
    for row in model["rows"].values():
        last = max((position[var] for _, row_vars in row[0] for var in row_vars
                    if var in position), default=None)
        if last is not None:
            due[last].append(row)
    point = {var: x for var, x in forced.items() if var not in position}

    def extend(k: int):
        if k == len(names):
            yield dict(point)
            return
        lo, hi = (0, 1) if names[k] in model["binaries"] else model["bounds"][names[k]]
        for x in range(int(lo), int(hi) + 1):
            point[names[k]] = x
            if all(_row_holds(row, point) for row in due[k]):
                yield from extend(k + 1)
        del point[names[k]]

    return extend(0)


def miqcp_minimum(problem: OptimizationProblem, model: dict,
                  free: bool = False) -> Fraction | None:
    """The least objective of ``model`` over its feasible points (None if none).

    Every vector of timer periods in [1, maxT]^t, with t the model's timers,
    and every assignment of the periods to timers is tried.  The rows leave
    no other freedom: a feasible point has binary m and u and integer P,
    assign_once makes m an assignment, and rate_def, the product
    linearization, divisor and timer_used rows then force f, w, d and u to
    the values :func:`lp_point` derives, so no feasible point is missed.
    With ``free``, u, w and d are enumerated over their bounds as well, and
    a feasible point other than the forced one fails an assertion.  That
    walk checks each row once its variables are set, but can still visit
    (maxT + 1)^(n t) values of w per P and m, so keep n, t and maxT small.
    """
    periods = problem.periods
    timers = lp_timers(model)
    best = None
    for timer_periods in itertools.product(range(1, problem.max_period + 1),
                                           repeat=timers):
        for assignment in itertools.product(range(1, timers + 1),
                                            repeat=len(periods)):
            forced = lp_point(periods, timer_periods, assignment)
            for point in _free_points(model, forced) if free else [forced]:
                if not lp_feasible(model, point):
                    continue
                assert point == forced, f"the rows leave {point} feasible"
                value = lp_value(model["objective"], point)
                if best is None or value < best:
                    best = value
    return best


class SpecDispatcher:
    """The dispatcher of the ``dispatch`` module docstring, one primitive at
    a time, for a valid configuration.

    Each routine does literally what that docstring describes and charges
    each primitive as it executes it.  A list timer keeps its delayed tasks
    in a list and a cached earliest release: the sorted strategies walk the
    list to insert and pop due heads, chronos-const appends and scans every
    entry.  A harmonic timer keeps a slot array in (period, task id) order.
    ``check_invariants`` is accepted for the signature and ignored: the spec
    is what the package is checked against.
    """

    def __init__(self, task_set: TaskSet, mapping: Mapping, strategy: Strategy,
                 check_invariants: bool = False):
        self.strategy = strategy
        self.interrupt_counts = dict.fromkeys(COUNTERS, 0)
        self.delay_counts = dict.fromkeys(COUNTERS, 0)
        self.skip_events: list[tuple[int, int, int]] = []
        self.period = {task.id: task.period for task in task_set.tasks}
        self.timer_of = dict(mapping.assignment)
        self.timer_period = {tc.id: tc.period for tc in mapping.timers}
        self.ticks = dict.fromkeys(self.timer_period, 0)
        self.release: dict[int, int] = {}              # delayed task -> next release
        self.delayed = {j: [] for j in self.timer_period}  # list timers
        self.earliest = dict.fromkeys(self.timer_period, TIME_MAX)
        self.slots = {j: [[self.period[t], t, False] for t in sorted(
            tids, key=lambda t: (self.period[t], t))]
            for j, tids in mapping.groups().items()}     # harmonic timers

    def tick(self, timer_id: int) -> list[int]:
        counts = self.interrupt_counts
        counts["interrupt"] += 1
        counts["tick_increment"] += 1
        self.ticks[timer_id] += self.timer_period[timer_id]
        now = self.ticks[timer_id]
        released: list[int] = []
        if self.strategy is Strategy.CHRONOS_HARMONIC:
            for slot in self.slots[timer_id]:
                counts["comparison"] += 1
                if now % slot[0] != 0:
                    break
                if not slot[2]:
                    self.skip_events.append((now, timer_id, slot[1]))
                    continue
                slot[2] = False
                counts["slot_write"] += 1
                released.append(slot[1])
        else:
            counts["comparison"] += 1                      # the guard
            if now < self.earliest[timer_id]:
                return released
            entries = self.delayed[timer_id]
            if self.strategy is Strategy.CHRONOS_CONST:
                for tid in list(entries):                  # the full scan
                    counts["comparison"] += 1
                    if self.release[tid] <= now:
                        entries.remove(tid)
                        counts["list_remove"] += 1
                        released.append(tid)
            else:
                while entries:                             # pop due heads
                    counts["comparison"] += 1
                    if self.release[entries[0]] > now:
                        break
                    counts["list_remove"] += 1
                    released.append(entries.pop(0))
            self.earliest[timer_id] = min(
                (self.release[t] for t in entries), default=TIME_MAX)
        counts["ready_insert"] += len(released)
        return released

    def delay_task(self, task_ids) -> None:
        counts = self.delay_counts
        for tid in task_ids:
            period, timer_id = self.period[tid], self.timer_of[tid]
            now = self.ticks[timer_id]
            release = self.release[tid] = (now // period + 1) * period
            counts["comparison"] += 1              # refresh the cached earliest
            self.earliest[timer_id] = min(self.earliest[timer_id], release)
            if self.strategy is Strategy.CHRONOS_HARMONIC:
                next(slot for slot in self.slots[timer_id] if slot[1] == tid)[2] = True
                counts["slot_write"] += 1
            elif self.strategy is Strategy.CHRONOS_CONST:
                self.delayed[timer_id].append(tid)
                counts["list_append"] += 1
            else:
                entries = self.delayed[timer_id]
                position = 0                       # walk past entries due no later
                while (position < len(entries)
                       and self.release[entries[position]] <= release):
                    position += 1
                    counts["sorted_insert_step"] += 1
                entries.insert(position, tid)


# A dispatcher for ``reference_run``: its state type, ``tick`` and ``delay_task``.
PACKAGE_DISPATCHER = (DispatcherState, tick, delay_task)
SPEC_DISPATCHER = (SpecDispatcher, SpecDispatcher.tick, SpecDispatcher.delay_task)


def reference_run(config: SimConfig, dispatcher=PACKAGE_DISPATCHER) -> SimMetrics:
    """The simulation of :func:`chronosim.sim.run`, one time unit per step.

    It shares the result types with the package and re-derives the loop from
    the ``sim`` module docstring, for a valid configuration.  ``dispatcher``
    is a (state type, ``tick``, ``delay_task``) triple: the package's by
    default, or :data:`SPEC_DISPATCHER`.  Each live job is one dict; the
    scheduler scans the waiting jobs for the least (period, time, kind, task),
    where kind orders
    a job preempted at ``time`` (0) before one released then (1) before one
    whose slice ended then (2).  A job is delayed at its own end instant.  At
    each instant t >= 1, due interrupts fire in ascending timer order and
    their releases are admitted in (period, task id) order; then instant t is
    settled: the running job completes if its work is done, late jobs are
    abandoned in ascending task id, zero-length jobs complete, and the
    scheduler picks.  One unit then goes to the overhead backlog, else to the
    running job, else to idling.
    """
    task_set = config.task_set
    mapping = config.mapping
    make_state, tick, delay_task = dispatcher
    state = make_state(task_set, mapping, config.strategy,
                       check_invariants=config.check_invariants)
    weights = config.weights
    tasks = {task.id: task for task in task_set.tasks}
    per_timer = [TimerStats(id=tc.id, period=tc.period)
                 for tc in sorted(mapping.used_timers(), key=lambda tc: tc.id)]
    collect = config.collect_trace
    events: list | None = [] if collect else None
    dropped = 0

    def trace(kind: str, timer: int | None, tid: int | None) -> None:
        nonlocal dropped
        if not collect:
            return
        if len(events) < config.trace_limit:
            events.append((t, kind, timer, tid))
        else:
            dropped += 1

    jobs: dict[int, dict] = {}            # task id -> its live job
    waiting: dict[int, tuple] = {}        # task id -> key, for jobs off the CPU
    due_at: dict[int, list[int]] = {}     # deadline -> tasks whose job is due then
    zero_length: list[int] = []           # jobs released now with no work
    running: int | None = None
    running_since = 0
    retired = completed = 0
    misses: list[tuple[int, int]] = []
    pending = busy = idle = overhead = 0

    def release(tid: int) -> None:
        task = tasks[tid]
        jobs[tid] = {"released": t, "deadline": t + task.deadline,
                     "left": task.wcet}
        if task.wcet == 0:
            zero_length.append(tid)
        else:
            waiting[tid] = (task.period, t, 1, tid)
            due_at.setdefault(t + task.deadline, []).append(tid)
        if t > 0:  # the synchronous start is not an interrupt's release
            trace("release", mapping.assignment[tid], tid)

    def end(tid: int, kind: str) -> None:
        """Complete or abandon the task's job; retire or delay the task."""
        nonlocal retired
        job = jobs.pop(tid)
        trace(kind, None, tid)
        task = tasks[tid]
        # The last job is the one released at releases_limit * period, or
        # the first after it when that release found the task still live.
        if (task.releases_limit is not None
                and job["released"] >= task.releases_limit * task.period):
            retired += 1
            trace("retire", None, tid)
        else:
            trace("delay", None, tid)
            delay_task(state, [tid])

    def admit(tids) -> None:
        for tid in sorted(tids, key=lambda tid: (tasks[tid].period, tid)):
            release(tid)

    def pick() -> None:
        nonlocal running, running_since
        running = min(waiting.values())[3]
        del waiting[running]
        running_since = t

    t = 0
    admit(tasks)
    while True:
        if running is not None and jobs[running]["left"] == 0:
            completed += 1
            end(running, "complete")
            running = None
        for tid in sorted(due_at.pop(t, ())):
            if tid in jobs and jobs[tid]["deadline"] == t:
                misses.append((t, tid))
                if tid == running:
                    running = None
                else:
                    del waiting[tid]
                end(tid, "miss")
        for tid in zero_length:
            completed += 1
            end(tid, "complete")
        zero_length.clear()
        if waiting:
            head = min(waiting.values())
            if running is None:
                pick()
            else:
                own = tasks[running].period
                if head[0] < own:
                    waiting[running] = (own, t, 0, running)
                    trace("preempt", None, running)
                    pick()
                elif head[0] == own and t > running_since:
                    waiting[running] = (own, t, 2, running)
                    pick()
        if t == config.horizon or (config.horizon is None
                                   and retired == len(tasks)):
            break
        if pending >= config.time_scale:
            pending -= config.time_scale
            overhead += 1
        elif running is not None:
            jobs[running]["left"] -= 1
            busy += 1
        else:
            idle += 1
        t += 1
        releases = []
        for stats in per_timer:
            if t % stats.period:
                continue
            cost_before = weights.cost(state.interrupt_counts)
            skips_before = len(state.skip_events)
            released = tick(state, stats.id)
            if config.overhead_as_time:
                pending += weights.cost(state.interrupt_counts) - cost_before
            stats.interrupts += 1
            stats.required += bool(released)
            releases += released
            trace("interrupt", stats.id, None)
            for _, timer, tid in state.skip_events[skips_before:]:
                trace("skip", timer, tid)
        admit(releases)

    total = sum(s.interrupts for s in per_timer)
    required = sum(s.required for s in per_timer)
    interrupt_cost = weights.cost(state.interrupt_counts)
    delay_cost = weights.cost(state.delay_counts)
    return SimMetrics(
        strategy=config.strategy.value,
        per_timer=per_timer,
        total_interrupts=total,
        required_interrupts=required,
        not_required_interrupts=total - required,
        interrupt_cost=interrupt_cost,
        delay_cost=delay_cost,
        total_cost=interrupt_cost + delay_cost,
        interrupt_counters=dict(state.interrupt_counts),
        delay_counters=dict(state.delay_counts),
        deadline_misses=len(misses),
        miss_events=misses,
        harmonic_skips=list(state.skip_events),
        jobs_completed=completed,
        total_time=t,
        busy_time=busy,
        idle_time=idle,
        overhead_time=overhead,
        expected_rate=expected_interrupt_rate(mapping),
        events=events,
        events_dropped=dropped if collect else None,
    )
