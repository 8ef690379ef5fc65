"""Deterministic discrete-event simulator for the tick-dispatching strategies.

At every event time, interrupts due at that instant fire in ascending timer
order and release jobs, the running job's completion is processed, deadline
expiries abandon late jobs, and a preemptive fixed-priority scheduler
(rate-monotonic, with a round-robin time slice of one unit among equal
periods) picks the next job.  Each interrupt returns the tasks it
released; the simulator collects those of one instant and admits their jobs
to its ready list in a canonical order (period, then task id), so release
traces and miss sets depend only on the configuration, never on per-strategy
list layouts or on which timer released a task.  A job with no work completes
at its release instant without occupying the CPU.

Overhead accounting: every primitive executed by the interrupt and delay
routines is charged to counters (see :mod:`.dispatch`).  With
``overhead_as_time`` enabled, interrupt-path cost additionally consumes CPU
time at ``time_scale`` cost units per time unit: whole time units are spent
on overhead before any job work proceeds, which is what can make dense tick
configurations unschedulable.  Delay-path cost is accounted but runs in task
context and does not consume time.

Bookkeeping: task ids are dense 1..n, and at most one job per task is live, so
the loop keeps per-task tables indexed by task id: the constants (period,
relative deadline, wcet, the deadline of the last job a release limit allows,
``TIME_MAX`` for a task that never retires), read once per run, and the live
job's absolute deadline (-1 when none) and remaining work.  The deadline
identifies the job: job k of a task is released at k times its period, so no
two of its jobs share one.  No object is built per release.  The ready heap
holds one integer per waiting job, which packs (period, time, kind, task) so
that integer order is that tuple's order; each task's table entry keeps the key
of its job's entry.  An abandoned job's entry goes stale and is dropped when it
reaches the top; a count of stale entries skips the test while there are none.
Deadlines sit in buckets keyed by absolute instant, each a list of task ids in
release order, with a heap of the distinct instants: one heap entry per bucket,
not per job.  A bucket entry is stale once its deadline is not its task's live
one.  Buckets are never cleaned: the run stops at every bucket instant, and the
abandon pass there pops the bucket and takes its live tasks in ascending task
id.  A stop at a bucket whose jobs have all ended changes nothing: it emits no
event and charges no counter, releases come only at interrupts so it cannot
preempt, while a job of equal period waits the run stops at every unit anyway
so it cannot slice, and the overhead, busy and idle time add up the same across
the split.  A task retires once a job with a deadline of at least its final one
ends, which is one comparison.  Jobs end through one helper over a sequence of
them, the inline completions below aside: the running job once its work is
done, the late jobs of an instant, and the jobs with no work released at one.
A job with no work is never live: it gets no remaining work, ready-heap key or
bucket, and a live deadline only for the helper's comparison, and the ones
released at an instant end together when it settles.  An instant's releases
are sorted by an admission key that puts every job with no work ahead of every
job with work, in (period, task id) order within each part, so one bisection
splits them: the no-work prefix is set aside in one list operation, and only
the jobs with work are admitted one at a time.  Such a job is its task's
last iff it is released at the release limit times the period or later, so
before the least such instant over the tasks with no work, an untraced batch
joins the list below without the helper.  Either way, each task retires after
its last release, and the rest join one list of the tasks whose jobs ended
since the last interrupt instant.  That list is delayed in one dispatcher call
at the next interrupt instant, before any timer fires, and once more when the
run ends, so each timer's tick still reads what it read when its jobs ended.
Only interrupts read the delayed containers, and the inserts keep their order,
so positions, counters and skips are those of delaying each job as it ends.

Each pass of the loop settles the current instant (completion of a finished
job, the abandon pass, which is skipped unless a bucket is due, zero-length
jobs, the scheduling decision), advances, and fires the interrupts due where it
lands.  Jobs are released only at interrupt instants, so up to the stop, the
earlier of the next tick and the first bucket instant, the ready jobs only run
one after another.  The next event time is the least of the stop, the running
job's completion t_c (now plus the overhead backlog plus its remaining work)
and, only while a job of equal period waits, the slice boundary t + 1 (one at
t_c has no effect, the job completes first).  A completion strictly before both
the stop and the horizon ends inline, with no full pass: stale heads of the
ready heap are dropped, the next job starts and the rule is applied again.  A
completion at the stop is left to the next pass: one at a tick comes after that
instant's interrupts, which decide its delay batch and next release, and one at
a bucket instant needs that instant's abandon pass before the next job starts.
Otherwise the run advances to the next event time, spending the backlog as
overhead time first, then the running job's work as busy time, and the rest as
idle time; interrupts due at the new instant then fire and their releases are
admitted.  If the next event lies past the horizon, the run advances to the
horizon instead and stops; with no horizon it stops once every task has
retired.

Traces: ``events`` is the one event stream, cut at ``trace_limit`` events;
``events_dropped`` counts the events past the limit.
"""

from __future__ import annotations

import csv
import heapq
import math
from bisect import bisect_right
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, replace
from fractions import Fraction
from typing import Iterable, Sequence, TextIO

from .dispatch import (
    TIME_MAX,
    CostWeights,
    DispatcherState,
    Strategy,
    delay_task,
    tick,
)
from .errors import ConfigError, UsageError
from .model import (
    Mapping,
    TaskSet,
    expected_interrupt_rate,
    is_harmonic_chain,
    rational_to_json,
    single_timer_mapping,
)

# Most interrupts plus round-robin slice steps one run may take; every other
# pass or inline completion of the loop ends a job those interrupts released or
# stops at its deadline.  Far above every shipped preset, it turns a
# configuration that would loop for years into a configuration error.
INTERRUPT_LIMIT = 10**8


@dataclass(frozen=True)
class SimConfig:
    """One simulation run: task set, strategy, the mapping it runs, and
    accounting knobs.

    Every strategy runs ``mapping``; for the baseline it is one timer at the
    period factor (:func:`.model.single_timer_mapping`).  ``horizon=None``
    runs until every task has retired (requires finite release limits).  No
    field changes the scheduler: rate-monotonic, with a one-unit round-robin
    slice among equal periods.
    """

    task_set: TaskSet
    strategy: Strategy
    mapping: Mapping
    weights: CostWeights = field(default_factory=CostWeights)
    horizon: int | None = None
    overhead_as_time: bool = False
    time_scale: int = 100
    collect_trace: bool = True
    trace_limit: int = 100_000
    check_invariants: bool = False


@dataclass
class TimerStats:
    id: int
    period: int
    interrupts: int = 0
    required: int = 0


@dataclass
class SimMetrics:
    """Aggregated counts from one run; required + not-required = total."""

    strategy: str
    per_timer: list[TimerStats]
    total_interrupts: int
    required_interrupts: int
    not_required_interrupts: int
    interrupt_cost: int
    delay_cost: int
    total_cost: int
    interrupt_counters: dict[str, int]
    delay_counters: dict[str, int]
    deadline_misses: int
    miss_events: list[tuple[int, int]]          # (time, task)
    harmonic_skips: list[tuple[int, int, int]]  # (time, timer, task)
    jobs_completed: int
    total_time: int
    busy_time: int
    idle_time: int
    overhead_time: int
    expected_rate: Fraction
    # The event trace and the count of events past ``trace_limit``; both are
    # None unless the run collected the trace.
    events: list[tuple[int, str, int | None, int | None]] | None
    events_dropped: int | None

    @property
    def schedulable(self) -> bool:
        return self.deadline_misses == 0

    def to_json(self) -> dict:
        """Every field but the trace itself, plus ``schedulable``."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name != "events"}
        out.update(
            per_timer=[asdict(s) for s in self.per_timer],
            miss_events=[{"time": t, "task": tid} for t, tid in self.miss_events],
            harmonic_skips=[{"time": t, "timer": j, "task": tid}
                            for t, j, tid in self.harmonic_skips],
            expected_rate=rational_to_json(self.expected_rate),
            schedulable=self.schedulable,
        )
        return out


# The metrics CSV holds the scalar entries of the metrics JSON, in its order,
# except the trace's ``events_dropped``.
METRICS_CSV_COLUMNS = tuple(
    f.name for f in fields(SimMetrics)
    if f.name not in ("per_timer", "interrupt_counters", "delay_counters",
                      "miss_events", "harmonic_skips", "events", "events_dropped")
) + ("schedulable",)


def _csv_value(value: object) -> object:
    """One CSV cell: None empty, a bool 0/1, a Fraction to 12 significant digits."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, Fraction):
        return f"{float(value):.12g}"
    return value


def write_metrics_csv(metrics: SimMetrics, fh: TextIO) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(METRICS_CSV_COLUMNS)
    writer.writerow([_csv_value(getattr(metrics, c)) for c in METRICS_CSV_COLUMNS])


def write_trace_csv(metrics: SimMetrics, fh: TextIO) -> None:
    """Event trace as (time, event_kind, timer, task) rows."""
    if metrics.events is None:
        raise UsageError("run was configured without trace collection")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(("time", "event_kind", "timer", "task"))
    writer.writerows([_csv_value(v) for v in event] for event in metrics.events)


def run(config: SimConfig) -> SimMetrics:
    """Simulate one configuration to its horizon or until all tasks retire."""
    task_set = config.task_set
    if not task_set.tasks:
        raise UsageError("task set is empty")
    if config.horizon is not None and config.horizon < 1:
        raise UsageError(f"horizon must be >= 1, got {config.horizon}")
    if config.horizon is None and any(
            t.releases_limit is None for t in task_set.tasks):
        raise ConfigError("unbounded release limits require a fixed horizon")
    # TIME_MAX means "never" and "no deadline" below, so every deadline a run
    # can reach must lie before it.
    if config.horizon is None:
        last_deadline = max(t.releases_limit * t.period + t.deadline
                            for t in task_set.tasks)
    else:
        last_deadline = config.horizon + max(t.deadline for t in task_set.tasks)
    if last_deadline >= TIME_MAX:
        raise ConfigError(f"deadlines reach {last_deadline}; every deadline "
                          f"must be below {TIME_MAX}")
    if config.time_scale < 1:
        raise UsageError(f"time_scale must be >= 1, got {config.time_scale}")
    mapping = config.mapping
    mapping.validate(task_set)
    # Every interrupt instant is a loop step, and so is every unit of work
    # sliced round-robin among tasks of equal period, so a run that could
    # take more steps than the limit is refused rather than left running.  A
    # run to retirement ends by its last deadline.
    last_instant = last_deadline if config.horizon is None else config.horizon
    interrupts = sum(last_instant // tc.period for tc in mapping.used_timers())
    sharing = Counter(t.period for t in task_set.tasks)
    slices = sum(t.wcet * (last_instant // t.period + 1)
                 for t in task_set.tasks if sharing[t.period] > 1)
    if interrupts + slices > INTERRUPT_LIMIT:
        raise ConfigError(f"the run would take up to {interrupts} interrupts "
                          f"and {slices} slice steps by time {last_instant}; "
                          f"the limit is {INTERRUPT_LIMIT}")

    state = DispatcherState(task_set, mapping, config.strategy,
                            check_invariants=config.check_invariants)
    weights = config.weights
    interrupt_counts = state.interrupt_counts
    used_timers = sorted(mapping.used_timers(), key=lambda tc: tc.id)
    per_timer = [TimerStats(id=tc.id, period=tc.period) for tc in used_timers]
    next_fire = [tc.period for tc in used_timers]  # parallel to used_timers
    next_tick = min(next_fire)  # earliest instant some timer fires

    # Per-task constants and live-job state, indexed by task id (ids are
    # dense 1..n; slot 0 is unused).  At most one job per task is live, and
    # its absolute deadline identifies it: live[tid] is that deadline (-1 when
    # none) and remaining[tid] its work left.  A task retires once a job with
    # a deadline of at least final_deadline[tid] ends (TIME_MAX: never).
    n_tasks = task_set.n
    period = [0] * (n_tasks + 1)
    rel_deadline = [0] * (n_tasks + 1)
    wcet = [0] * (n_tasks + 1)
    final_deadline = [TIME_MAX] * (n_tasks + 1)
    for task in task_set.tasks:
        period[task.id] = task.period
        rel_deadline[task.id] = task.deadline
        wcet[task.id] = task.wcet
        if task.releases_limit is not None:
            # Job k is released at k * period; job releases_limit is the last.
            final_deadline[task.id] = task.releases_limit * task.period + task.deadline
    live = [-1] * (n_tasks + 1)
    remaining = [0] * (n_tasks + 1)
    # A zero-length job is its task's last iff released at releases_limit *
    # period or later, so none released before zero_last_release is.
    zero_last_release = min((task.releases_limit * task.period
                             for task in task_set.tasks
                             if task.wcet == 0 and task.releases_limit is not None),
                            default=TIME_MAX)

    horizon = config.horizon
    end = TIME_MAX if horizon is None else horizon  # no run reaches TIME_MAX
    # A ready-heap entry is one integer that orders as (period, time, kind,
    # task): the fields are packed from the top down, no time exceeds end and
    # no task id exceeds mask.  Kind 0 is a job preempted at that time, 1 one
    # released then, 2 one whose time slice ended then.
    bits = n_tasks.bit_length()
    mask = (1 << bits) - 1
    time_shift = bits + 2
    period_shift = time_shift + end.bit_length()
    first_key = [p << period_shift for p in period]  # the least key of a period
    past_key = [(p + 1) << period_shift for p in period]
    released_key = [first_key[tid] | 1 << bits | tid for tid in range(n_tasks + 1)]
    # The order releases are admitted in: a flag above every released key puts
    # the jobs with work after those with none, in released-key order within
    # each part.
    work_flag = 1 << max(released_key).bit_length()
    admit_key = [key | work_flag if work else key
                 for key, work in zip(released_key, wcet)]
    queued = [0] * (n_tasks + 1)  # the key of each task's live ready-heap entry
    as_time = config.overhead_as_time
    scale = config.time_scale
    collect = config.collect_trace
    limit = config.trace_limit

    retired = 0  # tasks whose last job has ended; none is live again
    # Bucket entries are task ids under a deadline instant, stale once that
    # deadline is no longer their task's live one; a ready-heap entry is
    # stale once it is not its task's queued key.  The instants heap holds
    # each bucket's key.
    ready: list[int] = []
    stale = 0  # ready-heap entries of abandoned jobs
    buckets: dict[int, list[int]] = {}  # deadline instant -> tasks, in release order
    instants: list[int] = []
    zero_length: list[int] = []  # released jobs with no work, in ready order
    running: int | None = None
    running_since = 0
    # Tasks whose jobs ended since the last interrupt instant, in end order;
    # they are delayed in one call before the next instant's timers fire.
    ended: list[int] = []

    charged_cost = 0  # interrupt cost already added to pending_cost
    pending_cost = 0
    busy_time = 0
    idle_time = 0
    overhead_time = 0
    jobs_completed = 0
    miss_events: list[tuple[int, int]] = []
    events: list[tuple[int, str, int | None, int | None]] | None = [] if collect else None
    events_dropped = 0 if collect else None

    def trace(time_: int, kind: str, timer: int | None, task: int | None) -> None:
        """Record one event, or count it past the limit; callers test ``collect``."""
        nonlocal events_dropped
        if len(events) < limit:
            events.append((time_, kind, timer, task))
        else:
            events_dropped += 1

    def end_jobs(tids: Sequence[int], now: int, missed: bool) -> None:
        """Complete (or, if ``missed``, abandon) the live jobs of ``tids`` in
        order: a finished running job, the late jobs of an instant, or the
        zero-length jobs released at one, given a live deadline for the call.
        Each task then retires after its last release, and the rest join
        ``ended``, to be delayed at the next interrupt instant.  None of them
        is released before it, and the delay finds the same release."""
        nonlocal jobs_completed, retired
        for tid in tids:
            last = live[tid] >= final_deadline[tid]
            live[tid] = -1
            if missed:
                miss_events.append((now, tid))
            else:
                jobs_completed += 1
            if last:
                retired += 1
            else:
                ended.append(tid)
            if collect:
                trace(now, "miss" if missed else "complete", None, tid)
                trace(now, "retire" if last else "delay", None, tid)

    def admit_releases(now: int, tids: list[int]) -> None:
        """Release a job of each task in ``tids``, all of them at ``now``.

        ``tids`` is sorted in place by admission key: the jobs with no work
        first, then those with work, each part in (period, task id) order, the
        ready-heap order of jobs released at one instant, so nothing depends on
        which timer released which task.  One bisection finds the split; the
        no-work prefix joins ``zero_length`` in one step and is taken off
        ``tids``, and only the jobs with work get a live deadline, remaining
        work, a ready-heap key and a deadline bucket.  A trace lists the
        releases in (period, task id) order.
        """
        tids.sort(key=admit_key.__getitem__)
        if collect and now > 0:
            # The synchronous start at t=0 is not an interrupt-driven release.
            for tid in sorted(tids, key=released_key.__getitem__):
                trace(now, "release", mapping.assignment[tid], tid)
        split = bisect_right(tids, 0, key=wcet.__getitem__)
        if split:
            zero_length.extend(tids[:split])
            del tids[:split]
        now_key = now << time_shift
        for tid in tids:
            deadline = live[tid] = now + rel_deadline[tid]
            remaining[tid] = wcet[tid]
            key = queued[tid] = released_key[tid] + now_key
            heapq.heappush(ready, key)
            bucket = buckets.get(deadline)
            if bucket is None:
                buckets[deadline] = [tid]
                heapq.heappush(instants, deadline)
            else:
                bucket.append(tid)

    # The synchronous start: every task is ready with its k=0 job.
    admit_releases(0, list(range(1, n_tasks + 1)))
    t = 0

    while True:
        # Settle instant t: the running job completes if its work is done,
        # live jobs whose deadline is due are abandoned in ascending task id,
        # zero-length jobs complete without occupying the CPU, and the
        # scheduler picks the next job.
        if running is not None and remaining[running] == 0:
            end_jobs((running,), t, False)
            running = None
        if instants and instants[0] <= t:
            # Every bucket instant is an event time, so the head is the
            # bucket at t; its entries may all be stale.
            deadline = heapq.heappop(instants)
            late = sorted(tid for tid in buckets.pop(deadline)
                          if live[tid] == deadline)
            for tid in late:
                queued[tid] = 0
            stale += len(late)
            if running is not None and live[running] == deadline:
                running = None
                stale -= 1  # the running job has no ready-heap entry
            end_jobs(late, t, True)
        if zero_length:
            # The zero-length jobs released at t complete together; before
            # zero_last_release none of them is a last job.
            if t < zero_last_release and not collect:
                jobs_completed += len(zero_length)
                ended += zero_length
            else:
                for tid in zero_length:
                    live[tid] = t + rel_deadline[tid]
                end_jobs(zero_length, t, False)
            zero_length.clear()
        while stale and queued[ready[0] & mask] != ready[0]:
            heapq.heappop(ready)
            stale -= 1
        if ready:
            # A preempted or sliced job's key lies above the head, so the push
            # and pop are one heappushpop.
            if running is None:
                running = heapq.heappop(ready) & mask
                running_since = t
            elif ready[0] < first_key[running]:
                key = queued[running] = (first_key[running] + (t << time_shift)
                                         + running)
                if collect:
                    trace(t, "preempt", None, running)
                running = heapq.heappushpop(ready, key) & mask
                running_since = t
            elif ready[0] < past_key[running] and t - running_since >= 1:
                key = queued[running] = (first_key[running] + (t << time_shift)
                                         + (2 << bits) + running)
                running = heapq.heappushpop(ready, key) & mask
                running_since = t

        # Advance.  Up to the stop, the next tick or the first bucket instant,
        # nothing is released and no bucket is added, so jobs run to
        # completion one after another.  The next event is the earliest of
        # the stop, the running job's completion t_c and, while a job of equal
        # period waits, the slice boundary t + 1: the job started at t or
        # earlier, and a boundary at t_c has no effect.  No waiting job has a
        # shorter period than the running one, so a head below the next
        # period's keys has an equal period.  A completion before the stop and
        # the horizon ends inline and the next job starts; one at the stop is
        # left to the next pass, after that instant's interrupts or before its
        # abandon pass.
        stop = next_tick
        if instants and instants[0] < stop:
            stop = instants[0]
        halt = stop if stop < end else end
        backlog = pending_cost // scale  # pending_cost stays 0 unless as_time
        t_next = stop
        if running is not None:
            start = t
            t_c = t + backlog + remaining[running]
            while True:
                if t + 1 < t_c and t + 1 < stop:
                    while stale and queued[ready[0] & mask] != ready[0]:
                        heapq.heappop(ready)
                        stale -= 1
                    if ready and ready[0] < past_key[running]:
                        t_next = t + 1
                        break
                if t_c >= halt:
                    if t_c < stop:
                        t_next = t_c
                    break
                t = t_c
                # Inline: ending each job through end_jobs cost paper_sweep 7%.
                if live[running] >= final_deadline[running]:
                    end_jobs((running,), t, False)
                else:
                    live[running] = -1
                    jobs_completed += 1
                    ended.append(running)
                    if collect:
                        trace(t, "complete", None, running)
                        trace(t, "delay", None, running)
                while stale and queued[ready[0] & mask] != ready[0]:
                    heapq.heappop(ready)
                    stale -= 1
                if not ready:
                    running = None
                    break
                running = heapq.heappop(ready) & mask
                running_since = t
                t_c = t + remaining[running]
            if t > start:
                # The first completion spent the whole backlog.
                pending_cost -= backlog * scale
                overhead_time += backlog
                busy_time += t - start - backlog
                backlog = 0

        # Unless the run has ended, some timer always fires next.
        if horizon is None and retired == n_tasks:
            break
        cut = t_next > end
        if cut:
            t_next = end
        # Overhead backlog first, then the running job's work, and the rest
        # is idle.
        span = t_next - t
        if backlog:
            spent = backlog if backlog < span else span
            pending_cost -= spent * scale
            overhead_time += spent
            span -= spent
        if running is not None:
            left = remaining[running]
            work = span if span < left else left
            remaining[running] = left - work
            busy_time += work
            span -= work
        idle_time += span
        t = t_next
        if cut:
            break

        # Interrupts fire in ascending timer order; each charges its own entry.
        # Only interrupts release jobs, and t = 0 is admitted before the loop.
        # The jobs ended since the last interrupt instant are delayed first.
        if t == next_tick:
            if ended:
                delay_task(state, ended)
                ended.clear()
            releases: list[int] = []
            for i, tc in enumerate(used_timers):
                if next_fire[i] != t:
                    continue
                skips_before = len(state.skip_events)
                released = tick(state, tc.id)
                stats = per_timer[i]
                stats.interrupts += 1
                if released:
                    stats.required += 1
                    releases += released
                if collect:
                    trace(t, "interrupt", tc.id, None)
                    for _, timer_id, tid in state.skip_events[skips_before:]:
                        trace(t, "skip", timer_id, tid)
                next_fire[i] += tc.period
            next_tick = min(next_fire)
            if as_time:
                # Only interrupts charge interrupt_counts, so the growth of
                # its cost since the last instant is this instant's cost.  It
                # is charged once every due timer has fired, which is exact:
                # pending_cost is read only when the run advances.
                total = weights.cost(interrupt_counts)
                pending_cost += total - charged_cost
                charged_cost = total
            if releases:
                admit_releases(t, releases)

    if ended:
        delay_task(state, ended)
    total_time = t
    total_interrupts = sum(s.interrupts for s in per_timer)
    required = sum(s.required for s in per_timer)
    interrupt_cost = weights.cost(interrupt_counts)
    delay_cost = weights.cost(state.delay_counts)
    return SimMetrics(
        strategy=config.strategy.value,
        per_timer=per_timer,
        total_interrupts=total_interrupts,
        required_interrupts=required,
        not_required_interrupts=total_interrupts - required,
        interrupt_cost=interrupt_cost,
        delay_cost=delay_cost,
        total_cost=interrupt_cost + delay_cost,
        interrupt_counters=dict(interrupt_counts),
        delay_counters=dict(state.delay_counts),
        deadline_misses=len(miss_events),
        miss_events=miss_events,
        harmonic_skips=list(state.skip_events),
        jobs_completed=jobs_completed,
        total_time=total_time,
        busy_time=busy_time,
        idle_time=idle_time,
        overhead_time=overhead_time,
        expected_rate=expected_interrupt_rate(mapping),
        events=events,
        events_dropped=events_dropped,
    )


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def classify(missed_by_strategy: dict[Strategy, bool]) -> str:
    """Schedulability region label following the evaluation convention:

    every strategy miss-free -> "schedulable"; none -> "not-schedulable";
    only the harmonic dispatcher miss-free -> "harmonic"; a multi-timer list
    dispatcher miss-free while the baseline misses -> "chronos"; anything
    else -> "mixed".
    """
    ok = {s for s, missed in missed_by_strategy.items() if not missed}
    if ok == set(missed_by_strategy):
        return "schedulable"
    if not ok:
        return "not-schedulable"
    if ok == {Strategy.CHRONOS_HARMONIC}:
        return "harmonic"
    if (ok & {Strategy.CHRONOS, Strategy.CHRONOS_CONST}) and Strategy.BASELINE not in ok:
        return "chronos"
    return "mixed"


@dataclass
class SweepRow:
    factor: int
    strategy: str = ""
    normalized_rate: Fraction | None = None
    total_interrupts: int | None = None
    required_interrupts: int | None = None
    not_required_interrupts: int | None = None
    interrupt_cost: int | None = None
    delay_cost: int | None = None
    total_cost: int | None = None
    total_time: int | None = None
    deadline_misses: int | None = None
    overhead_fraction: Fraction | None = None
    overhead_ratio: Fraction | None = None
    schedulable_class: str = ""
    error: str | None = None


SWEEP_CSV_COLUMNS = tuple(f.name for f in fields(SweepRow))


@dataclass
class SweepSummary:
    strategy: str
    peak_ratio: Fraction | None
    mean_ratio: float | None  # geometric mean over factors schedulable under any method


@dataclass
class SweepTable:
    rows: list[SweepRow]

    def strategies(self) -> list[str]:
        seen: list[str] = []
        for row in self.rows:
            if row.strategy and row.strategy not in seen:
                seen.append(row.strategy)
        return seen

    def summary(self) -> list[SweepSummary]:
        out = []
        for strategy in self.strategies():
            if strategy == Strategy.BASELINE.value:
                continue
            ratios = [
                row.overhead_ratio for row in self.rows
                if row.strategy == strategy and row.error is None
                and row.overhead_ratio is not None
            ]
            eligible = [
                row.overhead_ratio for row in self.rows
                if row.strategy == strategy and row.error is None
                and row.overhead_ratio is not None
                and row.schedulable_class != "not-schedulable"
            ]
            peak = max(ratios) if ratios else None
            mean = None
            if eligible:
                mean = math.exp(
                    sum(math.log(float(r)) for r in eligible) / len(eligible))
            out.append(SweepSummary(strategy=strategy, peak_ratio=peak,
                                    mean_ratio=mean))
        return out

    def format_summary(self) -> str:
        lines = [f"{'strategy':<18} {'peak reduction':>15} {'mean reduction':>15}"]
        for s in self.summary():
            peak = f"{float(s.peak_ratio):.2f}x" if s.peak_ratio is not None else "-"
            mean = f"{s.mean_ratio:.2f}x" if s.mean_ratio is not None else "-"
            lines.append(f"{s.strategy:<18} {peak:>15} {mean:>15}")
        return "\n".join(lines)

    def monotonicity_violations(self) -> list[tuple[int, int]]:
        """Factor pairs (p, p+1) where a schedulable factor regresses.

        Schedulability gained at a factor is expected to persist at larger
        factors when the workload is held constant; this is observed rather
        than guaranteed, so violations are reported, not asserted.
        """
        classes: dict[int, str] = {}
        for row in self.rows:
            if row.error is None and row.factor not in classes:
                classes[row.factor] = row.schedulable_class
        ordered = sorted(classes)
        return [
            (a, b) for a, b in zip(ordered, ordered[1:])
            if b == a + 1
            and classes[a] == "schedulable" and classes[b] != "schedulable"
        ]

    def to_csv(self, fh: TextIO) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SWEEP_CSV_COLUMNS)
        writer.writerows([_csv_value(getattr(row, c)) for c in SWEEP_CSV_COLUMNS]
                         for row in self.rows)

    @classmethod
    def from_csv(cls, fh: TextIO) -> SweepTable:
        """Read back a sweep CSV, keeping the columns the summary reads.

        An overhead ratio must be positive and representable as a float: the
        summary takes its logarithm and prints it as a float.
        """
        rows = []
        for row in csv.DictReader(fh):
            try:
                ratio = (Fraction(row["overhead_ratio"]) if row["overhead_ratio"]
                         else None)
                if ratio is not None and not float(ratio) > 0:
                    raise ValueError("overhead_ratio is not positive")
                rows.append(SweepRow(
                    factor=int(row["factor"]),
                    strategy=row["strategy"],
                    overhead_ratio=ratio,
                    schedulable_class=row["schedulable_class"],
                ))
            except (KeyError, TypeError, ValueError, OverflowError,
                    ZeroDivisionError) as exc:
                raise UsageError(f"malformed sweep row: {row!r}") from exc
        return cls(rows)


def applicable_strategies(task_set: TaskSet, mapping: Mapping) -> list[Strategy]:
    """Baseline and both list dispatchers always; slots only on harmonic groups."""
    strategies = [Strategy.BASELINE, Strategy.CHRONOS, Strategy.CHRONOS_CONST]
    harmonic = all(
        is_harmonic_chain([task_set.by_id(t).period for t in group])
        for group in mapping.groups().values()
    )
    if harmonic:
        strategies.append(Strategy.CHRONOS_HARMONIC)
    return strategies


def period_factor_sweep(base: SimConfig, factors: Iterable[int],
                        strategies: list[Strategy] | None = None) -> SweepTable:
    """Scale all task and timer periods by each factor and re-run all strategies.

    The normalized expected-interrupt column divides the mapping's rate by the
    baseline single-timer rate at the same factor, so it is constant across
    factors.  Rows that fail (for example scaled deadlines reaching
    ``TIME_MAX``) are reported as per-factor error entries.  ``strategies``
    defaults to :func:`applicable_strategies`.  Each row is keyed by factor
    and strategy, so the factors and a given strategy list must be nonempty
    and repeat nothing.
    """
    factor_list = list(factors)
    if not factor_list or len(set(factor_list)) < len(factor_list):
        raise UsageError("factors must be a nonempty list without repeats, got "
                         f"{factor_list}")
    if any(p < 1 for p in factor_list):
        raise UsageError(f"factors must be >= 1, got {factor_list}")
    if strategies is None:
        strategies = applicable_strategies(base.task_set, base.mapping)
    if not strategies or len(set(strategies)) < len(strategies):
        raise UsageError("strategies must be a nonempty list without repeats, got "
                         f"{[s.value for s in strategies]}")

    rows: list[SweepRow] = []
    for factor in factor_list:
        try:
            ts_scaled = base.task_set.scaled(factor)
            map_scaled = base.mapping.scaled(factor)
            single = single_timer_mapping(ts_scaled, period=factor)
            # A fixed observation window scales with the periods.
            horizon = None if base.horizon is None else base.horizon * factor
            metrics: dict[Strategy, SimMetrics] = {}
            for strategy in strategies:
                cfg = replace(
                    base,
                    task_set=ts_scaled,
                    mapping=single if strategy is Strategy.BASELINE else map_scaled,
                    strategy=strategy,
                    horizon=horizon,
                )
                metrics[strategy] = run(cfg)
            missed = {s: m.deadline_misses > 0 for s, m in metrics.items()}
            sched_class = classify(missed)
            reference = metrics.get(Strategy.BASELINE,
                                    metrics[next(iter(metrics))])
            for strategy in strategies:
                m = metrics[strategy]
                ratio = (Fraction(reference.total_cost, m.total_cost)
                         if m.total_cost else None)
                fraction = (Fraction(m.total_cost, m.total_time * base.time_scale)
                            if m.total_time else None)
                rows.append(SweepRow(
                    factor=factor,
                    strategy=m.strategy,
                    normalized_rate=m.expected_rate * factor,
                    total_interrupts=m.total_interrupts,
                    required_interrupts=m.required_interrupts,
                    not_required_interrupts=m.not_required_interrupts,
                    interrupt_cost=m.interrupt_cost,
                    delay_cost=m.delay_cost,
                    total_cost=m.total_cost,
                    total_time=m.total_time,
                    deadline_misses=m.deadline_misses,
                    overhead_fraction=fraction,
                    overhead_ratio=ratio,
                    schedulable_class=sched_class,
                ))
        except ConfigError as exc:
            rows.append(SweepRow(factor=factor, error=str(exc)))
    return SweepTable(rows=rows)
