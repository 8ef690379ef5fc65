"""Tick interrupt handler and task-delay path over explicit dispatcher state.

Four strategies differ in how their per-timer containers of delayed tasks
would be built, and so in what an interrupt and a delay cost:

* ``BASELINE``  - one timer at the period factor and one sorted delayed
  list; the sorted-list strategy with m=1, so comparisons against the
  multi-timer strategies isolate the multi-timer effect.
* ``CHRONOS``   - per-timer lists sorted ascending by next release; the
  interrupt pops the head while it is due and can exit early.
* ``CHRONOS_CONST`` - unsorted per-timer lists with constant-cost append on
  delay; a due interrupt walks the entire list.
* ``CHRONOS_HARMONIC`` - per-timer fixed slot arrays in ascending period
  order for harmonic groups; a vacant slot at release time flags a potential
  deadline miss.

Every primitive the routines execute is charged to a counter: one
``interrupt`` entry/exit per interrupt, one ``tick_increment`` per counter
update, one ``comparison`` per examined guard/list entry/slot,
``list_remove``/``list_append``/``slot_write``/``ready_insert`` per
structural update, and one ``sorted_insert_step`` per entry a sorted-list
insert passes, which equals the insert position.  Costs are abstract counts;
weights are applied at reporting time.

The counters are two plain dicts on the state, ``interrupt_counts`` and
``delay_counts``, keyed by :data:`COUNTERS` in that order; the routines add to
them in place, with no method call per primitive.  :meth:`CostWeights.cost` is
the one weighted sum of such a dict.

The containers behind the counters are an implementation detail, and the
strategy picks only the charges.  Every list timer, of either list kind,
keeps one container: its delayed task ids sorted by next release
(``queue``), as a FreeRTOS list orders its items by their wake times.  A
delay and a due interrupt each bisect it once, keyed by ``next_release``;
the early-exit guard reads the head's release.  An unsorted list would
release the same tasks, in another order, and the simulator orders the
releases of an instant itself, so chronos-const keeps the sorted container
and charges what an append and a full scan cost.  A harmonic timer keeps
no list: its slot array is its owners' next releases, walked in (period,
task id) order, and a due slot is occupied iff its owner's next release is
that tick.  Checked mode verifies that a queue is sorted and all after the
timer's tick, and that a slot tick released every owner due since the
timer's previous tick.

A task's next release is its whole delayed state.  As in FreeRTOS, where
the wake time in a task's list item is all that says it still waits, a task
is delayed iff its next release is after its timer's tick: a delay sets a
release after the tick, and a tick releases exactly the tasks whose release
it reaches.

There are two routines, ``tick`` and ``delay_task``.  Each state maps its
strategy once, at construction, to a container kind (``"sorted"``,
``"append"`` or ``"slot"``) that selects the charges; both routines branch
on that kind once per call and never test the strategy.  ``tick`` returns
the tasks it released; the simulator owns the ready list and orders the
releases of an instant.
``delay_task`` takes the whole ordered batch of jobs that ended since the
last interrupt instant and charges the counters once per batch, with the
same totals as one call per job.  A task's next release is the first
multiple of its period after its timer's tick, so a job ending at one of its
own release instants has consumed that release.  The batch is walked in
runs: maximal stretches of consecutive tasks with one timer and one period,
which share one next release.  A run enters its list with one bisection and
one slice insert, at the positions that one insert per task, each after its
ties, would reach; a run of one is a plain insert.

The per-timer runtimes are slotted dataclasses.  The per-task state is two
lists on the dispatcher state, indexed by task id (ids are dense 1..n):
``next_release``, and ``run_of``, the task's run key, a (timer runtime,
period) tuple shared by every task of that timer and period.
"""

from __future__ import annotations

import enum
import operator
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from typing import Sequence

from .errors import ConfigError, InvariantViolation, UsageError
from .model import Mapping, TaskSet, is_harmonic_chain

# Largest representable time value; compared against, never incremented.
TIME_MAX = 2**63 - 1


class Strategy(enum.Enum):
    BASELINE = "baseline"
    CHRONOS = "chronos"
    CHRONOS_CONST = "chronos-const"
    CHRONOS_HARMONIC = "chronos-harmonic"


# The counter names, in the key order of every counter dict.
COUNTERS = (
    "interrupt",
    "tick_increment",
    "comparison",
    "list_remove",
    "sorted_insert_step",
    "list_append",
    "slot_write",
    "ready_insert",
)


@dataclass(frozen=True)
class CostWeights:
    """Unit weights for the abstract cost model.

    The defaults are calibration-free abstractions, not measured values:
    ticking and comparing cost 1, unlinking a list node 2, each traversal
    step of a sorted insert 1, appending 1, writing a slot 1, inserting into
    the ready list 1, and every interrupt pays a fixed 10 for entry/exit.
    A weight may be zero but not negative: a cost is never a credit.
    """

    tick_increment: int = 1
    comparison: int = 1
    list_remove: int = 2
    sorted_insert_step: int = 1
    list_append: int = 1
    slot_write: int = 1
    ready_insert: int = 1
    interrupt_entry_exit: int = 10

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise UsageError(f"cost weight {f.name} must be >= 0, "
                                 f"got {getattr(self, f.name)}")
        # The weight of each counter, in COUNTERS order; not a field.
        object.__setattr__(self, "_by_counter",
                           tuple(self.weight_of(c) for c in COUNTERS))

    def weight_of(self, counter: str) -> int:
        if counter == "interrupt":
            return self.interrupt_entry_exit
        return getattr(self, counter)

    def cost(self, counts: dict[str, int]) -> int:
        """sum(count * weight) over a counter dict keyed in COUNTERS order."""
        return sum(map(operator.mul, counts.values(), self._by_counter))


@dataclass(slots=True)
class _TimerRuntime:
    timer_id: int
    period: int
    tick: int = 0
    queue: list[int] = field(default_factory=list)  # list timers: delayed tasks
    slot_owners: tuple[int, ...] = ()               # harmonic, by period rank
    slot_periods: tuple[int, ...] = ()


class DispatcherState:
    """Per-timer tick counters and delayed-task containers.

    Single-threaded by contract; the simulator owns it exclusively.  Every
    task starts ready, that is, in no container, because every next release
    and every tick starts at 0: the first ``delay_task`` of a task puts it in
    one.  ``next_release`` and ``run_of`` are indexed by task id; index 0 is
    unused.  A delayed-list insert finds its position by binary search; a
    sorted strategy's modelled cost charges the position.
    The mapping must already be validated against the task set
    (:meth:`Mapping.validate`); :func:`.sim.run` does that once per run.
    """

    def __init__(self, task_set: TaskSet, mapping: Mapping, strategy: Strategy,
                 check_invariants: bool = False):
        if strategy is Strategy.BASELINE:
            # One timer at the period factor (model.single_timer_mapping).
            if len(mapping.used_timers()) != 1:
                raise ConfigError("the baseline strategy requires a single timer")
        if strategy is Strategy.CHRONOS_HARMONIC:
            for timer_id, task_ids in mapping.groups().items():
                periods = [task_set.by_id(t).period for t in task_ids]
                if not is_harmonic_chain(periods):
                    raise ConfigError(
                        f"timer {timer_id} group has non-harmonic periods "
                        f"{sorted(set(periods))}"
                    )
        self.check_invariants = check_invariants
        self.interrupt_counts = dict.fromkeys(COUNTERS, 0)
        self.delay_counts = dict.fromkeys(COUNTERS, 0)
        self.skip_events: list[tuple[int, int, int]] = []  # (tick, timer, task)
        self.timers: dict[int, _TimerRuntime] = {}
        for tc in sorted(mapping.timers, key=lambda c: c.id):
            self.timers[tc.id] = _TimerRuntime(timer_id=tc.id, period=tc.period)
        self.next_release: list[int] = [0] * (task_set.n + 1)
        self.run_of: list[tuple[_TimerRuntime, int] | None] = [None] * (task_set.n + 1)
        # Tasks of one timer and one period share one run key object, so a
        # batch finds the ends of its runs by identity.
        runs: dict[tuple[int, int], tuple[_TimerRuntime, int]] = {}
        for task in task_set.tasks:
            timer = self.timers[mapping.assignment[task.id]]
            self.run_of[task.id] = runs.setdefault(
                (timer.timer_id, task.period), (timer, task.period))
        # The container kind, the one place a strategy picks its charges:
        # "sorted" lists (baseline, chronos), "append" lists (chronos-const)
        # or "slot" arrays (chronos-harmonic).
        self.container = {Strategy.CHRONOS_CONST: "append",
                          Strategy.CHRONOS_HARMONIC: "slot"}.get(strategy, "sorted")
        if self.container == "slot":
            for timer_id, task_ids in mapping.groups().items():
                ordered = sorted(task_ids, key=lambda t: (task_set.by_id(t).period, t))
                ts = self.timers[timer_id]
                ts.slot_owners = tuple(ordered)
                ts.slot_periods = tuple(task_set.by_id(t).period for t in ordered)

    # -- invariant checking ----------------------------------------------

    def _check(self, timer_id: int, released: list[int] | None = None) -> None:
        """Checked mode only; both routines call it when ``check_invariants``.

        Every tick must be a multiple of its timer's period.  A list's tasks
        must be in order of next release, and all after the tick: a listed
        task due at or before it would read as ready while it waits.
        ``tick`` on a slot array passes the owners it ``released``, and every
        owner whose next release falls in (previous tick, tick] must be among
        them: ``tick`` releases an owner only at a tick its slot is due at
        and equal to its release, and an owner due since the previous tick
        but not released would turn ready without ever being released.
        """
        ts = self.timers[timer_id]
        tick_ = ts.tick
        if tick_ % ts.period != 0:
            raise InvariantViolation(
                f"timer {timer_id}: tick {tick_} is not a multiple of {ts.period}"
            )
        next_release = self.next_release
        if self.container == "slot":
            if released is not None:
                previous = tick_ - ts.period
                for owner in ts.slot_owners:
                    due = next_release[owner]
                    if previous < due <= tick_ and owner not in released:
                        raise InvariantViolation(
                            f"timer {timer_id}, tick {tick_}: the slot of task "
                            f"{owner} is occupied, due at {due}"
                        )
            return
        pending = [next_release[t] for t in ts.queue]
        if pending != sorted(pending):
            raise InvariantViolation(
                f"timer {timer_id}: delayed list is not sorted: {pending}"
            )
        if pending and pending[0] <= tick_:
            raise InvariantViolation(
                f"timer {timer_id}: delayed task {ts.queue[0]} is due at "
                f"{pending[0]}, not after tick {tick_}"
            )


# ---------------------------------------------------------------------------
# Interrupt handler
# ---------------------------------------------------------------------------

def tick(state: DispatcherState, timer_id: int) -> list[int]:
    """Execute one tick interrupt of the given timer; return the released tasks.

    Every interrupt pays its entry/exit and one tick increment.  A slot array
    releases its slots in period order until one is not due, one comparison
    per inspected slot and one ``slot_write`` per released slot.  A due slot
    is occupied iff its owner's next release is this tick, and the owner is
    released.  A due slot whose owner's next release is earlier is vacant:
    the task is still ready, so it is skipped and recorded as a
    potential-deadline-miss observation.  A due slot whose owner is delayed
    to a later instant raises ``InvariantViolation``: the real array would
    release that task now, early, so the model would no longer describe it.
    A slot array has no early-exit guard: the slot with the smallest period
    is due at every interrupt of a properly configured timer.  A list pays
    one comparison for the guard against its earliest release (its head's
    next release; an empty list always exits) and stops there unless a task
    is due.  The due tasks, the prefix due no later than the tick found by
    one bisection, are then removed, one ``list_remove`` each.  A sorted
    list is charged as if it popped them one by one: one comparison per due
    head plus one for the first pending head, if any.  An unsorted list is
    charged its full scan: one comparison per entry.  A released task's next
    release stays where it is, at or before the tick, which is what makes it
    ready.
    """
    ts = state.timers[timer_id]
    counts = state.interrupt_counts
    counts["interrupt"] += 1
    counts["tick_increment"] += 1
    ts.tick += ts.period
    tick_ = ts.tick
    released: list[int] = []
    next_release = state.next_release
    if state.container == "slot":
        inspected = 0  # period-divisibility inspections
        for owner, slot_period in zip(ts.slot_owners, ts.slot_periods):
            inspected += 1
            if tick_ % slot_period != 0:
                break
            due = next_release[owner]
            if due == tick_:
                released.append(owner)
            elif due < tick_:
                state.skip_events.append((tick_, timer_id, owner))
            else:
                raise InvariantViolation(
                    f"timer {timer_id}, tick {tick_}: the slot of task {owner} "
                    f"is due, but the task is delayed to {due}"
                )
        counts["comparison"] += inspected
        counts["slot_write"] += len(released)  # one write per released slot
    else:
        queue = ts.queue
        if not queue or tick_ < next_release[queue[0]]:
            counts["comparison"] += 1  # the early-exit guard
        else:
            due = bisect_right(queue, tick_, key=next_release.__getitem__)
            if state.container == "append":
                counts["comparison"] += 1 + len(queue)  # guard, one per entry
            elif due < len(queue):
                counts["comparison"] += due + 2  # guard, due heads, pending head
            else:
                counts["comparison"] += due + 1  # guard, due heads
            counts["list_remove"] += due
            released = queue[:due]
            del queue[:due]
    counts["ready_insert"] += len(released)
    if state.check_invariants:
        state._check(timer_id, released)
    return released


# ---------------------------------------------------------------------------
# Delay path
# ---------------------------------------------------------------------------

def delay_task(state: DispatcherState, task_ids: Sequence[int]) -> None:
    """Delay the finished jobs of ``task_ids``, in order, until their next releases.

    A task's next release is the first multiple of its period after its
    timer's tick: a job ending at one of its own release instants has
    consumed that release.  Each task enters its timer's container as if
    delayed alone: a list task goes after every entry due no later, a slot
    owner just takes its next release.  The batch is taken one run at a
    time, a run being a maximal stretch of consecutive tasks with one timer
    and one period: its release is computed and its timer's tick read once,
    and a list receives the whole run by one slice insert at the bisection
    point after its ties, where n inserts one by one would put it.  A task
    already delayed, that is, whose next release is after its timer's tick,
    raises ``InvariantViolation`` once the tasks before it are in their
    containers.  A sorted list is charged one ``sorted_insert_step`` per
    entry it passes (the insert position; n * pos + n * (n - 1) / 2 for a
    run of n landing at pos), an unsorted list one ``list_append`` and a
    slot array one ``slot_write``.  Each also costs one ``comparison`` to
    refresh the timer's earliest release, which the guard reads; a slot
    write is charged it too, though a slot array has no guard.  The charges
    reach the counters once per call, with the totals of one call per task;
    an empty sequence changes nothing.
    """
    next_release = state.next_release
    run_of = state.run_of
    steps = 0  # the summed insert positions
    run: list[int] = []  # the run in progress, due at ``release`` on ``ts``
    key = ts = release = tick_ = None
    for tid in task_ids:
        if run_of[tid] is not key:
            if run:
                steps += _delay_run(state, ts, release, run)
            key = run_of[tid]
            ts, period = key
            tick_ = ts.tick
            release = (tick_ // period + 1) * period
            run = []
        if next_release[tid] > tick_:
            _delay_run(state, ts, release, run)
            raise InvariantViolation(f"task {tid} is already delayed")
        next_release[tid] = release
        run.append(tid)
    if run:
        steps += _delay_run(state, ts, release, run)
    counts = state.delay_counts
    counts["comparison"] += len(task_ids)
    container = state.container
    if container == "sorted":
        counts["sorted_insert_step"] += steps
    elif container == "append":
        counts["list_append"] += len(task_ids)
    else:
        counts["slot_write"] += len(task_ids)


def _delay_run(state: DispatcherState, ts: _TimerRuntime, release: int,
               run: list[int]) -> int:
    """Put a run due at ``release`` into its timer's container.

    The run's next releases are already written, and its tasks are not yet
    listed.  A list receives it after its entries due no later, by one slice
    insert.  Returns the summed positions of one insert per task, each after
    its ties: the first lands at the bisection point and each next one just
    behind it.  A slot array holds nothing but its owners' next releases, so
    it receives nothing, and the sum is 0.
    """
    steps = 0
    if state.container != "slot":
        queue = ts.queue
        pos = bisect_right(queue, release, key=state.next_release.__getitem__)
        n = len(run)
        queue[pos:pos] = run
        steps = n * pos + n * (n - 1) // 2
    if state.check_invariants:
        state._check(ts.timer_id)
    return steps
