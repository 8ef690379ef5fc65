"""Tick-interrupt routines and task-delay paths over explicit dispatcher state.

Four strategies manage the per-timer containers of delayed tasks:

* ``BASELINE``  - a single timer with period 1 and one sorted delayed list;
  implemented as the sorted-list routine with m=1 so comparisons against the
  multi-timer strategies isolate the multi-timer effect.
* ``CHRONOS``   - per-timer lists sorted ascending by next release; the
  interrupt pops the head while it is due and can exit early.
* ``CHRONOS_CONST`` - unsorted per-timer lists with constant-cost append on
  delay; a due interrupt walks the entire list.
* ``CHRONOS_HARMONIC`` - per-timer fixed slot arrays in ascending period
  order for harmonic groups; a vacant slot at release time flags a potential
  deadline miss.

Every primitive the routines execute is charged to an operation ledger:
one ``interrupt`` entry/exit per interrupt, one ``tick_increment`` per
counter update, one ``comparison`` per examined guard/list entry/slot,
``list_remove``/``list_append``/``slot_write``/``ready_insert`` per
structural update, and one ``sorted_insert_step`` per entry a sorted-list
insert passes, which equals the insert position.  Costs are abstract counts;
weights are applied at reporting time.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass, field

from .errors import ConfigError, InvariantViolation, UsageError
from .model import Mapping, TaskSet, is_harmonic_chain

# Largest representable time value; compared against, never incremented.
TIME_MAX = 2**63 - 1


class Strategy(enum.Enum):
    BASELINE = "baseline"
    CHRONOS = "chronos"
    CHRONOS_CONST = "chronos-const"
    CHRONOS_HARMONIC = "chronos-harmonic"

    @classmethod
    def from_label(cls, label: str) -> "Strategy":
        for member in cls:
            if member.value == label:
                return member
        raise UsageError(
            f"unknown strategy {label!r}; choose from "
            f"{[m.value for m in cls]}"
        )


@dataclass(frozen=True)
class CostWeights:
    """Unit weights for the abstract cost model.

    The defaults are calibration-free abstractions, not measured values:
    ticking and comparing cost 1, unlinking a list node 2, each traversal
    step of a sorted insert 1, appending 1, writing a slot 1, inserting into
    the ready list 1, and every interrupt pays a fixed 10 for entry/exit.
    """

    tick_increment: int = 1
    comparison: int = 1
    list_remove: int = 2
    sorted_insert_step: int = 1
    list_append: int = 1
    slot_write: int = 1
    ready_insert: int = 1
    interrupt_entry_exit: int = 10

    def weight_of(self, counter: str) -> int:
        if counter == "interrupt":
            return self.interrupt_entry_exit
        return getattr(self, counter)


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


@dataclass
class OpCostLedger:
    """Non-negative counters per primitive; total = sum(counter * weight)."""

    counts: dict[str, int] = field(default_factory=lambda: {c: 0 for c in COUNTERS})

    def charge(self, counter: str, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"cannot charge a negative count: {n}")
        self.counts[counter] += n

    def total(self, weights: CostWeights) -> int:
        return sum(count * weights.weight_of(name) for name, count in self.counts.items())

    def snapshot(self) -> dict[str, int]:
        return dict(self.counts)


@dataclass
class _TaskRuntime:
    task_id: int
    period: int
    timer_id: int
    next_release: int = 0
    delayed: bool = False
    slot: int | None = None


@dataclass
class _TimerRuntime:
    timer_id: int
    period: int
    tick: int = 0
    next_release: int = TIME_MAX
    queue: list[int] = field(default_factory=list)          # sorted or append order
    slot_owners: tuple[int, ...] = ()                       # harmonic, by period rank
    slot_periods: tuple[int, ...] = ()
    slots: list[int | None] = field(default_factory=list)   # None = task is released


class DispatcherState:
    """Per-timer tick counters and delayed-task containers plus the ready list.

    Single-threaded by contract; the simulator owns it exclusively.  The
    ready list is kept ordered by (period, task id), so its content does not
    depend on the order in which timers released tasks at the same instant.
    Both sorted inserts (ready list, sorted delayed lists) find their
    position by binary search; the modelled cost charges the position.
    """

    def __init__(self, task_set: TaskSet, mapping: Mapping, strategy: Strategy,
                 check_invariants: bool = False):
        mapping.validate(task_set)
        if strategy is Strategy.BASELINE:
            # Period 1 at base scale; period-factor sweeps scale it uniformly.
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
        self.strategy = strategy
        self.check_invariants = check_invariants
        self.interrupt_ledger = OpCostLedger()
        self.delay_ledger = OpCostLedger()
        self.ready: list[int] = []
        self._ready_key = {t.id: (t.period, t.id) for t in task_set.tasks}
        self.skip_events: list[tuple[int, int, int]] = []  # (tick, timer, task)
        self.tasks: dict[int, _TaskRuntime] = {}
        self.timers: dict[int, _TimerRuntime] = {}
        for tc in sorted(mapping.timers, key=lambda c: c.id):
            self.timers[tc.id] = _TimerRuntime(timer_id=tc.id, period=tc.period)
        for task in task_set.tasks:
            timer_id = mapping.assignment[task.id]
            self.tasks[task.id] = _TaskRuntime(
                task_id=task.id, period=task.period, timer_id=timer_id
            )
        if strategy is Strategy.CHRONOS_HARMONIC:
            for timer_id, task_ids in mapping.groups().items():
                ordered = sorted(task_ids, key=lambda t: (task_set.by_id(t).period, t))
                ts = self.timers[timer_id]
                ts.slot_owners = tuple(ordered)
                ts.slot_periods = tuple(task_set.by_id(t).period for t in ordered)
                ts.slots = [None] * len(ordered)
                for rank, tid in enumerate(ordered):
                    self.tasks[tid].slot = rank
        # All tasks start ready at time 0 (the synchronous release); the
        # initial population is not charged to any ledger.
        for task in task_set.tasks:
            self._insert_ready(task.id, charge=False)

    # -- ready list ------------------------------------------------------

    def _insert_ready(self, task_id: int, charge: bool = True) -> None:
        key = self._ready_key
        pos = bisect.bisect_right(self.ready, key[task_id], key=key.__getitem__)
        self.ready.insert(pos, task_id)
        if charge:
            self.interrupt_ledger.charge("ready_insert")

    def take_ready(self) -> list[int]:
        """Drain the ready list (used by the simulator once per instant)."""
        out = self.ready
        self.ready = []
        return out

    # -- invariant checking ----------------------------------------------

    def _check(self, timer_id: int) -> None:
        if not self.check_invariants:
            return
        ts = self.timers[timer_id]
        if ts.tick % ts.period != 0:
            raise InvariantViolation(
                f"timer {timer_id}: tick {ts.tick} is not a multiple of {ts.period}"
            )
        if self.strategy is Strategy.CHRONOS_HARMONIC:
            pending = [self.tasks[t].next_release for t in ts.slots if t is not None]
        else:
            pending = [self.tasks[t].next_release for t in ts.queue]
            if self.strategy is not Strategy.CHRONOS_CONST:
                if pending != sorted(pending):
                    raise InvariantViolation(
                        f"timer {timer_id}: delayed list is not sorted: {pending}"
                    )
        expected = min(pending) if pending else TIME_MAX
        if ts.next_release != expected:
            raise InvariantViolation(
                f"timer {timer_id}: cached next release {ts.next_release} "
                f"!= actual minimum {expected}"
            )


# ---------------------------------------------------------------------------
# Interrupt routines
# ---------------------------------------------------------------------------

def tick(state: DispatcherState, timer_id: int) -> list[int]:
    """Execute one tick interrupt of the given timer under the state's strategy."""
    if state.strategy is Strategy.CHRONOS_CONST:
        return tick_chronos_const(state, timer_id)
    if state.strategy is Strategy.CHRONOS_HARMONIC:
        return tick_chronos_harmonic(state, timer_id)
    return tick_chronos(state, timer_id)


def tick_chronos(state: DispatcherState, timer_id: int) -> list[int]:
    """Sorted-list interrupt: pop due heads, stop at the first pending task.

    With an empty list the cached next release is parked at the maximum
    sentinel so later interrupts always exit early.
    """
    ts = state.timers[timer_id]
    led = state.interrupt_ledger
    led.charge("interrupt")
    led.charge("tick_increment")
    ts.tick += ts.period
    released: list[int] = []
    led.charge("comparison")  # early-exit guard
    if ts.tick >= ts.next_release:
        while True:
            if not ts.queue:
                ts.next_release = TIME_MAX
                break
            head = state.tasks[ts.queue[0]]
            led.charge("comparison")
            if head.next_release > ts.tick:
                ts.next_release = head.next_release
                break
            ts.queue.pop(0)
            led.charge("list_remove")
            head.delayed = False
            state._insert_ready(head.task_id)
            released.append(head.task_id)
    state._check(timer_id)
    return released


def tick_chronos_const(state: DispatcherState, timer_id: int) -> list[int]:
    """Unsorted-list interrupt: when due, inspect every entry exactly once.

    The cached next release is rebuilt while walking; removing an entry keeps
    the walk position on its successor.
    """
    ts = state.timers[timer_id]
    led = state.interrupt_ledger
    led.charge("interrupt")
    led.charge("tick_increment")
    ts.tick += ts.period
    released: list[int] = []
    led.charge("comparison")  # early-exit guard
    if ts.tick >= ts.next_release:
        ts.next_release = TIME_MAX
        idx = 0
        while idx < len(ts.queue):
            entry = state.tasks[ts.queue[idx]]
            led.charge("comparison")  # one inspection per entry
            if entry.next_release > ts.tick:
                if entry.next_release < ts.next_release:
                    ts.next_release = entry.next_release
                idx += 1
            else:
                ts.queue.pop(idx)  # successor slides into idx
                led.charge("list_remove")
                entry.delayed = False
                state._insert_ready(entry.task_id)
                released.append(entry.task_id)
    state._check(timer_id)
    return released


def tick_chronos_harmonic(state: DispatcherState, timer_id: int) -> list[int]:
    """Slot-array interrupt: release slots in period order until one is not due.

    A due slot that is vacant means the task is still ready; it is skipped
    and recorded as a potential-deadline-miss observation.  There is no
    early-exit guard: the slot with the smallest period is due at every
    interrupt of a properly configured timer.
    """
    ts = state.timers[timer_id]
    led = state.interrupt_ledger
    led.charge("interrupt")
    led.charge("tick_increment")
    ts.tick += ts.period
    released: list[int] = []
    for rank, slot_period in enumerate(ts.slot_periods):
        led.charge("comparison")  # period-divisibility inspection
        if ts.tick % slot_period != 0:
            break
        occupant = ts.slots[rank]
        if occupant is None:
            state.skip_events.append((ts.tick, timer_id, ts.slot_owners[rank]))
            continue
        ts.slots[rank] = None
        led.charge("slot_write")
        entry = state.tasks[occupant]
        entry.delayed = False
        state._insert_ready(occupant)
        released.append(occupant)
    # Bookkeeping only (the routine itself never consults the cache): keep
    # the cached next release coherent for the stated state invariant.
    pending = [state.tasks[t].next_release for t in ts.slots if t is not None]
    ts.next_release = min(pending) if pending else TIME_MAX
    state._check(timer_id)
    return released


def tick_baseline(state: DispatcherState) -> list[int]:
    """Single-timer interrupt with period 1; same logic as the sorted-list tick."""
    timers = list(state.timers.values())
    if len(timers) != 1 or timers[0].period != 1:
        raise UsageError("tick_baseline requires exactly one timer with period 1")
    return tick_chronos(state, timers[0].timer_id)


# ---------------------------------------------------------------------------
# Delay path
# ---------------------------------------------------------------------------

def delay_task(state: DispatcherState, task_id: int, now: int) -> None:
    """Delay a finished job until its task's next release.

    The next release is the smallest multiple of the period strictly greater
    than ``now``: a job completing exactly at one of its own release times has
    already consumed that release.  The sorted-list strategies insert after
    every entry due no later than the new one and charge one
    ``sorted_insert_step`` per such entry, i.e. the insert position.
    """
    entry = state.tasks[task_id]
    if entry.delayed:
        raise InvariantViolation(f"task {task_id} is already delayed")
    entry.next_release = (now // entry.period + 1) * entry.period
    ts = state.timers[entry.timer_id]
    led = state.delay_ledger
    if state.strategy is Strategy.CHRONOS_CONST:
        ts.queue.append(task_id)
        led.charge("list_append")
    elif state.strategy is Strategy.CHRONOS_HARMONIC:
        assert entry.slot is not None
        ts.slots[entry.slot] = task_id
        led.charge("slot_write")
    else:
        tasks = state.tasks
        pos = bisect.bisect_right(ts.queue, entry.next_release,
                                  key=lambda t: tasks[t].next_release)
        led.charge("sorted_insert_step", pos)
        ts.queue.insert(pos, task_id)
    entry.delayed = True
    led.charge("comparison")  # refresh the cached earliest release
    if entry.next_release < ts.next_release:
        ts.next_release = entry.next_release
    state._check(entry.timer_id)
