"""Task-set and timer domain types, number-theoretic utilities, and generators.

Time is a discrete integer grid of abstract "time units"; no sub-unit events
exist.  All rate computations use exact rational arithmetic so objective
comparisons are never subject to floating-point ties.

A ``Task`` is a named tuple whose ``__new__`` makes every check, so it is
immutable, equal and hashed by value, and valid whenever it exists, like the
other frozen types here.  It is a tuple rather than a frozen dataclass because
readers build one per task-set entry: a frozen dataclass pays one
``object.__setattr__`` per field plus a ``__post_init__`` call, about half the
cost of reading a 1,600-task file.  Reading a field costs more than on a
dataclass (a tuple field descriptor, about 1.8x on Python 3.11), which loops
over every task can avoid by unpacking.  As a tuple, a task also compares
equal to a plain tuple of the same five fields.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

from .errors import ConfigError, UsageError

# Hyperperiods beyond this are rejected as not computable at desk scale.
MAX_HYPERPERIOD = 2**62


class _TaskFields(NamedTuple):
    id: int
    wcet: int
    period: int
    deadline: int
    releases_limit: int | None = 5


class Task(_TaskFields):
    """A strictly periodic task: releases jobs at every multiple of its period.

    All tasks start ready at time 0; ``releases_limit`` counts the timer-driven
    releases after that (the job released at k*period for k = 1..limit), so a
    task retires once the job released at ``releases_limit * period`` finishes.
    ``releases_limit=None`` means the task never retires.

    ``__new__`` validates every construction, and ``_make`` (which ``_replace``
    calls) goes through it too.
    """

    __slots__ = ()

    def __new__(cls, id: int, wcet: int, period: int, deadline: int,
                releases_limit: int | None = 5) -> "Task":
        if id < 1:
            raise UsageError(f"task id must be >= 1, got {id}")
        if period < 1:
            raise UsageError(f"task {id}: period must be >= 1, got {period}")
        if wcet < 0:
            raise UsageError(f"task {id}: wcet must be >= 0, got {wcet}")
        if not 1 <= deadline <= period:
            raise UsageError(
                f"task {id}: deadline must satisfy 1 <= D <= period, "
                f"got D={deadline}, period={period}"
            )
        if releases_limit is not None and releases_limit < 1:
            raise UsageError(
                f"task {id}: releases_limit must be >= 1 or None, "
                f"got {releases_limit}"
            )
        return tuple.__new__(cls, (id, wcet, period, deadline, releases_limit))

    @classmethod
    def _make(cls, iterable: Iterable) -> "Task":
        return cls(*iterable)

    @staticmethod
    def implicit(task_id: int, wcet: int, period: int,
                 releases_limit: int | None = 5) -> "Task":
        """Build an implicit-deadline task (deadline equals period)."""
        return Task(task_id, wcet, period, period, releases_limit)


def _few(values: list, limit: int = 5) -> str:
    """The first few of a sorted list, and how many there are if that is more."""
    if len(values) <= limit:
        return str(values)
    return f"{str(values[:limit])[:-1]}, ...] ({len(values)} in all)"


@dataclass(frozen=True)
class TaskSet:
    """An ordered collection of tasks with ids dense in 1..n."""

    tasks: tuple[Task, ...]

    def __post_init__(self) -> None:
        ids = [t.id for t in self.tasks]
        n = len(ids)
        if sorted(ids) != list(range(1, n + 1)):
            counts = Counter(ids)
            repeated = sorted(i for i, c in counts.items() if c > 1)
            outside = sorted(i for i in counts if not 1 <= i <= n)
            missing = sorted(set(range(1, n + 1)) - counts.keys())
            found = "; ".join(f"{label} {_few(values)}" for label, values in (
                ("repeated", repeated), (f"outside 1..{n}", outside), ("missing", missing))
                if values)
            raise UsageError(f"task ids must be unique and dense 1..{n}; {found}")
        # Built once; not a field, so equality and repr see only the tasks.
        object.__setattr__(self, "_by_id", dict(zip(ids, self.tasks)))

    @property
    def n(self) -> int:
        return len(self.tasks)

    def by_id(self, task_id: int) -> Task:
        try:
            return self._by_id[task_id]
        except KeyError:
            raise UsageError(f"no task with id {task_id}") from None

    def periods(self) -> tuple[int, ...]:
        return tuple(period for _, _, period, _, _ in self.tasks)

    def distinct_periods(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.periods())))

    def hyperperiod(self, limit: int = MAX_HYPERPERIOD) -> int:
        """LCM of all periods; rejected when it exceeds the configured scale."""
        if not self.tasks:
            raise UsageError("task set is empty")
        h = 1
        for t in self.tasks:
            h = math.lcm(h, t.period)
            if h > limit:
                raise ConfigError(
                    f"hyperperiod exceeds the configured scale ({limit}); "
                    "reduce periods or the period factor"
                )
        return h

    def scaled(self, factor: int) -> "TaskSet":
        """Uniformly scale all periods and deadlines by an integer factor."""
        if factor < 1:
            raise UsageError(f"period factor must be >= 1, got {factor}")
        return TaskSet(tuple(
            Task(t.id, t.wcet, t.period * factor, t.deadline * factor,
                 t.releases_limit)
            for t in self.tasks
        ))


@dataclass(frozen=True)
class TimerConfig:
    """A hardware timer firing an interrupt every ``period`` time units."""

    id: int
    period: int

    def __post_init__(self) -> None:
        if self.period < 1:
            raise UsageError(f"timer {self.id}: period must be >= 1, got {self.period}")


@dataclass(frozen=True)
class Mapping:
    """Assignment of every task to exactly one timer.

    The assignment induces a partition of the task set; timers without tasks
    are carried but excluded from rate computations.  Lookups by timer id
    read indexes built once at construction, so ``assignment`` must not be
    mutated afterwards.
    """

    timers: tuple[TimerConfig, ...]
    assignment: dict[int, int]  # task id -> timer id

    def __post_init__(self) -> None:
        timer_ids = [tc.id for tc in self.timers]
        if len(set(timer_ids)) != len(timer_ids):
            raise UsageError(f"duplicate timer ids: {timer_ids}")
        members: dict[int, list[int]] = {j: [] for j in timer_ids}
        for task_id, timer_id in self.assignment.items():
            if timer_id not in members:
                raise UsageError(f"task {task_id} assigned to unknown timer {timer_id}")
            members[timer_id].append(task_id)
        # Built once; not fields, so equality and repr see only the mapping.
        object.__setattr__(self, "_timer_by_id", dict(zip(timer_ids, self.timers)))
        object.__setattr__(self, "_members", {
            j: tuple(sorted(tasks)) for j, tasks in members.items()})

    def timer_by_id(self, timer_id: int) -> TimerConfig:
        try:
            return self._timer_by_id[timer_id]
        except KeyError:
            raise UsageError(f"no timer with id {timer_id}") from None

    def tasks_of(self, timer_id: int) -> tuple[int, ...]:
        return self._members.get(timer_id, ())

    def used_timers(self) -> tuple[TimerConfig, ...]:
        return tuple(tc for tc in self.timers if self._members[tc.id])

    def groups(self) -> dict[int, tuple[int, ...]]:
        """Timer id -> assigned task ids, for used timers only."""
        return {tc.id: self._members[tc.id] for tc in self.used_timers()}

    def validate(self, task_set: TaskSet) -> None:
        """Check the divisibility and completeness invariants against a task set."""
        assigned = set(self.assignment)
        expected = {task_id for task_id, _, _, _, _ in task_set.tasks}
        if assigned != expected:
            raise UsageError(
                f"every task must be assigned to exactly one timer; "
                f"missing={sorted(expected - assigned)}, unknown={sorted(assigned - expected)}"
            )
        for task_id, _, period, _, _ in task_set.tasks:
            timer = self.timer_by_id(self.assignment[task_id])
            if period % timer.period != 0:
                raise UsageError(
                    f"timer period {timer.period} does not divide period "
                    f"{period} of task {task_id}"
                )

    def scaled(self, factor: int) -> "Mapping":
        if factor < 1:
            raise UsageError(f"period factor must be >= 1, got {factor}")
        return Mapping(
            timers=tuple(TimerConfig(tc.id, tc.period * factor) for tc in self.timers),
            assignment=dict(self.assignment),
        )


def single_timer_mapping(task_set: TaskSet, period: int = 1) -> Mapping:
    """All tasks on one timer; the baseline runs one at the period factor."""
    mapping = Mapping(
        timers=(TimerConfig(id=1, period=period),),
        assignment={t.id: 1 for t in task_set.tasks},
    )
    mapping.validate(task_set)
    return mapping


@dataclass(frozen=True)
class GenerationSpec:
    """Parameters for the seeded task-set generator.

    Each task gets period ``b * r * period_factor`` with ``b`` uniform over
    ``base_periods`` and ``r`` uniform over ``factor_range``.  The harmonic
    flag restricts ``factor_range`` to powers of two so every per-base group
    forms a harmonic chain.
    """

    base_periods: tuple[int, ...]
    factor_range: tuple[int, ...]
    n_tasks: int
    period_factor: int = 1
    rng_seed: int = 0
    workload: int = 1  # wcet, in time units of work per job
    harmonic: bool = False

    def __post_init__(self) -> None:
        if not self.base_periods:
            raise UsageError("base_periods must be nonempty")
        if not self.factor_range:
            raise UsageError("factor_range must be nonempty")
        if any(b < 1 for b in self.base_periods):
            raise UsageError(f"base periods must be >= 1, got {self.base_periods}")
        if any(r < 1 for r in self.factor_range):
            raise UsageError(f"factors must be >= 1, got {self.factor_range}")
        if self.n_tasks < 1:
            raise UsageError(f"n_tasks must be >= 1, got {self.n_tasks}")
        if self.period_factor < 1:
            raise UsageError(f"period_factor must be >= 1, got {self.period_factor}")
        if self.workload < 0:
            raise UsageError(f"workload must be >= 0, got {self.workload}")
        if self.harmonic:
            bad = [r for r in self.factor_range if r & (r - 1) != 0]
            if bad:
                raise UsageError(
                    f"harmonic generation requires power-of-two factors, got {bad}"
                )


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def expected_interrupt_rate(mapping: Mapping) -> Fraction:
    """Expected tick interrupts per time unit: sum of 1/period over used timers."""
    rate = Fraction(0)
    for timer in mapping.used_timers():
        rate += Fraction(1, timer.period)
    return rate


def is_harmonic_chain(periods: Iterable[int]) -> bool:
    """True iff, sorted ascending, every period divides its successor."""
    values = sorted(set(periods))
    if not values:
        raise UsageError("cannot test an empty period set")
    return all(b % a == 0 for a, b in zip(values, values[1:]))


def generate_task_set(spec: GenerationSpec) -> TaskSet:
    """Seeded task-set generation; a pure function of the spec.

    Uses the stdlib Mersenne Twister (``random.Random``) with uniform
    ``choice`` over the sorted base and factor sets, so equal specs yield
    byte-identical task sets on every platform.
    """
    rng = random.Random(spec.rng_seed)
    bases = sorted(spec.base_periods)
    factors = sorted(spec.factor_range)
    tasks = []
    for i in range(1, spec.n_tasks + 1):
        b = rng.choice(bases)
        r = rng.choice(factors)
        period = b * r * spec.period_factor
        tasks.append(Task.implicit(i, spec.workload, period))
    return TaskSet(tuple(tasks))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _json_int(value: object) -> int:
    """A JSON integer as is; floats, strings and booleans are not coerced.

    The exact type test also rejects ``True`` and ``False``, whose type is
    ``bool``, a subclass of ``int``.
    """
    if type(value) is not int:
        raise TypeError(f"expected a JSON integer, got {value!r}")
    return value


def rational_to_json(value: Fraction) -> dict[str, int]:
    return {"num": value.numerator, "den": value.denominator}


def rational_from_json(obj: dict) -> Fraction:
    try:
        return Fraction(_json_int(obj["num"]), _json_int(obj["den"]))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"malformed rational: {obj!r} ({exc})") from exc


def task_set_to_json(task_set: TaskSet) -> dict:
    """Interchange format for all CLI subcommands; integers only.

    ``"releases": null`` marks a task that never retires.
    """
    return {"tasks": [
        {"id": task_id, "period": period, "wcet": wcet, "deadline": deadline,
         "releases": releases}
        for task_id, wcet, period, deadline, releases in task_set.tasks
    ]}


def _task_fields(entry: dict) -> tuple:
    """A task entry's five fields, checked one at a time in a fixed order."""
    releases = entry.get("releases", 5)
    return (_json_int(entry["id"]), _json_int(entry["wcet"]),
            _json_int(entry["period"]),
            _json_int(entry.get("deadline", entry["period"])),
            None if releases is None else _json_int(releases))


def task_set_from_json(obj: dict) -> TaskSet:
    raw = obj.get("tasks") if isinstance(obj, dict) else None
    if type(raw) is not list:
        raise UsageError("task-set JSON must contain a 'tasks' array")
    tasks = []
    for entry in raw:
        try:
            task_id, wcet, period = entry.get("id"), entry.get("wcet"), entry.get("period")
            deadline = entry.get("deadline", period)
            releases = entry.get("releases", 5)
            # Four JSON integers and an integer or null read inline; any other
            # entry is read field by field, which raises the precise error.
            if not (type(task_id) is type(wcet) is type(period) is type(deadline) is int
                    and (releases is None or type(releases) is int)):
                task_id, wcet, period, deadline, releases = _task_fields(entry)
            tasks.append(Task(task_id, wcet, period, deadline, releases))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"malformed task entry: {entry!r} ({exc})") from exc
    return TaskSet(tuple(tasks))


def mapping_to_json(mapping: Mapping) -> dict:
    return {
        "timers": [
            {"id": tc.id, "period": tc.period, "tasks": list(mapping.tasks_of(tc.id))}
            for tc in mapping.timers
        ]
    }


def mapping_from_json(obj: dict) -> Mapping:
    raw = obj.get("timers") if isinstance(obj, dict) else None
    if type(raw) is not list:
        raise UsageError("mapping JSON must contain a 'timers' array")
    timers = []
    assignment: dict[int, int] = {}
    for entry in raw:
        try:
            tc = TimerConfig(id=_json_int(entry["id"]),
                             period=_json_int(entry["period"]))
            timers.append(tc)
            for task_id in entry.get("tasks", []):
                task_id = _json_int(task_id)
                if task_id in assignment:
                    raise UsageError(f"task {task_id} assigned to multiple timers")
                assignment[task_id] = tc.id
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"malformed timer entry: {entry!r} ({exc})") from exc
    return Mapping(timers=tuple(timers), assignment=assignment)


def load_json(path: str) -> dict:
    """Parse a JSON file; unreadable or malformed files are input errors.

    Malformed covers invalid JSON, bytes that are not UTF-8 and integers past
    the interpreter's digit limit (all ``ValueError``) and nesting too deep to
    decode (``RecursionError``).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise UsageError(f"invalid JSON in {path}: {exc}") from exc


def dump_json(obj: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=False)
        fh.write("\n")
