"""Task-set and timer domain types, number-theoretic utilities, and generators.

Time is a discrete integer grid of abstract "time units"; no sub-unit events
exist.  All rate computations use exact rational arithmetic so objective
comparisons are never subject to floating-point ties.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import ConfigError, UsageError

# Exact rational values (reduced integer pairs, positive denominator).
Rational = Fraction

# Hyperperiods beyond this are rejected as not computable at desk scale.
MAX_HYPERPERIOD = 2**62


@dataclass(frozen=True)
class Task:
    """A strictly periodic task: releases jobs at every multiple of its period.

    All tasks start ready at time 0; ``releases_limit`` counts the timer-driven
    releases after that (the job released at k*period for k = 1..limit), so a
    task retires once the job released at ``releases_limit * period`` finishes.
    ``releases_limit=None`` means the task never retires.
    """

    id: int
    wcet: int
    period: int
    deadline: int
    releases_limit: int | None = 5

    def __post_init__(self) -> None:
        if self.id < 1:
            raise UsageError(f"task id must be >= 1, got {self.id}")
        if self.period < 1:
            raise UsageError(f"task {self.id}: period must be >= 1, got {self.period}")
        if self.wcet < 0:
            raise UsageError(f"task {self.id}: wcet must be >= 0, got {self.wcet}")
        if not 1 <= self.deadline <= self.period:
            raise UsageError(
                f"task {self.id}: deadline must satisfy 1 <= D <= period, "
                f"got D={self.deadline}, period={self.period}"
            )
        if self.releases_limit is not None and self.releases_limit < 1:
            raise UsageError(
                f"task {self.id}: releases_limit must be >= 1 or None, "
                f"got {self.releases_limit}"
            )

    @staticmethod
    def implicit(task_id: int, wcet: int, period: int,
                 releases_limit: int | None = 5) -> "Task":
        """Build an implicit-deadline task (deadline equals period)."""
        return Task(id=task_id, wcet=wcet, period=period, deadline=period,
                    releases_limit=releases_limit)


@dataclass(frozen=True)
class TaskSet:
    """An ordered collection of tasks with ids dense in 1..n."""

    tasks: tuple[Task, ...]

    def __post_init__(self) -> None:
        ids = [t.id for t in self.tasks]
        if sorted(ids) != list(range(1, len(ids) + 1)):
            raise UsageError(f"task ids must be unique and dense 1..n, got {sorted(ids)}")

    @property
    def n(self) -> int:
        return len(self.tasks)

    def by_id(self, task_id: int) -> Task:
        for t in self.tasks:
            if t.id == task_id:
                return t
        raise UsageError(f"no task with id {task_id}")

    def periods(self) -> tuple[int, ...]:
        return tuple(t.period for t in self.tasks)

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
            Task(id=t.id, wcet=t.wcet, period=t.period * factor,
                 deadline=t.deadline * factor, releases_limit=t.releases_limit)
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
    are carried but excluded from rate computations.
    """

    timers: tuple[TimerConfig, ...]
    assignment: dict[int, int]  # task id -> timer id

    def __post_init__(self) -> None:
        timer_ids = [tc.id for tc in self.timers]
        if len(set(timer_ids)) != len(timer_ids):
            raise UsageError(f"duplicate timer ids: {timer_ids}")
        known = set(timer_ids)
        for task_id, timer_id in self.assignment.items():
            if timer_id not in known:
                raise UsageError(f"task {task_id} assigned to unknown timer {timer_id}")

    def timer_by_id(self, timer_id: int) -> TimerConfig:
        for tc in self.timers:
            if tc.id == timer_id:
                return tc
        raise UsageError(f"no timer with id {timer_id}")

    def tasks_of(self, timer_id: int) -> tuple[int, ...]:
        return tuple(sorted(t for t, j in self.assignment.items() if j == timer_id))

    def used_timers(self) -> tuple[TimerConfig, ...]:
        used = set(self.assignment.values())
        return tuple(tc for tc in self.timers if tc.id in used)

    def groups(self) -> dict[int, tuple[int, ...]]:
        """Timer id -> assigned task ids, for used timers only."""
        return {tc.id: self.tasks_of(tc.id) for tc in self.used_timers()}

    def validate(self, task_set: TaskSet) -> None:
        """Check the divisibility and completeness invariants against a task set."""
        assigned = set(self.assignment)
        expected = {t.id for t in task_set.tasks}
        if assigned != expected:
            raise UsageError(
                f"every task must be assigned to exactly one timer; "
                f"missing={sorted(expected - assigned)}, unknown={sorted(assigned - expected)}"
            )
        for task in task_set.tasks:
            timer = self.timer_by_id(self.assignment[task.id])
            if task.period % timer.period != 0:
                raise UsageError(
                    f"timer period {timer.period} does not divide period "
                    f"{task.period} of task {task.id}"
                )

    def scaled(self, factor: int) -> "Mapping":
        if factor < 1:
            raise UsageError(f"period factor must be >= 1, got {factor}")
        return Mapping(
            timers=tuple(TimerConfig(tc.id, tc.period * factor) for tc in self.timers),
            assignment=dict(self.assignment),
        )


def single_timer_mapping(task_set: TaskSet, period: int = 1) -> Mapping:
    """All tasks on one timer; the baseline configuration uses period 1."""
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

def gcd_of_periods(periods: Iterable[int]) -> int:
    """Greatest common divisor of a nonempty collection of positive integers."""
    values = list(periods)
    if not values:
        raise UsageError("cannot take the GCD of an empty period set")
    if any(p < 1 for p in values):
        raise UsageError(f"periods must be >= 1, got {values}")
    return math.gcd(*values)


def expected_interrupt_rate(mapping: Mapping) -> Rational:
    """Expected tick interrupts per time unit: sum of 1/period over used timers."""
    rate = Fraction(0)
    for timer in mapping.used_timers():
        rate += Fraction(1, timer.period)
    return rate


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
        tasks.append(Task.implicit(i, wcet=spec.workload, period=period))
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


def rational_to_json(value: Rational) -> dict[str, int]:
    return {"num": value.numerator, "den": value.denominator}


def rational_from_json(obj: dict) -> Rational:
    try:
        return Fraction(_json_int(obj["num"]), _json_int(obj["den"]))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"malformed rational: {obj!r} ({exc})") from exc


def task_set_to_json(task_set: TaskSet) -> dict:
    """Interchange format for all CLI subcommands; integers only.

    ``"releases": null`` marks a task that never retires.
    """
    return {"tasks": [
        {"id": t.id, "period": t.period, "wcet": t.wcet, "deadline": t.deadline,
         "releases": t.releases_limit}
        for t in task_set.tasks
    ]}


def task_set_from_json(obj: dict) -> TaskSet:
    try:
        raw = obj["tasks"]
    except (KeyError, TypeError) as exc:
        raise UsageError("task-set JSON must contain a 'tasks' array") from exc
    tasks = []
    for entry in raw:
        try:
            releases = entry.get("releases", 5)
            tasks.append(Task(
                id=_json_int(entry["id"]),
                wcet=_json_int(entry["wcet"]),
                period=_json_int(entry["period"]),
                deadline=_json_int(entry.get("deadline", entry["period"])),
                releases_limit=None if releases is None else _json_int(releases),
            ))
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
    try:
        raw = obj["timers"]
    except (KeyError, TypeError) as exc:
        raise UsageError("mapping JSON must contain a 'timers' array") from exc
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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"invalid JSON in {path}: {exc}") from exc


def dump_json(obj: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=False)
        fh.write("\n")
