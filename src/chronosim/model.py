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
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from operator import itemgetter, mod
from typing import Iterable, Iterator, NamedTuple

from .errors import UsageError

# Field readers for whole-task-set passes that stay in C (``map``).
_task_id = itemgetter(0)
_task_period = itemgetter(2)


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
        ids = list(map(_task_id, self.tasks))
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
        return tuple(map(_task_period, self.tasks))

    def distinct_periods(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.periods())))

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
    read an index built once at construction, so ``assignment`` must not be
    mutated afterwards.
    """

    timers: tuple[TimerConfig, ...]
    assignment: dict[int, int]  # task id -> timer id

    def __post_init__(self) -> None:
        timer_ids = [tc.id for tc in self.timers]
        known = set(timer_ids)
        if len(known) != len(timer_ids):
            raise UsageError(f"duplicate timer ids: {timer_ids}")
        if not known.issuperset(self.assignment.values()):
            for task_id, timer_id in self.assignment.items():
                if timer_id not in known:
                    raise UsageError(
                        f"task {task_id} assigned to unknown timer {timer_id}")
        members: dict[int, list[int]] = {j: [] for j in timer_ids}
        for task_id, timer_id in self.assignment.items():
            members[timer_id].append(task_id)
        # Built once; not a field, so equality and repr see only the mapping.
        object.__setattr__(self, "_members", {
            j: tuple(sorted(tasks)) for j, tasks in members.items()})

    def tasks_of(self, timer_id: int) -> tuple[int, ...]:
        return self._members.get(timer_id, ())

    def used_timers(self) -> tuple[TimerConfig, ...]:
        return tuple(tc for tc in self.timers if self._members[tc.id])

    def groups(self) -> dict[int, tuple[int, ...]]:
        """Timer id -> assigned task ids, for used timers only."""
        return {tc.id: self._members[tc.id] for tc in self.used_timers()}

    def validate(self, task_set: TaskSet) -> None:
        """Check the divisibility and completeness invariants against a task set.

        The checks run in C (``map``) over every task; only a failed check
        walks the tasks in order to name the first offender.
        """
        # The task set's id index iterates its ids in task order.
        task_ids = task_set._by_id.keys()
        assigned = self.assignment.keys()
        if assigned != task_ids:
            raise UsageError(
                f"every task must be assigned to exactly one timer; "
                f"missing={_few(sorted(task_ids - assigned))}, "
                f"unknown={_few(sorted(assigned - task_ids))}"
            )
        timer_period = {tc.id: tc.period for tc in self.timers}
        timer_periods = map(timer_period.__getitem__,
                            map(self.assignment.__getitem__, task_ids))
        if any(map(mod, map(_task_period, task_set.tasks), timer_periods)):
            for task_id, _, period, _, _ in task_set.tasks:
                divisor = timer_period[self.assignment[task_id]]
                if period % divisor:
                    raise UsageError(
                        f"timer period {divisor} does not divide period "
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
    flag requires ``factor_range`` to hold powers of two, so every per-base
    group forms a harmonic chain.
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


def task_set_to_json(task_set: TaskSet) -> dict:
    """Interchange format for all CLI subcommands; integers only.

    ``"releases": null`` marks a task that never retires.
    """
    return {"tasks": [
        {"id": task_id, "period": period, "wcet": wcet, "deadline": deadline,
         "releases": releases}
        for task_id, wcet, period, deadline, releases in task_set.tasks
    ]}


# The keys of a task entry, of which ``deadline`` and ``releases`` may be
# left out; of a task-set file; of a timer entry; and of a mapping file, as
# ``OptimizationResult.to_json`` writes one.
TASK_KEYS = frozenset(("id", "period", "wcet", "deadline", "releases"))
TASK_SET_KEYS = frozenset(("tasks",))
TIMER_KEYS = frozenset(("id", "period", "tasks"))
MAPPING_KEYS = frozenset(("timers", "objective", "timers_used", "method", "stats"))


def check_keys(keys: Iterable, allowed: frozenset, where: str) -> None:
    """Reject input keys outside ``allowed``, naming them: a misspelled
    optional key would otherwise leave its field at the default."""
    unknown = set(keys) - allowed
    if unknown:
        raise UsageError(f"unknown {where} keys: {sorted(unknown)}")


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
    check_keys(set().union(*raw), TASK_KEYS, "task")  # every entry is a dict
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
    check_keys(obj, MAPPING_KEYS, "mapping")
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
    check_keys(set().union(*raw), TIMER_KEYS, "timer")  # every entry is a dict
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


def _json_key(key: object) -> str:
    """A dict key as JSON text, under the stdlib's rules for non-string keys."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if isinstance(key, (int, float)) or key is None:
        return f'"{json.dumps(key)}"'
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _json_scalar(value: object) -> str:
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    return json.dumps(value)


def _json_chunks(value: object, newline: str = "\n") -> Iterator[str]:
    """The text of ``json.dumps(value, indent=2)``, in chunks.

    A container whose items are all scalars is one chunk, joined in C, and
    plain ``int`` items skip even the scalar call; any other container yields
    one chunk per item.  Strings go through the encoder ``json`` itself uses,
    and floats, booleans, ``None`` and non-string keys through ``json.dumps``,
    so the stdlib's rules still decide them.
    """
    if isinstance(value, dict):
        try:
            keys = list(map(encode_basestring_ascii, value))
        except TypeError:
            keys = list(map(_json_key, value))
        items, opener, closer = value.values(), "{", "}"
    elif isinstance(value, (list, tuple)):
        keys, items, opener, closer = None, value, "[", "]"
    else:
        yield _json_scalar(value)
        return
    if not items:
        yield opener + closer
        return
    inner = newline + "  "
    types = set(map(type, items))
    if types == {int}:
        texts = map(int.__repr__, items)
    elif not any(issubclass(t, (list, tuple, dict)) for t in types):
        texts = map(_json_scalar, items)
    else:
        yield opener
        for i, item in enumerate(items):
            yield ("," if i else "") + inner + (keys[i] + ": " if keys else "")
            yield from _json_chunks(item, inner)
        yield newline + closer
        return
    if keys is not None:
        texts = [f"{key}: {text}" for key, text in zip(keys, texts)]
    yield opener + inner + ("," + inner).join(texts) + newline + closer


def dump_json(obj: dict, path: str) -> None:
    """Write the text of ``json.dumps(obj, indent=2)`` and a newline.

    With ``indent``, ``json.dump`` always runs the stdlib's pure-Python
    encoder, one generator step and one write per scalar; this writer makes
    one chunk per container of scalars instead.  It streams the chunks, since
    one ``json.dumps`` of the whole document would hold all of its text.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_json_chunks(obj))
        fh.write("\n")
