"""Domain types, number-theoretic utilities, and the task-set generator."""

import json
import math
import pickle
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronosim import cli
from chronosim.errors import UsageError
from chronosim.model import (
    GenerationSpec,
    Mapping,
    Task,
    TaskSet,
    TimerConfig,
    expected_interrupt_rate,
    dump_json,
    generate_task_set,
    is_harmonic_chain,
    mapping_from_json,
    mapping_to_json,
    rational_to_json,
    single_timer_mapping,
    task_set_from_json,
    task_set_to_json,
)
from oracles import hyperperiod, rational_from_json, required_ticks


def make_task_set(periods, wcet=0, releases=None):
    return TaskSet(tuple(
        Task.implicit(i + 1, wcet=wcet, period=p, releases_limit=releases)
        for i, p in enumerate(periods)
    ))


# ---------------------------------------------------------------------------
# Task / TaskSet invariants
# ---------------------------------------------------------------------------

class TestTask:
    def test_implicit_deadline_defaults_to_period(self):
        t = Task.implicit(1, wcet=2, period=6)
        assert t.deadline == 6
        assert t.releases_limit == 5

    @pytest.mark.parametrize("kwargs", [
        dict(id=1, wcet=1, period=0, deadline=1),
        dict(id=1, wcet=-1, period=4, deadline=4),
        dict(id=1, wcet=1, period=4, deadline=0),
        dict(id=1, wcet=1, period=4, deadline=5),
        dict(id=1, wcet=1, period=4, deadline=4, releases_limit=0),
        dict(id=0, wcet=1, period=4, deadline=4),
    ])
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(UsageError):
            Task(**kwargs)

    def test_ids_must_be_dense(self):
        with pytest.raises(UsageError):
            TaskSet((Task.implicit(1, 0, 2), Task.implicit(3, 0, 4)))
        with pytest.raises(UsageError):
            TaskSet((Task.implicit(1, 0, 2), Task.implicit(1, 0, 4)))

    @pytest.mark.parametrize("ids, found", [
        ([1, 1], "repeated [1]; missing [2]"),
        ([2, 9], "outside 1..2 [9]; missing [1]"),
        ([1] * 8, "repeated [1]; missing [2, 3, 4, 5, 6, ...] (7 in all)"),
        (list(range(10, 18)) * 2,
         "repeated [10, 11, 12, 13, 14, ...] (8 in all); outside 1..16 [17]; "
         "missing [1, 2, 3, 4, 5, ...] (9 in all)"),
    ])
    def test_id_error_names_a_few_repeated_and_missing_ids(self, ids, found):
        with pytest.raises(UsageError) as exc:
            TaskSet(tuple(Task.implicit(i, 0, 2) for i in ids))
        assert str(exc.value) == (
            f"task ids must be unique and dense 1..{len(ids)}; {found}")

    def test_hyperperiod(self):
        assert hyperperiod(make_task_set([2, 5])) == 10
        assert hyperperiod(make_task_set([3, 6, 12])) == 12

    def test_scaled(self):
        base = make_task_set([2, 5])
        ts = base.scaled(3)
        assert ts.periods() == (6, 15)
        assert [t.deadline for t in ts.tasks] == [6, 15]
        mapping = Mapping(timers=(TimerConfig(1, 2), TimerConfig(2, 5)),
                          assignment={1: 1, 2: 2})
        assert [tc.period for tc in mapping.scaled(3).timers] == [6, 15]
        # Both types are frozen, so factor 1 hands back the object itself.
        assert base.scaled(1) is base
        assert mapping.scaled(1) is mapping
        for obj in (base, mapping):
            with pytest.raises(UsageError, match="period factor must be >= 1"):
                obj.scaled(0)


VALID_FIELDS = dict(id=1, wcet=1, period=4, deadline=4, releases_limit=5)

# (field, bad value, the message every build path raises for it)
INVALID_FIELDS = [
    ("id", 0, "task id must be >= 1, got 0"),
    ("period", 0, "task 1: period must be >= 1, got 0"),
    ("wcet", -1, "task 1: wcet must be >= 0, got -1"),
    ("deadline", 0,
     "task 1: deadline must satisfy 1 <= D <= period, got D=0, period=4"),
    ("deadline", 5,
     "task 1: deadline must satisfy 1 <= D <= period, got D=5, period=4"),
    ("releases_limit", 0, "task 1: releases_limit must be >= 1 or None, got 0"),
]


def unchecked_task_set(fields):
    """A stand-in task set holding one task that was never validated, for the
    paths that rebuild the tasks of an existing set."""
    return SimpleNamespace(tasks=(SimpleNamespace(**fields),))


def scaled_by_two(fields):
    """The first task of a stand-in set holding half of ``fields``' period and
    deadline, scaled by 2 (factor 1 returns the set itself and builds
    nothing).  A ``Fraction`` half scales back to the value itself, which
    prints and compares as that integer."""
    halves = {**fields, "period": Fraction(fields["period"], 2),
              "deadline": Fraction(fields["deadline"], 2)}
    return TaskSet.scaled(unchecked_task_set(halves), 2).tasks[0]


def from_json(fields):
    entry = {"id": fields["id"], "wcet": fields["wcet"], "period": fields["period"],
             "deadline": fields["deadline"], "releases": fields["releases_limit"]}
    (task,) = task_set_from_json({"tasks": [entry]}).tasks
    return task


# Every way the package builds a task, with the fields it cannot set.
TASK_BUILDERS = {
    "keywords": (lambda f: Task(**f), ()),
    "positional": (lambda f: Task(*f.values()), ()),
    "implicit": (lambda f: Task.implicit(f["id"], f["wcet"], f["period"],
                                         f["releases_limit"]), ("deadline",)),
    "scaled": (scaled_by_two, ()),
    "from_json": (from_json, ()),
    "strip_release_limits": (
        lambda f: cli._strip_release_limits(unchecked_task_set(f)).tasks[0],
        ("releases_limit",)),
    "_make": (lambda f: Task._make(f.values()), ()),
    "_replace": (lambda f: Task(**VALID_FIELDS)._replace(**f), ()),
}


class TestTaskContract:
    """Whatever type ``Task`` is, every path that builds one validates it, and
    a task is immutable, equal and hashed by value, with a dataclass-style
    repr."""

    @pytest.mark.parametrize("builder, field, value, message", [
        (builder, *case) for builder in sorted(TASK_BUILDERS)
        for case in INVALID_FIELDS if case[0] not in TASK_BUILDERS[builder][1]])
    def test_every_build_path_rejects_each_invalid_field(self, builder, field,
                                                         value, message):
        fields = {**VALID_FIELDS, field: value}
        if builder == "implicit" and field == "period":
            fields["deadline"] = value
        with pytest.raises(UsageError) as exc:
            TASK_BUILDERS[builder][0](fields)
        if builder == "from_json":
            assert str(exc.value).startswith("malformed task entry: {")
            assert str(exc.value).endswith(f" ({message})")
        else:
            assert str(exc.value) == message

    @pytest.mark.parametrize("builder", sorted(TASK_BUILDERS))
    def test_every_build_path_builds_the_same_task(self, builder):
        # Fields every path can express: implicit deadline, no release limit.
        fields = {**VALID_FIELDS, "wcet": 0, "releases_limit": None}
        task = TASK_BUILDERS[builder][0](fields)
        assert type(task) is Task
        assert task == Task(**fields)

    def test_fields_cannot_be_set_or_added(self):
        task = Task(**VALID_FIELDS)
        for name in (*VALID_FIELDS, "extra"):
            with pytest.raises(AttributeError):
                setattr(task, name, 2)
        assert task == Task(**VALID_FIELDS)

    def test_equal_by_value_and_hashed_alike(self):
        a, b = Task(**VALID_FIELDS), Task(*VALID_FIELDS.values())
        assert a == b and a is not b and hash(a) == hash(b)
        assert len({a, b, Task.implicit(1, 1, 4)}) == 1
        assert a != Task(**{**VALID_FIELDS, "releases_limit": None})
        assert pickle.loads(pickle.dumps(a)) == a

    def test_repr(self):
        assert repr(Task(2, 0, 6, 3, None)) == (
            "Task(id=2, wcet=0, period=6, deadline=3, releases_limit=None)")


class TestMapping:
    def test_divisibility_enforced(self):
        ts = make_task_set([2, 5])
        bad = Mapping(timers=(TimerConfig(1, 2),), assignment={1: 1, 2: 1})
        with pytest.raises(UsageError):
            bad.validate(ts)

    def test_every_task_assigned(self):
        ts = make_task_set([2, 5])
        partial = Mapping(timers=(TimerConfig(1, 1),), assignment={1: 1})
        with pytest.raises(UsageError):
            partial.validate(ts)

    def test_unused_timers_excluded_from_rate(self):
        mapping = Mapping(
            timers=(TimerConfig(1, 2), TimerConfig(2, 7)),
            assignment={1: 1},
        )
        assert expected_interrupt_rate(mapping) == Fraction(1, 2)

    def test_single_timer_mapping(self):
        ts = make_task_set([2, 5])
        mapping = single_timer_mapping(ts)
        assert [tc.period for tc in mapping.timers] == [1]
        assert mapping.tasks_of(1) == (1, 2)

    def test_divisibility_error_names_the_first_offender_in_task_order(self):
        ts = TaskSet((Task.implicit(3, 0, 9), Task.implicit(1, 0, 6),
                      Task.implicit(2, 0, 5)))
        bad = Mapping(timers=(TimerConfig(1, 2), TimerConfig(2, 3)),
                      assignment={1: 1, 2: 1, 3: 1})
        with pytest.raises(UsageError) as exc:
            bad.validate(ts)
        assert str(exc.value) == "timer period 2 does not divide period 9 of task 3"

    def test_completeness_error_lists_missing_and_unknown(self):
        ts = make_task_set([2, 4, 6])
        partial = Mapping(timers=(TimerConfig(1, 2),),
                          assignment={7: 1, 2: 1, 5: 1})
        with pytest.raises(UsageError) as exc:
            partial.validate(ts)
        assert str(exc.value) == ("every task must be assigned to exactly one "
                                  "timer; missing=[1, 3], unknown=[5, 7]")

    def test_completeness_error_names_at_most_five_ids_of_each_kind(self):
        ts = make_task_set([2] * 100)
        partial = Mapping(timers=(TimerConfig(1, 2),),
                          assignment={t: 1 for t in (1, *range(101, 108))})
        with pytest.raises(UsageError) as exc:
            partial.validate(ts)
        assert str(exc.value) == (
            "every task must be assigned to exactly one timer; "
            "missing=[2, 3, 4, 5, 6, ...] (99 in all), "
            "unknown=[101, 102, 103, 104, 105, ...] (7 in all)")

    def test_unknown_timer_named_first_in_assignment_order(self):
        with pytest.raises(UsageError) as exc:
            Mapping(timers=(TimerConfig(1, 2), TimerConfig(2, 4)),
                    assignment={4: 1, 3: 9, 1: 2, 2: 5})
        assert str(exc.value) == "task 3 assigned to unknown timer 9"

    def test_duplicate_timer_ids_rejected(self):
        with pytest.raises(UsageError) as exc:
            Mapping(timers=(TimerConfig(2, 2), TimerConfig(1, 4), TimerConfig(2, 6)),
                    assignment={})
        assert str(exc.value) == "duplicate timer ids: [2, 1, 2]"

    def test_tasks_of_is_sorted_whatever_the_insertion_order(self):
        mapping = Mapping(timers=(TimerConfig(3, 2), TimerConfig(1, 4), TimerConfig(2, 8)),
                          assignment={5: 1, 2: 3, 9: 1, 1: 1, 4: 3})
        assert mapping.tasks_of(1) == (1, 5, 9)
        assert mapping.tasks_of(3) == (2, 4)
        assert mapping.tasks_of(2) == ()
        assert mapping.tasks_of(7) == ()
        assert [tc.id for tc in mapping.used_timers()] == [3, 1]
        assert mapping.groups() == {3: (2, 4), 1: (1, 5, 9)}


# ---------------------------------------------------------------------------
# expected_interrupt_rate
# ---------------------------------------------------------------------------

class TestExpectedInterruptRate:
    def test_two_timer_rate(self):
        ts = make_task_set([2, 5])
        mapping = Mapping(
            timers=(TimerConfig(1, 2), TimerConfig(2, 5)),
            assignment={1: 1, 2: 2},
        )
        mapping.validate(ts)
        assert expected_interrupt_rate(mapping) == Fraction(7, 10)

    def test_coprime_triple_exceeds_single_timer(self):
        mapping = Mapping(
            timers=(TimerConfig(1, 2), TimerConfig(2, 3), TimerConfig(3, 5)),
            assignment={1: 1, 2: 2, 3: 3},
        )
        rate = expected_interrupt_rate(mapping)
        assert rate == Fraction(31, 30)
        assert rate > 1

    def test_unit_timer(self):
        mapping = Mapping(timers=(TimerConfig(1, 1),), assignment={1: 1})
        assert expected_interrupt_rate(mapping) == Fraction(1)


# ---------------------------------------------------------------------------
# required_ticks
# ---------------------------------------------------------------------------

class TestRequiredTicks:
    def test_two_five_over_ten(self):
        ts = make_task_set([2, 5])
        assert required_ticks(ts, 10) == [2, 4, 5, 6, 8, 10]

    def test_not_required_complement_under_unit_ticking(self):
        ts = make_task_set([2, 5])
        required = set(required_ticks(ts, 10))
        assert sorted(set(range(1, 11)) - required) == [1, 3, 7, 9]

    def test_unit_period_releases_everywhere(self):
        ts = make_task_set([1])
        assert required_ticks(ts, 4) == [1, 2, 3, 4]

    def test_horizon_must_be_positive(self):
        with pytest.raises(UsageError):
            required_ticks(make_task_set([2]), 0)

    @given(
        st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=5),
        st.integers(min_value=1, max_value=80),
    )
    @settings(max_examples=150)
    def test_matches_modulo_scan(self, periods, horizon):
        ts = make_task_set(periods)
        by_scan = [
            t for t in range(1, horizon + 1)
            if any(t % p == 0 for p in periods)
        ]
        assert required_ticks(ts, horizon) == by_scan


# ---------------------------------------------------------------------------
# is_harmonic_chain
# ---------------------------------------------------------------------------

class TestIsHarmonicChain:
    def test_power_chain(self):
        assert is_harmonic_chain({3, 6, 12, 24, 48})

    def test_coprime_pair_is_not(self):
        assert not is_harmonic_chain({2, 3})

    def test_singleton_chain(self):
        assert is_harmonic_chain({7})

    @given(st.sets(st.integers(min_value=1, max_value=64), min_size=1, max_size=6))
    @settings(max_examples=150)
    def test_matches_pairwise_divisibility(self, periods):
        ordered = sorted(periods)
        pairwise = all(
            b % a == 0 for i, a in enumerate(ordered) for b in ordered[i + 1:]
        )
        assert is_harmonic_chain(periods) == pairwise


# ---------------------------------------------------------------------------
# generate_task_set
# ---------------------------------------------------------------------------

class TestGenerateTaskSet:
    BASES = (3, 5, 7, 11)
    FACTORS = tuple(range(1, 11))

    def test_periods_decompose_into_base_times_factor(self):
        spec = GenerationSpec(base_periods=self.BASES, factor_range=self.FACTORS,
                              n_tasks=100, rng_seed=7)
        ts = generate_task_set(spec)
        assert ts.n == 100
        for task in ts.tasks:
            assert any(
                task.period == b * r
                for b in self.BASES for r in self.FACTORS
            )
            assert task.releases_limit == 5

    def test_harmonic_groups_form_chains(self):
        spec = GenerationSpec(base_periods=(3,), factor_range=(1, 2, 4, 8, 16),
                              n_tasks=60, rng_seed=3, harmonic=True)
        ts = generate_task_set(spec)
        periods = set(ts.periods())
        assert periods <= {3, 6, 12, 24, 48}
        ordered = sorted(periods)
        for i, a in enumerate(ordered):
            for b in ordered[i + 1:]:
                assert b % a == 0

    def test_period_factor_scales_uniformly(self):
        base = GenerationSpec(base_periods=self.BASES, factor_range=self.FACTORS,
                              n_tasks=40, rng_seed=11)
        doubled = GenerationSpec(base_periods=self.BASES, factor_range=self.FACTORS,
                                 n_tasks=40, rng_seed=11, period_factor=2)
        ts1 = generate_task_set(base)
        ts2 = generate_task_set(doubled)
        assert ts2.periods() == tuple(2 * p for p in ts1.periods())

    def test_pure_function_of_spec(self):
        spec = GenerationSpec(base_periods=self.BASES, factor_range=self.FACTORS,
                              n_tasks=50, rng_seed=99)
        again = GenerationSpec(base_periods=self.BASES, factor_range=self.FACTORS,
                               n_tasks=50, rng_seed=99)
        assert generate_task_set(spec) == generate_task_set(again)

    def test_harmonic_flag_rejects_non_power_factors(self):
        with pytest.raises(UsageError):
            GenerationSpec(base_periods=(3,), factor_range=(1, 3),
                           n_tasks=10, harmonic=True)

    def test_empty_inputs_rejected(self):
        with pytest.raises(UsageError):
            GenerationSpec(base_periods=(), factor_range=(1,), n_tasks=10)
        with pytest.raises(UsageError):
            GenerationSpec(base_periods=(3,), factor_range=(), n_tasks=10)


# ---------------------------------------------------------------------------
# Serialization round trips
# ---------------------------------------------------------------------------

JSON_SCALARS = (
    st.none() | st.booleans()
    | st.integers() | st.integers(2**64, 2**200) | st.integers(-(2**200), -(2**64))
    | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
    | st.text() | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é€\U0001f600", '"a\nb"'])
)
JSON_KEYS = st.text() | st.integers() | st.floats() | st.booleans() | st.none()
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.dictionaries(JSON_KEYS, children)),
    max_leaves=30,
)


class TestSerialization:
    @settings(max_examples=300, deadline=None)
    @given(value=JSON_VALUES)
    def test_dump_json_writes_the_stdlib_indent_text(self, tmp_path_factory, value):
        path = tmp_path_factory.getbasetemp() / "dump_json_value.json"
        dump_json(value, str(path))
        with open(path, encoding="utf-8", newline="") as fh:
            assert fh.read() == json.dumps(value, indent=2) + "\n"

    def test_task_set_round_trip(self):
        ts = make_task_set([6, 10], wcet=1, releases=5)
        assert task_set_from_json(task_set_to_json(ts)) == ts

    def test_task_schema_keys(self):
        obj = task_set_to_json(make_task_set([6], wcet=1, releases=5))
        assert obj == {"tasks": [
            {"id": 1, "period": 6, "wcet": 1, "deadline": 6, "releases": 5}
        ]}

    def test_steady_state_task_set_round_trip(self):
        ts = make_task_set([6, 10], wcet=1, releases=None)
        obj = task_set_to_json(ts)
        assert all(entry["releases"] is None for entry in obj["tasks"])
        assert task_set_from_json(obj) == ts
        assert task_set_from_json(json.loads(json.dumps(obj))) == ts

    def test_missing_releases_defaults_to_five(self):
        ts = task_set_from_json({"tasks": [
            {"id": 1, "period": 6, "wcet": 0}
        ]})
        assert ts.tasks[0].releases_limit == 5
        assert ts.tasks[0].deadline == 6

    def test_malformed_task_rejected(self):
        with pytest.raises(UsageError):
            task_set_from_json({"tasks": [{"id": 1}]})
        with pytest.raises(UsageError):
            task_set_from_json({})

    def test_unknown_task_keys_of_every_entry_named(self):
        with pytest.raises(UsageError) as exc:
            task_set_from_json({"tasks": [
                {"id": 1, "period": 6, "wcet": 0, "deadine": 5},
                {"id": 2, "period": 6, "wcet": 0, "release": None},
                {"id": 3, "period": 6, "wcet": 0, "deadine": 4},
            ]})
        assert str(exc.value) == "unknown task keys: ['deadine', 'release']"

    @pytest.mark.parametrize("obj, message", [
        ({"timers": [{"id": 1, "period": 6, "tasks": [1]},
                     {"id": 2, "period": 6, "task": [2], "priority": 3}]},
         "unknown timer keys: ['priority', 'task']"),
        ({"timers": [{"id": 1, "period": 6, "tasks": [1]}], "timer": []},
         "unknown mapping keys: ['timer']"),
    ])
    def test_unknown_mapping_keys_named(self, obj, message):
        with pytest.raises(UsageError) as exc:
            mapping_from_json(obj)
        assert str(exc.value) == message

    @pytest.mark.parametrize("entry, reason", [
        ([], "'list' object has no attribute 'get'"),
        (None, "'NoneType' object has no attribute 'get'"),
        ({"wcet": 0, "period": 6}, "'id'"),
        # A field's type is checked before the next field is looked up.
        ({"id": "1", "period": 6}, "expected a JSON integer, got '1'"),
        ({"id": 1, "wcet": 0}, "'period'"),
        ({"id": 1, "wcet": 0, "period": "6"}, "expected a JSON integer, got '6'"),
        ({"id": 1, "wcet": 0, "period": 6, "deadline": None},
         "expected a JSON integer, got None"),
        ({"id": 1, "wcet": 0.0, "period": 6, "releases": True},
         "expected a JSON integer, got 0.0"),
        ({"id": 1, "wcet": 0, "period": 6, "releases": True},
         "expected a JSON integer, got True"),
        ({"id": True, "wcet": 0, "period": 6}, "expected a JSON integer, got True"),
        ({"id": 1, "wcet": 0, "period": 0, "deadline": 6.5},
         "expected a JSON integer, got 6.5"),
    ])
    def test_malformed_task_entry_names_its_first_fault(self, entry, reason):
        with pytest.raises(UsageError) as exc:
            task_set_from_json({"tasks": [{"id": 1, "wcet": 0, "period": 6}, entry]})
        assert str(exc.value) == f"malformed task entry: {entry!r} ({reason})"

    def test_mapping_round_trip(self):
        mapping = Mapping(
            timers=(TimerConfig(1, 2), TimerConfig(2, 5)),
            assignment={1: 1, 2: 2},
        )
        loaded = mapping_from_json(mapping_to_json(mapping))
        assert loaded == mapping

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_task_set_json_round_trip_property(self, data):
        n = data.draw(st.integers(1, 8), label="n")
        tasks = []
        for task_id in data.draw(st.permutations(range(1, n + 1)), label="ids"):
            period = data.draw(st.integers(1, 10**12))
            tasks.append(Task(
                id=task_id, wcet=data.draw(st.integers(0, 10**12)), period=period,
                deadline=data.draw(st.integers(1, period)),
                releases_limit=data.draw(st.none() | st.integers(1, 10**6))))
        ts = TaskSet(tuple(tasks))
        obj = task_set_to_json(ts)
        loaded = task_set_from_json(json.loads(json.dumps(obj)))
        assert loaded == ts
        assert task_set_to_json(loaded) == obj

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_mapping_json_round_trip_property(self, data):
        timer_ids = data.draw(st.lists(st.integers(1, 50), min_size=1,
                                       max_size=5, unique=True), label="timers")
        timers = tuple(TimerConfig(j, data.draw(st.integers(1, 10**9)))
                       for j in timer_ids)
        task_ids = data.draw(st.sets(st.integers(1, 40), max_size=12), label="tasks")
        assignment = {tid: data.draw(st.sampled_from(timer_ids)) for tid in task_ids}
        mapping = Mapping(timers=timers, assignment=assignment)
        obj = mapping_to_json(mapping)
        loaded = mapping_from_json(json.loads(json.dumps(obj)))
        assert loaded == mapping
        assert mapping_to_json(loaded) == obj

    def test_double_assignment_rejected(self):
        with pytest.raises(UsageError):
            mapping_from_json({"timers": [
                {"id": 1, "period": 2, "tasks": [1]},
                {"id": 2, "period": 4, "tasks": [1]},
            ]})

    def test_rational_round_trip(self):
        value = Fraction(886, 1155)
        assert rational_to_json(value) == {"num": 886, "den": 1155}
        assert rational_from_json({"num": 886, "den": 1155}) == value

    def test_zero_denominator_rejected(self):
        with pytest.raises(UsageError):
            rational_from_json({"num": 1, "den": 0})

    @pytest.mark.parametrize("bad", [1.9, 6.0, "6", True])
    def test_non_integer_json_numbers_rejected(self, bad):
        with pytest.raises(UsageError):
            rational_from_json({"num": bad, "den": 7})
        with pytest.raises(UsageError):
            rational_from_json({"num": 1, "den": bad})
        with pytest.raises(UsageError):
            task_set_from_json({"tasks": [{"id": 1, "period": bad, "wcet": 0}]})
        with pytest.raises(UsageError):
            mapping_from_json({"timers": [{"id": bad, "period": 2, "tasks": [1]}]})
