"""Domain types, number-theoretic utilities, and the task-set generator."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronosim.errors import ConfigError, UsageError
from chronosim.model import (
    GenerationSpec,
    Mapping,
    Task,
    TaskSet,
    TimerConfig,
    expected_interrupt_rate,
    gcd_of_periods,
    generate_task_set,
    is_harmonic_chain,
    mapping_from_json,
    mapping_to_json,
    rational_from_json,
    rational_to_json,
    required_ticks,
    single_timer_mapping,
    task_set_from_json,
    task_set_to_json,
)


def brute_force_gcd(values):
    """Independent oracle: largest d in 1..min(values) dividing every value."""
    best = 1
    for d in range(1, min(values) + 1):
        if all(v % d == 0 for v in values):
            best = d
    return best


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

    def test_hyperperiod(self):
        assert make_task_set([2, 5]).hyperperiod() == 10
        assert make_task_set([3, 6, 12]).hyperperiod() == 12

    def test_hyperperiod_overflow_rejected(self):
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        ts = make_task_set([p ** 9 for p in primes[:8]])
        with pytest.raises(ConfigError):
            ts.hyperperiod()

    def test_scaled(self):
        ts = make_task_set([2, 5]).scaled(3)
        assert ts.periods() == (6, 15)
        assert [t.deadline for t in ts.tasks] == [6, 15]


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


# ---------------------------------------------------------------------------
# gcd_of_periods
# ---------------------------------------------------------------------------

class TestGcdOfPeriods:
    def test_coprime_pair_forces_unit_period(self):
        assert gcd_of_periods({2, 5}) == 1

    def test_smallest_element_divides_rest(self):
        assert gcd_of_periods({4, 8, 16}) == 4

    def test_derived_example_against_divisor_scan(self):
        values = {12, 18, 30}
        assert brute_force_gcd(values) == 6
        assert gcd_of_periods(values) == 6

    def test_empty_set_rejected(self):
        with pytest.raises(UsageError):
            gcd_of_periods(set())

    @given(st.sets(st.integers(min_value=1, max_value=60), min_size=1, max_size=6))
    @settings(max_examples=150)
    def test_matches_brute_force_and_divides_all(self, values):
        g = gcd_of_periods(values)
        assert g == brute_force_gcd(values)
        assert all(v % g == 0 for v in values)


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

class TestSerialization:
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

    def test_mapping_round_trip(self):
        mapping = Mapping(
            timers=(TimerConfig(1, 2), TimerConfig(2, 5)),
            assignment={1: 1, 2: 2},
        )
        loaded = mapping_from_json(mapping_to_json(mapping))
        assert loaded == mapping

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
