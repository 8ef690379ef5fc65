"""Simulator behavior: release correctness, counting, costs, sweeps."""

import csv
import dataclasses
import hashlib
import io
import json
import math
import random
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chronosim import cli, dispatch, sim
from chronosim.dispatch import CostWeights, Strategy
from chronosim.errors import ConfigError, UsageError
from chronosim.model import (
    Mapping,
    Task,
    TaskSet,
    TimerConfig,
    expected_interrupt_rate,
    single_timer_mapping,
)
from chronosim.optimizer import OptimizationProblem, solve
from chronosim.sim import (
    SimConfig,
    _csv_value,
    applicable_strategies,
    classify,
    period_factor_sweep,
    run,
    write_metrics_csv,
    write_trace_csv,
)
from oracles import (
    SPEC_DISPATCHER,
    hyperperiod,
    interrupt_log,
    reference_run,
    release_trace,
    response_time,
)


def make_task_set(periods, wcet=0, releases=None):
    return TaskSet(tuple(
        Task.implicit(i + 1, wcet=wcet, period=p, releases_limit=releases)
        for i, p in enumerate(periods)
    ))


def two_five_scenario():
    ts = make_task_set([2, 5], releases=5)
    mapping = Mapping(
        timers=(TimerConfig(1, 2), TimerConfig(2, 5)),
        assignment={1: 1, 2: 2},
    )
    return ts, mapping


def oracle_trace(task_set, horizon):
    return sorted(
        (t, task.id)
        for task in task_set.tasks
        for t in range(task.period, horizon + 1, task.period)
    )


class TestFigureScenario:
    """The two-task motivating example: 10 single-timer interrupts vs 7."""

    def test_baseline_counts_and_not_required_ticks(self):
        ts, _ = two_five_scenario()
        metrics = run(SimConfig(task_set=ts, strategy=Strategy.BASELINE,
                                mapping=single_timer_mapping(ts),
                                horizon=10, check_invariants=True))
        assert metrics.total_interrupts == 10
        assert metrics.not_required_interrupts == 4
        idle_ticks = {t for t, _, n in interrupt_log(metrics) if n == 0}
        assert idle_ticks == {1, 3, 7, 9}
        assert sorted(release_trace(metrics)) == [
            (2, 1), (4, 1), (5, 2), (6, 1), (8, 1), (10, 1), (10, 2)]

    def test_two_timer_mapping_fires_only_when_needed(self):
        ts, mapping = two_five_scenario()
        metrics = run(SimConfig(task_set=ts, strategy=Strategy.CHRONOS,
                                mapping=mapping, horizon=10, check_invariants=True))
        assert metrics.total_interrupts == 7
        assert metrics.not_required_interrupts == 0
        by_timer = {s.id: s.interrupts for s in metrics.per_timer}
        assert by_timer == {1: 5, 2: 2}
        # two interrupts fire at t=10, one per timer
        assert sorted(t for t, _, _ in interrupt_log(metrics)).count(10) == 2

    def test_interrupt_count_ratio(self):
        ts, mapping = two_five_scenario()
        base = run(SimConfig(task_set=ts, strategy=Strategy.BASELINE,
                             mapping=single_timer_mapping(ts), horizon=10))
        multi = run(SimConfig(task_set=ts, strategy=Strategy.CHRONOS,
                              mapping=mapping, horizon=10))
        assert Fraction(base.total_interrupts, multi.total_interrupts) == Fraction(10, 7)


class TestReleaseCorrectness:
    def test_zero_wcet_trace_matches_oracle_for_every_strategy(self):
        ts = make_task_set([2, 3, 8])
        mapping = solve(OptimizationProblem.from_task_set(ts, 2)).mapping
        horizon = hyperperiod(ts)
        for strategy in (Strategy.BASELINE, Strategy.CHRONOS, Strategy.CHRONOS_CONST):
            metrics = run(SimConfig(
                task_set=ts, strategy=strategy,
                mapping=(single_timer_mapping(ts) if strategy is Strategy.BASELINE
                         else mapping),
                horizon=horizon, check_invariants=True))
            assert sorted(release_trace(metrics)) == oracle_trace(ts, horizon)
            assert metrics.deadline_misses == 0

    def test_strategies_agree_including_harmonic_on_chains(self):
        ts = make_task_set([3, 6, 6, 12, 24])
        mapping = Mapping(timers=(TimerConfig(1, 3),),
                          assignment={t.id: 1 for t in ts.tasks})
        horizon = hyperperiod(ts)
        traces = {}
        for strategy in (Strategy.CHRONOS, Strategy.CHRONOS_CONST,
                         Strategy.CHRONOS_HARMONIC):
            metrics = run(SimConfig(task_set=ts, strategy=strategy, mapping=mapping,
                                    horizon=horizon, check_invariants=True))
            traces[strategy] = sorted(release_trace(metrics))
        assert traces[Strategy.CHRONOS] == oracle_trace(ts, horizon)
        assert len({tuple(t) for t in traces.values()}) == 1

    def test_strategies_agree_on_miss_sets_with_real_workload(self):
        # Without overhead-as-time, execution does not depend on the list
        # layout: traces and miss sets coincide, only the ledgers differ.
        ts = TaskSet((
            Task.implicit(1, 2, 4, releases_limit=None),
            Task.implicit(2, 3, 8, releases_limit=None),
            Task.implicit(3, 5, 16, releases_limit=None),
        ))
        mapping = Mapping(timers=(TimerConfig(1, 4),),
                          assignment={1: 1, 2: 1, 3: 1})
        results = {}
        for strategy in (Strategy.CHRONOS, Strategy.CHRONOS_CONST,
                         Strategy.CHRONOS_HARMONIC):
            metrics = run(SimConfig(task_set=ts, strategy=strategy, mapping=mapping,
                                    horizon=160, check_invariants=True))
            results[strategy] = metrics
        traces = {tuple(sorted(release_trace(m))) for m in results.values()}
        misses = {tuple(m.miss_events) for m in results.values()}
        assert len(traces) == 1
        assert len(misses) == 1
        assert results[Strategy.CHRONOS].miss_events  # overload by design
        costs = {m.total_cost for m in results.values()}
        assert len(costs) == 3

    @pytest.mark.parametrize("strategy", [Strategy.CHRONOS, Strategy.CHRONOS_CONST,
                                          Strategy.CHRONOS_HARMONIC],
                             ids=lambda s: s.value)
    def test_releases_of_one_instant_come_in_period_then_task_id_order(
            self, strategy):
        # At t = 8, timer 1 fires first and releases task 1 (period 8); timer
        # 2 then releases tasks 2 (period 4) and 3 (period 8).  Neither timer
        # order nor task id order is (period, task id) order.
        ts = make_task_set([8, 4, 8], wcet=1)
        mapping = Mapping(timers=(TimerConfig(1, 8), TimerConfig(2, 4)),
                          assignment={1: 1, 2: 2, 3: 2})
        metrics = run(SimConfig(task_set=ts, strategy=strategy, mapping=mapping,
                                horizon=16, check_invariants=True))
        releases = [(t, timer, tid) for t, kind, timer, tid in metrics.events
                    if kind == "release"]
        assert releases == [(4, 2, 2), (8, 2, 2), (8, 1, 1), (8, 2, 3),
                            (12, 2, 2), (16, 2, 2), (16, 1, 1), (16, 2, 3)]
        assert metrics.deadline_misses == 0

    def test_harmonic_skips_coincide_with_deadline_misses(self):
        # A vacant slot at a release boundary means the previous job is still
        # in flight; with implicit deadlines that instant is also the miss.
        ts = TaskSet((Task.implicit(1, 5, 4, releases_limit=None),
                      Task.implicit(2, 0, 8, releases_limit=None)))
        mapping = Mapping(timers=(TimerConfig(1, 4),), assignment={1: 1, 2: 1})
        metrics = run(SimConfig(task_set=ts, strategy=Strategy.CHRONOS_HARMONIC,
                                mapping=mapping, horizon=64, check_invariants=True))
        assert metrics.harmonic_skips
        miss_times = {(t, tid) for t, tid in metrics.miss_events}
        for t, _, tid in metrics.harmonic_skips:
            assert (t, tid) in miss_times

    def test_release_limit_counts_timer_driven_releases(self):
        # Five releases per task: the k=1..5 jobs at k*T, after the
        # synchronous start job at t=0.
        ts = make_task_set([2], releases=5)
        metrics = run(SimConfig(task_set=ts, strategy=Strategy.BASELINE,
                                mapping=single_timer_mapping(ts), horizon=20))
        assert [t for t, _ in release_trace(metrics)] == [2, 4, 6, 8, 10]
        # after retirement the timer keeps ticking but releases nothing
        assert metrics.total_interrupts == 20
        assert metrics.required_interrupts == 5

    def test_run_to_retirement_ends_at_last_completion(self):
        ts = make_task_set([2, 5], releases=5)
        metrics = run(SimConfig(task_set=ts, strategy=Strategy.BASELINE,
                                mapping=single_timer_mapping(ts)))
        assert metrics.total_time == 25  # 5th release of the period-5 task
        assert metrics.jobs_completed == 12  # 2 start jobs + 2 * 5 releases


class TestInterruptCountExactness:
    def test_timer_fires_floor_horizon_over_period_times(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(1, 5)
            periods = rng.sample(range(1, 13), n)
            ts = make_task_set(periods)
            m = rng.randint(1, 3)
            mapping = solve(OptimizationProblem.from_task_set(ts, m)).mapping
            horizon = hyperperiod(ts)
            metrics = run(SimConfig(task_set=ts, strategy=Strategy.CHRONOS,
                                    mapping=mapping, horizon=horizon))
            for stats in metrics.per_timer:
                assert stats.interrupts == horizon // stats.period
            assert metrics.total_interrupts == \
                horizon * expected_interrupt_rate(mapping)

    def test_required_plus_not_required_is_total(self):
        ts = make_task_set([2, 5], releases=5)
        metrics = run(SimConfig(task_set=ts, strategy=Strategy.BASELINE,
                                mapping=single_timer_mapping(ts), horizon=10))
        assert (metrics.required_interrupts + metrics.not_required_interrupts
                == metrics.total_interrupts)


class TestDeadlines:
    def test_wcet_beyond_deadline_misses_every_job(self):
        ts = TaskSet((Task(id=1, wcet=5, period=4, deadline=4, releases_limit=5),))
        metrics = run(SimConfig(task_set=ts, strategy=Strategy.BASELINE,
                                mapping=single_timer_mapping(ts)))
        assert metrics.jobs_completed == 0
        assert metrics.deadline_misses > 0
        assert metrics.deadline_misses == len(metrics.miss_events)

    def test_completing_exactly_at_deadline_is_on_time(self):
        ts = TaskSet((Task(id=1, wcet=4, period=4, deadline=4, releases_limit=2),))
        metrics = run(SimConfig(task_set=ts, strategy=Strategy.BASELINE,
                                mapping=single_timer_mapping(ts)))
        assert metrics.deadline_misses == 0
        assert metrics.jobs_completed > 0

    def test_abandoned_job_is_re_delayed_to_a_later_period(self):
        ts = TaskSet((Task(id=1, wcet=5, period=4, deadline=4, releases_limit=None),))
        metrics = run(SimConfig(task_set=ts, strategy=Strategy.BASELINE,
                                mapping=single_timer_mapping(ts), horizon=16))
        # release at t is lost while the late job occupies the task
        assert [t for t, _ in metrics.miss_events] == [4, 12]
        assert [t for t, _ in release_trace(metrics)] == [8, 16]

    def test_zero_length_job_completes_at_release_behind_busier_tasks(self):
        # Task 3 has no work and a deadline of 1, but tasks 1 and 2 have
        # shorter or equal periods and keep the CPU busy past that deadline.
        ts = TaskSet((
            Task(id=1, wcet=2, period=2, deadline=2, releases_limit=2),
            Task(id=2, wcet=1, period=4, deadline=4, releases_limit=2),
            Task(id=3, wcet=0, period=4, deadline=1, releases_limit=2),
        ))
        metrics = run(SimConfig(task_set=ts, strategy=Strategy.BASELINE,
                                mapping=single_timer_mapping(ts),
                                horizon=8, check_invariants=True))
        task3 = [(t, kind) for t, kind, _, tid in metrics.events if tid == 3]
        assert [t for t, kind in task3 if kind == "complete"] == [0, 4, 8]
        assert [t for t, kind in task3 if kind == "retire"] == [8]
        assert metrics.miss_events == []


class TestEndJobsBatches:
    """Ended jobs are delayed once per interrupt instant.  Before the
    instant's timers fire, one ``delay_task`` call takes the tasks whose jobs
    ended since the previous interrupt instant, in end order and without the
    ones that retired.  Each gets the first multiple of its period after its
    timer's tick, which is still the tick of its own end instant."""

    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
    def test_retiring_task_leaves_a_mixed_batch(self, strategy, monkeypatch):
        # Both tasks have zero-length jobs released together at t = 2, which
        # end in one batch: task 1 ends its last job there, task 2 does not.
        ts = TaskSet((
            Task(id=1, wcet=0, period=2, deadline=2, releases_limit=1),
            Task(id=2, wcet=0, period=2, deadline=2, releases_limit=3),
        ))
        mapping = Mapping(timers=(TimerConfig(1, 2),), assignment={1: 1, 2: 1})
        batches = []

        def recording_delay_task(state, task_ids):
            batches.append((state.timers[1].tick, list(task_ids)))
            dispatch.delay_task(state, task_ids)

        monkeypatch.setattr(sim, "delay_task", recording_delay_task)
        metrics = run(SimConfig(
            task_set=ts, strategy=strategy,
            mapping=(single_timer_mapping(ts) if strategy is Strategy.BASELINE
                     else mapping),
            horizon=None, check_invariants=True))
        completed = [(t, tid) for t, kind, _, tid in metrics.events
                     if kind == "complete"]
        assert (2, 1) in completed and (2, 2) in completed
        assert (2, "retire", None, 1) in metrics.events
        assert (2, [2]) in batches
        assert all(1 not in batch for tick_, batch in batches if tick_ >= 2)
        assert metrics.jobs_completed == 6  # 2 start jobs + 1 + 3 releases


class TestLeafTargets:
    """The benchmark times ``tick`` and ``delay_task`` by patching the names
    ``chronosim.sim`` looks up; a call that bypassed them would drop a span."""

    def test_sim_looks_up_the_dispatcher_primitives(self, monkeypatch):
        assert sim.tick is dispatch.tick
        assert sim.delay_task is dispatch.delay_task
        calls = {"tick": 0, "delay_task": 0}
        for name in calls:
            def wrapper(*args, _name=name, _real=getattr(sim, name)):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(sim, name, wrapper)
        ts, mapping = two_five_scenario()
        metrics = run(SimConfig(task_set=ts, strategy=Strategy.CHRONOS,
                                mapping=mapping))
        assert calls["tick"] == metrics.total_interrupts
        assert calls["delay_task"] > 0

    def test_sweep_goes_through_the_patched_names(self, monkeypatch):
        # The benchmark's per-layer spans wrap these three names; a sweep that
        # reached the routines by another binding would leave a span empty.
        counts = {"tick": 0, "delay_task": 0, "delayed": 0}
        runs = []
        real_tick, real_delay, real_run = sim.tick, sim.delay_task, sim.run

        def counting_tick(state, timer_id):
            counts["tick"] += 1
            return real_tick(state, timer_id)

        def counting_delay_task(state, task_ids):
            counts["delay_task"] += 1
            counts["delayed"] += len(task_ids)
            real_delay(state, task_ids)

        def recording_run(config):
            runs.append(real_run(config))
            return runs[-1]

        monkeypatch.setattr(sim, "tick", counting_tick)
        monkeypatch.setattr(sim, "delay_task", counting_delay_task)
        monkeypatch.setattr(sim, "run", recording_run)
        ts = make_task_set([2, 4, 6, 12], wcet=1, releases=None)
        mapping = Mapping(timers=(TimerConfig(1, 2), TimerConfig(2, 6)),
                          assignment={1: 1, 2: 1, 3: 2, 4: 2})
        table = period_factor_sweep(
            SimConfig(task_set=ts, strategy=Strategy.BASELINE, mapping=mapping,
                      horizon=24, overhead_as_time=True, collect_trace=False),
            [1, 2, 3])
        # Both groups are harmonic chains, so all four strategies run.
        assert len(runs) == len(table.rows) == 3 * 4
        assert counts["tick"] == sum(m.total_interrupts for m in runs) > 0
        # No task retires, so every ended job is delayed exactly once.
        assert counts["delayed"] == sum(m.jobs_completed + m.deadline_misses
                                        for m in runs)
        assert 0 < counts["delay_task"] <= counts["tick"] + len(runs)


class TestSimValidation:
    def test_harmonic_strategy_rejects_non_harmonic_group(self):
        ts = make_task_set([2, 3])
        mapping = single_timer_mapping(ts, period=1)
        with pytest.raises(ConfigError):
            run(SimConfig(task_set=ts, strategy=Strategy.CHRONOS_HARMONIC,
                          mapping=mapping, horizon=6))

    def test_huge_hyperperiod_is_refused_only_past_the_step_limit(self):
        # The hyperperiod is about 2**98, but a short run takes few steps.
        primes = [2, 3, 5, 7, 11, 13, 17, 19]
        ts = make_task_set([p ** 9 for p in primes])
        config = SimConfig(task_set=ts, strategy=Strategy.BASELINE,
                           mapping=single_timer_mapping(ts), horizon=10)
        assert run(config).total_interrupts == 10
        with pytest.raises(ConfigError, match="interrupts"):
            run(dataclasses.replace(config, horizon=sim.INTERRUPT_LIMIT + 1))

    def test_prime_periods_run_past_their_hyperperiod_scale(self):
        # Twenty primes from 1,009 upward: a hyperperiod near 2**205.
        primes = [p for p in range(1009, 1300)
                  if all(p % d for d in range(2, math.isqrt(p) + 1))][:20]
        ts = make_task_set(primes, wcet=1)
        metrics = run(SimConfig(task_set=ts, strategy=Strategy.BASELINE,
                                mapping=single_timer_mapping(ts), horizon=5000,
                                collect_trace=False))
        assert metrics.total_interrupts == 5000
        assert metrics.deadline_misses == 0

    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
    def test_every_strategy_requires_mapping(self, strategy):
        ts = make_task_set([2, 5])
        with pytest.raises(TypeError, match="mapping"):
            SimConfig(task_set=ts, strategy=strategy, horizon=10)

    def test_baseline_runs_the_mapping_it_is_given(self):
        ts = make_task_set([4, 8])
        metrics = run(SimConfig(task_set=ts, strategy=Strategy.BASELINE,
                                mapping=single_timer_mapping(ts, period=4),
                                horizon=20))
        assert metrics.total_interrupts == 20 // 4
        two_timers = Mapping(timers=(TimerConfig(1, 4), TimerConfig(2, 8)),
                             assignment={1: 1, 2: 2})
        with pytest.raises(ConfigError, match="single timer"):
            run(SimConfig(task_set=ts, strategy=Strategy.BASELINE,
                          mapping=two_timers, horizon=20))

    @pytest.mark.parametrize("strategies", [
        [], [Strategy.BASELINE, Strategy.CHRONOS, Strategy.BASELINE]])
    def test_sweep_rejects_empty_or_repeated_strategies(self, strategies):
        ts = make_task_set([2, 4])
        base = SimConfig(task_set=ts, strategy=Strategy.BASELINE,
                         mapping=single_timer_mapping(ts, period=2), horizon=8)
        with pytest.raises(UsageError, match="strategies"):
            period_factor_sweep(base, [1], strategies)

    def test_unbounded_releases_require_horizon(self):
        ts = make_task_set([2, 5], releases=None)
        with pytest.raises(ConfigError):
            run(SimConfig(task_set=ts, strategy=Strategy.BASELINE,
                          mapping=single_timer_mapping(ts)))

    @pytest.mark.parametrize("factors", [[2, 2, 2], [1, 15, 15]])
    def test_sweep_rejects_repeated_factors(self, factors):
        ts = make_task_set([2, 4])
        base = SimConfig(task_set=ts, strategy=Strategy.BASELINE,
                         mapping=single_timer_mapping(ts, period=2), horizon=8)
        with pytest.raises(UsageError, match="factors must be a nonempty list "
                                             "without repeats"):
            period_factor_sweep(base, factors)


class TestTimeLimit:
    """``TIME_MAX`` stands for "never" in ``run``, so no deadline a run can
    reach may equal or pass it."""

    # Seven periods of this length end exactly at TIME_MAX.
    SEVENTH = dispatch.TIME_MAX // 7

    def config(self, period, releases, horizon):
        ts = make_task_set([period], wcet=1, releases=releases)
        return SimConfig(task_set=ts, strategy=Strategy.CHRONOS,
                         mapping=single_timer_mapping(ts, period=period),
                         horizon=horizon, check_invariants=True)

    @pytest.mark.parametrize("horizon", [dispatch.TIME_MAX, dispatch.TIME_MAX - 1])
    def test_horizon_plus_deadline_reaching_time_max_is_config_error(self, horizon):
        with pytest.raises(ConfigError, match="deadline"):
            run(self.config(self.SEVENTH, None, horizon))

    def test_last_deadline_past_time_max_is_config_error(self):
        # Job 4 is released at 2**63 with its deadline a period later.
        with pytest.raises(ConfigError, match="deadline"):
            run(self.config(2 ** 61, 4, None))

    def test_last_deadline_just_below_time_max_runs(self):
        # horizon + deadline = TIME_MAX - 1: six jobs, each completed at one
        # unit past its release and delayed once, as in the period-7 twin.
        big = run(self.config(self.SEVENTH, None,
                              dispatch.TIME_MAX - 1 - self.SEVENTH))
        small = run(self.config(7, None, 41))
        for m in (big, small):
            assert (m.jobs_completed, m.deadline_misses, m.total_interrupts) == (6, 0, 5)
            assert m.delay_counters["comparison"] == m.jobs_completed

    def test_sweep_reports_the_factor_as_an_error_row(self):
        # The baseline's timer ticks every factor units, so it stays out.
        ts = make_task_set([2 ** 59], wcet=1, releases=None)
        base = SimConfig(task_set=ts, strategy=Strategy.CHRONOS,
                         mapping=single_timer_mapping(ts, period=2 ** 59),
                         horizon=2 ** 61, collect_trace=False)
        table = period_factor_sweep(base, [1, 4], [Strategy.CHRONOS,
                                                   Strategy.CHRONOS_CONST])
        assert [row.factor for row in table.rows] == [1, 1, 4]
        assert all(row.error is None for row in table.rows[:2])
        assert "deadline" in table.rows[2].error


class TestInterruptLimit:
    """A run that could take more than ``INTERRUPT_LIMIT`` interrupts and
    round-robin slice steps is refused before its loop starts.  Only refusals are tested: a run near the
    limit takes minutes."""

    # The baseline's one timer ticks every unit: about 2**61 interrupts.
    HORIZON = 2 ** 61

    def config(self):
        ts = make_task_set([7], wcet=1, releases=None)
        return SimConfig(task_set=ts, strategy=Strategy.BASELINE,
                         mapping=single_timer_mapping(ts), horizon=self.HORIZON,
                         collect_trace=False)

    def test_run_past_the_limit_is_config_error(self):
        with pytest.raises(ConfigError, match=f"up to {self.HORIZON} interrupts"):
            run(self.config())

    def test_sweep_reports_the_factor_as_an_error_row(self):
        table = period_factor_sweep(self.config(), [1], [Strategy.BASELINE])
        assert [row.factor for row in table.rows] == [1]
        assert f"limit is {sim.INTERRUPT_LIMIT}" in table.rows[0].error

    def test_round_robin_slice_steps_count_toward_the_limit(self):
        # One interrupt, but the two equal-period tasks share 2**42 units of
        # work, sliced one unit per step.
        period = 2 ** 41
        ts = make_task_set([period, period], wcet=2 ** 40, releases=None)
        config = SimConfig(task_set=ts, strategy=Strategy.CHRONOS,
                           mapping=single_timer_mapping(ts, period=period),
                           horizon=period, collect_trace=False)
        with pytest.raises(ConfigError, match=f"up to 1 interrupts and {2 ** 42} slice"):
            run(config)


class TestOverheadAsTime:
    def test_busy_idle_overhead_conserve_total_time(self):
        ts = make_task_set([4, 8], wcet=1, releases=None)
        mapping = single_timer_mapping(ts, period=4)
        for strategy in (Strategy.BASELINE, Strategy.CHRONOS, Strategy.CHRONOS_CONST):
            metrics = run(SimConfig(
                task_set=ts, strategy=strategy,
                mapping=(single_timer_mapping(ts) if strategy is Strategy.BASELINE
                         else mapping),
                horizon=500, overhead_as_time=True, time_scale=10,
                check_invariants=True))
            assert (metrics.busy_time + metrics.idle_time + metrics.overhead_time
                    == metrics.total_time == 500)
            assert metrics.overhead_time > 0

    def test_accounting_mode_off_consumes_no_time(self):
        ts = make_task_set([4, 8], wcet=1, releases=5)
        metrics = run(SimConfig(task_set=ts, strategy=Strategy.BASELINE,
                                mapping=single_timer_mapping(ts)))
        assert metrics.overhead_time == 0
        assert metrics.busy_time + metrics.idle_time == metrics.total_time

    def test_dense_ticking_can_break_schedulability(self):
        # Same workload: fine without overhead time, late with it.
        ts = make_task_set([4, 8], wcet=1, releases=None)
        mapping = single_timer_mapping(ts, period=4)
        single = single_timer_mapping(ts)
        relaxed = run(SimConfig(task_set=ts, strategy=Strategy.BASELINE,
                                mapping=single, horizon=800,
                                overhead_as_time=False))
        tight = run(SimConfig(task_set=ts, strategy=Strategy.BASELINE,
                              mapping=single, horizon=800,
                              overhead_as_time=True, time_scale=12))
        multi = run(SimConfig(task_set=ts, strategy=Strategy.CHRONOS,
                              mapping=mapping, horizon=800,
                              overhead_as_time=True, time_scale=12))
        assert relaxed.deadline_misses == 0
        assert tight.deadline_misses > 0
        assert multi.deadline_misses == 0


def compare_at_unit_factor(task_set, mapping, strategies, **settings):
    """One factor-1 sweep: the rows by strategy name."""
    base = SimConfig(task_set=task_set, strategy=Strategy.BASELINE,
                     mapping=mapping, collect_trace=False, **settings)
    table = period_factor_sweep(base, [1], strategies)
    return {row.strategy: row for row in table.rows}


class TestCompare:
    """Each strategy against the baseline, as ``period_factor_sweep`` runs it."""

    def test_baseline_is_the_reference(self):
        ts, mapping = two_five_scenario()
        rows = compare_at_unit_factor(ts, mapping,
                                      [Strategy.CHRONOS, Strategy.BASELINE],
                                      horizon=10)
        assert rows["baseline"].overhead_ratio == Fraction(1)
        assert rows["chronos"].overhead_ratio == Fraction(
            rows["baseline"].total_cost, rows["chronos"].total_cost)
        assert rows["chronos"].overhead_ratio > 1
        assert {r.schedulable_class for r in rows.values()} == {"schedulable"}

    def test_harmonic_only_region(self):
        # One fast task plus many heavy same-period tasks: the scan-everything
        # and sorted-insert costs sink every strategy except the slot array.
        tasks = [Task.implicit(1, 0, 2, releases_limit=None)]
        tasks += [Task.implicit(i + 2, 1, 400, releases_limit=None)
                  for i in range(60)]
        ts = TaskSet(tuple(tasks))
        mapping = Mapping(timers=(TimerConfig(1, 2),),
                          assignment={t.id: 1 for t in ts.tasks})
        rows = compare_at_unit_factor(
            ts, mapping, [Strategy.BASELINE, Strategy.CHRONOS,
                          Strategy.CHRONOS_CONST, Strategy.CHRONOS_HARMONIC],
            horizon=1200, overhead_as_time=True, time_scale=10)
        assert {r.schedulable_class for r in rows.values()} == {"harmonic"}
        assert rows["chronos-harmonic"].deadline_misses == 0
        assert rows["chronos-harmonic"].overhead_ratio > max(
            rows[s].overhead_ratio for s in ("chronos", "chronos-const"))

    def test_chronos_region(self):
        ts = make_task_set([4, 8], wcet=1, releases=None)
        rows = compare_at_unit_factor(
            ts, single_timer_mapping(ts, period=4),
            [Strategy.BASELINE, Strategy.CHRONOS, Strategy.CHRONOS_CONST],
            horizon=800, overhead_as_time=True, time_scale=12)
        assert {r.schedulable_class for r in rows.values()} == {"chronos"}
        assert rows["baseline"].deadline_misses > 0
        assert rows["chronos"].overhead_ratio > 1
        assert rows["chronos-const"].overhead_ratio > 1

    def test_classify_labels(self):
        B, C, K, H = (Strategy.BASELINE, Strategy.CHRONOS, Strategy.CHRONOS_CONST,
                      Strategy.CHRONOS_HARMONIC)
        assert classify({B: False, C: False}) == "schedulable"
        assert classify({B: True, C: True}) == "not-schedulable"
        assert classify({B: True, C: False, K: False}) == "chronos"
        assert classify({B: True, C: True, K: True, H: False}) == "harmonic"
        assert classify({B: False, C: True}) == "mixed"


def sha256_text(text):
    return hashlib.sha256(text.encode()).hexdigest()


# SHA-256 of ``SweepTable.to_csv`` and ``format_summary`` for
# ``TestPeriodFactorSweep.base_config()`` at factors 1..3.
SWEEP_PINS = (
    "699f1a8f1998d112f2dd11df8a11f5f33b677ff033b351c551c66d5d9983ac36",
    "d264cd0f6d6e910aa0e4fe24a54c7c2777a4348c922d99b2320f4ae2a8482079",
)


class TestPeriodFactorSweep:
    def base_config(self):
        ts = make_task_set([3, 5, 7, 11, 6, 10, 14, 22], releases=None)
        mapping = solve(OptimizationProblem.from_task_set(ts, 4)).mapping
        return SimConfig(task_set=ts, strategy=Strategy.BASELINE, mapping=mapping,
                         horizon=5 * 22, collect_trace=False)

    def test_normalized_rate_constant_across_factors(self):
        table = period_factor_sweep(self.base_config(), range(1, 6))
        expected = Fraction(886, 1155)
        for row in table.rows:
            assert row.error is None
            if row.strategy == "baseline":
                assert row.normalized_rate == Fraction(1)
            else:
                assert row.normalized_rate == expected

    def test_interrupt_counts_invariant_under_scaling(self):
        table = period_factor_sweep(self.base_config(), [1, 2])
        by = {(r.factor, r.strategy): r for r in table.rows}
        for strategy in ("baseline", "chronos", "chronos-const"):
            assert (by[(1, strategy)].total_interrupts
                    == by[(2, strategy)].total_interrupts)

    def test_baseline_overhead_fraction_strictly_decreasing_with_workload_scaling(self):
        # Fixed per-interrupt cost over a window growing with the factor.
        table = period_factor_sweep(self.base_config(), range(1, 8))
        fractions = [r.overhead_fraction for r in table.rows
                     if r.strategy == "baseline"]
        assert all(b < a for a, b in zip(fractions, fractions[1:]))

    def test_single_factor_sweep_has_one_row_per_strategy(self):
        # Every per-base group is a harmonic chain, so all four apply.
        table = period_factor_sweep(self.base_config(), [3])
        assert sorted(r.strategy for r in table.rows) == \
            ["baseline", "chronos", "chronos-const", "chronos-harmonic"]

    def test_overflow_becomes_row_error(self):
        ts = make_task_set([2 ** 31 - 1, 2 ** 19 - 1], releases=None)
        mapping = solve(OptimizationProblem.from_task_set(ts, 1)).mapping
        base = SimConfig(task_set=ts, strategy=Strategy.BASELINE, mapping=mapping,
                         horizon=10, collect_trace=False)
        # At 2**14 the hyperperiod passes 2**63 but every deadline stays
        # below TIME_MAX; at 2**32 the first deadlines reach it.
        table = period_factor_sweep(base, [2 ** 14, 2 ** 32])
        assert [row.factor for row in table.rows] == [2 ** 14] * 3 + [2 ** 32]
        assert all(row.error is None for row in table.rows[:3])
        assert "deadline" in table.rows[3].error

    def test_monotone_schedulability_reported(self):
        ts = make_task_set([3, 5, 7, 11, 6, 10, 14, 22], wcet=2, releases=None)
        mapping = solve(OptimizationProblem.from_task_set(ts, 4)).mapping
        base = SimConfig(task_set=ts, strategy=Strategy.BASELINE, mapping=mapping,
                         horizon=5 * 22, collect_trace=False)
        table = period_factor_sweep(base, range(1, 10))
        classes = {}
        for row in table.rows:
            classes.setdefault(row.factor, row.schedulable_class)
        ordered = [classes[f] for f in sorted(classes)]
        # once schedulable, stays schedulable for larger factors here
        if "schedulable" in ordered:
            first = ordered.index("schedulable")
            assert all(c == "schedulable" for c in ordered[first:])
        assert table.monotonicity_violations() == []

    def test_csv_and_summary_bytes_match_the_pin(self):
        table = period_factor_sweep(self.base_config(), [1, 2, 3])
        buf = io.StringIO()
        table.to_csv(buf)
        assert (sha256_text(buf.getvalue()),
                sha256_text(table.format_summary())) == SWEEP_PINS



class TestSerialization:
    def test_metrics_csv_roundtrip_columns(self):
        ts, mapping = two_five_scenario()
        metrics = run(SimConfig(task_set=ts, strategy=Strategy.CHRONOS,
                                mapping=mapping, horizon=10))
        buf = io.StringIO()
        write_metrics_csv(metrics, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("strategy,total_interrupts")
        assert lines[1].split(",")[0] == "chronos"

    def test_trace_csv_schema(self):
        ts, mapping = two_five_scenario()
        metrics = run(SimConfig(task_set=ts, strategy=Strategy.CHRONOS,
                                mapping=mapping, horizon=10))
        buf = io.StringIO()
        write_trace_csv(metrics, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "time,event_kind,timer,task"
        kinds = {line.split(",")[1] for line in lines[1:]}
        assert {"interrupt", "release", "complete", "delay"} <= kinds

    def test_metrics_json_shape(self):
        ts, mapping = two_five_scenario()
        metrics = run(SimConfig(task_set=ts, strategy=Strategy.CHRONOS,
                                mapping=mapping, horizon=10))
        obj = metrics.to_json()
        assert obj["total_interrupts"] == 7
        assert obj["expected_rate"] == {"num": 7, "den": 10}
        assert obj["schedulable"] is True

    def test_trace_limit_counts_dropped_events(self):
        full = run(pinned_case("interrupt_at_completion"))
        cut = run(dataclasses.replace(pinned_case("interrupt_at_completion"),
                                      trace_limit=3))
        assert (len(full.events), full.events_dropped) == (28, 0)
        assert cut.events == full.events[:3]
        assert cut.events_dropped == 25
        # The derived traces are views of the cut stream.
        assert interrupt_log(cut) == [(2, 1, 0)]
        assert release_trace(cut) == []
        untraced = run(dataclasses.replace(pinned_case("interrupt_at_completion"),
                                           collect_trace=False))
        assert untraced.events is untraced.events_dropped is None
        assert release_trace(untraced) is interrupt_log(untraced) is None

    def test_determinism_across_runs(self):
        ts, mapping = two_five_scenario()
        cfg = SimConfig(task_set=ts, strategy=Strategy.CHRONOS_CONST,
                        mapping=mapping, horizon=10)
        a, b = run(cfg), run(cfg)
        assert a == b


def tasks_of(*specs):
    """Tasks 1..n from (wcet, period, deadline, releases limit) tuples."""
    return TaskSet(tuple(
        Task(id=i + 1, wcet=w, period=p, deadline=d, releases_limit=r)
        for i, (w, p, d, r) in enumerate(specs)
    ))


def pinned_case(name):
    """Small checked runs, one per entry of ``PINNED_RUNS``."""
    if name == "interrupt_at_completion":
        # Timer 1 (period 2) fires at 2, the instant task 1's first job ends.
        ts = tasks_of((2, 4, 4, None), (1, 8, 8, None))
        mapping = Mapping(timers=(TimerConfig(1, 2), TimerConfig(2, 8)),
                          assignment={1: 1, 2: 2})
        return SimConfig(task_set=ts, strategy=Strategy.CHRONOS, mapping=mapping,
                         horizon=16, check_invariants=True)
    if name == "deadline_at_completion":
        # Task 1 ends at its deadline 2; task 2 (wcet 7) misses at 8.
        ts = tasks_of((2, 8, 2, None), (7, 8, 8, None))
        return SimConfig(task_set=ts, strategy=Strategy.CHRONOS,
                         mapping=single_timer_mapping(ts, period=8),
                         horizon=16, check_invariants=True)
    if name == "slice_before_completion":
        # Equal periods and wcet 3: the one-unit slice ends before completion.
        ts = tasks_of((3, 8, 8, None), (3, 8, 8, None))
        return SimConfig(task_set=ts, strategy=Strategy.CHRONOS_CONST,
                         mapping=single_timer_mapping(ts, period=8),
                         horizon=16, check_invariants=True)
    if name == "slice_at_completion":
        # Equal periods and wcet 1: the slice would end where the job does.
        ts = tasks_of((1, 8, 8, None), (1, 8, 8, None), (2, 8, 8, None))
        return SimConfig(task_set=ts, strategy=Strategy.CHRONOS,
                         mapping=single_timer_mapping(ts, period=8),
                         horizon=16, check_invariants=True)
    if name == "horizon_cuts_job":
        ts = tasks_of((1, 8, 8, None), (5, 16, 16, None))
        return SimConfig(task_set=ts, strategy=Strategy.CHRONOS_HARMONIC,
                         mapping=single_timer_mapping(ts, period=8),
                         horizon=19, check_invariants=True)
    if name == "overhead_backlog":
        # Interrupt cost 14 at time_scale 4 leaves a backlog of whole units.
        ts = tasks_of((1, 8, 8, None), (2, 16, 16, None), (1, 32, 32, None))
        return SimConfig(task_set=ts, strategy=Strategy.CHRONOS,
                         mapping=single_timer_mapping(ts, period=8), horizon=32,
                         overhead_as_time=True, time_scale=4, check_invariants=True)
    if name == "zero_length_jobs":
        ts = tasks_of((0, 4, 4, None), (2, 4, 4, None), (0, 8, 2, None),
                      (1, 8, 8, None))
        return SimConfig(task_set=ts, strategy=Strategy.CHRONOS,
                         mapping=single_timer_mapping(ts, period=4),
                         horizon=16, check_invariants=True)
    if name == "shared_deadline_instant":
        # Every first job is due at 4: task 2 completes there, tasks 4 and 3
        # (queued in that order by period) are abandoned there in ascending
        # id, and task 1, done at 1, is released again at 4.
        ts = tasks_of((1, 4, 4, None), (3, 8, 4, None), (2, 16, 4, None),
                      (1, 12, 4, None))
        return SimConfig(task_set=ts, strategy=Strategy.CHRONOS,
                         mapping=single_timer_mapping(ts, period=4),
                         horizon=16, check_invariants=True)
    if name == "constrained_deadline_between_ticks":
        # Task 2's deadline (release + 3) falls between the ticks at multiples
        # of 4; each interrupt leaves a backlog of overhead time.
        ts = tasks_of((1, 4, 4, None), (2, 8, 3, None), (1, 16, 7, None))
        return SimConfig(task_set=ts, strategy=Strategy.CHRONOS_CONST,
                         mapping=single_timer_mapping(ts, period=4), horizon=32,
                         overhead_as_time=True, time_scale=8,
                         check_invariants=True)
    if name == "release_limited":
        ts = tasks_of((1, 3, 3, 2), (2, 6, 6, 1), (1, 6, 4, 2))
        return SimConfig(task_set=ts, strategy=Strategy.CHRONOS,
                         mapping=single_timer_mapping(ts, period=3),
                         horizon=None, check_invariants=True)
    raise KeyError(name)


def run_digest(metrics):
    """SHA-256 over the metrics JSON, both counter dicts and the event trace.

    The counter dicts are hashed beside the rest of the metrics JSON, and
    ``events_dropped`` is left to the callers that pin it.
    """
    obj = metrics.to_json()
    counters = {name: obj.pop(name)
                for name in ("interrupt_counters", "delay_counters")}
    del obj["events_dropped"]
    blob = json.dumps({"metrics": obj, **counters, "events": metrics.events},
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


# name: ((busy, idle, overhead, jobs completed, misses, interrupts,
#         total cost, events), digest)
PINNED_RUNS = {
    "interrupt_at_completion": (
        (10, 6, 0, 6, 0, 10, 150, 28),
        "aaf94b0dd364b26e4c13b3763dedd7a982f2d2141ea9238feb2db49fcb3335c2"),
    "deadline_at_completion": (
        (10, 6, 0, 2, 1, 2, 40, 11),
        "1cf00b796e0687665f9fbcd3185319273549eff6c8c3cdb234d90fd160b3c122"),
    "slice_before_completion": (
        (12, 4, 0, 4, 0, 2, 48, 14),
        "82098aba3e58c8f243d606dbe56f84a65006119a248f84a66bc6b8753b35caee"),
    "slice_at_completion": (
        (8, 8, 0, 6, 0, 2, 60, 20),
        "0d4474d47fbfb1eb009b400d2b8930c414a9d7186f2563d59ce9fafbf18bc4bf"),
    "horizon_cuts_job": (
        (10, 9, 0, 4, 0, 2, 40, 13),
        "f8c2c95a593926be7a14c141c2ada679ecb9ba76eb1b95c897217ff82680b8c5"),
    "overhead_backlog": (
        (9, 10, 13, 7, 0, 4, 93, 25),
        "2bdaf245972e6187cf7807090303b166f1132300feec8982f1d3c6911fe86fa1"),
    "zero_length_jobs": (
        (10, 6, 0, 14, 0, 4, 133, 44),
        "24337f5577976768d5c0a5706775e5eb1541d75968f70feaea29d591b686bf74"),
    "release_limited": (
        (10, 3, 0, 8, 0, 4, 76, 25),
        "3f3b89d036b59fba91d0c143133a98ccfaa95b63f9b11d256e725d029ba460bb"),
    "shared_deadline_instant": (
        (11, 5, 0, 7, 2, 4, 102, 30),
        "9ea2b00c5fcf8df0c183e6713cab7daf30b252d398443a72502bf20f72c0fe18"),
    "constrained_deadline_between_ticks": (
        (11, 6, 15, 9, 3, 8, 174, 44),
        "e8ea3e491add2337f97944c672166fa23209df96d3e3673fc87b940cf6b2d93e"),
}


def csv_digest(metrics):
    """SHA-256 over the metrics CSV followed by the trace CSV."""
    buf = io.StringIO()
    write_metrics_csv(metrics, buf)
    write_trace_csv(metrics, buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


PINNED_CSV = {
    "deadline_at_completion":
        "af3802b57e0623bfb90150cffbd52c9441d0ca99c9278497e6278aa60b3936ac",
    "horizon_cuts_job":
        "a114a776e3d008e308115a814cb000fa732cd15a582016b997d1202d9e5adf72",
    "interrupt_at_completion":
        "4b75fba25727550632549ee9748237deaea382955d2cbae994a90f2baf600485",
    "overhead_backlog":
        "0e8024183a22856cbb5fa44cc14041dce4501f5005b02acf05cbfa77e3d996a3",
    "release_limited":
        "227fe7282fdd3a0d04f2049469ce1258016061cfa0831c4eb5de6c396b9b2528",
    "slice_at_completion":
        "2d395a85b1ab898619e7959d34d3b58afd28016cd23e57533ae351ec26c30793",
    "slice_before_completion":
        "54e3f25cd76125812b367c07f9b5fd6cf44b75cc6f8a7f0421048d7c39ec4e16",
    "zero_length_jobs":
        "aac5afe1d10468a3f73d135b4531ae1f81c780d8e207288899313160cec67bdf",
    "shared_deadline_instant":
        "ee50d15f669f37b448e93c5e9e8370eb7a5cc153929497eeec4d79cb8ae4f416",
    "constrained_deadline_between_ticks":
        "2c76c2a923c694ef8987f374a5f2733ed7f162c99efd2f524115c723f153e72b",
}


class TestPinnedRuns:
    """Exact outputs of small hand-built runs.

    Each case puts an event (interrupt, deadline, slice boundary, horizon)
    at or before a job's completion, or needs special bookkeeping (overhead
    backlog, zero-length jobs, release limits).  The scheduler loop may get
    faster; these outputs may not move.
    """

    @pytest.mark.parametrize("name", sorted(PINNED_RUNS))
    def test_outputs_match_the_pin(self, name):
        m = run(pinned_case(name))
        summary, digest = PINNED_RUNS[name]
        assert (m.busy_time, m.idle_time, m.overhead_time, m.jobs_completed,
                m.deadline_misses, m.total_interrupts, m.total_cost,
                len(m.events)) == summary
        assert run_digest(m) == digest

    @pytest.mark.parametrize("name", sorted(PINNED_CSV))
    def test_csv_bytes_match_the_pin(self, name):
        assert csv_digest(run(pinned_case(name))) == PINNED_CSV[name]


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def grouped_mapping(task_set, k, assignment, pick):
    """Timers 1..k, each task on its assigned timer; a timer's period is
    ``pick(divisors of its group's GCD)``, and 1 for a timer with no task."""
    timers = []
    for j in range(1, k + 1):
        group = [t.period for t in task_set.tasks if assignment[t.id] == j]
        timers.append(TimerConfig(j, pick(divisors(math.gcd(*group) or 1))))
    return Mapping(timers=tuple(timers), assignment=assignment)


def seeded_config(rng):
    """One random traced run for ``TestSeededRunsPin``.

    Harmonic periods or any period up to 24, deadline 1..period, wcet
    0..period+1, release limits 1..3 or none (none only with a horizon), a
    horizon of none or 1..80, every strategy, and for the multi-timer
    strategies a mapping onto 1..3 timers whose periods divide their group's
    GCD.  A non-harmonic group under chronos-harmonic is a ``ConfigError``.
    """
    if rng.random() < 0.5:
        base = rng.choice([1, 2, 3])
        periods = [base * m for m in (1, 2, 4, 8)]
    else:
        periods = list(range(1, 25))
    horizon = rng.choice([None, rng.randint(1, 80)])
    specs = []
    for _ in range(rng.randint(1, 8)):
        period = rng.choice(periods)
        releases = rng.randint(1, 3)
        if horizon is not None and rng.random() < 0.5:
            releases = None
        specs.append((rng.randint(0, period + 1), period, rng.randint(1, period),
                      releases))
    ts = tasks_of(*specs)
    strategy = rng.choice(list(Strategy))
    if strategy is Strategy.BASELINE:
        mapping = single_timer_mapping(
            ts, period=rng.choice(divisors(math.gcd(*ts.periods()))))
    else:
        k = rng.randint(1, 3)
        assignment = {t.id: rng.randint(1, k) for t in ts.tasks}
        mapping = grouped_mapping(ts, k, assignment, rng.choice)
    return SimConfig(
        task_set=ts, strategy=strategy, mapping=mapping, horizon=horizon,
        overhead_as_time=rng.random() < 0.5,
        time_scale=rng.choice([1, 4, 100]),
        check_invariants=rng.random() < 0.5,
        trace_limit=rng.choice([3, 100_000]))


# SHA-256 over ``run_digest`` and ``events_dropped`` (or the ``ConfigError``
# text) of the first ``SEEDED_RUNS`` configurations of ``seeded_config``;
# each run was checked field for field against ``reference_run`` when pinned.
SEEDED_RUNS = 1000
SEEDED_RUNS_PIN = "be9a5569bb053d29c251f41d9a0e214515355b6a76621f300404991a976b4aa1"


class TestSeededRunsPin:
    """A differential pin over many small random runs: any change to an
    output, a ledger counter or the trace of any of them moves it."""

    def test_digest_over_seeded_configurations(self):
        rng = random.Random(20260)
        digest = hashlib.sha256()
        for _ in range(SEEDED_RUNS):
            config = seeded_config(rng)
            try:
                m = run(config)
            except ConfigError as exc:
                digest.update(f"ConfigError: {exc}\n".encode())
                continue
            digest.update(f"{run_digest(m)} {m.events_dropped}\n".encode())
        assert digest.hexdigest() == SEEDED_RUNS_PIN


TRACE_FIELDS = ("events", "events_dropped")


@st.composite
def sim_configs(draw):
    """Small runs of every strategy, with and without horizon and overhead.

    The multi-timer strategies run on 1..3 timers, so several timers can fire
    at one instant.  Chronos-harmonic is drawn only with harmonic periods,
    which makes every group a harmonic chain.
    """
    harmonic = draw(st.booleans())
    base = draw(st.sampled_from([1, 2, 3]))
    periods = (st.sampled_from([base, 2 * base, 4 * base, 8 * base]) if harmonic
               else st.integers(min_value=1, max_value=12))
    n = draw(st.integers(min_value=1, max_value=6))
    horizon = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=60)))
    specs = []
    for _ in range(n):
        period = draw(periods)
        releases = (draw(st.integers(min_value=1, max_value=3)) if horizon is None
                    else draw(st.one_of(st.none(), st.integers(min_value=1, max_value=3))))
        specs.append((draw(st.integers(min_value=0, max_value=period + 1)), period,
                      draw(st.integers(min_value=1, max_value=period)), releases))
    ts = tasks_of(*specs)
    choices = [Strategy.BASELINE, Strategy.CHRONOS, Strategy.CHRONOS_CONST]
    if harmonic:
        choices.append(Strategy.CHRONOS_HARMONIC)
    strategy = draw(st.sampled_from(choices))
    if strategy is Strategy.BASELINE:
        mapping = single_timer_mapping(
            ts, period=draw(st.sampled_from(divisors(math.gcd(*ts.periods())))))
    else:
        k = draw(st.integers(min_value=1, max_value=3))
        assignment = {t.id: draw(st.integers(min_value=1, max_value=k))
                      for t in ts.tasks}
        mapping = grouped_mapping(ts, k, assignment,
                                  lambda seq: draw(st.sampled_from(seq)))
    return SimConfig(
        task_set=ts, strategy=strategy, mapping=mapping, horizon=horizon,
        overhead_as_time=draw(st.booleans()),
        time_scale=draw(st.sampled_from([1, 4, 100])),
        trace_limit=draw(st.sampled_from([3, 100_000])))


class TestObservationOnly:
    @settings(max_examples=200, deadline=None)
    @given(config=sim_configs())
    def test_trace_and_checks_change_no_other_field(self, config):
        outcomes = []
        for collect in (False, True):
            for check in (False, True):
                m = run(dataclasses.replace(config, collect_trace=collect,
                                            check_invariants=check))
                fields = dataclasses.asdict(m)
                for name in TRACE_FIELDS:
                    assert (fields.pop(name) is None) is not collect
                outcomes.append(fields)
        assert all(o == outcomes[0] for o in outcomes[1:])


class TestDelayOncePerInterruptInstant:
    """The exactness of delaying ended jobs once per interrupt instant (see
    ``TestEndJobsBatches``): every delayed job, in end order, gets the next
    release of its own end instant."""

    @settings(max_examples=300, deadline=None)
    @given(config=sim_configs())
    def test_each_job_gets_the_release_after_its_own_end(self, config):
        config = dataclasses.replace(config, collect_trace=True,
                                     trace_limit=100_000)
        delayed = []  # (task, next release) per delayed job, in call order
        calls = 0

        def recording_delay_task(state, task_ids):
            nonlocal calls
            calls += 1
            dispatch.delay_task(state, task_ids)
            delayed.extend((tid, state.next_release[tid]) for tid in task_ids)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "delay_task", recording_delay_task)
            m = run(config)
        assert m.events_dropped == 0
        period = {task.id: task.period for task in config.task_set.tasks}
        assert delayed == [(tid, (t // period[tid] + 1) * period[tid])
                           for t, kind, _, tid in m.events if kind == "delay"]
        # One call per interrupt instant at most, plus one when the run ends.
        assert calls <= m.total_interrupts + 1


class TestMetricsJsonCounters:
    @settings(max_examples=100, deadline=None)
    @given(config=sim_configs(), collect=st.booleans(),
           weights=st.lists(st.integers(min_value=0, max_value=20),
                            min_size=len(dataclasses.fields(CostWeights)),
                            max_size=len(dataclasses.fields(CostWeights))))
    def test_metrics_json_counters_weigh_up_to_the_costs(self, config, collect,
                                                         weights):
        cost_weights = CostWeights(*weights)
        m = run(dataclasses.replace(config, weights=cost_weights,
                                    collect_trace=collect))
        obj = json.loads(json.dumps(m.to_json()))
        for counters, cost in (("interrupt_counters", "interrupt_cost"),
                               ("delay_counters", "delay_cost")):
            assert sum(count * cost_weights.weight_of(name)
                       for name, count in obj[counters].items()) == obj[cost]
        assert obj["events_dropped"] == m.events_dropped
        assert (obj["events_dropped"] is None) is not collect
        assert "events" not in obj


class TestMetricsCsvRow:
    """The metrics CSV row is the metrics JSON's scalar entries, but for
    ``events_dropped``, each through ``_csv_value``."""

    @settings(max_examples=100, deadline=None)
    @given(config=sim_configs())
    def test_metrics_csv_row_is_the_json_scalars(self, config):
        m = run(config)
        obj = json.loads(json.dumps(m.to_json()))

        def rational(value):
            return isinstance(value, dict) and set(value) == {"num", "den"}

        # A rational is a scalar in {"num", "den"} form.
        scalars = {name: Fraction(value["num"], value["den"]) if rational(value)
                   else value
                   for name, value in obj.items()
                   if rational(value) or not isinstance(value, (list, dict))}
        del scalars["events_dropped"]
        buf = io.StringIO()
        write_metrics_csv(m, buf)
        header, row = csv.reader(io.StringIO(buf.getvalue()))
        assert header == list(scalars)
        assert row == [str(_csv_value(value)) for value in scalars.values()]


class TestTimeConservation:
    @settings(max_examples=300, deadline=None)
    @given(config=sim_configs())
    def test_busy_idle_overhead_sum_to_total_time(self, config):
        m = run(config)
        assert m.busy_time + m.idle_time + m.overhead_time == m.total_time
        if config.horizon is not None:
            assert m.total_time == config.horizon


def preset_configs(preset, pick):
    """``(factor, strategy, timers, config)`` for each run ``chronosim sweep
    --preset`` makes at the factors ``pick`` takes from the preset's list,
    with checked dispatcher invariants and no trace; ``timers`` is the
    mapping the strategy ticks on."""
    scenario = json.loads(resources.files("chronosim").joinpath(
        "presets", f"{preset}.json").read_text(encoding="utf-8"))
    task_set = cli._scenario_task_set(scenario, None)
    if "fixed_timer_period" in scenario:
        mapping = single_timer_mapping(
            task_set, period=scenario["fixed_timer_period"])
    else:
        mapping = solve(OptimizationProblem.from_task_set(
            task_set, scenario["timers"])).mapping
    horizon = cli._scenario_horizon(scenario, task_set)
    task_set = cli._strip_release_limits(task_set)
    for factor in pick(cli._factors(scenario)):
        ts_scaled = task_set.scaled(factor)
        map_scaled = mapping.scaled(factor)
        for strategy in applicable_strategies(ts_scaled, map_scaled):
            baseline = strategy is Strategy.BASELINE
            timers = (single_timer_mapping(ts_scaled, period=factor) if baseline
                      else map_scaled)
            yield factor, strategy, timers, SimConfig(
                task_set=ts_scaled, strategy=strategy, mapping=timers,
                horizon=horizon * factor,
                overhead_as_time=scenario["overhead_as_time"],
                time_scale=scenario["time_scale"],
                collect_trace=False, check_invariants=True)


class TestPresetInvariants:
    """Every shipped preset under checked dispatcher invariants.

    Each preset runs as ``chronosim sweep`` builds it, under every strategy
    that applies to its mapping: at its first and last period factor in the
    default run, and at every factor in between in the ``slow`` variant.
    """

    @staticmethod
    def check_factors(preset, pick):
        for factor, strategy, timers, config in preset_configs(preset, pick):
            m = run(config)
            label = (preset, factor, strategy.value)
            assert m.total_interrupts == sum(
                config.horizon // tc.period
                for tc in timers.used_timers()), label
            # Steady state never retires a task: every completed or
            # abandoned job is delayed once.
            delays = m.jobs_completed + m.deadline_misses
            assert m.delay_counters["comparison"] == delays, label
            removed = m.interrupt_counters["list_remove"]
            if strategy is Strategy.CHRONOS_CONST:
                assert m.delay_counters["list_append"] == delays, label
            elif strategy is Strategy.CHRONOS_HARMONIC:
                assert m.delay_counters["slot_write"] == delays, label
                removed = m.interrupt_counters["slot_write"]
            assert m.interrupt_counters["ready_insert"] == removed, label

    @pytest.mark.parametrize("preset", cli.PRESETS)
    def test_interrupt_counts_and_ledger_identities(self, preset):
        self.check_factors(preset, lambda factors: (factors[0], factors[-1]))

    @pytest.mark.slow
    @pytest.mark.parametrize("preset", cli.PRESETS)
    def test_every_factor_in_between(self, preset):
        self.check_factors(preset, lambda factors: factors[1:-1])


class TestFactorInvariance:
    """With every wcet 0, no job occupies the CPU, so scaling every period
    and the horizon by a factor only stretches the time axis: the same
    interrupts, releases, delays and misses happen in the same order."""

    @pytest.mark.parametrize("preset", ["low", "harmonic_low", "harmonic_single"])
    def test_counters_at_factor_15_equal_factor_1(self, preset):
        outcomes = {1: {}, 15: {}}
        for factor, strategy, _, config in preset_configs(preset, lambda _: (1, 15)):
            assert all(t.wcet == 0 for t in config.task_set.tasks)
            m = run(config)
            outcomes[factor][strategy] = (
                m.interrupt_counters, m.delay_counters,
                [(s.interrupts, s.required) for s in m.per_timer],
                m.total_interrupts, m.deadline_misses)
        assert outcomes[15] == outcomes[1]


class TestReferenceSimulator:
    """``sim.run`` against ``oracles.reference_run``, which steps one time
    unit at a time, keeps one dict per live job, scans the waiting jobs for
    the next one and delays each job at its own end instant."""

    @settings(max_examples=400, deadline=None)
    @given(config=sim_configs(), check=st.booleans())
    def test_random_runs_agree_field_for_field(self, config, check):
        config = dataclasses.replace(config, check_invariants=check)
        assert dataclasses.asdict(run(config)) == dataclasses.asdict(
            reference_run(config))

    @pytest.mark.parametrize("preset", cli.PRESETS)
    def test_presets_agree_at_factors_1_and_15(self, preset):
        # Dataclass equality compares what ``asdict`` would, without copying
        # the traces.
        for factor, strategy, _, config in preset_configs(preset, lambda _: (1, 15)):
            config = dataclasses.replace(config, collect_trace=True)
            assert run(config) == reference_run(config), (
                preset, factor, strategy.value)

    @pytest.mark.parametrize("strategy", [
        Strategy.BASELINE, Strategy.CHRONOS, Strategy.CHRONOS_CONST],
        ids=lambda s: s.value)
    @pytest.mark.parametrize("collect", [False, True])
    def test_zero_length_jobs_retire_at_their_own_last_release(
            self, strategy, collect):
        # Zero-length tasks 1-3 release their last jobs at 2, 8 and 9: from
        # t = 2 on, some zero-length jobs end their task and others do not,
        # at instants shared with each other and with tasks 4 and 5.
        ts = tasks_of((0, 2, 2, 1), (0, 3, 3, 3), (0, 2, 1, 4),
                      (1, 2, 2, 3), (2, 6, 6, 2))
        mapping = (single_timer_mapping(ts) if strategy is Strategy.BASELINE
                   else Mapping(timers=(TimerConfig(1, 2), TimerConfig(2, 3)),
                                assignment={1: 1, 2: 2, 3: 1, 4: 1, 5: 1}))
        config = SimConfig(task_set=ts, strategy=strategy, mapping=mapping,
                           horizon=None, collect_trace=collect,
                           check_invariants=True)
        metrics = run(config)
        assert dataclasses.asdict(metrics) == dataclasses.asdict(
            reference_run(config))
        assert metrics.jobs_completed == 2 + 4 + 5 + 4 + 3
        assert metrics.total_time == 14
        if collect:
            retire = [(t, tid) for t, kind, _, tid in metrics.events
                      if kind == "retire" and tid <= 3]
            assert retire == [(2, 1), (8, 3), (9, 2)]


class TestSpecDispatcher:
    """``sim.run`` against ``reference_run`` over ``oracles.SpecDispatcher``,
    which charges every primitive as the ``dispatch`` module docstring
    describes it.  ``reference_run`` over the package's dispatcher shares any
    wrong charge of ``dispatch``; this differential does not."""

    @settings(max_examples=200, deadline=None)
    @given(config=sim_configs())
    def test_random_runs_agree_field_for_field(self, config):
        assert run(config) == reference_run(config, SPEC_DISPATCHER)

    @pytest.mark.parametrize("preset", cli.PRESETS)
    def test_presets_agree_at_factors_1_and_15(self, preset):
        for factor, strategy, _, config in preset_configs(preset, lambda _: (1, 15)):
            assert run(config) == reference_run(config, SPEC_DISPATCHER), (
                preset, factor, strategy.value)


# name: ((wcet, period, deadline, releases limit) per task, timer period,
#        horizon, other settings, total time, events that must occur in this
#        order, as (time, kind, task)).  Every group is a harmonic chain.
SEGMENT_CASES = {
    # Task 1 ends at 3 inside the first segment; task 2's job runs across
    # the tick at 5, which ends the segment, and the next segment completes
    # tasks 2 and 3 at 7 and 9.
    "next_tick": (
        ((3, 10, 10, None), (4, 20, 20, None), (2, 40, 40, None)), 5, 20, {}, 20,
        [(3, "complete", 1), (5, "interrupt", None), (7, "complete", 2),
         (9, "complete", 3)]),
    # Task 2 ends at the tick at 5, which the segment leaves to the pass:
    # after that instant's interrupt and release.
    "completion_at_tick": (
        ((2, 5, 5, None), (3, 10, 10, None)), 5, 10, {}, 10,
        [(5, "interrupt", None), (5, "release", 1), (5, "complete", 2),
         (5, "delay", 2)]),
    # Two completions inside the segment, then the horizon cuts task 3.
    "horizon_mid_segment": (
        ((3, 10, 10, None), (3, 20, 20, None), (3, 40, 40, None)), 10, 7, {}, 7,
        [(3, "complete", 1), (6, "complete", 2)]),
    # Task 2 ends at the horizon itself, which the segment leaves to the pass.
    "completion_at_horizon": (
        ((3, 10, 10, None), (3, 20, 20, None), (3, 40, 40, None)), 10, 6, {}, 6,
        [(3, "complete", 1), (6, "complete", 2)]),
    # Task 2's deadline at 4 ends the segment while its job runs late.
    "late_job_at_bucket": (
        ((3, 5, 5, None), (2, 10, 4, None)), 5, 10, {}, 10,
        [(3, "complete", 1), (4, "miss", 2), (5, "interrupt", None)]),
    # Task 2 ends at 2, before its deadline 4, and task 4 at 9, before its
    # deadline 12.  Task 3's job runs across 4, and the backlog left by the
    # interrupt at 10 runs across 12: both stop at a bucket with no live job.
    "bucket_of_ended_jobs": (
        ((1, 10, 10, None), (1, 20, 4, None), (6, 40, 40, None),
         (1, 80, 12, None)), 10, 40,
        {"overhead_as_time": True, "time_scale": 4}, 40,
        [(1, "complete", 1), (2, "complete", 2), (8, "complete", 3),
         (9, "complete", 4), (10, "interrupt", None), (24, "miss", 2)]),
    # Tasks 1 and 2 share a period and slice until one unit is left; task 3
    # then runs to completion inside the segment.
    "equal_period_waits": (
        ((2, 10, 10, None), (2, 10, 10, None), (3, 20, 20, None)), 10, 20, {}, 20,
        [(3, "complete", 1), (4, "complete", 2), (7, "complete", 3),
         (13, "complete", 1), (14, "complete", 2)]),
    # Task 3 is abandoned at 2 while it waits behind task 2.  Its stale
    # entry heads the ready heap once task 2 ends at 4, inside the segment,
    # and dropping it empties the heap.
    "empty_ready_heap": (
        ((3, 5, 5, None), (1, 10, 10, None), (2, 20, 2, None)), 5, 10, {}, 10,
        [(2, "miss", 3), (3, "complete", 1), (4, "complete", 2),
         (5, "interrupt", None)]),
    # Each task's last job retires inside a segment; the run ends at 13.
    "last_job_retires": (
        ((2, 5, 5, 1), (3, 10, 10, 1)), 5, None, {}, 13,
        [(7, "complete", 1), (7, "retire", 1), (13, "complete", 2),
         (13, "retire", 2)]),
    # Task 1 ends at 1 inside the segment, which starts task 2 while task 3,
    # of equal period, waits: the slice boundary at 2 ends the advance, and
    # the two slice until task 2 ends at 4, not at 3.
    "slice_after_inline_start": (
        ((1, 5, 5, None), (2, 10, 10, None), (2, 10, 10, None)), 5, 10, {}, 10,
        [(1, "complete", 1), (4, "complete", 2), (5, "interrupt", None),
         (5, "complete", 3)]),
}


class TestSegments:
    """Between two interrupt instants ``sim.run`` completes jobs one after
    another without a full pass.  One small run per way such a segment ends,
    against ``reference_run`` over both dispatchers, traced and untraced."""

    @pytest.mark.parametrize("collect", [False, True])
    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
    @pytest.mark.parametrize("name", list(SEGMENT_CASES))
    def test_segment_stop_matches_the_reference(self, name, strategy, collect):
        specs, timer_period, horizon, settings_, total_time, expected = (
            SEGMENT_CASES[name])
        ts = tasks_of(*specs)
        config = SimConfig(task_set=ts, strategy=strategy,
                           mapping=single_timer_mapping(ts, period=timer_period),
                           horizon=horizon, collect_trace=collect,
                           check_invariants=True, **settings_)
        metrics = run(config)
        assert dataclasses.asdict(metrics) == dataclasses.asdict(
            reference_run(config))
        assert metrics == reference_run(config, SPEC_DISPATCHER)
        assert metrics.total_time == total_time
        if collect:
            # Each search resumes after the previous match: an ordered subsequence.
            seen = iter((t, kind, tid) for t, kind, _, tid in metrics.events)
            assert all(event in seen for event in expected), expected


# The largest hyperperiod ``rate_monotonic_sets`` draws: every run goes to
# the hyperperiod, and the baseline ticks at the periods' GCD, often 1.
RTA_HYPERPERIOD = 2520


@st.composite
def rate_monotonic_sets(draw, equal_periods=False):
    """1..6 tasks with periods in 2..39 and a hyperperiod of at most
    ``RTA_HYPERPERIOD``, wcet 0..period/2 (zero-length jobs included),
    deadline 1..period and no release limit.  The periods are distinct unless
    ``equal_periods``; then each task after the first may repeat one."""
    periods = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        if equal_periods and periods and draw(st.booleans()):
            periods.append(draw(st.sampled_from(periods)))
            continue
        fits = [p for p in range(2, 40) if p not in periods
                and math.lcm(p, *periods) <= RTA_HYPERPERIOD]
        if not fits:
            break
        periods.append(draw(st.sampled_from(fits)))
    return tasks_of(*[(draw(st.integers(min_value=0, max_value=p // 2)), p,
                       draw(st.integers(min_value=1, max_value=p)), None)
                      for p in periods])


def runs_to_hyperperiod(task_set):
    """(strategy, metrics) of the baseline at the periods' GCD and of chronos
    and chronos-const with one timer per task, each run to the hyperperiod."""
    own_timers = Mapping(
        timers=tuple(TimerConfig(task.id, task.period) for task in task_set.tasks),
        assignment={task.id: task.id for task in task_set.tasks})
    for strategy in (Strategy.BASELINE, Strategy.CHRONOS, Strategy.CHRONOS_CONST):
        mapping = (single_timer_mapping(
            task_set, period=math.gcd(*task_set.periods()))
            if strategy is Strategy.BASELINE else own_timers)
        yield strategy, run(SimConfig(
            task_set=task_set, strategy=strategy, mapping=mapping,
            horizon=hyperperiod(task_set), collect_trace=False))


class TestResponseTimeAnalysis:
    """Deadline misses against the closed form ``oracles.response_time``.
    With distinct periods, constrained deadlines and no overhead as time,
    rate-monotonic scheduling from the synchronous start (the critical
    instant) misses a deadline within the hyperperiod iff some task's
    response time exceeds its deadline.  A task never delays one of higher
    priority, so the first such task in period order is the highest-priority
    task that misses."""

    @settings(max_examples=100, deadline=None)
    @given(task_set=rate_monotonic_sets())
    def test_misses_follow_the_response_time_recurrence(self, task_set):
        tasks = sorted(task_set.tasks, key=lambda task: task.period)
        failing = [task.id for i, task in enumerate(tasks)
                   if response_time(task, tasks[:i]) > task.deadline]
        for strategy, metrics in runs_to_hyperperiod(task_set):
            missed = {tid for _, tid in metrics.miss_events}
            assert bool(missed) == bool(failing), strategy.value
            if failing:
                first = next(task.id for task in tasks if task.id in missed)
                assert first == failing[0], strategy.value

    @settings(max_examples=100, deadline=None)
    @given(task_set=rate_monotonic_sets(equal_periods=True))
    @example(task_set=tasks_of((1, 5, 1, None), (2, 5, 4, None), (2, 5, 5, None),
                               (1, 9, 9, None))).xfail(
        raises=AssertionError,
        reason="task 3's job ends at 5, its own next release, which drops the "
               "job due then, so no run misses where the lower bound says "
               "task 4 must")
    def test_round_robin_lies_between_two_recurrences(self, task_set):
        # Tasks of equal period share the CPU in one-unit slices.  Counted
        # as higher priority, a task's peers give an upper bound on its
        # response time: each has one job in a window of at most its period.
        # Left out, they give a lower bound: if no job missed, every job of
        # a shorter period would run in full ahead of the task's first job.
        upper = [response_time(task, [h for h in task_set.tasks
                                      if h.period <= task.period and h is not task])
                 > task.deadline for task in task_set.tasks]
        lower = [response_time(task, [h for h in task_set.tasks
                                      if h.period < task.period])
                 > task.deadline for task in task_set.tasks]
        for strategy, metrics in runs_to_hyperperiod(task_set):
            if any(lower):
                assert metrics.miss_events, strategy.value
            if not any(upper):
                assert not metrics.miss_events, strategy.value
