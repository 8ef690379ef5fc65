"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines on the terminal.
"""

import contextlib
import math
import random
import time
from fractions import Fraction

import pytest

from chronosim.dispatch import DispatcherState, Strategy, delay_task, tick
from chronosim.model import (
    GenerationSpec,
    Mapping,
    Task,
    TaskSet,
    TimerConfig,
    expected_interrupt_rate,
    generate_task_set,
    single_timer_mapping,
)
from chronosim.optimizer import OptimizationProblem, solve
from chronosim.sim import SimConfig, period_factor_sweep, run
from oracles import brute_force_reference, interrupt_log, release_trace, required_ticks


@contextlib.contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number}: FAIL - {title}")
        raise
    print(f"\nACCEPTANCE {number}: PASS - {title}")


def make_task_set(periods, wcet=0, releases=None):
    return TaskSet(tuple(
        Task.implicit(i + 1, wcet=wcet, period=p, releases_limit=releases)
        for i, p in enumerate(periods)
    ))


def oracle_trace(task_set, horizon):
    return sorted(
        (t, task.id)
        for task in task_set.tasks
        for t in range(task.period, horizon + 1, task.period)
    )


def preset_sweep(workload, harmonic, strategies, timers=4, factors=range(1, 16)):
    """The shipped sweep pipeline: generate, optimize, steady-state window."""
    factor_range = (1, 2, 4, 8, 16) if harmonic else tuple(range(1, 11))
    spec = GenerationSpec(base_periods=(3, 5, 7, 11), factor_range=factor_range,
                          n_tasks=100, rng_seed=42, workload=workload,
                          harmonic=harmonic)
    ts = generate_task_set(spec)
    mapping = solve(OptimizationProblem.from_task_set(ts, timers)).mapping
    unbounded = TaskSet(tuple(
        Task(t.id, t.wcet, t.period, t.deadline, None) for t in ts.tasks))
    base = SimConfig(task_set=unbounded, strategy=Strategy.BASELINE,
                     mapping=mapping, horizon=5 * max(ts.periods()),
                     overhead_as_time=True, time_scale=100, collect_trace=False)
    return period_factor_sweep(base, factors, strategies)


def test_criterion_1_figure_reproduction():
    with criterion(1, "two-task figure: 10 baseline interrupts vs 7, exact"):
        started = time.monotonic()
        ts = make_task_set([2, 5], releases=5)
        base = run(SimConfig(task_set=ts, strategy=Strategy.BASELINE,
                             mapping=single_timer_mapping(ts), horizon=10))
        assert base.total_interrupts == 10
        idle = {t for t, _, released in interrupt_log(base) if released == 0}
        assert idle == {1, 3, 7, 9}
        assert base.not_required_interrupts == 4

        mapping = Mapping(timers=(TimerConfig(1, 2), TimerConfig(2, 5)),
                          assignment={1: 1, 2: 2})
        multi = run(SimConfig(task_set=ts, strategy=Strategy.CHRONOS,
                              mapping=mapping, horizon=10))
        assert multi.total_interrupts == 7
        assert multi.not_required_interrupts == 0
        assert sorted(set(t for t, _ in release_trace(multi))) == [2, 4, 5, 6, 8, 10]
        assert sorted(release_trace(multi)) == [
            (2, 1), (4, 1), (5, 2), (6, 1), (8, 1), (10, 1), (10, 2)]
        fires_at_10 = [j for t, j, _ in interrupt_log(multi) if t == 10]
        assert fires_at_10 == [1, 2]  # the double interrupt
        assert time.monotonic() - started < 1.0


def test_criterion_2_coprime_counterexample():
    with criterion(2, "coprime triple collapses to one unit timer, 1 < 31/30"):
        result = solve(OptimizationProblem(periods=(2, 3, 5), m=3))
        assert result.timers_used == 1
        assert result.mapping.used_timers()[0].period == 1
        assert result.objective == Fraction(1, 1)
        three_timer_rate = Fraction(1, 2) + Fraction(1, 3) + Fraction(1, 5)
        assert three_timer_rate == Fraction(31, 30)
        assert result.objective < three_timer_rate


def test_criterion_3_optimizer_optimality():
    with criterion(3, "exact solver matches brute force on 200+ seeded instances"):
        started = time.monotonic()
        rng = random.Random(20240101)
        for _ in range(200):
            n = rng.randint(1, 8)
            periods = tuple(rng.sample(range(1, 31), n))
            m = rng.randint(1, 4)
            problem = OptimizationProblem(periods=periods, m=m)
            exact = solve(problem)
            brute = brute_force_reference(problem)
            assert exact.method == "exact", problem
            assert exact.objective == brute.objective, problem
        assert time.monotonic() - started < 60.0


def _release_instance(rng):
    n = rng.randint(1, 6)
    while True:
        periods = rng.sample(range(2, 13), n)
        h = math.lcm(*periods)
        if h <= 2520:
            return make_task_set(periods), h


def _harmonic_instance(rng):
    base = rng.randint(2, 4)
    count = rng.randint(1, 6)
    periods = [base * 2 ** rng.randint(0, 4) for _ in range(count)]
    return make_task_set(periods), math.lcm(*periods)


def test_criterion_4_release_correctness_oracle():
    with criterion(4, "release traces equal the oracle for every strategy"):
        rng = random.Random(777)
        for _ in range(100):
            ts, horizon = _release_instance(rng)
            m = rng.randint(1, 3)
            mapping = solve(OptimizationProblem.from_task_set(ts, m)).mapping
            expected = oracle_trace(ts, horizon)
            assert sorted({t for t, _ in expected}) == required_ticks(ts, horizon)
            for strategy in (Strategy.BASELINE, Strategy.CHRONOS,
                             Strategy.CHRONOS_CONST):
                metrics = run(SimConfig(
                    task_set=ts, strategy=strategy,
                    mapping=(single_timer_mapping(ts)
                             if strategy is Strategy.BASELINE else mapping),
                    horizon=horizon))
                assert sorted(release_trace(metrics)) == expected, (ts, strategy)
        for _ in range(100):
            ts, horizon = _harmonic_instance(rng)
            mapping = Mapping(timers=(TimerConfig(1, min(ts.periods())),),
                              assignment={t.id: 1 for t in ts.tasks})
            expected = oracle_trace(ts, horizon)
            traces = []
            for strategy in (Strategy.CHRONOS, Strategy.CHRONOS_CONST,
                             Strategy.CHRONOS_HARMONIC):
                metrics = run(SimConfig(task_set=ts, strategy=strategy,
                                        mapping=mapping, horizon=horizon))
                traces.append(sorted(release_trace(metrics)))
            assert traces[0] == expected, ts
            assert traces[0] == traces[1] == traces[2], ts


def test_criterion_5_rate_formula_exactness():
    with criterion(5, "interrupt count equals sum of floor(H/P) and H*rate"):
        rng = random.Random(555)
        for _ in range(60):
            ts, horizon = _release_instance(rng)
            m = rng.randint(1, 4)
            mapping = solve(OptimizationProblem.from_task_set(ts, m)).mapping
            metrics = run(SimConfig(task_set=ts, strategy=Strategy.CHRONOS,
                                    mapping=mapping, horizon=horizon))
            by_floor = sum(horizon // tc.period for tc in mapping.used_timers())
            assert metrics.total_interrupts == by_floor
            assert metrics.total_interrupts == \
                horizon * expected_interrupt_rate(mapping)


def test_criterion_6_cost_contracts():
    with criterion(6, "constant append cost, bounded slot scans, sorted order"):
        # Constant-cost delay for the unsorted-list strategy at 1, 10, 100.
        periods = [6 * (i + 1) for i in range(100)]
        deltas = set()
        for count in (1, 10, 100):
            ts = make_task_set(periods, releases=None)
            mapping = Mapping(timers=(TimerConfig(1, 6),),
                              assignment={t.id: 1 for t in ts.tasks})
            state = DispatcherState(ts, mapping, Strategy.CHRONOS_CONST)
            for tid in range(1, count):
                delay_task(state, [tid])
            before = dict(state.delay_counts)
            delay_task(state, [count])
            after = dict(state.delay_counts)
            deltas.add(tuple(sorted(
                (k, after[k] - before[k]) for k in after if after[k] != before[k])))
        assert len(deltas) == 1

        # Slot scans never exceed the group size.
        chain = [3 * 2 ** (i % 5) for i in range(20)]
        ts = make_task_set(chain, releases=None)
        mapping = Mapping(timers=(TimerConfig(1, 3),),
                          assignment={t.id: 1 for t in ts.tasks})
        state = DispatcherState(ts, mapping, Strategy.CHRONOS_HARMONIC)
        for t in ts.tasks:
            delay_task(state, [t.id])
        for _ in range(64):
            before = dict(state.interrupt_counts)
            released = tick(state, 1)
            after = dict(state.interrupt_counts)
            assert after["comparison"] - before["comparison"] <= len(chain)
            for tid in released:
                delay_task(state, [tid])

        # Sorted order preserved across ten thousand randomized operations.
        rng = random.Random(99991)
        periods = [2, 4, 6, 8, 12, 24, 48]
        ts = make_task_set(periods, releases=None)
        mapping = Mapping(timers=(TimerConfig(1, 2),),
                          assignment={t.id: 1 for t in ts.tasks})
        state = DispatcherState(ts, mapping, Strategy.CHRONOS,
                                check_invariants=True)
        ready = set(range(1, len(periods) + 1))
        for _ in range(10_000):
            if ready and (rng.random() < 0.5 or len(ready) == len(periods)):
                tid = rng.choice(sorted(ready))
                delay_task(state, [tid])
                ready.discard(tid)
            else:
                ready.update(tick(state, 1))
            keys = [state.next_release[t] for t in state.timers[1].queue]
            assert keys == sorted(keys)


def test_criterion_7_overhead_trend_and_pinned_summary():
    with criterion(7, "cost order harmonic < const < chronos < baseline, 15 factors"):
        strategies = [Strategy.BASELINE, Strategy.CHRONOS, Strategy.CHRONOS_CONST,
                      Strategy.CHRONOS_HARMONIC]
        table = preset_sweep(workload=0, harmonic=True, strategies=strategies)
        costs = {}
        for row in table.rows:
            assert row.error is None, row
            costs.setdefault(row.factor, {})[row.strategy] = row.total_cost
        assert sorted(costs) == list(range(1, 16))
        for factor, by_strategy in costs.items():
            assert (by_strategy["chronos-harmonic"]
                    < by_strategy["chronos-const"]
                    < by_strategy["chronos"]
                    < by_strategy["baseline"]), factor

        summary = {s.strategy: s for s in table.summary()}
        for s in summary.values():
            assert s.peak_ratio > 1
            assert s.mean_ratio > 1.0
        # Regression pins: deterministic ledger totals under default weights.
        assert costs[1] == {
            "baseline": 353169,
            "chronos": 117512,
            "chronos-const": 60583,
            "chronos-harmonic": 43467,
        }
        assert summary["chronos"].peak_ratio == Fraction(353169, 117512)
        assert summary["chronos-const"].peak_ratio == Fraction(353169, 60583)
        assert summary["chronos-harmonic"].peak_ratio == Fraction(117723, 14489)
        assert summary["chronos"].mean_ratio == pytest.approx(
            3.0053866839131333, rel=1e-12)
        assert summary["chronos-const"].mean_ratio == pytest.approx(
            5.829506627271674, rel=1e-12)
        assert summary["chronos-harmonic"].mean_ratio == pytest.approx(
            8.124991372765546, rel=1e-12)

        # The non-harmonic variant orders the applicable strategies the same way.
        low = preset_sweep(workload=0, harmonic=False,
                           strategies=strategies[:3])
        low_costs = {}
        for row in low.rows:
            assert row.error is None, row
            low_costs.setdefault(row.factor, {})[row.strategy] = row.total_cost
        for factor, by_strategy in low_costs.items():
            assert (by_strategy["chronos-const"]
                    < by_strategy["chronos"]
                    < by_strategy["baseline"]), factor
        assert low_costs[1] == {
            "baseline": 182060,
            "chronos": 79235,
            "chronos-const": 34624,
        }


def test_criterion_8_scaling_invariance():
    with criterion(8, "doubling the factor halves the objective, same partition"):
        rng = random.Random(808)
        for _ in range(50):
            n = rng.randint(1, 8)
            periods = tuple(rng.sample(range(1, 31), n))
            m = rng.randint(1, 4)
            result = solve(OptimizationProblem(periods=periods, m=m))
            doubled = solve(OptimizationProblem(
                periods=tuple(p * 2 for p in periods), m=m))
            assert doubled.objective == result.objective / 2
            assert doubled.groups == tuple(
                tuple(p * 2 for p in group) for group in result.groups)
            assert doubled.timers_used == result.timers_used
