"""Budgeted solver vs brute force, fallback guarantees, and the model export."""

import math
import random
from fractions import Fraction

import pytest

from chronosim.errors import UsageError
from chronosim.model import Task, TaskSet, expected_interrupt_rate
from chronosim.optimizer import (
    DEFAULT_NODE_BUDGET,
    OptimizationProblem,
    brute_force_reference,
    export_miqcp,
    solve,
)


def random_problem(rng, max_n=8, max_period=30, max_m=4):
    n = rng.randint(1, max_n)
    periods = rng.sample(range(1, max_period + 1), n)
    return OptimizationProblem(periods=tuple(periods), m=rng.randint(1, max_m))


def result_shape(result):
    """Canonical comparison key: objective, timer count, period groups."""
    return (result.objective, result.timers_used, result.groups)


class TestSolveExact:
    def test_coprime_triple_collapses_to_single_unit_timer(self):
        result = solve(OptimizationProblem(periods=(2, 3, 5), m=3))
        assert result.timers_used == 1
        assert result.mapping.used_timers()[0].period == 1
        assert result.objective == Fraction(1)
        # Splitting over three timers is strictly worse.
        assert Fraction(1, 2) + Fraction(1, 3) + Fraction(1, 5) > result.objective

    def test_two_coprime_periods_get_their_own_timers(self):
        result = solve(OptimizationProblem(periods=(2, 5), m=2))
        assert result.objective == Fraction(7, 10)
        assert result.groups == ((2,), (5,))
        assert [tc.period for tc in result.mapping.used_timers()] == [2, 5]

    def test_four_base_instance_matches_partition_enumeration(self):
        # Two multiples of each base; the optimum groups by base.
        periods = (3, 6, 5, 10, 7, 14, 11, 22)
        problem = OptimizationProblem(periods=periods, m=4)
        expected = Fraction(1, 3) + Fraction(1, 5) + Fraction(1, 7) + Fraction(1, 11)
        assert expected == Fraction(886, 1155)
        reference = brute_force_reference(problem)
        assert reference.objective == Fraction(886, 1155)
        result = solve(problem)
        assert result.objective == Fraction(886, 1155)
        assert sorted(tc.period for tc in result.mapping.used_timers()) == [3, 5, 7, 11]

    def test_empty_period_set_rejected(self):
        with pytest.raises(UsageError):
            OptimizationProblem(periods=(), m=1)

    def test_mapping_covers_source_task_set(self):
        ts = TaskSet((
            Task.implicit(1, 0, 6), Task.implicit(2, 0, 10),
            Task.implicit(3, 0, 6),  # duplicate period rides the same timer
        ))
        result = solve(OptimizationProblem.from_task_set(ts, 2))
        assignment = result.mapping.assignment
        assert assignment[1] == assignment[3]
        assert set(assignment) == {1, 2, 3}
        result.mapping.validate(ts)

    def test_divisor_witnesses_mirror_period_ratio(self):
        ts = TaskSet((Task.implicit(1, 0, 6), Task.implicit(2, 0, 12)))
        result = solve(OptimizationProblem.from_task_set(ts, 1))
        for task in ts.tasks:
            timer = result.mapping.timer_by_id(result.mapping.assignment[task.id])
            assert result.divisor_witnesses[task.id] * timer.period == task.period


class TestBruteForceReference:
    def test_two_periods_two_partitions(self):
        result = brute_force_reference(OptimizationProblem(periods=(2, 5), m=2))
        assert result.objective == Fraction(7, 10)
        assert result.stats.subsets == 2  # {2,5} and {2},{5}

    def test_singleton(self):
        result = brute_force_reference(OptimizationProblem(periods=(4,), m=3))
        assert result.objective == Fraction(1, 4)
        assert result.timers_used == 1

    def test_power_chain_stays_together(self):
        result = brute_force_reference(OptimizationProblem(periods=(2, 4, 8), m=2))
        assert result.objective == Fraction(1, 2)
        assert result.groups == ((2, 4, 8),)
        assert result.stats.subsets == 4  # all partitions into at most 2 blocks

    def test_bound(self):
        with pytest.raises(UsageError):
            brute_force_reference(OptimizationProblem(periods=tuple(range(1, 12)), m=2))


class TestExactMatchesBruteForce:
    def test_objective_and_tie_break_agree_on_random_instances(self):
        rng = random.Random(2024)
        for _ in range(250):
            problem = random_problem(rng)
            exact = solve(problem)
            brute = brute_force_reference(problem)
            assert exact.objective == brute.objective, problem
            # The divisor-closed pruning must preserve the full tie-break.
            assert result_shape(exact) == result_shape(brute), problem

    def test_group_period_is_gcd_and_divides_members(self):
        rng = random.Random(7)
        for _ in range(100):
            problem = random_problem(rng)
            result = solve(problem)
            for timer, group in zip(result.mapping.used_timers(), result.groups):
                assert timer.period == math.gcd(*group)
                assert all(p % timer.period == 0 for p in group)

    def test_gcd_dominance_lemma(self):
        # Replacing a group's timer period with any smaller common divisor
        # never improves the rate: 1/P is minimized by the largest divisor.
        rng = random.Random(13)
        for _ in range(60):
            problem = random_problem(rng, max_n=6)
            result = solve(problem)
            for timer, group in zip(result.mapping.used_timers(), result.groups):
                divisors = [
                    d for d in range(1, timer.period + 1)
                    if all(p % d == 0 for p in group)
                ]
                assert max(divisors) == timer.period
                for d in divisors:
                    assert Fraction(1, d) >= Fraction(1, timer.period)

    def test_objective_monotone_in_timer_budget(self):
        rng = random.Random(5)
        for _ in range(40):
            base = random_problem(rng, max_n=6, max_m=1)
            previous = None
            for m in range(1, 6):
                problem = OptimizationProblem(periods=base.periods, m=m)
                objective = solve(problem).objective
                if previous is not None:
                    assert objective <= previous
                previous = objective

    def test_uniform_scaling_invariance(self):
        rng = random.Random(31)
        for _ in range(60):
            problem = random_problem(rng)
            result = solve(problem)
            for factor in (2, 3):
                scaled = OptimizationProblem(
                    periods=tuple(p * factor for p in problem.periods), m=problem.m)
                scaled_result = solve(scaled)
                assert scaled_result.objective * factor == result.objective
                assert scaled_result.groups == tuple(
                    tuple(p * factor for p in group) for group in result.groups)

    def test_objective_equals_mapping_rate(self):
        rng = random.Random(17)
        for _ in range(60):
            problem = random_problem(rng)
            result = solve(problem)
            assert expected_interrupt_rate(result.mapping) == result.objective


class TestGreedyHeuristic:
    """The fallback taken when the search runs out of its node budget."""

    def test_coprime_triple_falls_back_to_single_group(self):
        # Greedy extraction gives 1/5 + 1/3 + 1/2 > 1; the guard keeps gcd 1.
        result = solve(OptimizationProblem(periods=(2, 3, 5), m=3), node_budget=1)
        assert result.method == "heuristic"
        assert result.objective == Fraction(1)
        assert result.timers_used == 1

    def test_two_coprime_periods_match_exact(self):
        result = solve(OptimizationProblem(periods=(2, 5), m=2), node_budget=2)
        assert result.method == "exact"
        assert result.stats.nodes <= 2
        assert result.objective == Fraction(7, 10)

    def test_never_worse_than_single_group(self):
        result = solve(OptimizationProblem(periods=(6, 10, 15), m=3), node_budget=1)
        assert result.method == "heuristic"
        assert result.objective <= Fraction(1)  # gcd of all three is 1

    def test_matches_exact_wherever_exact_runs(self):
        rng = random.Random(99)
        for _ in range(200):
            problem = random_problem(rng)
            exact = solve(problem)
            assert exact.method == "exact"
            for budget in (1, 4):
                budgeted = solve(problem, node_budget=budget)
                assert budgeted.objective >= exact.objective, problem
                if budgeted.method == "exact":
                    assert budgeted.stats.nodes <= budget
                    assert result_shape(budgeted) == result_shape(exact), problem
                else:
                    assert budgeted.stats.nodes > budget
                    assert budgeted.objective <= Fraction(
                        1, math.gcd(*problem.periods)), problem

    def test_completes_beyond_twenty_periods(self):
        # All multiples of four bases; optimum is one timer per base.
        periods = sorted({b * r for b in (3, 5, 7, 11) for r in range(1, 11)})
        assert len(periods) > 20
        result = solve(OptimizationProblem(periods=tuple(periods), m=4))
        assert result.method == "exact"
        assert result.objective == Fraction(886, 1155)
        assert sorted(tc.period for tc in result.mapping.used_timers()) == [3, 5, 7, 11]

    def test_budget_exhaustion_falls_back_to_extraction(self):
        periods = sorted({b * r for b in (3, 5, 7, 11) for r in range(1, 11)})
        result = solve(
            OptimizationProblem(periods=tuple(periods), m=4), node_budget=1)
        assert result.method == "heuristic"
        assert result.stats.nodes > 1
        # Still valid and never worse than the single-group mapping.
        assert result.objective <= Fraction(1, math.gcd(*periods))
        assert result.timers_used <= 4


class TestHugeLcm:
    # The twelve largest primes below 2**16: three hubs, nine spokes.
    HUBS = (65521, 65519, 65497)
    SPOKES = (65479, 65449, 65447, 65437, 65423, 65419, 65413, 65407, 65393)

    @pytest.mark.parametrize("m", [2, 3])
    def test_hub_spoke_products_match_brute_force(self, m):
        # Three periods per hub, each hub times its own spoke, so a hub's
        # periods share a GCD near 2**16 and lcm(periods) has 192 bits.  The
        # period hub0 * hub1 fits either of two hub groups at equal rate, so
        # the tie-break rests on exact equality of the scaled sums.
        periods = tuple(hub * spoke for k, hub in enumerate(self.HUBS)
                        for spoke in self.SPOKES[3 * k:3 * k + 3])
        periods += (self.HUBS[0] * self.HUBS[1],)
        assert math.lcm(*periods).bit_length() == 192
        problem = OptimizationProblem(periods=periods, m=m)
        result = solve(problem)
        brute = brute_force_reference(problem)
        assert result.method == "exact"
        assert result_shape(result) == result_shape(brute)
        objective = result.to_json()["objective"]
        assert math.gcd(objective["num"], objective["den"]) == 1
        assert Fraction(objective["num"], objective["den"]) == brute.objective
        if m == 3:
            assert sorted(math.gcd(*group) for group in result.groups) == sorted(
                self.HUBS)


class TestSearchWorkPins:
    """The search's work, node for node, on one exact and one budgeted run.

    Node and subset counts depend on the order in which candidate groups are
    tried, and the budgeted result depends on where the budget runs out, so a
    change to the search's arithmetic must leave all of them as they are.
    """

    def test_four_base_forty_periods(self):
        periods = sorted({b * r for b in (3, 5, 7, 11) for r in range(1, 11)})
        result = solve(OptimizationProblem(periods=tuple(periods), m=4))
        assert result.method == "exact"
        assert (result.stats.nodes, result.stats.subsets) == (4, 7)
        assert result.objective == Fraction(886, 1155)
        assert result.groups == (
            (3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33, 42, 45, 63, 66, 99),
            (5, 10, 20, 25, 35, 40, 50, 55, 70, 110),
            (7, 14, 28, 49, 56, 77),
            (11, 22, 44, 88),
        )

    def test_budget_exhausted_divisor_rich_periods(self):
        periods = [p for p in range(60, 351)
                   if sum(1 for d in range(1, p + 1) if p % d == 0) >= 12][:48]
        result = solve(OptimizationProblem(periods=tuple(periods), m=10))
        assert result.method == "heuristic"
        assert (result.stats.nodes, result.stats.subsets) == (
            DEFAULT_NODE_BUDGET + 1, 138426)
        assert result.objective == Fraction(8494007149, 15579194400)
        assert result.groups == (
            (350,), (348,), (342,), (340,), (84, 168, 252, 336), (330,),
            (108, 216, 324), (160, 320), (315,),
            (60, 72, 90, 96, 120, 126, 132, 140, 144, 150, 156, 180, 192, 198,
             200, 204, 210, 220, 224, 228, 234, 240, 260, 264, 270, 276, 280,
             288, 294, 300, 306, 308, 312),
        )


class TestExportMiqcp:
    def test_variable_and_constraint_counts_for_two_by_two(self, tmp_path):
        path = tmp_path / "model.lp"
        export_miqcp(OptimizationProblem(periods=(2, 5), m=2), str(path))
        text = path.read_text()
        lines = text.splitlines()
        subject_to = lines.index("Subject To")
        bounds = lines.index("Bounds")
        constraints = [l for l in lines[subject_to + 1:bounds]]
        # 2 rate definitions + 2 assignments + 2 divisor rows
        # + 16 product-linearization rows + 4 + 2 usage rows
        assert len(constraints) == 28
        assert sum(1 for l in constraints if l.strip().startswith("rate_def_")) == 2
        assert sum(1 for l in constraints if l.strip().startswith("assign_once_")) == 2
        assert sum(1 for l in constraints if l.strip().startswith("divisor_")) == 2
        assert sum(1 for l in constraints if l.strip().startswith("w_")) == 16
        assert sum(1 for l in constraints if l.strip().startswith("timer_used_")) == 6
        generals = lines[lines.index("Generals") + 1].split()
        binaries = lines[lines.index("Binaries") + 1].split()
        assert len([v for v in generals if v.startswith("P_")]) == 2
        assert len([v for v in generals if v.startswith("d_")]) == 2
        assert len([v for v in generals if v.startswith("w_")]) == 4
        assert len([v for v in binaries if v.startswith("m_")]) == 4
        assert len([v for v in binaries if v.startswith("u_")]) == 2
        assert "f_1" in text and "f_2" in text

    def test_minimal_model_structure(self, tmp_path):
        path = tmp_path / "mini.lp"
        export_miqcp(OptimizationProblem(periods=(6,), m=1), str(path))
        text = path.read_text()
        assert "rate_def_1: [ f_1 * P_1 ] = 1" in text
        assert "assign_once_1: m_1_1 = 1" in text
        assert "divisor_1: [ d_1 * w_1_1 ] = 6" in text
        assert " 1 <= d_1 <= 6" in text
        assert " 1 <= P_1 <= 6" in text
        assert text.endswith("End\n")

    def test_rate_bounds_use_max_period(self, tmp_path):
        path = tmp_path / "bounds.lp"
        export_miqcp(OptimizationProblem(periods=(2, 3, 5), m=3), str(path))
        text = path.read_text()
        assert " 0.2 <= f_1 <= 1" in text

    def test_nonconvexity_flagged(self, tmp_path):
        path = tmp_path / "flag.lp"
        export_miqcp(OptimizationProblem(periods=(2, 5), m=2), str(path))
        header = path.read_text().splitlines()[:6]
        assert any("non-convex" in line for line in header)

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.lp", tmp_path / "b.lp"
        problem = OptimizationProblem(periods=(4, 6, 9), m=2)
        export_miqcp(problem, str(a))
        export_miqcp(problem, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path_raises_io_error(self, tmp_path):
        with pytest.raises(OSError):
            export_miqcp(OptimizationProblem(periods=(2,), m=1),
                         str(tmp_path / "missing" / "model.lp"))
