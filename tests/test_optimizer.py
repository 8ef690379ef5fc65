"""Exact solver vs brute force and a MILP, its work and limits, and the model export."""

import hashlib
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronosim.errors import UsageError
from chronosim.model import (
    Task, TaskSet, expected_interrupt_rate, mapping_from_json,
)
from chronosim.optimizer import (
    OptimizationProblem,
    _CoverSearch,
    export_miqcp,
    solve,
)
from oracles import (
    brute_force_reference,
    cover_state,
    lp_feasible,
    lp_point,
    lp_timers,
    lp_value,
    miqcp_minimum,
    rational_from_json,
    read_lp,
)


def random_problem(rng, max_n=8, max_period=30, max_m=4):
    n = rng.randint(1, max_n)
    periods = rng.sample(range(1, max_period + 1), n)
    return OptimizationProblem(periods=tuple(periods), m=rng.randint(1, max_m))


def divisor_rich(lo, hi, min_divisors):
    return [p for p in range(lo, hi + 1)
            if sum(1 for d in range(1, p + 1) if p % d == 0) >= min_divisors]


def partition_shaped(m, n):
    """``n`` periods drawn with seed ``m`` from [60, 1000], six divisors up."""
    return random.Random(m).sample(divisor_rich(60, 1000, 6), n)


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

    def test_completes_beyond_twenty_periods(self):
        # All multiples of four bases; optimum is one timer per base.
        periods = sorted({b * r for b in (3, 5, 7, 11) for r in range(1, 11)})
        assert len(periods) > 20
        result = solve(OptimizationProblem(periods=tuple(periods), m=4))
        assert result.method == "exact"
        assert result.objective == Fraction(886, 1155)
        assert sorted(tc.period for tc in result.mapping.used_timers()) == [3, 5, 7, 11]

    def test_divisor_witnesses_mirror_period_ratio(self):
        ts = TaskSet((Task.implicit(1, 0, 6), Task.implicit(2, 0, 12)))
        result = solve(OptimizationProblem.from_task_set(ts, 1))
        for task in ts.tasks:
            timer_period = {tc.id: tc.period for tc in result.mapping.timers}
            divisor = timer_period[result.mapping.assignment[task.id]]
            assert task.period // divisor * divisor == task.period


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
    """The search's work, node for node, and the mappings it returns.

    Node and subset counts depend on the order in which states and candidate
    groups are tried, so a change to the search's arithmetic must leave them
    as they are.  The ``budget_exhausted`` instances are the benchmark's hard
    class: a plain memoized partition DP does not finish them within 20,000
    states.
    """

    def test_four_base_forty_periods(self):
        periods = sorted({b * r for b in (3, 5, 7, 11) for r in range(1, 11)})
        result = solve(OptimizationProblem(periods=tuple(periods), m=4))
        assert result.method == "exact"
        assert (result.stats.nodes, result.stats.subsets) == (4, 13)
        assert result.objective == Fraction(886, 1155)
        assert result.groups == (
            (3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33, 42, 45, 63, 66, 99),
            (5, 10, 20, 25, 35, 40, 50, 55, 70, 110),
            (7, 14, 28, 49, 56, 77),
            (11, 22, 44, 88),
        )

    def test_budget_exhausted_divisor_rich_periods(self):
        periods = divisor_rich(60, 350, 12)[:48]
        result = solve(OptimizationProblem(periods=tuple(periods), m=10))
        assert result.method == "exact"
        assert (result.stats.nodes, result.stats.subsets) == (614, 1442)
        assert result.objective == Fraction(3283919, 15315300)
        assert result.groups == (
            (60, 72, 84, 90, 96, 108, 120, 126, 132, 144, 150, 156, 168, 180,
             192, 198, 204, 210, 216, 228, 234, 240, 252, 264, 270, 276, 288,
             294, 300, 306, 312, 324, 330, 336, 342, 348), (140, 280, 350),
            (160, 320), (200,), (220,), (224,), (260,), (308,), (315,), (340,),
        )

    # Per timer budget m: the objective and groups of the search.
    PARTITION_SHAPED = {
        10: (Fraction(370526659631, 705705354900), (
            (75, 200, 425, 575, 725, 800), (98, 539, 882, 980),
            (99, 108, 144, 306, 351, 369, 477, 486, 702, 837, 990), (208, 232,
             244, 316, 424, 440, 496, 512, 548, 624, 656, 692, 840, 848, 852,
             964), (273, 546), (330, 345, 390), (418, 646), (518, 777), (618,),
            (714,),
        )),
        11: (Fraction(1274732651577443, 2244716820880380), (
            (64, 96, 100, 160, 164, 252, 264, 308, 360, 496, 504, 508, 520,
             564, 568, 592, 608, 636, 640, 656, 664, 668, 672, 688, 692, 704,
             808, 824, 832, 836, 876, 888, 900, 908, 940),
            (75, 105, 210, 255, 390, 555, 645, 810, 855, 975, 990),
            (126, 297, 369, 522, 531, 657, 774), (130, 230, 730), (258,),
            (455, 875), (574,), (582,), (638,), (678,), (867,),
        )),
        12: (Fraction(541011983584420289, 906598707250386150), (
            (60, 70, 78, 116, 126, 128, 144, 152, 154, 160, 180, 204, 212, 216,
             234, 242, 268, 276, 288, 292, 336, 342, 376, 402, 404, 414, 434,
             440, 460, 464, 476, 480, 496, 500, 516, 530, 532, 564, 568, 582,
             594, 606, 624, 642, 664, 682, 696, 702, 708, 710, 720, 728, 732,
             826, 836, 844, 846, 902, 904, 924, 960, 986, 996), (429,),
            (441, 525, 651, 987), (539,), (561, 663, 867), (605, 935), (645,),
            (725,), (885,), (931,), (981,), (999,),
        )),
    }

    @pytest.mark.parametrize("m, n, work", [
        (10, 48, (796, 1854)),
        (11, 64, (749, 1768)),
        (12, 80, (1342, 2920)),
    ])
    def test_budget_exhausted_partition_shaped(self, m, n, work):
        # Shaped like the benchmark's hard instances: 48-80 periods from the
        # integers in [60, 1000] with at least six divisors.
        periods = partition_shaped(m, n)
        result = solve(OptimizationProblem(periods=tuple(periods), m=m))
        assert result.method == "exact"
        assert (result.stats.nodes, result.stats.subsets) == work
        assert (result.objective, result.groups) == self.PARTITION_SHAPED[m]

    def test_budget_sweep_digest(self):
        # Timer budgets 1 to 6 on small random sets: what the search counts
        # and which groups win.
        rng = random.Random(11)
        digest = hashlib.sha256()
        for _ in range(50):
            n = rng.randint(1, 20)
            periods = tuple(rng.sample(range(1, 201), n))
            for m in range(1, 7):
                r = solve(OptimizationProblem(periods=periods, m=m))
                digest.update(repr(
                    (r.method, r.stats.nodes, r.stats.subsets, r.groups)).encode())
        assert digest.hexdigest() == (
            "daec9519442d96638650874a53edf9ee3960900005b43888aaecd802280f80fb")

    def test_mid_size_mappings_digest(self):
        # The timers of 300 instances of 8-32 periods, half from [2, 240]
        # and half from the integers in [12, 600] with six divisors or more,
        # pinned from a memoized partition DP that completed on all of them.
        rich = divisor_rich(12, 600, 6)
        rng = random.Random(2026)
        digest = hashlib.sha256()
        for i in range(300):
            pool = rich if i % 2 else range(2, 241)
            periods = tuple(rng.sample(pool, rng.randint(8, 32)))
            result = solve(OptimizationProblem(periods=periods, m=rng.randint(1, 8)))
            digest.update(json.dumps(result.to_json()["timers"]).encode())
        assert digest.hexdigest() == (
            "a3311b6e5fd9f19dcb86e00f92b2ccd2be1b3717d83c76cefc5ca11da82cd411")


def milp_divisors(periods, m):
    """Each period's timer period in an optimum of the set-cover MILP.

    A binary y_g for every divisor g of any period and a binary x_{p,g} for
    each g | p; sum_g x_{p,g} = 1, x_{p,g} <= y_g, sum_g y_g <= m; minimise
    sum_g y_g / g.  Solved by scipy's HiGHS with no relative gap.
    """
    np = pytest.importorskip("numpy")
    scipy_optimize = pytest.importorskip("scipy.optimize")
    divisors = sorted({g for p in periods for g in range(1, p + 1) if p % g == 0})
    column = {g: i for i, g in enumerate(divisors)}
    pairs = [(p, g) for p in periods for g in divisors if p % g == 0]
    n_vars = len(divisors) + len(pairs)
    cost = np.zeros(n_vars)
    cost[:len(divisors)] = [1 / g for g in divisors]
    rows = np.zeros((len(periods) + len(pairs) + 1, n_vars))
    lower = np.zeros(len(rows))
    upper = np.zeros(len(rows))
    row_of = {p: i for i, p in enumerate(periods)}
    for k, (p, g) in enumerate(pairs):
        x = len(divisors) + k
        rows[row_of[p], x] = 1                     # sum_g x_{p,g} = 1
        rows[len(periods) + k, x] = 1              # x_{p,g} - y_g <= 0
        rows[len(periods) + k, column[g]] = -1
    lower[:len(periods)] = upper[:len(periods)] = 1
    lower[len(periods):] = -np.inf
    rows[-1, :len(divisors)] = 1                   # sum_g y_g <= m
    upper[-1] = m
    res = scipy_optimize.milp(
        cost, constraints=scipy_optimize.LinearConstraint(rows, lower, upper),
        integrality=np.ones(n_vars), bounds=scipy_optimize.Bounds(0, 1),
        options={"mip_rel_gap": 0})
    assert res.success, res.message
    return {p: g for k, (p, g) in enumerate(pairs) if res.x[len(divisors) + k] > 0.5}


class TestMilpOracle:
    """``solve`` against an exact MILP beyond ``brute_force_reference``'s
    10-period bound (test-only; needs scipy)."""

    def test_exact_solve_matches_the_milp_optimum(self):
        # Periods in [2, 120] that are multiples of two to four small bases,
        # so most optima use several timers.
        rng = random.Random(9)
        for _ in range(30):
            bases = rng.sample(range(2, 13), rng.randint(2, 4))
            pool = [p for p in range(2, 121) if any(p % b == 0 for b in bases)]
            problem = OptimizationProblem(
                periods=tuple(rng.sample(pool, rng.randint(11, min(24, len(pool))))),
                m=rng.randint(2, 6))
            result = solve(problem)
            assert result.method == "exact"
            chosen = milp_divisors(problem.periods, problem.m)
            assert sorted(chosen) == list(problem.periods)
            assert len(set(chosen.values())) <= problem.m
            assert sum(Fraction(1, g) for g in set(chosen.values())) == \
                result.objective, problem

    def test_budget_cut_solve_near_the_milp_optimum(self):
        # Instances shaped like the benchmark's hard class, and the
        # divisor-rich one: the search reaches the MILP optimum.
        instances = [(partition_shaped(10, 48), 10), (partition_shaped(12, 80), 12),
                     (divisor_rich(60, 350, 12)[:48], 10)]
        for periods, m in instances:
            result = solve(OptimizationProblem(periods=tuple(periods), m=m))
            assert result.method == "exact"
            chosen = milp_divisors(sorted(periods), m)
            optimum = sum(Fraction(1, g) for g in set(chosen.values()))
            assert result.objective == optimum, (m, optimum)


class TestCandidateTable:
    """Each state's candidate groups and their values, against a direct scan."""

    @given(st.sets(st.integers(min_value=1, max_value=500), min_size=1, max_size=12),
           st.integers(min_value=1, max_value=4), st.data())
    @settings(max_examples=200, deadline=None)
    def test_groups_in_preference_order_with_gcd_values(self, period_set, m, data):
        periods = tuple(sorted(period_set))
        mask = data.draw(st.integers(min_value=1, max_value=(1 << len(periods)) - 1))
        groups = _CoverSearch(periods, m).groups(mask)
        members = [i for i in range(len(periods)) if mask >> i & 1]
        lowest = periods[members[0]]
        # The group each divisor of the lowest period cuts.
        cuts = {sum(1 << i for i in members if periods[i] % d == 0)
                for d in range(1, lowest + 1) if lowest % d == 0}
        assert sorted(group for group, _ in groups) == sorted(cuts)
        assert groups[0][0] == mask
        # Of two groups, the one holding the lowest period in which they
        # differ comes first.
        for (first, _), (second, _) in zip(groups, groups[1:]):
            differ = first ^ second
            assert differ & -differ & first
        scale = math.lcm(*periods) * (m + 1)
        for group, value in groups:
            group_periods = [p for i, p in enumerate(periods) if group >> i & 1]
            assert value == scale // math.gcd(*group_periods) + 1


class TestStateKernel:
    """One search state's bound and branch against ``oracles.cover_state``,
    a transcription of the module docstring that scans divisors directly."""

    @given(st.sets(st.integers(min_value=1, max_value=500), min_size=1, max_size=12),
           st.integers(min_value=1, max_value=6), st.data())
    @settings(max_examples=300, deadline=None)
    def test_bound_bit_for_bit_and_branch_in_order(self, period_set, m, data):
        periods = tuple(sorted(period_set))
        search = _CoverSearch(periods, m)
        uncovered = data.draw(
            st.integers(min_value=1, max_value=(1 << len(periods)) - 1), "uncovered")
        timers_left = data.draw(
            st.integers(min_value=1, max_value=uncovered.bit_count()), "timers_left")
        limit = data.draw(
            st.integers(min_value=-search.scale, max_value=2 * search.scale), "limit")
        bound, fewest = search._relax(uncovered, timers_left, limit)
        expected_bound, expected_branch = cover_state(
            periods, m, uncovered, timers_left, limit)
        assert bound.hex() == expected_bound.hex()
        assert [(cut, entry[1]) for cut, entry in search._branch(uncovered, fewest)] \
            == expected_branch


class TestResultRoundTrip:
    """``optimize`` results survive their JSON form."""

    @given(st.sets(st.integers(min_value=1, max_value=200), min_size=1, max_size=14),
           st.integers(min_value=1, max_value=5))
    @settings(max_examples=120, deadline=None)
    def test_mapping_objective_and_timer_count(self, period_set, m):
        result = solve(OptimizationProblem(periods=tuple(period_set), m=m))
        obj = json.loads(json.dumps(result.to_json()))
        assert mapping_from_json(obj) == result.mapping
        assert rational_from_json(obj["objective"]) == result.objective
        assert result.timers_used == len(result.mapping.used_timers())
        assert obj["timers_used"] == result.timers_used


MIQCP_INSTANCES = 40


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

    def test_rate_bound_is_the_largest_float_not_above_one_over_max_period(
            self, tmp_path):
        path = tmp_path / "bound.lp"
        for max_t in range(2, 1001):
            export_miqcp(OptimizationProblem(periods=(max_t,), m=1), str(path))
            bound = next(line.split()[0] for line in path.read_text().splitlines()
                         if line.endswith(" <= f_1 <= 1"))
            assert Fraction(bound) <= Fraction(1, max_t), max_t
            above = math.nextafter(float(bound), 1.0)
            assert Fraction(repr(above)) > Fraction(1, max_t), max_t

    def test_nonconvexity_flagged(self, tmp_path):
        path = tmp_path / "flag.lp"
        export_miqcp(OptimizationProblem(periods=(2, 5), m=2), str(path))
        header = path.read_text().splitlines()[:6]
        assert any("non-convex" in line for line in header)

    def test_model_minimum_is_the_solver_objective(self, tmp_path):
        # The exported model, read back in exact arithmetic and minimized by
        # enumeration, has solve's optimum, and solve's mapping is one of its
        # feasible points.  The single period 11 is a maxT whose rate bound
        # once rounded up past 1/11, which cut the optimal point off.  On the
        # smallest instances u, w and d are enumerated too, so a row that
        # stops forcing them (a dropped w_ub_p, a looser timer_used_le) fails.
        rng = random.Random(1905)
        problems = [OptimizationProblem(periods=(11,), m=1)]
        problems += [OptimizationProblem(periods=(a, b), m=2)
                     for b in range(2, 7) for a in range(1, b)]
        problems += [random_problem(rng, max_n=3, max_period=12, max_m=2)
                     for _ in range(MIQCP_INSTANCES)]
        path = tmp_path / "model.lp"
        for problem in problems:
            export_miqcp(problem, str(path))
            model = read_lp(path.read_text())
            result = solve(problem)
            free = len(problem.periods) <= 2 and problem.max_period <= 6
            assert miqcp_minimum(problem, model, free) == result.objective, problem
            timers = result.mapping.timers
            timer_periods = ([tc.period for tc in timers]
                             + [1] * (lp_timers(model) - len(timers)))
            assignment = [result.mapping.assignment[i]
                          for i in range(1, len(problem.periods) + 1)]
            point = lp_point(problem.periods, timer_periods, assignment)
            assert lp_feasible(model, point), problem
            assert lp_value(model["objective"], point) == result.objective

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
