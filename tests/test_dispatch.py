"""Hand-traced interrupts, delay paths, and cost-counter contracts."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronosim.dispatch import (
    TIME_MAX,
    DispatcherState,
    Strategy,
    delay_task,
    tick,
)
from chronosim.errors import ConfigError, InvariantViolation
from chronosim.model import Mapping, Task, TaskSet, TimerConfig


def build_state(periods, timer_period, strategy, check=True):
    """One timer managing tasks with the given periods; all start ready."""
    ts = TaskSet(tuple(
        Task.implicit(i + 1, wcet=0, period=p, releases_limit=None)
        for i, p in enumerate(periods)
    ))
    mapping = Mapping(
        timers=(TimerConfig(1, timer_period),),
        assignment={t.id: 1 for t in ts.tasks},
    )
    return DispatcherState(ts, mapping, strategy, check_invariants=check)


def earliest_release(state, timer_id=1):
    """What a list timer's early-exit guard compares the tick against."""
    queue = state.timers[timer_id].queue
    return state.next_release[queue[0]] if queue else TIME_MAX


def counter_delta(counts, before):
    after = dict(counts)
    return {k: after[k] - before[k] for k in after if after[k] != before[k]}


class TestTickChronos:
    def test_releases_due_head_and_caches_next(self):
        # tasks: tau1 next release 2, tau2 next release 4
        state = build_state([2, 4], 2, Strategy.CHRONOS)
        delay_task(state, [1])
        delay_task(state, [2])
        before = dict(state.interrupt_counts)
        released = tick(state, 1)
        assert released == [1]
        assert earliest_release(state) == 4
        delta = counter_delta(state.interrupt_counts, before)
        # guard + two head inspections; one removal; one ready insertion
        assert delta == {"interrupt": 1, "tick_increment": 1, "comparison": 3,
                         "list_remove": 1, "ready_insert": 1}

    def test_empty_list_early_exit_with_sentinel(self):
        state = build_state([2], 2, Strategy.CHRONOS)
        assert earliest_release(state) == TIME_MAX
        state.timers[1].tick = 2
        before = dict(state.interrupt_counts)
        released = tick(state, 1)
        assert released == []
        # guard comparison only: the sentinel guarantees the early exit
        assert counter_delta(state.interrupt_counts, before) == {
            "interrupt": 1, "tick_increment": 1, "comparison": 1}

    def test_emptying_the_list_parks_the_sentinel(self):
        state = build_state([10], 5, Strategy.CHRONOS)
        delay_task(state, [1])  # next release 10
        state.timers[1].tick = 5
        released = tick(state, 1)
        assert released == [1]
        assert earliest_release(state) == TIME_MAX
        before = dict(state.interrupt_counts)
        assert tick(state, 1) == []
        assert counter_delta(state.interrupt_counts, before)["comparison"] == 1

    def test_detects_unsorted_list_in_checked_mode(self):
        state = build_state([2, 4], 2, Strategy.CHRONOS)
        delay_task(state, [1])
        delay_task(state, [2])
        state.timers[1].queue.reverse()  # corrupt the order
        with pytest.raises(InvariantViolation):
            tick(state, 1)


class TestTickChronosConst:
    def setup_list(self):
        # delayed in the order tau3 (next 9), tau1 (next 6), tau2 (next 12)
        state = build_state([6, 12, 9], 3, Strategy.CHRONOS_CONST)
        delay_task(state, [3])
        delay_task(state, [1])
        delay_task(state, [2])
        assert earliest_release(state) == 6
        return state

    def test_full_scan_releases_and_rebuilds_minimum(self):
        state = self.setup_list()
        state.timers[1].tick = 3
        before = dict(state.interrupt_counts)
        released = tick(state, 1)
        assert released == [1]
        assert earliest_release(state) == 9
        delta = counter_delta(state.interrupt_counts, before)
        # one guard comparison plus one inspection per list entry
        assert delta["comparison"] - 1 == 3
        assert delta["list_remove"] == 1

    def test_early_exit_inspects_nothing(self):
        state = self.setup_list()  # earliest next release is 6
        before = dict(state.interrupt_counts)
        released = tick(state, 1)  # tick 0 -> 3, below 6
        assert released == []
        # guard only: no entry of the list is inspected
        assert counter_delta(state.interrupt_counts, before) == {
            "interrupt": 1, "tick_increment": 1, "comparison": 1}

    def test_releases_all_when_everything_due(self):
        state = build_state([12, 9], 3, Strategy.CHRONOS_CONST)
        delay_task(state, [1])  # next 12
        delay_task(state, [2])  # next 9
        state.timers[1].tick = 9
        released = tick(state, 1)
        assert sorted(released) == [1, 2]
        assert earliest_release(state) == TIME_MAX

    def test_detects_an_unsorted_list_in_checked_mode(self):
        state = self.setup_list()
        head = state.timers[1].queue[0]
        state.next_release[head] = 99  # still after the tick, now out of order
        with pytest.raises(InvariantViolation, match="delayed list is not sorted"):
            tick(state, 1)


class TestTickChronosHarmonic:
    def build_chain(self):
        state = build_state([3, 6, 12], 3, Strategy.CHRONOS_HARMONIC)
        delay_task(state, [1])
        delay_task(state, [2])
        delay_task(state, [3])
        return state

    def test_rejects_non_harmonic_group(self):
        with pytest.raises(ConfigError):
            build_state([2, 3], 1, Strategy.CHRONOS_HARMONIC)

    def test_first_tick_releases_only_smallest_period(self):
        state = self.build_chain()
        released = tick(state, 1)  # tick 3: 3 mod 6 != 0 breaks
        assert released == [1]

    def test_releases_prefix_of_due_slots(self):
        state = self.build_chain()
        tick(state, 1)           # tick 3
        delay_task(state, [1])                 # back into its slot, next 6
        before = dict(state.interrupt_counts)
        released = tick(state, 1)  # tick 6
        assert released == [1, 2]                 # break at 6 mod 12 != 0
        delta = counter_delta(state.interrupt_counts, before)
        assert delta["comparison"] == 3           # slots 1..3 inspected
        assert delta["slot_write"] == 2

    def test_vacant_slot_skipped_and_flagged(self):
        state = self.build_chain()
        tick(state, 1)   # tick 3 releases tau1
        tick(state, 1)   # tick 6: tau1 slot vacant -> skip; tau2 due
        delay_task(state, [2])
        tick(state, 1)   # tick 9: tau1 slot vacant -> skip
        released = tick(state, 1)  # tick 12
        assert released == [2, 3]
        flagged = [(t, task) for t, _, task in state.skip_events]
        assert (6, 1) in flagged and (9, 1) in flagged and (12, 1) in flagged

    def test_slotted_task_already_due_detected_in_checked_mode(self):
        state = self.build_chain()
        state.next_release[2] = 3  # due at tick 3, yet slot 1 is not
        with pytest.raises(InvariantViolation, match="slot of task 2 is occupied, due at 3"):
            tick(state, 1)

    @pytest.mark.parametrize("check", [True, False], ids=["checked", "unchecked"])
    def test_owner_delayed_past_its_due_slot_raises_at_that_tick(self, check):
        state = build_state([3, 6, 12], 3, Strategy.CHRONOS_HARMONIC, check=check)
        state.next_release[1] = 6  # delayed to 6, but its slot is due at tick 3
        with pytest.raises(InvariantViolation,
                           match="slot of task 1 is due, but the task is delayed to 6"):
            tick(state, 1)

    def test_inspections_bounded_by_group_size(self):
        state = self.build_chain()
        for _ in range(32):
            before = dict(state.interrupt_counts)
            released = tick(state, 1)
            delta = counter_delta(state.interrupt_counts, before)
            assert delta["comparison"] <= 3
            for tid in released:
                delay_task(state, [tid])


class TestTickBaseline:
    def test_two_task_figure_trace(self):
        state = build_state([2, 5], 1, Strategy.BASELINE)
        delay_task(state, [1])
        delay_task(state, [2])
        releases_by_tick = {}
        for t in range(1, 11):
            released = tick(state, 1)
            releases_by_tick[t] = list(released)
            for tid in released:
                delay_task(state, [tid])
        released_ticks = {t for t, r in releases_by_tick.items() if r}
        assert released_ticks == {2, 4, 5, 6, 8, 10}
        assert {t for t, r in releases_by_tick.items() if not r} == {1, 3, 7, 9}

    def test_single_task_early_exits_until_due(self):
        state = build_state([4], 1, Strategy.BASELINE)
        delay_task(state, [1])
        assert [tick(state, 1) for _ in range(4)] == [[], [], [], [1]]

    def test_exhausted_list_always_early_exits(self):
        state = build_state([4], 1, Strategy.BASELINE)
        delay_task(state, [1])
        for _ in range(4):
            tick(state, 1)
        # never re-delayed: every further tick exits on the sentinel
        for _ in range(8):
            before = dict(state.interrupt_counts)
            assert tick(state, 1) == []
            assert counter_delta(state.interrupt_counts, before)["comparison"] == 1
        assert earliest_release(state) == TIME_MAX


class TestDelayTask:
    @pytest.mark.parametrize("ticks, release", [(0, 6), (1, 6), (2, 12), (3, 12),
                                                (4, 18)])
    def test_next_release_is_strictly_future_multiple(self, ticks, release):
        # The first multiple of 6 after the tick 3 * ticks: a job ending at 6,
        # one of its own release instants, has consumed that release.
        state = build_state([6], 3, Strategy.CHRONOS)
        for _ in range(ticks):
            tick(state, 1)
        delay_task(state, [1])
        assert state.next_release[1] == release

    @pytest.mark.parametrize("check", [True, False], ids=["checked", "unchecked"])
    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
    @pytest.mark.parametrize("ticks", [2, 3], ids=["at", "after"])
    def test_delay_at_or_after_a_release_waits_for_the_next(
            self, strategy, check, ticks):
        # Task 1 (period 6) is delayed with its timer at tick 6 or 9: its
        # release 6 is consumed, so it leaves its container at tick 12 and
        # not before, with task 2, released at 6 and delayed with it.
        state = build_state([6, 6], 3, strategy, check=check)
        delay_task(state, [2])
        assert [tick(state, 1) for _ in range(ticks)][1] == [2]
        delay_task(state, [1, 2])
        assert state.next_release[1] == state.next_release[2] == 12
        later = {3 * t: sorted(tick(state, 1)) for t in range(ticks + 1, 5)}
        assert later == {**{3 * t: [] for t in range(ticks + 1, 4)}, 12: [1, 2]}

    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
    def test_double_delay_is_invariant_violation(self, strategy):
        state = build_state([6], 3, strategy)
        delay_task(state, [1])
        with pytest.raises(InvariantViolation):
            delay_task(state, [1])

    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
    def test_double_delay_in_a_run_leaves_the_tasks_before_it_delayed(self, strategy):
        # Tasks 1-3 form one run; the second 2 raises with 1-3 in place.
        state = build_state([6, 6, 6], 3, strategy)
        with pytest.raises(InvariantViolation, match="task 2 is already delayed"):
            delay_task(state, [1, 2, 3, 2])
        single = build_state([6, 6, 6], 3, strategy)
        for tid in (1, 2, 3):
            delay_task(single, [tid])
        # Containers and tasks only: a raising call charges nothing.
        assert state_snapshot(state)[:2] == state_snapshot(single)[:2]

    def test_listed_task_not_after_the_tick_detected_in_checked_mode(self):
        state = build_state([6, 12], 3, Strategy.CHRONOS)
        delay_task(state, [2])
        state.next_release[2] = 0  # listed, yet ready
        with pytest.raises(InvariantViolation,
                           match="delayed task 2 is due at 0, not after tick 0"):
            delay_task(state, [1])

    def test_updates_cached_timer_next_release(self):
        state = build_state([6, 12], 3, Strategy.CHRONOS)
        delay_task(state, [2])
        assert earliest_release(state) == 12
        delay_task(state, [1])
        assert earliest_release(state) == 6

    def test_const_append_cost_independent_of_length(self):
        periods = [6 * (i + 1) for i in range(100)]
        state = build_state(periods, 6, Strategy.CHRONOS_CONST)
        deltas = set()
        for count in (1, 10, 100):
            st = build_state(periods, 6, Strategy.CHRONOS_CONST)
            for tid in range(1, count):
                delay_task(st, [tid])
            before = dict(st.delay_counts)
            delay_task(st, [count])
            deltas.add(tuple(sorted(counter_delta(st.delay_counts, before).items())))
        assert len(deltas) == 1  # identical charge at lengths 1, 10, and 100

    def test_sorted_insert_charges_traversal_steps(self):
        state = build_state([6, 12, 18], 6, Strategy.CHRONOS)
        delay_task(state, [1])   # next 6, empty list: 0 steps
        delay_task(state, [2])   # next 12, after one entry: 1 step
        before = dict(state.delay_counts)
        delay_task(state, [3])   # next 18, after two entries: 2 steps
        assert counter_delta(state.delay_counts, before)["sorted_insert_step"] == 2
        assert state.timers[1].queue == [1, 2, 3]

    def test_sorted_insert_cost_at_most_linear_in_list_length(self):
        rng = random.Random(31)
        periods = [6 * (i + 1) for i in range(30)]
        state = build_state(periods, 6, Strategy.CHRONOS)
        for tid in rng.sample(range(1, 31), 30):
            length = len(state.timers[1].queue)
            before = dict(state.delay_counts)
            delay_task(state, [tid])
            steps = counter_delta(state.delay_counts, before).get(
                "sorted_insert_step", 0)
            assert steps <= length


class TestSortedOrderProperty:
    def test_random_operation_sequences_preserve_order(self):
        rng = random.Random(4242)
        periods = [2, 4, 6, 8, 12, 24]
        state = build_state(periods, 2, Strategy.CHRONOS)
        ready = set(range(1, len(periods) + 1))
        for _ in range(10_000):
            if ready and (rng.random() < 0.5 or len(ready) == len(periods)):
                tid = rng.choice(sorted(ready))
                delay_task(state, [tid])   # checked mode verifies sortedness
                ready.discard(tid)
            else:
                for tid in tick(state, 1):
                    ready.add(tid)
            queue = state.timers[1].queue
            keys = [state.next_release[t] for t in queue]
            assert keys == sorted(keys)

    @pytest.mark.parametrize("strategy", [Strategy.BASELINE, Strategy.CHRONOS,
                                          Strategy.CHRONOS_CONST],
                             ids=lambda s: s.value)
    def test_listed_tasks_are_those_due_after_the_tick(self, strategy):
        # A task is listed iff its next release is after its timer's tick.
        rng = random.Random(2718)
        periods = [2, 4, 6, 8, 12, 24]
        state = build_state(periods, 2, strategy)
        ids = range(1, len(periods) + 1)
        ready = set(ids)
        for _ in range(2_000):
            if ready and (rng.random() < 0.5 or len(ready) == len(periods)):
                batch = rng.sample(sorted(ready), rng.randint(1, len(ready)))
                delay_task(state, batch)
                ready.difference_update(batch)
            else:
                ready.update(tick(state, 1))
            ts = state.timers[1]
            assert set(ts.queue) == {t for t in ids
                                     if state.next_release[t] > ts.tick}


class TestInsertContracts:
    """Exact charges and positions of both sorted inserts, ties included."""

    @pytest.mark.parametrize("strategy", [Strategy.BASELINE, Strategy.CHRONOS])
    @settings(max_examples=150, deadline=None)
    @given(periods=st.lists(st.sampled_from([1, 2, 3, 4, 6, 12]),
                            min_size=1, max_size=8),
           ops=st.lists(st.integers(min_value=0, max_value=8), max_size=80))
    def test_delay_charges_its_position_and_ready_list_is_ordered(
            self, strategy, periods, ops):
        # Op 0 ticks the unit-period timer; op k > 0 delays a ready task.
        state = build_state(periods, 1, strategy)
        queue = state.timers[1].queue
        ready = list(range(1, len(periods) + 1))
        for op in ops:
            if op == 0 or not ready:
                # The tick hands back the due prefix of the list, in list order.
                old_queue = list(queue)
                before = dict(state.interrupt_counts)
                released = tick(state, 1)
                now = state.timers[1].tick
                assert released == [t for t in old_queue
                                    if state.next_release[t] <= now]
                assert queue == old_queue[len(released):]
                assert counter_delta(state.interrupt_counts, before).get(
                    "ready_insert", 0) == len(released)
                ready.extend(released)
                continue
            tid = ready.pop(op % len(ready))
            old_queue = list(queue)
            before = dict(state.delay_counts)
            delay_task(state, [tid])
            due = state.next_release[tid]
            no_later = sum(1 for t in old_queue
                           if state.next_release[t] <= due)
            assert counter_delta(state.delay_counts, before).get(
                "sorted_insert_step", 0) == no_later
            assert queue == old_queue[:no_later] + [tid] + old_queue[no_later:]


def state_snapshot(state):
    """Everything a delay can change, plus what only an interrupt changes."""
    timers = {j: (ts.tick, list(ts.queue))
              for j, ts in state.timers.items()}
    return (timers, list(state.next_release), dict(state.delay_counts),
            dict(state.interrupt_counts), list(state.skip_events))


class TestBatchContract:
    """One call over a batch leaves the state of one call per task, in order."""

    @staticmethod
    def build(strategy, periods, on_second, check):
        # Timer 1 (period 1) takes every task the draw did not move to timer 2
        # (period 2); periods are powers of two, so every group is harmonic.
        ts = TaskSet(tuple(
            Task.implicit(i + 1, wcet=0, period=p, releases_limit=None)
            for i, p in enumerate(periods)
        ))
        if strategy is Strategy.BASELINE:
            mapping = Mapping(timers=(TimerConfig(1, 1),),
                              assignment={t.id: 1 for t in ts.tasks})
        else:
            mapping = Mapping(
                timers=(TimerConfig(1, 1), TimerConfig(2, 2)),
                assignment={t.id: 2 if t.period > 1 and t.id in on_second else 1
                            for t in ts.tasks},
            )
        return DispatcherState(ts, mapping, strategy, check_invariants=check)

    @pytest.mark.parametrize("check", [True, False], ids=["checked", "unchecked"])
    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_batch_equals_one_call_per_task(self, strategy, check, data):
        # Tasks come in blocks of one period and one timer, and a batch may
        # keep task order, so that runs of one timer and period grow long.
        blocks = data.draw(st.lists(
            st.tuples(st.sampled_from([1, 2, 4, 8]), st.integers(1, 12), st.booleans()),
            min_size=1, max_size=8), label="blocks")
        periods, on_second = [], set()
        for period, size, second in blocks:
            for _ in range(min(size, 40 - len(periods))):
                periods.append(period)
                if second:
                    on_second.add(len(periods))
        batched = self.build(strategy, periods, on_second, check)
        single = self.build(strategy, periods, on_second, check)
        ready = list(range(1, len(periods) + 1))
        for now in range(data.draw(st.integers(1, 24), label="instants")):
            if now:
                # Both timers fire at every multiple of their period.
                for timer_id, timer in batched.timers.items():
                    if now % timer.period == 0:
                        released = tick(batched, timer_id)
                        assert tick(single, timer_id) == released
                        ready.extend(released)
            batch = data.draw(st.lists(st.sampled_from(ready), unique=True)
                              if ready else st.just([]), label=f"batch at {now}")
            if data.draw(st.booleans(), label=f"task order at {now}"):
                batch.sort()
            delay_task(batched, batch)
            for tid in batch:
                delay_task(single, [tid])
            ready = [tid for tid in ready if tid not in batch]
            assert state_snapshot(batched) == state_snapshot(single)

    @pytest.mark.parametrize("check", [True, False], ids=["checked", "unchecked"])
    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
    # Each batch follows its count of timer 1's ticks.
    @pytest.mark.parametrize("periods, on_second, batches", [
        # One period on two timers: the timer ends the run at task 3.
        ([2, 2, 2, 2], {3, 4}, [(0, [1, 2, 3, 4])]),
        # Runs a a b a, all due at 2: the reopened run goes after b.
        ([2, 2, 1, 2], set(), [(1, [1, 2, 3, 4])]),
        # A run due at 2 lands after the two entries already due at 2.
        ([2, 2, 4, 2, 2, 2], set(), [(0, [1, 2, 3]), (1, [4, 5, 6])]),
    ], ids=["timer-splits-run", "run-reopened", "run-among-ties"])
    def test_runs_equal_one_call_per_task(self, strategy, check, periods,
                                          on_second, batches):
        batched = self.build(strategy, periods, on_second, check)
        single = self.build(strategy, periods, on_second, check)
        for ticks, batch in batches:
            for _ in range(ticks):
                assert tick(batched, 1) == tick(single, 1)
            delay_task(batched, batch)
            for tid in batch:
                delay_task(single, [tid])
            assert state_snapshot(batched) == state_snapshot(single)

    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
    def test_task_named_twice_is_invariant_violation(self, strategy):
        state = build_state([6, 12], 6, strategy)
        with pytest.raises(InvariantViolation, match="task 1 is already delayed"):
            delay_task(state, [1, 2, 1])

    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
    def test_empty_batch_changes_and_charges_nothing(self, strategy):
        state = build_state([6, 12], 6, strategy)
        delay_task(state, [2])
        before = state_snapshot(state)
        delay_task(state, [])
        assert state_snapshot(state) == before
