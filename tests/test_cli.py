"""End-to-end command-line workflows and the exit-code contract."""

import json
from importlib import resources

import pytest

from chronosim.cli import PRESETS, main
from chronosim.model import dump_json, load_json, task_set_from_json
from chronosim.optimizer import DEFAULT_NODE_BUDGET


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    dump_json({
        "name": "mini",
        "generation": {
            "base_periods": [3, 5],
            "factor_range": [1, 2, 3, 4],
            "n_tasks": 12,
            "seed": 7,
            "workload": 0,
        },
        "timers": 2,
        "strategies": ["baseline", "chronos", "chronos-const"],
        "factors": [1, 3],
        "steady_state": True,
        "horizon": {"max_period_multiple": 5},
    }, str(path))
    return str(path)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestGenerate:
    def test_writes_task_set_and_summary(self, tmp_path, scenario_file, capsys):
        out = tmp_path / "tasks.json"
        assert main(["generate", scenario_file, "--out", str(out)]) == 0
        ts = task_set_from_json(load_json(str(out)))
        assert ts.n == 12
        assert all(t.releases_limit == 5 for t in ts.tasks)
        stdout = capsys.readouterr().out
        assert "12 tasks" in stdout
        assert "harmonic chain" in stdout

    def test_preset_low_shape(self, tmp_path):
        out = tmp_path / "low.json"
        assert main(["generate", "--preset", "low", "--out", str(out)]) == 0
        ts = task_set_from_json(load_json(str(out)))
        assert ts.n == 100
        bases = (3, 5, 7, 11)
        for task in ts.tasks:
            assert any(task.period == b * r for b in bases for r in range(1, 11))

    def test_seed_override_changes_output(self, tmp_path, scenario_file):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["generate", scenario_file, "--out", str(a)])
        main(["generate", scenario_file, "--seed", "8", "--out", str(b)])
        assert read(a) != read(b)

    def test_missing_scenario_is_input_error(self, tmp_path, capsys):
        rc = main(["generate", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2

    def test_zero_tasks_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        dump_json({"generation": {"base_periods": [3], "factor_range": [1],
                                  "n_tasks": 0, "seed": 1}}, str(path))
        assert main(["generate", str(path), "--out", str(tmp_path / "x.json")]) == 2


class TestOptimize:
    def test_exact_solve_exit_zero(self, tmp_path):
        tasks = tmp_path / "tasks.json"
        dump_json({"tasks": [
            {"id": 1, "period": 2, "wcet": 0},
            {"id": 2, "period": 3, "wcet": 0},
            {"id": 3, "period": 5, "wcet": 0},
        ]}, str(tasks))
        out = tmp_path / "mapping.json"
        assert main(["optimize", str(tasks), "--timers", "3",
                     "--out", str(out)]) == 0
        obj = load_json(str(out))
        assert obj["objective"] == {"num": 1, "den": 1}
        assert obj["method"] == "exact"
        used = [t for t in obj["timers"] if t["tasks"]]
        assert len(used) == 1 and used[0]["period"] == 1

    def test_heuristic_solve_exit_five(self, tmp_path):
        # Divisor-rich periods: the partition search exhausts its node budget.
        periods = [p for p in range(60, 351)
                   if sum(1 for d in range(1, p + 1) if p % d == 0) >= 12][:48]
        assert len(periods) == 48
        tasks = tmp_path / "tasks.json"
        dump_json({"tasks": [
            {"id": i + 1, "period": p, "wcet": 0}
            for i, p in enumerate(periods)
        ]}, str(tasks))
        out = tmp_path / "mapping.json"
        assert main(["optimize", str(tasks), "--timers", "10",
                     "--out", str(out)]) == 5
        obj = load_json(str(out))
        assert obj["method"] == "heuristic"
        assert obj["stats"]["nodes"] > DEFAULT_NODE_BUDGET
        used = [t for t in obj["timers"] if t["tasks"]]
        assert 1 <= len(used) <= 10
        period_of = {i + 1: p for i, p in enumerate(periods)}
        assigned = sorted(task for t in used for task in t["tasks"])
        assert assigned == sorted(period_of)
        assert all(period_of[task] % t["period"] == 0
                   for t in used for task in t["tasks"])

    @pytest.mark.parametrize("preset", PRESETS)
    def test_every_preset_optimizes_exactly(self, tmp_path, preset):
        scenario = json.loads(resources.files("chronosim").joinpath(
            "presets", f"{preset}.json").read_text(encoding="utf-8"))
        tasks, out = tmp_path / "tasks.json", tmp_path / "mapping.json"
        assert main(["generate", "--preset", preset, "--out", str(tasks)]) == 0
        assert main(["optimize", str(tasks), "--timers", str(scenario["timers"]),
                     "--out", str(out)]) == 0
        assert load_json(str(out))["method"] == "exact"

    def test_single_timer_budget_uses_gcd(self, tmp_path):
        tasks = tmp_path / "tasks.json"
        dump_json({"tasks": [
            {"id": 1, "period": 12, "wcet": 0},
            {"id": 2, "period": 18, "wcet": 0},
        ]}, str(tasks))
        out = tmp_path / "mapping.json"
        assert main(["optimize", str(tasks), "--timers", "1",
                     "--out", str(out)]) == 0
        obj = load_json(str(out))
        assert [t["period"] for t in obj["timers"]] == [6]

    def test_export_lp_flag(self, tmp_path):
        tasks = tmp_path / "tasks.json"
        dump_json({"tasks": [{"id": 1, "period": 6, "wcet": 0}]}, str(tasks))
        lp = tmp_path / "model.lp"
        assert main(["optimize", str(tasks), "--timers", "1",
                     "--out", str(tmp_path / "m.json"),
                     "--export-lp", str(lp)]) == 0
        assert lp.read_text().startswith("\\ Tick-interrupt minimization")

    def test_malformed_input_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["optimize", str(bad), "--timers", "2",
                     "--out", str(tmp_path / "m.json")]) == 2


class TestSimulate:
    def write_two_five(self, tmp_path):
        tasks = tmp_path / "tasks.json"
        dump_json({"tasks": [
            {"id": 1, "period": 2, "wcet": 0, "releases": 5},
            {"id": 2, "period": 5, "wcet": 0, "releases": 5},
        ]}, str(tasks))
        mapping = tmp_path / "mapping.json"
        dump_json({"timers": [
            {"id": 1, "period": 2, "tasks": [1]},
            {"id": 2, "period": 5, "tasks": [2]},
        ]}, str(mapping))
        return str(tasks), str(mapping)

    def test_baseline_figure_counts(self, tmp_path):
        tasks, _ = self.write_two_five(tmp_path)
        out = tmp_path / "metrics.json"
        assert main(["simulate", tasks, "--strategy", "baseline",
                     "--horizon", "10", "--out", str(out)]) == 0
        obj = load_json(str(out))
        assert obj["total_interrupts"] == 10
        assert obj["not_required_interrupts"] == 4

    def test_chronos_figure_counts_and_trace(self, tmp_path):
        tasks, mapping = self.write_two_five(tmp_path)
        out = tmp_path / "metrics.json"
        trace = tmp_path / "trace.csv"
        assert main(["simulate", tasks, "--mapping", mapping,
                     "--strategy", "chronos", "--horizon", "10",
                     "--trace", str(trace), "--out", str(out)]) == 0
        obj = load_json(str(out))
        assert obj["total_interrupts"] == 7
        assert obj["not_required_interrupts"] == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "time,event_kind,timer,task"
        assert any(line.startswith("10,interrupt,2") for line in lines)

    def test_csv_format(self, tmp_path):
        tasks, mapping = self.write_two_five(tmp_path)
        out = tmp_path / "metrics.csv"
        assert main(["simulate", tasks, "--mapping", mapping,
                     "--strategy", "chronos-const", "--horizon", "10",
                     "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("strategy,")
        assert lines[1].startswith("chronos-const,7,")

    def test_rerun_is_byte_identical(self, tmp_path):
        tasks, mapping = self.write_two_five(tmp_path)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["simulate", tasks, "--mapping", mapping, "--strategy", "chronos",
                "--horizon", "10"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert read(a) == read(b)

    def test_harmonic_mismatch_exit_three(self, tmp_path, capsys):
        tasks = tmp_path / "tasks.json"
        dump_json({"tasks": [
            {"id": 1, "period": 2, "wcet": 0},
            {"id": 2, "period": 3, "wcet": 0},
        ]}, str(tasks))
        mapping = tmp_path / "mapping.json"
        dump_json({"timers": [{"id": 1, "period": 1, "tasks": [1, 2]}]},
                  str(mapping))
        rc = main(["simulate", str(tasks), "--mapping", str(mapping),
                   "--strategy", "chronos-harmonic", "--horizon", "6",
                   "--out", str(tmp_path / "m.json")])
        assert rc == 3
        assert "non-harmonic" in capsys.readouterr().err

    def test_multi_timer_strategy_without_mapping_is_input_error(self, tmp_path):
        tasks, _ = self.write_two_five(tmp_path)
        rc = main(["simulate", tasks, "--strategy", "chronos",
                   "--horizon", "10", "--out", str(tmp_path / "m.json")])
        assert rc == 2


BAD_INTEGERS = [1.9, 6.0, "6", True]


class TestStrictIntegers:
    """Task-set and mapping files hold JSON integers; nothing else is coerced."""

    def write_tasks(self, tmp_path, field=None, value=None):
        entry = {"id": 1, "period": 6, "wcet": 0, "deadline": 6, "releases": 5}
        if field is not None:
            entry[field] = value
        tasks = tmp_path / "tasks.json"
        dump_json({"tasks": [entry]}, str(tasks))
        return str(tasks)

    @pytest.mark.parametrize("value", BAD_INTEGERS)
    @pytest.mark.parametrize("field", ["id", "period", "wcet", "deadline", "releases"])
    def test_bad_task_field_exit_two(self, tmp_path, capsys, field, value):
        tasks = self.write_tasks(tmp_path, field, value)
        assert main(["optimize", tasks, "--timers", "1",
                     "--out", str(tmp_path / "m.json")]) == 2
        assert main(["simulate", tasks, "--strategy", "baseline",
                     "--horizon", "6", "--out", str(tmp_path / "s.json")]) == 2
        assert "expected a JSON integer" in capsys.readouterr().err

    @pytest.mark.parametrize("value", BAD_INTEGERS)
    @pytest.mark.parametrize("field", ["id", "period", "tasks"])
    def test_bad_mapping_field_exit_two(self, tmp_path, capsys, field, value):
        timer = {"id": 1, "period": 6, "tasks": [1]}
        timer[field] = [value] if field == "tasks" else value
        mapping = tmp_path / "mapping.json"
        dump_json({"timers": [timer]}, str(mapping))
        assert main(["simulate", self.write_tasks(tmp_path), "--mapping",
                     str(mapping), "--strategy", "chronos", "--horizon", "6",
                     "--out", str(tmp_path / "s.json")]) == 2
        assert "expected a JSON integer" in capsys.readouterr().err

    @pytest.mark.parametrize("releases", [None, "missing"])
    def test_null_or_missing_releases_still_accepted(self, tmp_path, releases):
        tasks = tmp_path / "tasks.json"
        entry = {"id": 1, "period": 6, "wcet": 0}
        if releases != "missing":
            entry["releases"] = releases
        dump_json({"tasks": [entry]}, str(tasks))
        assert main(["optimize", str(tasks), "--timers", "1",
                     "--out", str(tmp_path / "m.json")]) == 0
        assert main(["simulate", str(tasks), "--strategy", "baseline",
                     "--horizon", "6", "--out", str(tmp_path / "s.json")]) == 0


class TestSweepAndReport:
    def test_sweep_writes_csv_and_summary(self, tmp_path, scenario_file, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", scenario_file, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "peak reduction" in stdout
        lines = out.read_text().splitlines()
        assert lines[0].startswith("factor,strategy,normalized_rate")
        # 3 factors x 3 strategies
        assert len(lines) == 1 + 9

    def test_sweep_deterministic(self, tmp_path, scenario_file):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", scenario_file, "--out", str(a)]) == 0
        assert main(["sweep", scenario_file, "--out", str(b)]) == 0
        assert read(a) == read(b)

    def test_report_recomputes_summary(self, tmp_path, scenario_file, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", scenario_file, "--out", str(out)]) == 0
        sweep_stdout = capsys.readouterr().out
        summary = sweep_stdout.split("\n", 1)[1]  # after the "sweep table ->" line
        assert main(["report", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "chronos-const" in stdout
        assert "peak reduction" in stdout
        assert stdout == summary

    def test_preset_harmonic_single_runs(self, tmp_path):
        out = tmp_path / "hs.csv"
        assert main(["sweep", "--preset", "harmonic_single", "--out", str(out),
                     "--seed", "1"]) == 0
        lines = out.read_text().splitlines()
        strategies = {line.split(",")[1] for line in lines[1:]}
        assert strategies == {"baseline", "chronos-const", "chronos-harmonic"}

    def test_timers_flag_overrides_the_scenario(self, tmp_path):
        scenario = json.loads(resources.files("chronosim").joinpath(
            "presets", "low.json").read_text(encoding="utf-8"))
        scenario["timers"] = 2
        two = tmp_path / "low_two_timers.json"
        dump_json(scenario, str(two))
        flag, edited = tmp_path / "flag.csv", tmp_path / "edited.csv"
        default = tmp_path / "default.csv"
        assert main(["sweep", "--preset", "low", "--timers", "2",
                     "--out", str(flag)]) == 0
        assert main(["sweep", str(two), "--out", str(edited)]) == 0
        assert main(["sweep", "--preset", "low", "--out", str(default)]) == 0
        assert read(flag) == read(edited)
        assert read(flag) != read(default)

    def test_zero_timers_is_input_error(self, tmp_path, capsys):
        rc = main(["sweep", "--preset", "low", "--timers", "0",
                   "--out", str(tmp_path / "s.csv")])
        assert rc == 2
        assert "timer budget" in capsys.readouterr().err

    def test_report_on_missing_file(self, tmp_path):
        assert main(["report", str(tmp_path / "none.csv")]) == 2
