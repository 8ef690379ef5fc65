"""End-to-end command-line workflows and the exit-code contract."""

import hashlib
import json
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest

import chronosim
from chronosim import cli, optimizer
from chronosim.cli import PRESETS, main
from chronosim.errors import UsageError
from chronosim.model import dump_json, load_json, task_set_from_json


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

    @staticmethod
    def divisor_rich_tasks(tmp_path):
        periods = [p for p in range(60, 351)
                   if sum(1 for d in range(1, p + 1) if p % d == 0) >= 12][:48]
        assert len(periods) == 48
        tasks = tmp_path / "tasks.json"
        dump_json({"tasks": [
            {"id": i + 1, "period": p, "wcet": 0}
            for i, p in enumerate(periods)
        ]}, str(tasks))
        return tasks, periods

    def test_divisor_rich_periods_solve_exactly(self, tmp_path):
        # Divisor-rich periods, the hard kind: still solved exactly, exit 0.
        tasks, periods = self.divisor_rich_tasks(tmp_path)
        out = tmp_path / "mapping.json"
        assert main(["optimize", str(tasks), "--timers", "10",
                     "--out", str(out)]) == 0
        obj = load_json(str(out))
        assert obj["method"] == "exact"
        used = [t for t in obj["timers"] if t["tasks"]]
        assert 1 <= len(used) <= 10
        period_of = {i + 1: p for i, p in enumerate(periods)}
        assigned = sorted(task for t in used for task in t["tasks"])
        assert assigned == sorted(period_of)
        assert all(period_of[task] % t["period"] == 0
                   for t in used for task in t["tasks"])

    def test_search_past_the_node_limit_exit_three(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(optimizer, "NODE_LIMIT", 10)
        tasks, _ = self.divisor_rich_tasks(tmp_path)
        out = tmp_path / "mapping.json"
        assert main(["optimize", str(tasks), "--timers", "10",
                     "--out", str(out)]) == 3
        assert "passed 10 states" in capsys.readouterr().err
        assert not out.exists()

    def test_costly_divisors_exit_three_at_once(self, tmp_path, capsys):
        # Ten products of two primes just below 2**31: trial division up to
        # their square roots would take minutes, so they are refused first.
        primes = (2147483647, 2147483629, 2147483587, 2147483579, 2147483563,
                  2147483549, 2147483543, 2147483497, 2147483489, 2147483477,
                  2147483423)
        tasks = tmp_path / "tasks.json"
        dump_json({"tasks": [
            {"id": i + 1, "period": p * q, "wcet": 0}
            for i, (p, q) in enumerate(zip(primes, primes[1:]))
        ]}, str(tasks))
        start = time.perf_counter()
        assert main(["optimize", str(tasks), "--timers", "4",
                     "--out", str(tmp_path / "mapping.json")]) == 3
        assert time.perf_counter() - start < 5
        assert f"limit is {optimizer.DIVISOR_LIMIT}" in capsys.readouterr().err

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

    def test_export_lp_with_a_huge_budget_is_quick(self, tmp_path):
        # The model holds min(m, n) timers, as many as the search uses; the
        # header still states the budget.
        tasks = tmp_path / "tasks.json"
        dump_json({"tasks": [{"id": 1, "period": 6, "wcet": 0},
                             {"id": 2, "period": 10, "wcet": 0}]}, str(tasks))
        lp = tmp_path / "model.lp"
        start = time.perf_counter()
        assert main(["optimize", str(tasks), "--timers", str(10**18),
                     "--out", str(tmp_path / "m.json"),
                     "--export-lp", str(lp)]) == 0
        assert time.perf_counter() - start < 5
        text = lp.read_text()
        assert f"timers={10**18}" in text
        assert " 1 <= P_2 <= 10" in text and "P_3" not in text

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

    @pytest.mark.parametrize("factor", ["0", "-2"])
    @pytest.mark.parametrize("strategy", ["baseline", "chronos", "chronos-const",
                                          "chronos-harmonic"])
    def test_period_factor_below_one_exit_two(self, tmp_path, capsys,
                                              strategy, factor):
        tasks, mapping = self.write_two_five(tmp_path)
        rc = main(["simulate", tasks, "--mapping", mapping, "--strategy", strategy,
                   "--period-factor", factor, "--out", str(tmp_path / "m.json")])
        assert rc == 2
        assert "period_factor must be >= 1" in capsys.readouterr().err

    def test_truncated_trace_warns(self, tmp_path, capsys):
        # The single baseline timer logs one interrupt per time unit: 100,010
        # interrupts, plus 10 releases, 12 completions, 10 delays and 2
        # retirements, all of which come after the first 100,000 events.
        tasks, _ = self.write_two_five(tmp_path)
        run = ["simulate", tasks, "--strategy", "baseline", "--horizon", "100010",
               "--out", str(tmp_path / "m.json")]
        assert main(run) == 0
        assert capsys.readouterr().err == ""  # no trace file, nothing cut
        trace = tmp_path / "trace.csv"
        assert main(run + ["--trace", str(trace)]) == 0
        assert len(trace.read_text().splitlines()) == 1 + 100_000
        assert capsys.readouterr().err == (
            f"warning: trace {trace} stops at 100000 events; "
            "44 later event(s) dropped\n")

    def test_horizon_reaching_time_max_exit_three(self, tmp_path, capsys):
        # Seven periods end exactly at 2**63 - 1, the simulator's "never".
        period = (2 ** 63 - 1) // 7
        tasks = tmp_path / "tasks.json"
        dump_json({"tasks": [{"id": 1, "period": period, "wcet": 1,
                              "releases": None}]}, str(tasks))
        mapping = tmp_path / "mapping.json"
        dump_json({"timers": [{"id": 1, "period": period, "tasks": [1]}]},
                  str(mapping))
        for horizon in (2 ** 63 - 1, 2 ** 63 - 2):
            rc = main(["simulate", str(tasks), "--mapping", str(mapping),
                       "--strategy", "chronos", "--horizon", str(horizon),
                       "--out", str(tmp_path / "m.json")])
            assert rc == 3
            err = capsys.readouterr().err
            assert "deadline" in err and "Traceback" not in err

    def test_interrupt_limit_exit_three(self, tmp_path, capsys):
        # The baseline's one timer ticks every unit: about 2**61 interrupts.
        tasks = tmp_path / "tasks.json"
        dump_json({"tasks": [{"id": 1, "period": 7, "wcet": 1,
                              "releases": None}]}, str(tasks))
        rc = main(["simulate", str(tasks), "--strategy", "baseline",
                   "--horizon", str(2 ** 61), "--out", str(tmp_path / "m.json")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "limit" in err
        assert not (tmp_path / "m.json").exists()

    def test_multi_timer_strategy_without_mapping_is_input_error(self, tmp_path):
        tasks, _ = self.write_two_five(tmp_path)
        rc = main(["simulate", tasks, "--strategy", "chronos",
                   "--horizon", "10", "--out", str(tmp_path / "m.json")])
        assert rc == 2


# SHA-256 of each output: the harmonic_single preset sweep, and simulate on
# the two-task figure set (periods 2 and 5, five releases each) run to
# retirement under every strategy.
PINNED_OUTPUTS = {
    "sweep.stdout":
        "1fc659c0a490ebc78ac27303db9fc81feb6e9c1b39c69c2fa75f4aaaed7de09f",
    "sweep.csv":
        "45a1b726cba0c146f0b14a5de1110e4a9d8825d33ca666069b2bc3047e81ce40",
    "baseline.json":
        "8ca8817b49a7b177528193cfa29d037782e44a19c78a126bdc2acb9a52789591",
    "baseline.csv":
        "8bab58a5c499aff757b762de9a188fe69fa03af6e80576115c2f90fce8fca66a",
    "baseline.trace.csv":
        "c4eb66e67ef46bd9b7caf7f24d88a11e43c3d241616a17d807a1b68cc390792d",
    "chronos.json":
        "b8340a226cba00b2ff5d50a269eec0af110cf30af05d95180fb51c91c6e21c0c",
    "chronos.csv":
        "45d8d3c5f8f9050976ba35784e1fe992dabaa8de5ffce6ab1b2c9b9c4035d99b",
    "chronos.trace.csv":
        "c9f1e02982fdfd312ad228220cd0c5925f4d92e9ee266a91f0123e07c7d95553",
    "chronos-const.json":
        "395fc81f1f6063e9ed9b7cfc943f4c40bfd04631736f77d3efa7d4a7e94527cc",
    "chronos-const.csv":
        "8ab7caf06ee49228dc6195f9b457fd1f3640ac942083f8bb93d00f7078b17a26",
    "chronos-const.trace.csv":
        "c9f1e02982fdfd312ad228220cd0c5925f4d92e9ee266a91f0123e07c7d95553",
    "chronos-harmonic.json":
        "2582aa3241535cb650667608ab185d242bc1be1674a3305f86a63039313c97ee",
    "chronos-harmonic.csv":
        "68e7758f576eb5621a735425b90a7511f22eb7f729c6d3e204db2c8b697f2328",
    "chronos-harmonic.trace.csv":
        "ce71e12709efc1dda00ff23ead6618e7a278116a5d88501eeec5e3a4ae96cb48",
}


class TestPinnedOutputs:
    """Preset and figure-set outputs stay byte-identical."""

    def test_outputs_match_the_pin(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", "--preset", "harmonic_single",
                     "--out", "sweep.csv"]) == 0
        got = {"sweep.stdout": capsys.readouterr().out.encode()}
        tasks, mapping = TestSimulate().write_two_five(tmp_path)
        names = ["sweep.csv"]
        for strategy in ("baseline", "chronos", "chronos-const", "chronos-harmonic"):
            common = ["simulate", tasks, "--mapping", mapping, "--strategy", strategy]
            assert main(common + ["--out", f"{strategy}.json",
                                  "--trace", f"{strategy}.trace.csv"]) == 0
            assert main(common + ["--format", "csv", "--out", f"{strategy}.csv"]) == 0
            names += [f"{strategy}.json", f"{strategy}.csv", f"{strategy}.trace.csv"]
        got.update((name, read(tmp_path / name)) for name in names)
        assert {name: hashlib.sha256(data).hexdigest()
                for name, data in got.items()} == PINNED_OUTPUTS


# SHA-256 of the sweep CSV and stdout of the other four presets, each written
# to ``sweep.csv`` in the working directory.
PINNED_PRESET_SWEEPS = {
    "low": ("1a91bff825e82ae870d2509451b48c3dd44b3400420d44f81d9244929f27dbe7",
            "de144052e6ff0b5148c5c6c448ddac39a8551da950768a1bf40564e47fa121df"),
    "high": ("7e25cc0369641ddf50fd2d622dc4c943dfa1467957cb348b10ae10965bc26094",
             "5756138708b9072c67ed135c0e6ae2d69f30cf94cb21b3afd5e0515594c6efde"),
    "harmonic_low": (
        "7aebdded6db95897dd858646dc9d71442c293f96c71d64aa029e926aaa9baafa",
        "666f4c0b9ee1a008cdc447d226b7f547ac125af8770332ff43a872f975b4cff8"),
    "harmonic_high": (
        "093c9eb10695ba75cd40c298c3196cde6aa582a602f3f88d3d25c929b9148466",
        "20ab3046140c790d325075ec65299d0e664bd80a63e7f8c4bc4b03603085e467"),
}


class TestPinnedPresetSweeps:
    """The sweeps of the remaining presets stay byte-identical too."""

    @pytest.mark.parametrize("preset", sorted(PINNED_PRESET_SWEEPS))
    def test_sweep_matches_the_pin(self, tmp_path, monkeypatch, capsys, preset):
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", "--preset", preset, "--out", "sweep.csv"]) == 0
        stdout = capsys.readouterr().out.encode()
        assert (hashlib.sha256(read(tmp_path / "sweep.csv")).hexdigest(),
                hashlib.sha256(stdout).hexdigest()) == PINNED_PRESET_SWEEPS[preset]


# SHA-256 of ``generate --preset P`` and of ``optimize`` on its output with
# four timers (mapping JSON, stdout), all written in the working directory.
# "low@1600" is the low preset's generation at 1600 tasks and seed 42.
PINNED_GENERATE_OPTIMIZE = {
    "low": ("bda5bc1f0cea12969d8912a7b9f692d8d64915179399fead0c67049681b77ea3",
            "721e7797e321a6621392191ee1de54bb6823b21cd075b2869d4941ac0486557b",
            "e275b3bb90fb6bd525f774df2d61455f8a70f9257a02aa561b4e98f41fd29f0c"),
    "high": ("d52755f47a089f9db0666d3f5afc347f7885b4bf503242677c7aae18e992feba",
             "721e7797e321a6621392191ee1de54bb6823b21cd075b2869d4941ac0486557b",
             "e275b3bb90fb6bd525f774df2d61455f8a70f9257a02aa561b4e98f41fd29f0c"),
    "harmonic_single": (
        "8345591fb22e412910eec26b4732549879c4cfd680090150c29657fb5c6673d8",
        "eeac50cba8e8b52fc4296ff899acc9a20390185709083cbb04ac2e829d64abd9",
        "94fd2802f2c730119bc51f3adec949b7be5ae946f23dcda3cca7894c44608989"),
    "harmonic_low": (
        "81c517cb80c48986c0c57d566d77dfda23e843670a259ab7067d0fe3e9972d09",
        "6f89e7369d0e3169f8a88b51d14a57f2ba7ed6342affc323d86186a81153fac8",
        "d51cbc06d7f70603e927cd2c3f7c9f4661d7d672c7c256cccc06b8e1fb99fb65"),
    "harmonic_high": (
        "72eb60fbd4d8fb257a6e67ac29fcf34642bb3efddadef2529db04e6ad48099df",
        "6f89e7369d0e3169f8a88b51d14a57f2ba7ed6342affc323d86186a81153fac8",
        "d51cbc06d7f70603e927cd2c3f7c9f4661d7d672c7c256cccc06b8e1fb99fb65"),
    "low@1600": (
        "d1a2f58262d80ba418b3e020013d0708c2edc8920d96008778fe6201091e4573",
        "4bf7cb9759a8a1b4d5916c53241ae685fc7ed1fae3f7fc04e1702271016696d9",
        "30307d722f45ca0b57f8db7a483798814a0128c3b199a380c0ed7f4c62753a13"),
}


def generate_1600_tasks(path):
    """Write the low preset's generation at 1600 tasks and seed 42 to ``path``."""
    scenario = json.loads(resources.files("chronosim").joinpath(
        "presets", "low.json").read_text(encoding="utf-8"))
    scenario["generation"]["n_tasks"] = 1600
    scenario_path = Path(path).with_name("scenario-1600.json")
    dump_json({"generation": scenario["generation"]}, str(scenario_path))
    return main(["generate", str(scenario_path), "--seed", "42", "--out", str(path)])


class TestPinnedGenerateOptimize:
    """The task sets ``generate`` writes and the mappings ``optimize`` finds
    for them stay byte-identical."""

    @pytest.mark.parametrize("preset", sorted(PINNED_GENERATE_OPTIMIZE))
    def test_outputs_match_the_pin(self, tmp_path, monkeypatch, capsys, preset):
        monkeypatch.chdir(tmp_path)
        if preset == "low@1600":
            assert generate_1600_tasks("tasks.json") == 0
        else:
            assert main(["generate", "--preset", preset, "--out", "tasks.json"]) == 0
        capsys.readouterr()
        assert main(["optimize", "tasks.json", "--timers", "4",
                     "--out", "mapping.json"]) == 0
        stdout = capsys.readouterr().out.encode()
        outputs = (read(tmp_path / "tasks.json"), read(tmp_path / "mapping.json"),
                   stdout)
        assert tuple(hashlib.sha256(data).hexdigest()
                     for data in outputs) == PINNED_GENERATE_OPTIMIZE[preset]

    def test_a_repeated_id_is_named_without_listing_every_id(self, tmp_path, capsys):
        tasks = tmp_path / "tasks.json"
        assert generate_1600_tasks(tasks) == 0
        obj = load_json(str(tasks))
        obj["tasks"][99]["id"] = 5
        dump_json(obj, str(tasks))
        capsys.readouterr()
        assert main(["optimize", str(tasks), "--timers", "4",
                     "--out", str(tmp_path / "mapping.json")]) == 2
        err = capsys.readouterr().err
        assert "task ids must be unique and dense 1..1600; repeated [5]; missing [100]" in err
        assert len(err.splitlines()) == 1 and len(err) < 200


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

    def test_misspelled_task_key_exit_two(self, tmp_path, capsys):
        # Left unchecked, the run would go on with the default deadline 6.
        tasks = tmp_path / "tasks.json"
        dump_json({"tasks": [{"id": 1, "period": 6, "wcet": 2, "deadine": 5}]},
                  str(tasks))
        assert main(["optimize", str(tasks), "--timers", "1",
                     "--out", str(tmp_path / "m.json")]) == 2
        assert main(["simulate", str(tasks), "--strategy", "baseline",
                     "--horizon", "6", "--out", str(tmp_path / "s.json")]) == 2
        err = capsys.readouterr().err
        assert err.count("unknown task keys: ['deadine']") == 2

    @pytest.mark.parametrize("where,key", [("task-set", "timers"),
                                           ("mapping", "priority"),
                                           ("timer", "priority")])
    def test_unknown_file_key_exit_two(self, tmp_path, capsys, where, key):
        tasks = self.write_tasks(tmp_path)
        if where == "task-set":
            obj = load_json(tasks)
            obj[key] = 3
            dump_json(obj, tasks)
            argvs = [["optimize", tasks, "--timers", "1"],
                     ["simulate", tasks, "--strategy", "baseline", "--horizon", "6"]]
        else:
            obj = {"timers": [{"id": 1, "period": 6, "tasks": [1]}]}
            (obj if where == "mapping" else obj["timers"][0])[key] = 3
            mapping = tmp_path / "mapping.json"
            dump_json(obj, str(mapping))
            argvs = [["simulate", tasks, "--mapping", str(mapping),
                      "--strategy", "chronos", "--horizon", "6"]]
        for argv in argvs:
            assert main(argv + ["--out", str(tmp_path / "out.json")]) == 2
        err = capsys.readouterr().err
        assert err.count(f"unknown {where} keys: [{key!r}]") == len(argvs)

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

    @pytest.mark.parametrize("value", [3, None, True])
    @pytest.mark.parametrize("target", ["optimize", "simulate", "simulate --mapping"])
    def test_non_array_tasks_or_timers_exit_two(self, tmp_path, capsys, target, value):
        bad = tmp_path / "bad.json"
        dump_json({"timers" if target == "simulate --mapping" else "tasks": value},
                  str(bad))
        out = ["--out", str(tmp_path / "out.json")]
        if target == "optimize":
            argv = ["optimize", str(bad), "--timers", "1"]
        elif target == "simulate":
            argv = ["simulate", str(bad), "--strategy", "baseline", "--horizon", "6"]
        else:
            argv = ["simulate", self.write_tasks(tmp_path), "--mapping", str(bad),
                    "--strategy", "chronos", "--horizon", "6"]
        assert main(argv + out) == 2
        assert "array" in capsys.readouterr().err

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


class TestStrictScenario:
    """Scenario files hold JSON integers and booleans; nothing is coerced."""

    # (path into the scenario, bad value)
    BAD_ENTRIES = [
        (("generation", "n_tasks"), 12.7),
        (("generation", "seed"), "7"),
        (("generation", "workload"), True),
        (("generation", "base_periods"), [3, 5.0]),
        (("generation", "factor_range"), [1, "2"]),
        (("generation", "period_factor"), 2.0),
        (("generation", "harmonic"), 0),
        (("horizon", "max_period_multiple"), 5.9),
        (("horizon",), 30.0),
        (("weights", "comparison"), 1.5),
        (("weights",), ["comparison"]),
        (("factors",), [1, "3"]),
        (("factors",), [2.0]),
        (("timers",), 2.5),
        (("time_scale",), "100"),
        (("overhead_as_time",), 1),
        (("steady_state",), "yes"),
    ]

    @staticmethod
    def scenario(tmp_path, path, value):
        obj = load_json(str(tmp_path / "scenario.json"))
        target = obj
        for key in path[:-1]:
            target = target.setdefault(key, {})
        target[path[-1]] = value
        bad = tmp_path / "bad.json"
        dump_json(obj, str(bad))
        return str(bad)

    @pytest.mark.parametrize("path,value", BAD_ENTRIES,
                             ids=[".".join(p) + f"={v!r}" for p, v in BAD_ENTRIES])
    def test_bad_entry_exit_two(self, tmp_path, capsys, scenario_file, path, value):
        bad = self.scenario(tmp_path, path, value)
        assert main(["sweep", bad, "--out", str(tmp_path / "s.csv")]) == 2
        err = capsys.readouterr().err
        assert "expected a JSON" in err
        if path[0] == "generation":
            assert main(["generate", bad, "--out", str(tmp_path / "t.json")]) == 2

    BAD_STRATEGIES = [5, None, "chronos", [], ["chronos", "chronos"], ["nope"], [1]]

    @pytest.mark.parametrize("value", BAD_STRATEGIES,
                             ids=[repr(v) for v in BAD_STRATEGIES])
    def test_bad_strategies_exit_two(self, tmp_path, capsys, scenario_file, value):
        bad = self.scenario(tmp_path, ("strategies",), value)
        assert main(["sweep", bad, "--out", str(tmp_path / "s.csv")]) == 2
        err = capsys.readouterr().err
        assert "strategies" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("factors", [[2, 2, 2], [1, 15, 15]])
    def test_repeated_factors_exit_two(self, tmp_path, capsys, scenario_file,
                                       factors):
        bad = self.scenario(tmp_path, ("factors",), factors)
        assert main(["sweep", bad, "--out", str(tmp_path / "s.csv")]) == 2
        assert "factors must be a nonempty list without repeats" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("last", [10**10, 10**20])
    def test_huge_factor_range_exit_two(self, tmp_path, capsys, scenario_file, last):
        # Refused before the range is built: 10**20 factors overflow a list
        # index and 10**10 exhaust memory.
        bad = self.scenario(tmp_path, ("factors",), [1, last])
        assert main(["sweep", bad, "--out", str(tmp_path / "s.csv")]) == 2
        err = capsys.readouterr().err
        assert f"spans {last} factors; at most 10000 are allowed" in err
        assert "Traceback" not in err

    def test_factor_range_at_the_limit_is_kept(self):
        assert len(cli._factors({"factors": [1, cli.MAX_FACTORS]})) == cli.MAX_FACTORS
        with pytest.raises(UsageError, match="spans 10001 factors"):
            cli._factors({"factors": [0, cli.MAX_FACTORS]})

    def test_negative_cost_weight_exit_two(self, tmp_path, capsys, scenario_file):
        bad = self.scenario(tmp_path, ("weights",),
                            {"interrupt_entry_exit": -50, "comparison": -3})
        assert main(["sweep", bad, "--out", str(tmp_path / "s.csv")]) == 2
        assert "cost weight comparison must be >= 0, got -3" in capsys.readouterr().err

    def test_zero_cost_weights_still_run(self, tmp_path, scenario_file):
        ok = self.scenario(tmp_path, ("weights",),
                           {"interrupt_entry_exit": 0, "comparison": 0})
        assert main(["sweep", ok, "--out", str(tmp_path / "s.csv")]) == 0

    # (path to a misspelled key, the section the message names)
    UNKNOWN_KEYS = [(("timer",), "scenario"),
                    (("generation", "n_task"), "generation"),
                    (("horizon", "max_period_multiples"), "horizon"),
                    (("weights", "comparisons"), "cost weight")]

    @pytest.mark.parametrize("path,where", UNKNOWN_KEYS,
                             ids=[where for _, where in UNKNOWN_KEYS])
    def test_unknown_key_exit_two(self, tmp_path, capsys, scenario_file, path,
                                  where):
        bad = self.scenario(tmp_path, path, 5)
        out = tmp_path / "s.csv"
        assert main(["sweep", bad, "--out", str(out)]) == 2
        assert f"unknown {where} keys: [{path[-1]!r}]" in capsys.readouterr().err
        assert not out.exists()
        if where not in ("horizon", "cost weight"):  # generate reads neither
            assert main(["generate", bad, "--out", str(tmp_path / "t.json")]) == 2

    def inline_scenario(self, tmp_path, generation):
        """The scenario with two inline tasks, with or without its generation."""
        path = self.scenario(tmp_path, ("tasks",), [{"id": 1, "period": 3, "wcet": 1},
                                                    {"id": 2, "period": 5, "wcet": 1}])
        if not generation:
            obj = load_json(path)
            del obj["generation"]
            dump_json(obj, path)
        return path

    def test_inline_tasks_sweep_next_to_the_other_keys(self, tmp_path, scenario_file):
        # The whole scenario goes through the task-set reader, so only the
        # task-set file reader rejects keys beside ``tasks``.
        ok = self.inline_scenario(tmp_path, generation=False)
        assert main(["sweep", ok, "--out", str(tmp_path / "s.csv")]) == 0

    # (keep the generation section, extra arguments, what the message names)
    INLINE_CONFLICTS = [(True, [], "holds both 'tasks' and 'generation'"),
                        (False, ["--seed", "9"], "--seed seeds the generator")]

    @pytest.mark.parametrize("command", ["generate", "sweep"])
    @pytest.mark.parametrize("generation,extra,message", INLINE_CONFLICTS,
                             ids=["generation", "seed"])
    def test_inline_tasks_ignore_nothing(self, tmp_path, capsys, scenario_file,
                                         command, generation, extra, message):
        # Inline tasks are not generated: a generation section or a seed
        # beside them would be silently ignored.
        bad = self.inline_scenario(tmp_path, generation)
        out = tmp_path / "out"
        assert main([command, bad, *extra, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("preset", PRESETS)
    def test_presets_still_load(self, tmp_path, preset):
        assert main(["generate", "--preset", preset,
                     "--out", str(tmp_path / "t.json")]) == 0


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

    def test_unknown_preset_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--preset", "nope", "--out", str(tmp_path / "s.csv")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "nope" in err

    def test_zero_timers_is_input_error(self, tmp_path, capsys):
        rc = main(["sweep", "--preset", "low", "--timers", "0",
                   "--out", str(tmp_path / "s.csv")])
        assert rc == 2
        assert "timer budget" in capsys.readouterr().err

    def test_report_on_missing_file(self, tmp_path):
        assert main(["report", str(tmp_path / "none.csv")]) == 2


class TestMalformedFiles:
    """Files that cannot be decoded exit 2 with a message, never a traceback."""

    COMMANDS = {
        "generate": ["generate", "{}", "--out", "{out}"],
        "optimize": ["optimize", "{}", "--timers", "2", "--out", "{out}"],
        "simulate": ["simulate", "{}", "--strategy", "baseline", "--out", "{out}"],
        "sweep": ["sweep", "{}", "--out", "{out}"],
    }
    JSON_FILES = {
        "not_utf8": b'{"tasks": [\xff]}',
        "nested_too_deep": b"[" * 100_000 + b"]" * 100_000,
        "integer_past_digit_limit": b'{"tasks": [{"id": ' + b"9" * 5000 + b"}]}",
    }

    @pytest.mark.parametrize("content", sorted(JSON_FILES))
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_undecodable_json_exit_two(self, tmp_path, capsys, command, content):
        path = tmp_path / "input.json"
        path.write_bytes(self.JSON_FILES[content])
        argv = [arg.format(str(path), out=str(tmp_path / "out"))
                for arg in self.COMMANDS[command]]
        assert main(argv) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_scenario_that_is_not_an_object_exit_two(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text("[]")
        assert main(["sweep", str(path), "--out", str(tmp_path / "s.csv")]) == 2
        assert "must be a JSON object" in capsys.readouterr().err

    def test_report_on_non_utf8_csv_exit_two(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        path.write_bytes(b"factor,strategy\n1,\xff\n")
        assert main(["report", str(path)]) == 2
        assert "malformed sweep CSV" in capsys.readouterr().err

    @pytest.mark.parametrize("ratio", ["0", "-2", "1e400", "1/0"])
    def test_report_on_ratio_not_a_positive_float_exit_two(self, tmp_path, capsys,
                                                             ratio):
        path = tmp_path / "sweep.csv"
        path.write_text("factor,strategy,overhead_ratio,schedulable_class\n"
                        f"1,chronos,{ratio},schedulable\n")
        assert main(["report", str(path)]) == 2
        assert "malformed sweep row" in capsys.readouterr().err

    def test_report_on_oversized_csv_field_exit_two(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        path.write_text("factor,strategy\n1," + "x" * 200_000 + "\n")
        assert main(["report", str(path)]) == 2
        assert "malformed sweep CSV" in capsys.readouterr().err


class TestParserReuse:
    """``main`` builds its parser once per process, and no call's outcome
    depends on the calls made before it."""

    SEQUENCE = [
        ["--help"],
        ["optimize", "tasks.json", "--out", "result.json"],  # no --timers
        ["optimize", "tasks.json", "--timers", "2", "--out", "result.json",
         "--export-lp", "model.lp"],
        ["sweep", "--preset", "harmonic_single", "--out", "sweep.csv"],
        ["optimize", "tasks.json", "--timers", "1", "--out", "result.json"],
    ]

    @staticmethod
    def outcome(argv, capsys):
        """Exit code, stdout, stderr and the ``--out`` file of one call."""
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse exits on --help and usage errors
            rc = exc.code
        captured = capsys.readouterr()
        out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
        data = read(out) if out is not None and out.exists() else None
        return rc, captured.out, captured.err, data

    def test_calls_in_one_process_match_calls_on_a_fresh_parser(
            self, tmp_path, monkeypatch, capsys):
        builds = []
        build_parser = cli.build_parser

        def counting_build_parser():
            builds.append(None)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        outcomes, build_counts = {}, {}
        for name in ("shared", "fresh"):
            work = tmp_path / name
            work.mkdir()
            monkeypatch.chdir(work)
            TestSimulate().write_two_five(work)
            cli._parser.cache_clear()
            del builds[:]
            outcomes[name] = []
            for argv in self.SEQUENCE:
                if name == "fresh":
                    cli._parser.cache_clear()
                outcomes[name].append(self.outcome(argv, capsys))
            build_counts[name] = len(builds)
        assert build_counts == {"shared": 1, "fresh": len(self.SEQUENCE)}
        assert outcomes["shared"] == outcomes["fresh"]
        assert [rc for rc, *_ in outcomes["shared"]] == [0, 2, 0, 0, 0]
        # The last call drops the --export-lp of the optimize call before it.
        assert "solver model" not in outcomes["shared"][-1][1]


class TestStdlibOnly:
    def test_cli_import_loads_no_third_party_module(self):
        # The test suite uses numpy, scipy and hypothesis; the runtime must not.
        src = str(Path(chronosim.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        code = ("import sys, chronosim.cli; print(sorted({name.split('.')[0] "
                "for name in sys.modules} & {'numpy', 'scipy', 'hypothesis'}))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out == "[]\n"


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_cli(self, tmp_path):
        src = str(Path(chronosim.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "chronosim", "report", str(tmp_path / "missing.csv")],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")


class TestPackageSurface:
    def test_every_exported_name_resolves(self):
        assert [name for name in chronosim.__all__
                if not hasattr(chronosim, name)] == []
