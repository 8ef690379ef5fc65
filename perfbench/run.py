#!/usr/bin/env python3
"""chronosim benchmark: one workload per process.

    python3 perfbench/run.py --workload paper_sweep --seed 42 --seconds 35 --trace 0

Drives the user-facing CLI in-process through ``chronosim.cli.main(argv)``
(stdout captured, no interpreter start-up in the timed region), checks every
output it produces, prints a table of metrics with units and, as the last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics.  The workloads,
metrics and checks are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
import random
import resource
import statistics
import sys
import time
from fractions import Fraction
from importlib import resources
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PINS = HERE / "pins.json"
BENCHMARK = ROOT / "BENCHMARK.json"

DEFAULT_SEED = 42
SETUP_REPEATS = 7
SOLVE_CALLS = 200        # at least this many optimize calls on a sweep workload's
SOLVE_CHUNK = 50         # task set, made this many at a time before each pass
NODE_BUDGET = 20_000     # the optimizer's default node budget
OK_EXITS = (0, 5)        # 5: mapping not proven optimal, still a success
HOST_EVERY = 22          # optimize calls between host speed samples in a partition pass

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402


def fresh_cli():
    """Import chronosim from source as a first import would."""
    for name in [n for n in sys.modules if n == "chronosim" or n.startswith("chronosim.")]:
        del sys.modules[name]
    return importlib.import_module("chronosim.cli")


def call(cli, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def read_preset(name: str) -> dict:
    text = resources.files("chronosim").joinpath(
        "presets", f"{name}.json").read_text(encoding="utf-8")
    return json.loads(text)


def fraction_of(obj: dict) -> Fraction:
    return Fraction(obj["num"], obj["den"])


def gmean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def mapping_ok(obj: dict, periods: dict[int, int], m: int) -> bool:
    """Each task once on a timer whose period divides its own; the objective
    is the sum of 1/P over used timers, and at most ``m`` timers are used."""
    seen: set[int] = set()
    used = []
    try:
        for timer in obj["timers"]:
            if timer["tasks"]:
                used.append(timer["period"])
            for tid in timer["tasks"]:
                if tid in seen or tid not in periods or periods[tid] % timer["period"]:
                    return False
                seen.add(tid)
        return (len(seen) == len(periods)
                and fraction_of(obj["objective"]) == sum(Fraction(1, p) for p in used)
                and obj["timers_used"] == len(used) <= m)
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        return False


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Tally:
    """Operations attempted and failed across every output check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


class SweepWorkload:
    """A ``sweep`` on a scenario file; the mapping for the checks comes from
    ``optimize`` calls on the same task set, outside the timed region."""

    def __init__(self, name: str, seed: int, toy: bool):
        self.name = name
        self.seed = seed
        self.toy = toy
        self.dir = WORK / name
        self.scenario_path = self.dir / "scenario.json"
        self.tasks_path = self.dir / "tasks.json"
        self.map_path = self.dir / "mapping.json"
        self.csv_path = self.dir / "sweep.csv"

    def build(self, cli) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        if self.name == "paper_sweep":
            self._build_paper(cli)
        else:
            self._build_large(cli)
        scenario = json.loads(self.scenario_path.read_text(encoding="utf-8"))
        tasks = json.loads(self.tasks_path.read_text(encoding="utf-8"))["tasks"]
        self.periods = {t["id"]: t["period"] for t in tasks}
        self.timers = scenario["timers"]
        self.factors = scenario["factors"]
        self.strategies = scenario["strategies"]
        self.horizon = scenario["horizon"]["max_period_multiple"] * max(self.periods.values())
        per_run = sum(self.horizon // p + 1 for p in self.periods.values())
        self.jobs = per_run * len(self.factors) * len(self.strategies)

    def _build_paper(self, cli) -> None:
        # The shipped harmonic_high run.  Seeds other than the default relabel
        # the task ids, which changes every id-keyed order and tie-break but
        # not the amount of modelled work; fresh generation seeds would.
        preset = read_preset("harmonic_high")
        if self.toy:
            preset["generation"]["n_tasks"] = 12
        write_json(self.scenario_path, {"generation": preset["generation"]})
        call(cli, ["generate", str(self.scenario_path), "--out", str(self.tasks_path)])
        tasks = json.loads(self.tasks_path.read_text(encoding="utf-8"))["tasks"]
        ids = list(range(1, len(tasks) + 1))
        if self.seed != DEFAULT_SEED:
            random.Random(self.seed).shuffle(ids)
        for task, new_id in zip(tasks, ids):
            task["id"] = new_id
        tasks.sort(key=lambda t: t["id"])
        write_json(self.tasks_path, {"tasks": tasks})
        scenario = {key: preset[key] for key in (
            "timers", "strategies", "overhead_as_time", "time_scale",
            "steady_state", "horizon")}
        # An explicit list: a two-element list would read as a range.
        scenario["factors"] = [1, 2, 3] if self.toy else list(range(1, 16))
        scenario["tasks"] = tasks
        write_json(self.scenario_path, scenario)

    def _build_large(self, cli) -> None:
        scenario = read_preset("low")
        del scenario["name"]
        scenario["generation"]["n_tasks"] = 40 if self.toy else 1600
        scenario["generation"]["seed"] = self.seed
        scenario["factors"] = [1]
        write_json(self.scenario_path, scenario)
        call(cli, ["generate", str(self.scenario_path), "--out", str(self.tasks_path)])

    def solve(self, cli, tally: Tally, calls: int, host=None) -> list[float]:
        """Time ``optimize`` calls on the task set; keep the last mapping."""
        argv = ["optimize", str(self.tasks_path), "--timers", str(self.timers),
                "--out", str(self.map_path)]
        times = []
        for _ in range(calls):
            t0 = time.perf_counter()
            rc = call(cli, argv)
            times.append(time.perf_counter() - t0)
            obj = json.loads(self.map_path.read_text(encoding="utf-8"))
            tally.check(rc in OK_EXITS and mapping_ok(obj, self.periods, self.timers))
            self.used_periods = [t["period"] for t in obj["timers"] if t["tasks"]]
            self.objective_gmean = float(
                fraction_of(obj["objective"]) * math.gcd(*self.periods.values()))
        return host.close(times) if host and times else times

    def run_pass(self, cli, tracer=None, host=None) -> tuple[float, list[float]]:
        argv = ["sweep", str(self.scenario_path), "--out", str(self.csv_path)]
        t0 = time.perf_counter()
        self.last_rc = (tracer.call(spans.ROOT_SPAN, call, cli, argv) if tracer
                        else call(cli, argv))
        times = [time.perf_counter() - t0]
        if host:
            times = host.close(times)
        return times[0], times

    def check_pass(self, tally: Tally, pins: dict | None, observed: dict) -> None:
        text = self.csv_path.read_text(encoding="utf-8") if self.last_rc == 0 else ""
        self.check_csv(text, tally)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        observed["csv_sha256"] = digest
        if pins is not None:
            tally.check(digest == pins["csv_sha256"])

    def check_csv(self, text: str, tally: Tally) -> None:
        """Every row: required + not required = total, the interrupt count
        equals sum(floor(H / P_j)) over the strategy's timers, and the
        baseline's equals the unscaled horizon."""
        expected = {(f, s) for f in self.factors for s in self.strategies}
        for row in csv.DictReader(io.StringIO(text)):
            try:
                factor = int(row["factor"])
                key = (factor, row["strategy"])
                total = int(row["total_interrupts"])
                required = int(row["required_interrupts"])
                not_required = int(row["not_required_interrupts"])
            except (KeyError, ValueError):
                tally.check(False)
                continue
            timer_periods = [1] if key[1] == "baseline" else self.used_periods
            horizon = self.horizon * factor
            closed_form = sum(horizon // (p * factor) for p in timer_periods)
            ok = (key in expected and not row["error"]
                  and required + not_required == total == closed_form)
            if key[1] == "baseline":
                ok = ok and total == self.horizon
            expected.discard(key)
            tally.check(ok)
        for _ in expected:  # rows the sweep did not produce
            tally.check(False)


class PartitionWorkload:
    """A seeded batch of ``optimize`` calls on explicit task-set files.

    Most instances draw from a dense low range where the partition DP
    completes; a fixed minority draw from a sparser high range where it
    exhausts the node budget and falls back to greedy.  Fixing the mix keeps
    the batch's work from swinging with the seed, and puts the 90th
    percentile inside the budget-exhausted class.
    """

    EASY_RANGE = (4, 120, 3)     # lo, hi, minimum number of divisors
    HARD_RANGE = (60, 1000, 6)
    N_EASY, N_HARD = 95, 15

    def __init__(self, seed: int, toy: bool):
        self.name = "partition"
        self.seed = seed
        self.toy = toy
        self.dir = WORK / "partition"

    @staticmethod
    def _pool(lo: int, hi: int, min_divisors: int) -> list[int]:
        divisors = [0] * (hi + 1)
        for d in range(1, hi + 1):
            for x in range(d, hi + 1, d):
                divisors[x] += 1
        return [x for x in range(lo, hi + 1) if divisors[x] >= min_divisors]

    def build(self, cli) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        easy, hard = self._pool(*self.EASY_RANGE), self._pool(*self.HARD_RANGE)
        n_easy, n_hard = (4, 1) if self.toy else (self.N_EASY, self.N_HARD)
        rng = random.Random(self.seed)
        self.instances = []
        stride = (n_easy + n_hard) // n_hard
        for i in range(n_easy + n_hard):
            is_hard = i % stride == 0 and i // stride < n_hard
            n = 48 + (i * 7) % 33
            m = 10 + i % 3 if is_hard else 8 + i % 5
            periods = rng.sample(hard if is_hard else easy, n)
            path = self.dir / f"tasks_{i:03d}.json"
            write_json(path, {"tasks": [
                {"id": k, "period": p, "wcet": 0, "deadline": p, "releases": 5}
                for k, p in enumerate(periods, start=1)]})
            self.instances.append((path, m, dict(enumerate(periods, start=1))))
        self.jobs = len(self.instances)

    def solve(self, cli, tally: Tally, calls: int, host=None) -> list[float]:
        return []  # every pass is a batch of solves

    def run_pass(self, cli, tracer=None, host=None) -> tuple[float, list[float]]:
        times, self.outputs = [], []
        for i, (path, m, _) in enumerate(self.instances):
            out = self.dir / f"mapping_{i:03d}.json"
            argv = ["optimize", str(path), "--timers", str(m), "--out", str(out)]
            t0 = time.perf_counter()
            rc = tracer.call(spans.ROOT_SPAN, call, cli, argv) if tracer else call(cli, argv)
            times.append(time.perf_counter() - t0)
            self.outputs.append((rc, out))
            if host and ((i + 1) % HOST_EVERY == 0 or i + 1 == len(self.instances)):
                done = i % HOST_EVERY + 1
                times[-done:] = host.close(times[-done:])
        return sum(times), times

    def check_pass(self, tally: Tally, pins: dict | None, observed: dict) -> None:
        results, rates = [], []
        for i, (rc, out) in enumerate(self.outputs):
            _, m, periods = self.instances[i]
            obj = json.loads(out.read_text(encoding="utf-8")) if rc in OK_EXITS else None
            ok = obj is not None and mapping_ok(obj, periods, m)
            if ok:
                objective = fraction_of(obj["objective"])
                rates.append(float(objective * math.gcd(*periods.values())))
                results.append(self._observed(obj))
                if pins is not None:
                    ok = self._matches(objective, obj["timers"], pins["instances"][i])
            tally.check(ok)
        observed["instances"] = results
        self.objective_gmean = gmean(rates) if rates else 1.0

    @staticmethod
    def _timers_digest(timers: list) -> str:
        return hashlib.sha256(json.dumps(timers, sort_keys=True).encode()).hexdigest()

    @classmethod
    def _observed(cls, obj: dict) -> dict:
        if obj.get("stats", {}).get("nodes", 0) > NODE_BUDGET:
            return {"objective_max": obj["objective"]}
        return {"timers_sha256": cls._timers_digest(obj["timers"]),
                "objective": obj["objective"]}

    @classmethod
    def _matches(cls, objective: Fraction, timers: list, pin: dict) -> bool:
        if "objective_max" in pin:
            return objective <= fraction_of(pin["objective_max"])
        return (cls._timers_digest(timers) == pin["timers_sha256"]
                and objective == fraction_of(pin["objective"]))


def make_workload(name: str, seed: int, toy: bool):
    if name == "partition":
        return PartitionWorkload(seed, toy)
    return SweepWorkload(name, seed, toy)


WORKLOADS = ("paper_sweep", "large_n", "partition")


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

def check_counters(observed: dict, pinned: dict, tally: Tally) -> None:
    """Modelled-cost drift guard: counters per strategy equal their pins."""
    for strategy in sorted(set(observed) | set(pinned)):
        tally.check(observed.get(strategy) == pinned.get(strategy))


def run(name: str, seed: int, seconds: float, trace: bool, toy: bool = False,
        write_pins: bool = False) -> dict:
    pins = None
    if seed == DEFAULT_SEED and not toy and not write_pins:
        pins = json.loads(PINS.read_text(encoding="utf-8"))[name]

    # End-to-end times are taken at nominal host speed; a traced run reports
    # per-layer times as measured, and trace.overhead_s from both passes as
    # measured.
    host = None if trace else HostSpeed()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cli = fresh_cli()
        workload = make_workload(name, seed, toy)
        workload.build(cli)
        setup_times.append(time.perf_counter() - t0)
    if host:
        setup_times = host.close(setup_times)

    tally = Tally()
    observed: dict = {}
    start = time.perf_counter()
    # Solve calls come in chunks spread over the run, so that they sample the
    # host over the same span as the passes do.  Their quantiles are taken per
    # chunk, and the median over chunks is kept: the calls are identical, so
    # a chunk's tail is host noise, and one noisy chunk must not set it.
    chunk = 3 if toy else SOLVE_CHUNK
    chunks: list[list[float]] = []
    untraced: list[tuple[float, list[float]]] = []
    layer_passes: list[dict] = []
    traced_walls: list[float] = []
    absent: list[str] = []
    while True:
        t_pass = time.perf_counter()
        chunks.append(workload.solve(cli, tally, chunk, host))
        untraced.append(workload.run_pass(cli, host=host))
        workload.check_pass(tally, pins, observed)
        if trace:
            tracer = spans.Tracer()
            with spans.patched(tracer):
                wall, _ = workload.run_pass(cli, tracer)
            workload.check_pass(tally, pins, observed)
            counters = spans.strategy_counters(tracer.spans)
            if counters:
                observed["counters"] = counters
                if pins is not None:
                    check_counters(counters, pins["counters"], tally)
            traced_walls.append(wall)
            layer_passes.append(spans.layer_metrics(tracer.spans, NODE_BUDGET))
            layer_passes[-1]["trace.self_sum_s"] = spans.self_sum(tracer.spans)
            absent = tracer.absent
        now = time.perf_counter()
        if now + (now - t_pass) > start + seconds:
            break
    while chunks[0] and sum(map(len, chunks)) < SOLVE_CALLS:
        chunks.append(workload.solve(cli, tally, chunk, host))

    if write_pins:
        if tally.failed:
            raise SystemExit("not writing pins: an output check failed")
        all_pins = json.loads(PINS.read_text(encoding="utf-8")) if PINS.exists() else {}
        all_pins["seed"] = DEFAULT_SEED
        all_pins[name] = observed
        PINS.write_text(json.dumps(all_pins, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")

    wall = statistics.median(w for w, _ in untraced)
    if not chunks[0]:  # partition: one chunk of per-instance medians over passes
        chunks = [[statistics.median(c) for c in zip(*(t for _, t in untraced))]]

    if trace:
        metrics = spans.median_metrics(layer_passes)
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - wall
        metrics["trace.wall_s"] = statistics.median(traced_walls)
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall,
            "jobs_per_s": workload.jobs / wall,
            "solve_ms_p50": statistics.median(map(statistics.median, chunks)) * 1e3,
            "solve_ms_p90": statistics.median(map(p90, chunks)) * 1e3,
            "objective_gmean": workload.objective_gmean,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    return {"metrics": metrics, "attempted": tally.attempted, "failed": tally.failed,
            "passes": len(untraced), "absent": absent,
            "host_speed": host.speed() if host else None}


def report(result: dict, trace: bool) -> dict:
    """Print the metric table; return the final JSON object."""
    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    declared = bench["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    failed_frac = result["failed"] / max(result["attempted"], 1)
    print(f"passes: {result['passes']}  attempted: {result['attempted']}  "
          f"failed: {result['failed']}")
    print(f"{'failed_frac':<40} {failed_frac:>14.6g} fraction")
    for span in result["absent"]:
        print(f"absent span: {span}")
    if result["host_speed"]:
        print(f"{'host speed (x nominal)':<40} {result['host_speed']:>14.6g}")
    if trace:
        print(f"{'trace.wall_s':<40} {metrics['trace.wall_s']:>14.6g} s")
        print(f"{'trace.self_sum_s':<40} {metrics['trace.self_sum_s']:>14.6g} s")
    out = {}
    for entry in declared:
        value = metrics[entry["name"]]
        print(f"{entry['name']:<40} {value:>14.6g} {entry['unit']}")
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": out}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy-size inputs, for the self-test")
    parser.add_argument("--write-pins", action="store_true",
                        help="record this run's outputs as the default-seed pins")
    args = parser.parse_args(argv)
    if args.write_pins and (args.seed != DEFAULT_SEED or args.toy or not args.trace):
        parser.error("--write-pins needs the default seed, full size and --trace 1")
    if not (SRC / "chronosim" / "cli.py").is_file() or not BENCHMARK.is_file():
        print(f"error: no chronosim source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.toy, args.write_pins)
    print(json.dumps(report(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
