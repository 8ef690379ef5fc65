"""Command-line front end: generate, optimize, simulate, sweep, report.

Exit codes: 0 success, 2 bad input, 3 inconsistent configuration (a task set
past the solver's fixed limits included), 4 internal error.  Every mapping is
proven optimal: the partition search covers only the divisibility-minimal
periods, since a timer covering a period covers its multiples, and prunes by
a Lagrangian bound on the timer limit.  Scenario files plus a seed fully
determine every output byte.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from dataclasses import fields as dataclass_fields
from importlib import resources

from . import model, optimizer, sim
from .dispatch import CostWeights, Strategy
from .errors import ChronosimError, ConfigError, UsageError

PRESETS = ("low", "high", "harmonic_single", "harmonic_low", "harmonic_high")
# Most factors a scenario's [first, last] range may span; the presets use 15.
MAX_FACTORS = 10_000

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONFIG = 3
EXIT_INTERNAL = 4

# The keys a scenario may hold, at the top level, in ``generation``, in a
# ``horizon`` object and in ``weights``; any other key is a misspelling,
# rejected with exit 2.
SCENARIO_KEYS = frozenset((
    "name", "generation", "tasks", "timers", "strategies", "factors",
    "overhead_as_time", "time_scale", "steady_state", "horizon",
    "fixed_timer_period", "weights"))
GENERATION_KEYS = frozenset((
    "base_periods", "factor_range", "n_tasks", "period_factor", "seed",
    "workload", "harmonic"))
HORIZON_KEYS = frozenset(("max_period_multiple",))
WEIGHT_KEYS = frozenset(f.name for f in dataclass_fields(CostWeights))


def _load_scenario(args) -> dict:
    if getattr(args, "preset", None):
        text = resources.files("chronosim").joinpath(
            "presets", f"{args.preset}.json").read_text(encoding="utf-8")
        scenario = json.loads(text)
    elif getattr(args, "scenario", None):
        scenario = model.load_json(args.scenario)
        if not isinstance(scenario, dict):
            raise UsageError(f"scenario {args.scenario} must be a JSON object")
    else:
        raise UsageError("a scenario file or --preset is required")
    model.check_keys(scenario, SCENARIO_KEYS, "scenario")
    return scenario


def _json_bool(value: object) -> bool:
    """A JSON boolean as is; numbers and strings are not coerced."""
    if type(value) is not bool:
        raise TypeError(f"expected a JSON boolean, got {value!r}")
    return value


def _setting(scenario: dict, key: str, default, parse=model._json_int):
    """A top-level scenario number, or a flag with ``parse=_json_bool``;
    anything else is malformed input (exit 2), never coerced."""
    try:
        return parse(scenario.get(key, default))
    except TypeError as exc:
        raise UsageError(f"malformed scenario entry {key!r}: {exc}") from exc


def _generation_spec(scenario: dict, seed_override: int | None) -> model.GenerationSpec:
    gen = scenario.get("generation")
    if gen is None:
        raise UsageError("scenario has no 'generation' section")
    if isinstance(gen, dict):
        model.check_keys(gen, GENERATION_KEYS, "generation")
    try:
        return model.GenerationSpec(
            base_periods=tuple(model._json_int(b) for b in gen["base_periods"]),
            factor_range=tuple(model._json_int(r) for r in gen["factor_range"]),
            n_tasks=model._json_int(gen["n_tasks"]),
            period_factor=model._json_int(gen.get("period_factor", 1)),
            rng_seed=(model._json_int(gen["seed"]) if seed_override is None
                      else seed_override),
            workload=model._json_int(gen.get("workload", 1)),
            harmonic=_json_bool(gen.get("harmonic", False)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed generation section: {exc}") from exc


def _scenario_task_set(scenario: dict, seed_override: int | None) -> model.TaskSet:
    """The inline ``tasks`` or the generated task set; never both, and a
    seed only for the generator, so that nothing given is ignored."""
    if "tasks" not in scenario:
        return model.generate_task_set(_generation_spec(scenario, seed_override))
    if "generation" in scenario:
        raise UsageError("scenario holds both 'tasks' and 'generation'; "
                         "inline tasks are not generated, so keep one")
    if seed_override is not None:
        raise UsageError("--seed seeds the generator, but the scenario's "
                         "tasks are inline")
    return model.task_set_from_json(scenario)


def _weights(scenario: dict) -> CostWeights:
    overrides = scenario.get("weights", {})
    if not isinstance(overrides, dict):
        raise UsageError(
            f"malformed cost weights: expected a JSON object, got {overrides!r}")
    model.check_keys(overrides, WEIGHT_KEYS, "cost weight")
    try:
        return CostWeights(**{k: model._json_int(v) for k, v in overrides.items()})
    except TypeError as exc:
        raise UsageError(f"malformed cost weights: {exc}") from exc


def _factors(scenario: dict) -> list[int]:
    raw = scenario.get("factors", [1, 15])
    if not isinstance(raw, list):
        raise UsageError(f"malformed factors entry: {raw!r}")
    try:
        factors = [model._json_int(p) for p in raw]
    except TypeError as exc:
        raise UsageError(f"malformed factors entry: {raw!r} ({exc})") from exc
    if len(factors) == 2 and factors[0] <= factors[1]:
        count = factors[1] - factors[0] + 1
        if count > MAX_FACTORS:
            raise UsageError(f"factor range {factors[0]}..{factors[1]} spans {count} "
                             f"factors; at most {MAX_FACTORS} are allowed")
        return list(range(factors[0], factors[1] + 1))
    return factors


def _strategies(scenario: dict) -> list[Strategy] | None:
    """The scenario's strategy labels, or None for the applicable strategies.

    A JSON list of known labels; the sweep rejects an empty or repeated list.
    """
    if "strategies" not in scenario:
        return None
    raw = scenario["strategies"]
    if not isinstance(raw, list):
        raise UsageError(
            f"malformed scenario entry 'strategies': expected a JSON list, got {raw!r}")
    strategies = []
    for label in raw:
        try:
            strategies.append(Strategy(label))
        except ValueError:
            raise UsageError(
                f"malformed scenario entry 'strategies': unknown strategy "
                f"{label!r}; choose from {[m.value for m in Strategy]}") from None
    return strategies


def _scenario_horizon(scenario: dict, task_set: model.TaskSet) -> int | None:
    """A fixed horizon, either absolute or as a multiple of the largest period."""
    raw = scenario.get("horizon")
    if raw is None:
        return None
    try:
        if isinstance(raw, dict):
            model.check_keys(raw, HORIZON_KEYS, "horizon")
            return model._json_int(raw["max_period_multiple"]) * max(task_set.periods())
        return model._json_int(raw)
    except (KeyError, TypeError) as exc:
        raise UsageError(f"malformed horizon entry: {raw!r} ({exc})") from exc


def _read_task_set(path: str) -> model.TaskSet:
    """A task-set file: its ``tasks`` array and no other key.  The check is
    not in ``task_set_from_json``, which also reads a scenario's inline tasks."""
    obj = model.load_json(path)
    task_set = model.task_set_from_json(obj)
    model.check_keys(obj, model.TASK_SET_KEYS, "task-set")
    return task_set


def _strip_release_limits(task_set: model.TaskSet) -> model.TaskSet:
    """Steady-state runs observe the repeating release pattern over a fixed
    window instead of letting tasks retire mid-run."""
    return model.TaskSet(tuple(
        model.Task(t.id, t.wcet, t.period, t.deadline, None)
        for t in task_set.tasks
    ))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    scenario = _load_scenario(args)
    task_set = _scenario_task_set(scenario, args.seed)
    model.dump_json(model.task_set_to_json(task_set), args.out)
    distinct = task_set.distinct_periods()
    chain = model.is_harmonic_chain(distinct)
    print(f"generated {task_set.n} tasks -> {args.out}")
    print(f"distinct periods ({len(distinct)}): {list(distinct)}")
    print(f"harmonic chain overall: {'yes' if chain else 'no'}")
    return EXIT_OK


def cmd_optimize(args) -> int:
    task_set = _read_task_set(args.task_set)
    problem = optimizer.OptimizationProblem.from_task_set(task_set, args.timers)
    result = optimizer.solve(problem)
    model.dump_json(result.to_json(), args.out)
    if args.export_lp:
        optimizer.export_miqcp(problem, args.export_lp)
        print(f"solver model -> {args.export_lp}")
    rate = result.objective
    print(f"{result.method} solve: {result.timers_used} timer(s), "
          f"objective {rate.numerator}/{rate.denominator} -> {args.out}")
    for tc in result.mapping.used_timers():
        print(f"  timer {tc.id}: period {tc.period}, "
              f"{len(result.mapping.tasks_of(tc.id))} task(s)")
    return EXIT_OK


def cmd_simulate(args) -> int:
    task_set = _read_task_set(args.task_set)
    strategy = Strategy(args.strategy)
    mapping = None
    if args.mapping:
        mapping = model.mapping_from_json(model.load_json(args.mapping))
    if strategy is not Strategy.BASELINE and mapping is None:
        raise UsageError(f"strategy {strategy.value} requires --mapping")
    factor = args.period_factor
    if factor < 1:
        raise UsageError(f"period_factor must be >= 1, got {factor}")
    if strategy is Strategy.BASELINE and mapping is not None:
        # The baseline runs its own timer, but a file it is given must fit.
        mapping.validate(task_set)
    task_set = task_set.scaled(factor)
    if strategy is Strategy.BASELINE:
        mapping = model.single_timer_mapping(task_set, period=factor)
    else:
        mapping = mapping.scaled(factor)
    config = sim.SimConfig(
        task_set=task_set,
        strategy=strategy,
        mapping=mapping,
        horizon=args.horizon,
        overhead_as_time=args.overhead_as_time,
        collect_trace=args.trace is not None,
    )
    metrics = sim.run(config)
    if args.format == "json":
        model.dump_json(metrics.to_json(), args.out)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            sim.write_metrics_csv(metrics, fh)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            sim.write_trace_csv(metrics, fh)
        if metrics.events_dropped:
            print(f"warning: trace {args.trace} stops at {config.trace_limit} "
                  f"events; {metrics.events_dropped} later event(s) dropped",
                  file=sys.stderr)
    print(f"{metrics.strategy}: {metrics.total_interrupts} interrupts "
          f"({metrics.not_required_interrupts} not required), "
          f"{metrics.deadline_misses} deadline miss(es), "
          f"cost {metrics.total_cost} -> {args.out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    scenario = _load_scenario(args)
    task_set = _scenario_task_set(scenario, args.seed)
    timers = args.timers if args.timers is not None else _setting(scenario, "timers", 4)
    if timers < 1:
        raise UsageError(f"timer budget must be >= 1, got {timers}")
    if scenario.get("fixed_timer_period") is not None:
        mapping = model.single_timer_mapping(
            task_set, period=_setting(scenario, "fixed_timer_period", None))
    else:
        problem = optimizer.OptimizationProblem.from_task_set(task_set, timers)
        mapping = optimizer.solve(problem).mapping
    strategies = _strategies(scenario)
    horizon = _scenario_horizon(scenario, task_set)
    if _setting(scenario, "steady_state", False, _json_bool):
        if horizon is None:
            raise UsageError("steady_state scenarios need a fixed horizon")
        task_set = _strip_release_limits(task_set)
    base = sim.SimConfig(
        task_set=task_set,
        strategy=Strategy.BASELINE,
        mapping=mapping,
        weights=_weights(scenario),
        horizon=horizon,
        overhead_as_time=_setting(scenario, "overhead_as_time", False, _json_bool),
        time_scale=_setting(scenario, "time_scale", 100),
        collect_trace=False,
    )
    table = sim.period_factor_sweep(base, _factors(scenario), strategies)
    with open(args.out, "w", encoding="utf-8") as fh:
        table.to_csv(fh)
    failures = [row for row in table.rows if row.error is not None]
    for row in failures:
        print(f"factor {row.factor}: ERROR {row.error}", file=sys.stderr)
    print(f"sweep table -> {args.out}")
    print(table.format_summary())
    for a, b in table.monotonicity_violations():
        print(f"note: schedulable at factor {a} but not at {b}", file=sys.stderr)
    if failures and len(failures) == len(table.rows):
        return EXIT_CONFIG
    return EXIT_OK


def cmd_report(args) -> int:
    """Recompute the overhead-reduction summary from an existing sweep CSV."""
    try:
        with open(args.sweep, "r", encoding="utf-8") as fh:
            table = sim.SweepTable.from_csv(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {args.sweep}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        # Bytes that are not UTF-8, or a field past the csv module's size limit.
        raise UsageError(f"malformed sweep CSV {args.sweep}: {exc}") from exc
    if not table.summary():
        raise UsageError(f"{args.sweep} contains no strategy rows")
    print(table.format_summary())
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chronosim",
        description="Multi-timer tick dispatching: partition, simulate, compare.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a task set from a scenario")
    p.add_argument("scenario", nargs="?", help="scenario JSON file")
    p.add_argument("--preset", choices=PRESETS, help="shipped scenario preset")
    p.add_argument("--seed", type=int, default=None, help="override the RNG seed")
    p.add_argument("--out", required=True, help="task-set JSON output path")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("optimize", help="find the mapping minimizing interrupt rate")
    p.add_argument("task_set", help="task-set JSON file")
    p.add_argument("--timers", type=int, required=True, help="timer budget m")
    p.add_argument("--out", required=True, help="mapping JSON output path")
    p.add_argument("--export-lp", default=None, help="also write the solver model")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("simulate", help="run one strategy over a task set")
    p.add_argument("task_set", help="task-set JSON file")
    p.add_argument("--mapping", default=None,
                   help="mapping JSON file, checked against the task set "
                        "(the baseline runs one timer at the period factor)")
    p.add_argument("--strategy", required=True,
                   choices=[s.value for s in Strategy])
    p.add_argument("--horizon", type=int, default=None,
                   help="fixed horizon in time units (default: run to retirement)")
    p.add_argument("--period-factor", type=int, default=1,
                   help="uniformly scale all periods before running (>= 1)")
    p.add_argument("--overhead-as-time", action="store_true",
                   help="interrupt cost consumes simulated time")
    p.add_argument("--trace", default=None, help="write the event trace CSV here")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--out", required=True, help="metrics output path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="period-factor sweep across strategies")
    p.add_argument("scenario", nargs="?", help="scenario JSON file")
    p.add_argument("--preset", choices=PRESETS, help="shipped scenario preset")
    p.add_argument("--seed", type=int, default=None, help="override the RNG seed")
    p.add_argument("--timers", type=int, default=None,
                   help="timer budget m; overrides the scenario's 'timers' (default 4)")
    p.add_argument("--out", required=True, help="sweep CSV output path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="summarize an existing sweep CSV")
    p.add_argument("sweep", help="sweep CSV produced by the sweep command")
    p.set_defaults(func=cmd_report)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call uses, built on the first call.

    Sharing one parser across calls keeps them independent: ``parse_args``
    builds a fresh ``Namespace`` each time, the ``func`` defaults are constant
    functions, ``prog`` is fixed, and argparse reads the terminal width when
    it formats help or usage, not when the parser is built.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ChronosimError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
