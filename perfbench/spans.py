"""Span tracing for the benchmark's traced run.

The layers are traced from outside: each public function is replaced, for
the duration of a traced pass, by a wrapper installed on the module
attribute its callers look up.  A call becomes a span with a name, a start,
an end and a parent.  The two hot dispatcher primitives (``tick`` and
``delay_task``, patched where ``chronosim.sim`` looks them up) are kept as a
count and a total duration on their parent span, so memory stays bounded.
Spans stay in memory; :func:`layer_metrics` turns them into numbers.

A target that no longer exists is recorded as absent instead of failing, so
the benchmark survives a layer renaming or merging its functions.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from dataclasses import dataclass, field

ROOT_SPAN = "cli.main"

# (span name, module, attribute path) of every traced function.
TARGETS = (
    ("model.generate_task_set", "chronosim.model", "generate_task_set"),
    ("model.load_json", "chronosim.model", "load_json"),
    ("model.dump_json", "chronosim.model", "dump_json"),
    ("optimizer.solve_exact", "chronosim.optimizer", "solve_exact"),
    ("optimizer.greedy_heuristic", "chronosim.optimizer", "greedy_heuristic"),
    # The single budgeted entry point the two above are meant to merge into.
    ("optimizer.solve", "chronosim.optimizer", "solve"),
    ("sim.period_factor_sweep", "chronosim.sim", "period_factor_sweep"),
    ("sim.run", "chronosim.sim", "run"),
    ("sim.SweepTable.to_csv", "chronosim.sim", "SweepTable.to_csv"),
)
LEAF_TARGETS = (
    ("dispatch.tick", "chronosim.sim", "tick"),
    ("dispatch.delay_task", "chronosim.sim", "delay_task"),
)

STRATEGIES = ("baseline", "chronos", "chronos-const", "chronos-harmonic")
COUNTER_FIELDS = ("interrupt_counters", "delay_counters")
COUNT_FIELDS = ("deadline_misses", "jobs_completed")


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    tag: str = ""
    # Facts read from the call's arguments and result (never wall time).
    facts: dict = field(default_factory=dict)
    # Aggregated hot leaf calls: name -> [count, seconds].
    leaves: dict = field(default_factory=dict)


class Tracer:
    """Span recorder for one traced pass; single-threaded."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.absent: list[str] = []

    def enter(self, name: str) -> Span:
        span = Span(name, time.perf_counter(),
                    self.stack[-1] if self.stack else None)
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a span called ``name``."""
        span = self.enter(name)
        try:
            return fn(*args)
        finally:
            self.exit(span)


def _resolve(module_name: str, path: str):
    """(owner, attribute name, function) or None when the target is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, attr, None)
    return None if fn is None else (owner, attr, fn)


def _observe(span: Span, args: tuple, result) -> None:
    """Record the modelled facts a span's layer returns."""
    if span.name == "sim.run":
        config = args[0]
        span.tag = getattr(getattr(config, "strategy", None), "value", "")
        span.facts["config"] = config
        for name in COUNTER_FIELDS + COUNT_FIELDS + (
                "total_interrupts", "required_interrupts",
                "interrupt_cost", "delay_cost"):
            span.facts[name] = getattr(result, name, None)
    elif span.name.startswith("optimizer."):
        stats = getattr(result, "stats", None)
        span.facts["nodes"] = getattr(stats, "nodes", 0)
        span.facts["subsets"] = getattr(stats, "subsets", 0)


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.facts["raised"] = True
            raise
        finally:
            tracer.exit(span)
        _observe(span, args, result)
        return result
    return wrapper


def _wrap_leaf(tracer: Tracer, name: str, fn):
    spans = tracer.spans
    stack = tracer.stack

    @functools.wraps(fn)
    def wrapper(*args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            elapsed = time.perf_counter() - t0
            agg = spans[stack[-1]].leaves.setdefault(name, [0, 0.0])
            agg[0] += 1
            agg[1] += elapsed
    return wrapper


class patched:
    """Context manager installing the tracing wrappers on ``tracer``."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        for targets, wrap in ((TARGETS, _wrap), (LEAF_TARGETS, _wrap_leaf)):
            for name, module_name, path in targets:
                found = _resolve(module_name, path)
                if found is None:
                    if name not in self.tracer.absent:
                        self.tracer.absent.append(name)
                    continue
                owner, attr, fn = found
                self.saved.append((owner, attr, fn))
                setattr(owner, attr, wrap(self.tracer, name, fn))
        return self.tracer

    def __exit__(self, *exc) -> None:
        for owner, attr, fn in reversed(self.saved):
            setattr(owner, attr, fn)
        self.saved.clear()


# ---------------------------------------------------------------------------
# From spans to numbers
# ---------------------------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Duration minus the time covered by child spans and aggregated leaves."""
    own = [s.end - s.start - sum(agg[1] for agg in s.leaves.values())
           for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def self_sum(spans: list[Span]) -> float:
    """Self time of every span and aggregated leaf; equals the root spans'
    total duration when the span tree is consistent."""
    return sum(self_times(spans)) + sum(
        agg[1] for s in spans for agg in s.leaves.values())


def released_jobs(config) -> int:
    """Jobs a run releases, in closed form: sum over tasks of floor(H/P) + 1."""
    return sum(config.horizon // t.period + 1 for t in config.task_set.tasks)


def strategy_counters(spans: list[Span]) -> dict[str, dict]:
    """Modelled counters summed per strategy over every ``sim.run`` span."""
    out: dict[str, dict] = {}
    for s in spans:
        if s.name != "sim.run" or "raised" in s.facts:
            continue
        rec = out.setdefault(s.tag, {"runs": 0})
        rec["runs"] += 1
        for name in COUNTER_FIELDS:
            merged = rec.setdefault(name, {})
            for key, value in (s.facts[name] or {}).items():
                merged[key] = merged.get(key, 0) + value
        for name in COUNT_FIELDS:
            rec[name] = rec.get(name, 0) + (s.facts[name] or 0)
    return out


def _outermost(spans: list[Span], i: int, prefix: str) -> bool:
    parent = spans[i].parent
    while parent is not None:
        if spans[parent].name.startswith(prefix):
            return False
        parent = spans[parent].parent
    return True


def layer_metrics(spans: list[Span], node_budget: int) -> dict[str, float]:
    """Per-layer host times, work counts and modelled values of one pass.

    Metrics of a layer that did no work in the pass read 0.
    """
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def total(name: str) -> float:
        return sum(spans[i].end - spans[i].start for i in by_name.get(name, ()))

    def leaf(name: str) -> tuple[int, float]:
        count, seconds = 0, 0.0
        for s in spans:
            agg = s.leaves.get(name)
            if agg:
                count += agg[0]
                seconds += agg[1]
        return count, seconds

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: dict[str, float] = {}
    m["model.generate_s"] = total("model.generate_task_set")
    m["model.json_s"] = total("model.load_json") + total("model.dump_json")

    solver = [i for i, s in enumerate(spans) if s.name.startswith("optimizer.")
              and _outermost(spans, i, "optimizer.")]
    solved = [spans[i] for i in solver if "raised" not in spans[i].facts]
    nodes = sum(s.facts["nodes"] for s in solved)
    exhausted = sum(1 for s in solved if s.facts["nodes"] > node_budget)
    m["optimizer.solve_s"] = sum(spans[i].end - spans[i].start for i in solver)
    m["optimizer.nodes"] = nodes
    m["optimizer.subsets"] = sum(s.facts["subsets"] for s in solved)
    m["optimizer.us_per_node"] = ratio(m["optimizer.solve_s"] * 1e6, nodes)
    m["optimizer.budget_exhausted"] = exhausted
    m["optimizer.complete_frac"] = ratio(len(solved) - exhausted, len(solved))

    ticks, tick_s = leaf("dispatch.tick")
    delays, delay_s = leaf("dispatch.delay_task")
    m["dispatch.tick_s"] = tick_s
    m["dispatch.ticks"] = ticks
    m["dispatch.us_per_tick"] = ratio(tick_s * 1e6, ticks)
    m["dispatch.delay_s"] = delay_s
    m["dispatch.delays"] = delays
    m["dispatch.us_per_delay"] = ratio(delay_s * 1e6, delays)

    runs = [i for i in by_name.get("sim.run", ()) if "raised" not in spans[i].facts]
    jobs_total = misses = 0
    for strategy in STRATEGIES:
        mine = [i for i in runs if spans[i].tag == strategy]
        facts = [spans[i].facts for i in mine]
        interrupts = sum(f["total_interrupts"] or 0 for f in facts)
        required = sum(f["required_interrupts"] or 0 for f in facts)
        jobs = sum(released_jobs(f["config"]) for f in facts)
        jobs_total += jobs
        misses += sum(f["deadline_misses"] or 0 for f in facts)
        m[f"dispatch.required_frac.{strategy}"] = ratio(required, interrupts)
        m[f"dispatch.interrupt_cost.{strategy}"] = sum(
            f["interrupt_cost"] or 0 for f in facts)
        m[f"dispatch.delay_cost.{strategy}"] = sum(
            f["delay_cost"] or 0 for f in facts)
        m[f"sim.run_s.{strategy}"] = sum(
            spans[i].end - spans[i].start for i in mine)
        m[f"sim.us_per_job.{strategy}"] = ratio(
            sum(own[i] for i in mine) * 1e6, jobs)
    m["sim.self_s"] = sum(own[i] for name in ("sim.period_factor_sweep", "sim.run")
                          for i in by_name.get(name, ()))
    m["sim.jobs"] = jobs_total
    m["sim.misses"] = misses
    m["sim.csv_s"] = total("sim.SweepTable.to_csv")
    m["cli.self_s"] = sum(own[i] for i in by_name.get(ROOT_SPAN, ()))
    return m


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Per-key median over passes (counts repeat exactly, times vary)."""
    return {key: statistics.median(p[key] for p in passes) for key in passes[0]}
