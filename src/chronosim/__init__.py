"""Multi-timer tick dispatching at desk scale.

Partitions periodic task sets across multiple tick timers to minimize the
expected interrupt rate, simulates the dispatching strategies under an
abstract cost model, and verifies release correctness, schedulability, and
overhead reduction.
"""

from .dispatch import (
    CostWeights,
    DispatcherState,
    OpCostLedger,
    Strategy,
    TIME_MAX,
    delay_task,
    tick,
    tick_chronos,
    tick_chronos_const,
    tick_chronos_harmonic,
)
from .errors import ChronosimError, ConfigError, InvariantViolation, UsageError
from .model import (
    GenerationSpec,
    Mapping,
    Rational,
    Task,
    TaskSet,
    TimerConfig,
    expected_interrupt_rate,
    gcd_of_periods,
    generate_task_set,
    is_harmonic_chain,
    required_ticks,
    single_timer_mapping,
)
from .optimizer import (
    OptimizationProblem,
    OptimizationResult,
    brute_force_reference,
    export_miqcp,
    solve,
)
from .sim import (
    SimConfig,
    SimMetrics,
    SweepTable,
    period_factor_sweep,
    run,
)

__version__ = "0.1.0"

__all__ = [
    "ChronosimError",
    "ConfigError",
    "CostWeights",
    "DispatcherState",
    "GenerationSpec",
    "InvariantViolation",
    "Mapping",
    "OpCostLedger",
    "OptimizationProblem",
    "OptimizationResult",
    "Rational",
    "SimConfig",
    "SimMetrics",
    "Strategy",
    "SweepTable",
    "TIME_MAX",
    "Task",
    "TaskSet",
    "TimerConfig",
    "UsageError",
    "brute_force_reference",
    "delay_task",
    "expected_interrupt_rate",
    "export_miqcp",
    "gcd_of_periods",
    "generate_task_set",
    "is_harmonic_chain",
    "period_factor_sweep",
    "required_ticks",
    "run",
    "single_timer_mapping",
    "solve",
    "tick",
    "tick_chronos",
    "tick_chronos_const",
    "tick_chronos_harmonic",
]
