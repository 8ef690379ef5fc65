"""Multi-timer tick dispatching at desk scale.

Partitions periodic task sets across multiple tick timers to minimize the
expected interrupt rate, simulates the dispatching strategies under an
abstract cost model, and verifies release correctness, schedulability, and
overhead reduction.
"""

from .dispatch import (
    CostWeights,
    DispatcherState,
    Strategy,
    TIME_MAX,
    delay_task,
    tick,
)
from .errors import ChronosimError, ConfigError, InvariantViolation, UsageError
from .model import (
    GenerationSpec,
    Mapping,
    Task,
    TaskSet,
    TimerConfig,
    expected_interrupt_rate,
    generate_task_set,
    is_harmonic_chain,
    single_timer_mapping,
)
from .optimizer import (
    OptimizationProblem,
    OptimizationResult,
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
    "OptimizationProblem",
    "OptimizationResult",
    "SimConfig",
    "SimMetrics",
    "Strategy",
    "SweepTable",
    "TIME_MAX",
    "Task",
    "TaskSet",
    "TimerConfig",
    "UsageError",
    "delay_task",
    "expected_interrupt_rate",
    "export_miqcp",
    "generate_task_set",
    "is_harmonic_chain",
    "period_factor_sweep",
    "run",
    "single_timer_mapping",
    "solve",
    "tick",
]
