"""Simulation and evaluation harness.

* :mod:`~repro.sim.trace` -- the trace language shared by every experiment.
* :mod:`~repro.sim.workload` -- parameterized random workload generators.
* :mod:`~repro.sim.runner` -- lockstep replay of one trace against the
  causal-history oracle and every mechanism, with agreement and size reports.
* :mod:`~repro.sim.exhaustive` -- exhaustive model checking of all small
  executions (invariants + Proposition 5.1).
* :mod:`~repro.sim.metrics` -- statistics containers used by the benchmarks.

The virtual-time service simulation lives in :mod:`repro.service`, driven
by its discrete-event :class:`~repro.service.interpreter.Interpreter`.
"""

from ..kernel.adapters import (
    CausalAdapter,
    DynamicVVAdapter,
    ITCAdapter,
    KernelClockAdapter,
    LamportAdapter,
    MechanismAdapter,
    PlausibleAdapter,
    RerootingStampAdapter,
    StampAdapter,
    default_adapters,
    kernel_adapters,
)
from .exhaustive import ExhaustiveReport, explore
from .metrics import ReductionAccumulator, Summary, summarize, SweepTable
from .runner import AgreementReport, LockstepRunner, SizeSample
from .trace import OpKind, Operation, Trace, validate_trace
from .workload import (
    churn_trace,
    fixed_replica_trace,
    partitioned_trace,
    random_dynamic_trace,
    sync_chain_trace,
)

__all__ = [
    "OpKind",
    "Operation",
    "Trace",
    "validate_trace",
    "random_dynamic_trace",
    "fixed_replica_trace",
    "partitioned_trace",
    "churn_trace",
    "sync_chain_trace",
    "LockstepRunner",
    "MechanismAdapter",
    "KernelClockAdapter",
    "kernel_adapters",
    "CausalAdapter",
    "StampAdapter",
    "RerootingStampAdapter",
    "DynamicVVAdapter",
    "ITCAdapter",
    "PlausibleAdapter",
    "LamportAdapter",
    "AgreementReport",
    "SizeSample",
    "default_adapters",
    "ExhaustiveReport",
    "explore",
    "Summary",
    "summarize",
    "ReductionAccumulator",
    "SweepTable",
]
