"""Causal ordering contracts: consumer-facing enforcement with provenance.

This package is the repo's Layer-4 answer to the question the kernel
clocks only make *answerable*: not "are these two states concurrent?"
but "did the operation I am about to run observe the state it was
promised?".  Pipelines declare obligations as
:class:`~repro.contracts.spec.ContractSpec` values, a
:class:`~repro.contracts.checker.ContractChecker` evaluates them at
operation boundaries through the family-generic
:class:`~repro.kernel.protocol.CausalityClock` protocol, and --
when the sync engine records a
:class:`~repro.replication.history.SyncHistory` -- every violation
carries a :class:`~repro.contracts.provenance.ProvenanceTrace` naming
the anti-entropy legs that should have carried the knowledge and the
injected faults that destroyed them.

Try it end to end with ``repro contracts demo``.
"""

from __future__ import annotations

from .checker import (
    ContractChecker,
    ContractViolation,
    HealedViolation,
    OperationRecord,
    ViolationReport,
)
from .provenance import LostLeg, ProvenanceTrace, reconstruct
from .spec import ContractKind, ContractSpec

__all__ = [
    "ContractKind",
    "ContractSpec",
    "ContractChecker",
    "ContractViolation",
    "HealedViolation",
    "OperationRecord",
    "ViolationReport",
    "LostLeg",
    "ProvenanceTrace",
    "reconstruct",
]
