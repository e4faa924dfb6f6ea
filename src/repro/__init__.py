"""repro -- Version Stamps: decentralized version vectors.

A full reproduction of *"Version Stamps — Decentralized Version Vectors"*
(Almeida, Baquero & Fonte, ICDCS 2002): the version-stamp mechanism itself,
the causal-history reference model it is proved equivalent to, the baseline
mechanisms it generalizes (version vectors, vector clocks, dynamic version
vectors, plausible clocks), the authors' later Interval Tree Clocks as the
future-work extension, an optimistic replication substrate for partitioned
and mobile operation, a PANASYNC-style file-copy dependency tracker, and a
simulation/benchmark harness that regenerates every figure of the paper.

Quick start
-----------
>>> from repro import kernel
>>> left, right = kernel.make("version-stamp").fork()
>>> left = left.event()
>>> left.compare(right).name
'AFTER'
>>> kernel.from_bytes(left.to_bytes()) == left
True

(The same four lines work for every registered family:
``kernel.families()`` lists them.)

Subpackages
-----------
* :mod:`repro.kernel` -- the public causality kernel: the
  :class:`~repro.kernel.protocol.CausalityClock` protocol, the clock-family
  registry, the epoch-tagged wire envelope and the mechanism adapters.
* :mod:`repro.core` -- bit strings, names, version stamps, frontiers,
  invariants, reduction, encoding.
* :mod:`repro.causal` -- the causal-history oracle (Section 2).
* :mod:`repro.vv` -- version vectors, vector clocks, dynamic version vectors,
  plausible clocks, identifier sources.
* :mod:`repro.itc` -- Interval Tree Clocks (the future-work extension).
* :mod:`repro.replication` -- store replicas, conflict policies, simulated
  partitions/mobility, anti-entropy.
* :mod:`repro.panasync` -- file-copy dependency tracking tools.
* :mod:`repro.sim` -- traces, workload generators, the lockstep runner and
  the exhaustive model checker.
* :mod:`repro.analysis` -- figure reconstructions, size sweeps, reporting.
"""

from . import kernel
from .causal import CausalConfiguration, CausalHistory
from .core import (
    BitString,
    Frontier,
    Name,
    Ordering,
    VersionStamp,
    assert_invariants,
    check_all,
)
from .itc import ITCStamp
from .replication import (
    AntiEntropy,
    MobileNode,
    PartitionedNetwork,
    StoreReplica,
)
from .panasync import FileCopy, Panasync
from .vv import DynamicVVSystem, PlausibleClock, VectorClock, VersionVector

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "kernel",
    "BitString",
    "Name",
    "VersionStamp",
    "Frontier",
    "Ordering",
    "check_all",
    "assert_invariants",
    "CausalHistory",
    "CausalConfiguration",
    "VersionVector",
    "VectorClock",
    "DynamicVVSystem",
    "PlausibleClock",
    "ITCStamp",
    "StoreReplica",
    "MobileNode",
    "AntiEntropy",
    "PartitionedNetwork",
    "FileCopy",
    "Panasync",
]
