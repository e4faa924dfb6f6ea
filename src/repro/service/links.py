"""Link timing model for the simulated datacenter network.

:class:`LinkProfile` turns one transfer leg (N messages, B bytes) into a
virtual-time delay: propagation latency (optionally jittered) plus
serialization time at the configured bandwidth (cluster-wide throttling
is a grey mode of :class:`~repro.replication.degradation.DegradationPlan`,
applied on top).  Jitter draws come from a *dedicated* RNG owned by the
service -- never from the transport's fault RNG -- so enabling or tuning
link timing cannot shift the fault schedule relative to the synchronous
reference path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

__all__ = ["LinkProfile"]


@dataclass(frozen=True)
class LinkProfile:
    """Virtual-time cost model of one network link.

    Parameters
    ----------
    latency:
        One-way propagation delay per transfer leg, in virtual seconds.
    bandwidth:
        Link bandwidth in bytes per virtual second; ``None`` means
        infinite (no serialization delay).
    jitter:
        Fractional uniform jitter on the latency term: the delay is
        scaled by ``1 + jitter * u`` with ``u ~ U[0, 1)``.
    """

    latency: float = 0.0
    bandwidth: Optional[float] = None
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ValueError(f"latency must be >= 0, got {self.latency}")
        if self.bandwidth is not None and self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")

    def leg_delay(self, nbytes: int, rng: random.Random) -> float:
        """Virtual seconds one transfer leg of ``nbytes`` occupies the wire."""
        delay = self.latency
        if self.jitter and self.latency:
            delay *= 1.0 + self.jitter * rng.random()
        if self.bandwidth is not None:
            delay += nbytes / self.bandwidth
        return delay
