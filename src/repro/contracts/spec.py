"""Declarative ordering contracts between named operations.

A :class:`ContractSpec` states a causal obligation between two *named
operations* over one store key -- "pipeline B's ``train`` must observe
pipeline A's latest ``export`` of ``dataset``" -- without saying anything
about which clock family tracks the key.  The checker evaluates the
obligation purely through :class:`~repro.kernel.protocol.
CausalityClock` comparisons, so one spec enforces identically over
version stamps, ITC, dynamic version vectors or raw causal histories.

Four contract kinds cover the stale-data failure modes SNIPPETS.md
Snippet 3 (contextcore's Layer-4 design) catalogues:

* ``observes`` -- the target operation must have observed the source
  operation's *latest* recorded state of the key (the stale-export
  pipeline contract).
* ``happened-before`` -- the source operation must have happened, and the
  target must causally follow *some* recorded completion of it (the
  weaker "A ran before B" ordering; unlike ``observes`` it is violated
  when the source never ran at all).
* ``mutual-exclusion`` -- the target operation must not run causally
  concurrent with the source operation's latest recorded state (two
  supposedly serialized actors racing).
* ``freshness-within-k-events`` -- the target may lag the source's
  recorded states by at most ``max_lag`` recordings (bounded staleness:
  "B may be at most k exports behind A").

All validation failures raise the typed
:class:`~repro.core.errors.ContractError`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Union

from ..core.errors import ContractError

__all__ = ["ContractKind", "ContractSpec"]


class ContractKind(enum.Enum):
    """The causal obligation a contract enforces."""

    OBSERVES = "observes"
    HAPPENED_BEFORE = "happened-before"
    MUTUAL_EXCLUSION = "mutual-exclusion"
    FRESHNESS = "freshness-within-k-events"

    @classmethod
    def parse(cls, value: Union["ContractKind", str]) -> "ContractKind":
        """Coerce a kind name (the enum value string) to the enum."""
        if isinstance(value, cls):
            return value
        for kind in cls:
            if kind.value == value:
                return kind
        known = ", ".join(kind.value for kind in cls)
        raise ContractError(
            f"unknown contract kind {value!r}; known kinds: {known}"
        )


@dataclass(frozen=True)
class ContractSpec:
    """One declarative ordering contract.

    Parameters
    ----------
    name:
        Unique label of the contract (appears in violation reports).
    kind:
        A :class:`ContractKind` or its string value.
    source:
        The operation whose recorded state the obligation refers to
        (e.g. the producer's ``export``).
    target:
        The operation checked at its boundary (e.g. the consumer's
        ``train``).
    key:
        The store key both operations act on.
    max_lag:
        Only for ``freshness-within-k-events``: the number of source
        recordings the target may lag behind (``>= 1``).
    """

    name: str
    kind: ContractKind
    source: str
    target: str
    key: str
    max_lag: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", ContractKind.parse(self.kind))
        for field_name in ("name", "source", "target", "key"):
            value = getattr(self, field_name)
            if not isinstance(value, str) or not value:
                raise ContractError(
                    f"contract {field_name} must be a non-empty string, "
                    f"got {value!r}"
                )
        if self.source == self.target:
            raise ContractError(
                f"contract {self.name!r} relates operation "
                f"{self.source!r} to itself; source and target must be "
                f"distinct operations"
            )
        if self.kind is ContractKind.FRESHNESS:
            if not isinstance(self.max_lag, int) or isinstance(self.max_lag, bool):
                raise ContractError(
                    f"contract {self.name!r} ({self.kind.value}) needs an "
                    f"integer max_lag, got {self.max_lag!r}"
                )
            if self.max_lag < 1:
                raise ContractError(
                    f"contract {self.name!r} needs max_lag >= 1, got "
                    f"{self.max_lag} (a freshness bound of zero is the "
                    f"'observes' contract)"
                )
        elif self.max_lag is not None:
            raise ContractError(
                f"contract {self.name!r} ({self.kind.value}) does not take "
                f"a max_lag bound (only freshness-within-k-events does)"
            )

    def describe(self) -> str:
        """One readable line stating the obligation."""
        if self.kind is ContractKind.OBSERVES:
            clause = f"must observe {self.source!r}'s latest state"
        elif self.kind is ContractKind.HAPPENED_BEFORE:
            clause = f"must causally follow a completed {self.source!r}"
        elif self.kind is ContractKind.MUTUAL_EXCLUSION:
            clause = f"must not run concurrent with {self.source!r}"
        else:
            clause = (
                f"may lag {self.source!r} by at most {self.max_lag} "
                f"recorded event(s)"
            )
        return f"[{self.name}] operation {self.target!r} {clause} on key {self.key!r}"
