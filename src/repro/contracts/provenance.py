"""Provenance reconstruction: which sync path lost the knowledge.

A contract violation says a replica *should* have observed some recorded
state and did not.  With decentralized causality tracking, that knowledge
can only travel along anti-entropy exchanges -- so the violation has a
reconstructible story: replay the recorded
:class:`~repro.replication.history.ExchangeRecord` entries after the
source recording and track the set of replicas holding the required
knowledge.

The replay is sound because of two properties of the sync engine:

* an exchange listed in ``keys_synced`` is *per-key transactional* --
  after it, both ends hold the combined causal knowledge for that key
  (merged, replicated, or proven EQUAL), so a completed exchange with a
  knowledge holder makes the other end a holder;
* a key in ``keys_lost`` left **both** sides exactly as they were
  (request-leg skip, response-leg rollback, frame rejection, or the
  rollback of a session aborted at its deadline), so a
  lost exchange never moves knowledge -- it is precisely a *lost
  propagation opportunity* whenever one end was a holder and the other
  was not, and the record carries the fault counters (drops, retries,
  corruptions) that explain the loss.

The emitted :class:`ProvenanceTrace` therefore names the last replica to
gain the required knowledge, every leg where propagation toward the
violating replica was lost (with its fault counters), and whether the
ring buffer rotated out part of the window (``truncated`` -- the trace
then reports what it can still prove instead of guessing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..replication.history import SyncHistory

__all__ = ["LostLeg", "ProvenanceTrace", "reconstruct"]


@dataclass(frozen=True)
class LostLeg:
    """One exchange that should have spread the knowledge and failed.

    ``holder``/``other`` orient the leg: ``holder`` had the required
    knowledge when the exchange ran, ``other`` did not.  The fault
    counters are the exchange's own meter deltas -- the drops, retries
    and corruptions that explain why the key never completed.
    """

    seq: int
    round_number: Optional[int]
    holder: str
    other: str
    key: str
    reason: str
    dropped: int
    retried: int
    corrupted: int
    deliveries_failed: int

    def describe(self) -> str:
        where = f"round {self.round_number}" if self.round_number else "unmarked"
        return (
            f"seq {self.seq} ({where}) {self.holder} <-> {self.other}: "
            f"{self.reason} (dropped={self.dropped}, retried={self.retried}, "
            f"corrupted={self.corrupted}, gave_up={self.deliveries_failed})"
        )


@dataclass(frozen=True)
class ProvenanceTrace:
    """The reconstructed propagation story behind one missing observation."""

    key: str
    source_replica: str
    target_replica: str
    #: The history window replayed: exchanges with since_seq <= seq < until_seq.
    since_seq: int
    until_seq: int
    #: Replicas holding the required knowledge at the end of the window.
    holders: Tuple[str, ...]
    #: The most recent replica to *gain* the knowledge (the source when it
    #: never spread at all).
    last_holder: str
    #: Sequence number of the exchange that last spread the knowledge
    #: (None when it never spread).
    last_spread_seq: Optional[int]
    #: Exchanges between a holder and a non-holder that attempted the key
    #: and lost it -- each one a propagation opportunity faults destroyed.
    lost_legs: Tuple[LostLeg, ...]
    #: Exchanges in the window that attempted the key at all.
    attempts: int
    #: Whether the ring buffer evicted part of the window (the trace is
    #: then a provable suffix of the story, not the whole story).
    truncated: bool

    @property
    def target_was_reachable(self) -> bool:
        """Whether any holder ever attempted an exchange with the target."""
        return any(
            self.target_replica in (leg.holder, leg.other) for leg in self.lost_legs
        )

    def describe(self) -> str:
        lines: List[str] = []
        lines.append(
            f"knowledge of key {self.key!r} recorded at replica "
            f"{self.source_replica!r} (history seq {self.since_seq})"
        )
        if self.truncated:
            lines.append(
                "  [ring buffer rotated out part of this window; the trace "
                "is the provable suffix]"
            )
        lines.append(
            f"  replicas holding it by seq {self.until_seq}: "
            f"{', '.join(self.holders)} "
            f"(last gained by {self.last_holder!r}"
            + (
                f" at seq {self.last_spread_seq})"
                if self.last_spread_seq is not None
                else "; it never spread)"
            )
        )
        if self.lost_legs:
            lines.append(
                f"  sync paths that should have carried it and didn't "
                f"({len(self.lost_legs)} of {self.attempts} attempts):"
            )
            for leg in self.lost_legs:
                lines.append(f"    - {leg.describe()}")
        elif self.attempts:
            lines.append(
                f"  {self.attempts} exchange(s) attempted the key, none "
                f"between a knowledge holder and replica "
                f"{self.target_replica!r}"
            )
        else:
            lines.append(
                f"  no exchange attempted key {self.key!r} in the window -- "
                f"replica {self.target_replica!r} was never offered the "
                f"knowledge (partitioned, crashed, or simply not scheduled)"
            )
        return "\n".join(lines)


def reconstruct(
    history: SyncHistory,
    *,
    key: str,
    source_replica: str,
    target_replica: str,
    since_seq: int,
    until_seq: Optional[int] = None,
) -> ProvenanceTrace:
    """Replay recorded exchanges and explain a missing observation.

    ``since_seq`` is the history sequence number snapshotted when the
    source operation was recorded (``SyncHistory.next_seq`` at record
    time); ``until_seq`` bounds the window at check time (defaults to the
    present).  Knowledge spreads through ``keys_synced`` exchanges
    touching a current holder; a ``keys_lost`` exchange between a holder
    and a non-holder is reported as a :class:`LostLeg` with its fault
    counters.
    """
    if until_seq is None:
        until_seq = history.next_seq
    # Sequence numbers start at 0 and are contiguous, so the ring has
    # evicted exactly the records with seq < evicted.
    truncated = since_seq < history.evicted
    holders = {source_replica}
    last_holder = source_replica
    last_spread_seq: Optional[int] = None
    lost_legs: List[LostLeg] = []
    attempts = 0
    for record in history.since(since_seq, until=until_seq):
        if not record.involves(key):
            continue
        attempts += 1
        first_holds = record.first in holders
        second_holds = record.second in holders
        if not first_holds and not second_holds:
            # Neither end had the knowledge: whatever this exchange did
            # to the key, it moved older state and cannot advance (or
            # lose) the knowledge we are tracing.
            continue
        if record.carried(key):
            if not (first_holds and second_holds):
                gained = record.second if first_holds else record.first
                holders.add(gained)
                last_holder = gained
                last_spread_seq = record.seq
            continue
        if first_holds and second_holds:
            continue
        holder, other = (
            (record.first, record.second)
            if first_holds
            else (record.second, record.first)
        )
        lost_legs.append(
            LostLeg(
                seq=record.seq,
                round_number=record.round_number,
                holder=holder,
                other=other,
                key=key,
                reason=record.lost_reason(key) or "lost",
                dropped=record.dropped,
                retried=record.retried,
                corrupted=record.corrupted,
                deliveries_failed=record.deliveries_failed,
            )
        )
    return ProvenanceTrace(
        key=key,
        source_replica=source_replica,
        target_replica=target_replica,
        since_seq=since_seq,
        until_seq=until_seq,
        holders=tuple(sorted(holders)),
        last_holder=last_holder,
        last_spread_seq=last_spread_seq,
        lost_legs=tuple(lost_legs),
        attempts=attempts,
        truncated=truncated,
    )
