"""Provenance reconstruction over scripted sync histories.

These tests drive :func:`repro.contracts.provenance.reconstruct` over
hand-written :class:`ExchangeRecord` sequences, so every replay rule --
knowledge spread, lost legs, irrelevant exchanges, truncation -- is
pinned against an exactly known story.
"""

from repro.contracts import reconstruct
from repro.replication import SyncHistory


def _exchange(history, first, second, *, synced=(), lost=(), **counters):
    fields = dict(
        messages=2,
        bytes_sent=64,
        dropped=0,
        duplicated=0,
        retried=0,
        corrupted=0,
        deliveries_failed=0,
    )
    fields.update(counters)
    return history.append(
        first=first,
        second=second,
        keys_synced=tuple(synced),
        keys_lost=tuple(lost),
        **fields,
    )


class TestReplay:
    def test_knowledge_spreads_through_completed_exchanges(self):
        history = SyncHistory(maxlen=16)
        start = history.next_seq
        _exchange(history, "a", "b", synced=["k"])  # a -> b
        _exchange(history, "b", "c", synced=["k"])  # b -> c
        trace = reconstruct(
            history,
            key="k",
            source_replica="a",
            target_replica="d",
            since_seq=start,
        )
        assert trace.holders == ("a", "b", "c")
        assert trace.last_holder == "c"
        assert trace.last_spread_seq == 1
        assert trace.lost_legs == ()
        assert trace.attempts == 2
        assert not trace.truncated

    def test_lost_leg_between_holder_and_nonholder_is_reported(self):
        history = SyncHistory(maxlen=16)
        start = history.next_seq
        history.mark_round(4)
        _exchange(
            history,
            "a",
            "b",
            lost=[("k", "request-lost")],
            dropped=4,
            retried=3,
            deliveries_failed=1,
        )
        trace = reconstruct(
            history,
            key="k",
            source_replica="a",
            target_replica="b",
            since_seq=start,
        )
        assert trace.holders == ("a",)
        assert trace.last_spread_seq is None
        (leg,) = trace.lost_legs
        assert (leg.holder, leg.other) == ("a", "b")
        assert leg.round_number == 4
        assert leg.reason == "request-lost"
        assert (leg.dropped, leg.retried, leg.deliveries_failed) == (4, 3, 1)
        assert trace.target_was_reachable
        described = trace.describe()
        assert "request-lost" in described
        assert "dropped=4" in described

    def test_exchanges_between_nonholders_are_ignored(self):
        history = SyncHistory(maxlen=16)
        start = history.next_seq
        # c and d trade (older state of) k between themselves: neither
        # holds the recorded knowledge, so nothing spreads and nothing is
        # blamed.
        _exchange(history, "c", "d", synced=["k"])
        _exchange(history, "c", "d", lost=[("k", "request-lost")], dropped=2)
        trace = reconstruct(
            history,
            key="k",
            source_replica="a",
            target_replica="d",
            since_seq=start,
        )
        assert trace.holders == ("a",)
        assert trace.lost_legs == ()
        assert trace.attempts == 2
        assert not trace.target_was_reachable

    def test_lost_exchange_between_two_holders_is_not_blamed(self):
        history = SyncHistory(maxlen=16)
        start = history.next_seq
        _exchange(history, "a", "b", synced=["k"])
        _exchange(history, "a", "b", lost=[("k", "response-lost")], dropped=1)
        trace = reconstruct(
            history,
            key="k",
            source_replica="a",
            target_replica="c",
            since_seq=start,
        )
        assert trace.holders == ("a", "b")
        assert trace.lost_legs == ()

    def test_exchanges_not_involving_the_key_are_skipped(self):
        history = SyncHistory(maxlen=16)
        start = history.next_seq
        _exchange(history, "a", "b", synced=["other"])
        trace = reconstruct(
            history,
            key="k",
            source_replica="a",
            target_replica="b",
            since_seq=start,
        )
        assert trace.attempts == 0
        assert "never offered" in trace.describe()

    def test_until_seq_bounds_the_window(self):
        history = SyncHistory(maxlen=16)
        start = history.next_seq
        _exchange(history, "a", "b", synced=["k"])
        boundary = history.next_seq
        _exchange(history, "b", "c", synced=["k"])
        trace = reconstruct(
            history,
            key="k",
            source_replica="a",
            target_replica="c",
            since_seq=start,
            until_seq=boundary,
        )
        assert trace.holders == ("a", "b")
        assert trace.until_seq == boundary

    def test_truncation_is_reported_when_ring_rotated(self):
        history = SyncHistory(maxlen=2)
        start = history.next_seq
        _exchange(history, "a", "b", synced=["k"])
        _exchange(history, "b", "c", synced=["k"])
        _exchange(history, "c", "d", synced=["k"])  # evicts seq 0
        trace = reconstruct(
            history,
            key="k",
            source_replica="a",
            target_replica="e",
            since_seq=start,
        )
        assert trace.truncated
        assert "rotated out" in trace.describe()
        # The a->b spread was evicted, so the replay must not invent it:
        # with only the retained records, nobody but the source provably
        # holds the knowledge.
        assert trace.holders == ("a",)

    def test_empty_history_is_untruncated_and_attemptless(self):
        # An empty ring has evicted nothing, so it lost no part of the
        # window: the empty story is the whole story.
        history = SyncHistory(maxlen=4)
        trace = reconstruct(
            history,
            key="k",
            source_replica="a",
            target_replica="b",
            since_seq=0,
        )
        assert not trace.truncated
        assert history.evicted == 0
        assert trace.attempts == 0
        assert trace.holders == ("a",)
