"""Unit tests for the replicated multi-value key-value store."""

import pytest

from repro.core.errors import ReplicationError
from repro.core.order import Ordering
from repro.replication.conflict import KeepBoth, MergeWith, PreferNewest
from repro.replication.store import StoreReplica
from repro.replication.tracker import KernelTracker


class TestLocalOperation:
    def test_put_and_get(self):
        store = StoreReplica("origin")
        store.put("k", "v1")
        assert store.get("k") == ["v1"]
        assert store.get_one("k") == "v1"

    def test_get_missing_key_is_empty(self):
        assert StoreReplica("origin").get("missing") == []

    def test_get_one_missing_key_raises(self):
        with pytest.raises(ReplicationError):
            StoreReplica("origin").get_one("missing")

    def test_tracker_of_missing_key_raises(self):
        with pytest.raises(ReplicationError):
            StoreReplica("origin").tracker_of("missing")

    def test_local_overwrite_supersedes(self):
        store = StoreReplica("origin")
        store.put("k", "v1")
        store.put("k", "v2")
        assert store.get("k") == ["v2"]

    def test_delete_writes_tombstone(self):
        store = StoreReplica("origin")
        store.put("k", "v1")
        store.delete("k")
        assert store.get("k") == [None]

    def test_keys_sorted(self):
        store = StoreReplica("origin")
        store.put("b", 1)
        store.put("a", 2)
        assert store.keys() == ["a", "b"]

    def test_fork_copies_data(self):
        store = StoreReplica("origin")
        store.put("k", "v")
        clone = store.fork("clone")
        assert clone.get("k") == ["v"]
        assert clone.name == "clone"

    def test_forked_key_trackers_are_equivalent_but_distinct(self):
        store = StoreReplica("origin")
        store.put("k", "v")
        clone = store.fork("clone")
        assert store.tracker_of("k").compare(clone.tracker_of("k")) is Ordering.EQUAL
        assert store.tracker_of("k") is not clone.tracker_of("k")

    def test_metadata_size_positive(self):
        store = StoreReplica("origin")
        store.put("k", "v")
        assert store.metadata_size_in_bits() > 0

    def test_repr(self):
        store = StoreReplica("origin")
        store.put("k", "v")
        assert "origin" in repr(store)

    def test_self_sync_rejected(self):
        store = StoreReplica("origin")
        with pytest.raises(ReplicationError):
            store.sync_with(store)


class TestReconciliation:
    def test_key_replicates_to_new_holder(self):
        origin = StoreReplica("origin")
        origin.put("k", "v1")
        other = StoreReplica("other")
        report = origin.sync_with(other)
        assert other.get("k") == ["v1"]
        assert report.keys_replicated == 1

    def test_newer_value_propagates(self):
        origin = StoreReplica("origin")
        origin.put("k", "v1")
        clone = origin.fork("clone")
        origin.put("k", "v2")
        report = clone.sync_with(origin)
        assert clone.get("k") == ["v2"]
        assert report.values_taken >= 1
        assert report.conflicts_detected == 0

    def test_synced_replicas_hold_equal_trackers(self):
        origin = StoreReplica("origin")
        origin.put("k", "v1")
        clone = origin.fork("clone")
        origin.put("k", "v2")
        origin.sync_with(clone)
        assert origin.tracker_of("k").compare(clone.tracker_of("k")) is Ordering.EQUAL
        assert origin.tracker_of("k") is not clone.tracker_of("k")

    def test_stale_side_receives_nothing_new_after_equal_sync(self):
        origin = StoreReplica("origin")
        origin.put("k", "v1")
        clone = origin.fork("clone")
        report = origin.sync_with(clone)
        assert report.conflicts_detected == 0
        assert origin.get("k") == clone.get("k") == ["v1"]

    def test_concurrent_writes_become_siblings_on_both_sides(self):
        origin = StoreReplica("origin")
        origin.put("k", "base")
        clone = origin.fork("clone")
        origin.put("k", "left")
        clone.put("k", "right")
        report = origin.sync_with(clone)
        assert sorted(origin.get("k")) == ["left", "right"]
        assert sorted(clone.get("k")) == ["left", "right"]
        assert report.conflicts_detected == 1
        assert origin.has_conflict("k")
        assert origin.conflicted_keys() == ["k"]

    def test_sibling_resolved_by_later_write(self):
        origin = StoreReplica("origin")
        origin.put("k", "base")
        clone = origin.fork("clone")
        origin.put("k", "left")
        clone.put("k", "right")
        origin.sync_with(clone)
        origin.put("k", "resolved")
        origin.sync_with(clone)
        assert origin.get("k") == ["resolved"]
        assert clone.get("k") == ["resolved"]

    def test_resolution_propagates_through_third_replica(self):
        origin = StoreReplica("origin")
        origin.put("k", "base")
        clone = origin.fork("clone")
        third = origin.fork("third")
        origin.put("k", "left")
        clone.put("k", "right")
        origin.sync_with(clone)
        origin.put("k", "resolved")
        # The resolution travels via the third replica to the clone.
        origin.sync_with(third)
        third.sync_with(clone)
        assert clone.get("k") == ["resolved"]

    def test_sync_converges_disjoint_keys(self):
        origin = StoreReplica("origin")
        origin.put("x", 1)
        clone = origin.fork("clone")
        clone.put("y", 2)
        origin.sync_with(clone)
        assert origin.get("y") == [2]
        assert clone.get("x") == [1]

    def test_independent_creation_of_same_key_is_a_conflict(self):
        left = StoreReplica("left")
        right = StoreReplica("right")
        left.put("k", "mine")
        right.put("k", "theirs")
        report = left.sync_with(right)
        assert report.conflicts_detected == 1
        assert sorted(left.get("k")) == ["mine", "theirs"]

    def test_merge_report_accumulates(self):
        origin = StoreReplica("origin")
        origin.put("a", 1)
        origin.put("b", 2)
        clone = origin.fork("clone")
        origin.put("a", 3)
        origin.put("c", 4)
        report = clone.sync_with(origin)
        assert report.keys_examined == 3
        assert report.keys_replicated == 1
        assert report.values_taken >= 2

    @pytest.mark.parametrize(
        "family", ["version-stamp", "itc", "vv-dynamic", "causal-history"]
    )
    def test_works_with_every_kernel_family(self, family):
        origin = StoreReplica("origin", tracker_factory=KernelTracker.factory(family))
        origin.put("k", "v1")
        clone = origin.fork("clone")
        origin.put("k", "v2")
        clone.sync_with(origin)
        assert clone.get("k") == ["v2"]


class TestConflictPolicies:
    def _diverged_pair(self, policy):
        origin = StoreReplica("origin", policy=policy)
        origin.put("k", 1)
        clone = origin.fork("clone")
        origin.put("k", 10)
        clone.put("k", 20)
        return origin, clone

    def test_keep_both_keeps_siblings(self):
        origin, clone = self._diverged_pair(KeepBoth())
        origin.sync_with(clone)
        assert sorted(origin.get("k")) == [10, 20]

    def test_merge_with_combines_values(self):
        origin, clone = self._diverged_pair(MergeWith(lambda values: sum(values)))
        origin.sync_with(clone)
        assert origin.get("k") == [30]
        assert clone.get("k") == [30]
        assert not origin.has_conflict("k")

    def test_merged_value_dominates_later(self):
        origin, clone = self._diverged_pair(MergeWith(lambda values: max(values)))
        third = origin.fork("third")
        origin.sync_with(clone)
        # The merged value must win over the stale third replica.
        report = origin.sync_with(third)
        assert report.conflicts_detected == 0
        assert third.get("k") == [20]

    def test_prefer_newest_picks_largest_key(self):
        origin, clone = self._diverged_pair(PreferNewest())
        origin.sync_with(clone)
        assert origin.get("k") == [20]

    def test_prefer_newest_with_custom_key(self):
        policy = PreferNewest(key=lambda value: value["ts"])
        origin = StoreReplica("origin", policy=policy)
        origin.put("k", {"ts": 1, "value": "old"})
        clone = origin.fork("clone")
        origin.put("k", {"ts": 5, "value": "mine"})
        clone.put("k", {"ts": 9, "value": "theirs"})
        origin.sync_with(clone)
        assert origin.get_one("k")["value"] == "theirs"

    def test_policy_resolution_counted_in_report(self):
        origin, clone = self._diverged_pair(PreferNewest())
        report = origin.sync_with(clone)
        assert report.conflicts_detected == 1
        assert report.conflicts_resolved == 1
