"""Unit tests for the pluggable causality trackers."""

import pytest

from repro.core.order import Ordering
from repro.replication.tracker import DynamicVVTracker, KernelTracker
from repro.vv.id_source import CentralIdSource, IdAllocationError

KERNEL_FAMILIES = ["version-stamp", "itc", "vv-dynamic", "causal-history"]

TRACKER_FACTORIES = [
    pytest.param(KernelTracker.factory(family), id=f"kernel-{family}")
    for family in KERNEL_FAMILIES
] + [
    pytest.param(lambda: DynamicVVTracker(), id="dynamic-vv"),
]


@pytest.mark.parametrize("factory", TRACKER_FACTORIES)
class TestTrackerContract:
    """Every tracker must honour the same causal semantics."""

    def test_fresh_forks_are_equal(self, factory):
        left, right = factory().forked()
        assert left.compare(right) is Ordering.EQUAL

    def test_update_dominates_fork_sibling(self, factory):
        left, right = factory().forked()
        updated = left.updated()
        assert updated.compare(right) is Ordering.AFTER
        assert right.compare(updated) is Ordering.BEFORE

    def test_concurrent_updates_conflict(self, factory):
        left, right = factory().forked()
        assert left.updated().compare(right.updated()) is Ordering.CONCURRENT

    def test_join_dominates_other_live_replicas(self, factory):
        # Causality mechanisms order *coexisting* replicas, so the joined
        # result is compared against a replica that is still live (the join's
        # inputs are retired by the operation), as in the paper's model.
        left, right = factory().forked()
        left, bystander = left.forked()
        left, right = left.updated(), right.updated()
        joined = left.joined(right)
        assert joined.compare(bystander) is Ordering.AFTER
        assert bystander.compare(joined) is Ordering.BEFORE

    def test_size_is_positive(self, factory):
        assert factory().size_in_bits() >= 0

    def test_cross_kind_operations_rejected(self, factory):
        tracker = factory()
        other = (
            DynamicVVTracker()
            if isinstance(tracker, KernelTracker)
            else KernelTracker()
        )
        with pytest.raises(TypeError):
            tracker.joined(other)
        with pytest.raises(TypeError):
            tracker.compare(other)


@pytest.mark.parametrize("family", KERNEL_FAMILIES)
class TestKernelTracker:
    def test_does_not_require_identifier_authority(self, family):
        assert not KernelTracker(family=family).requires_identifier_authority

    def test_fork_under_partition_succeeds(self, family):
        left, right = KernelTracker(family=family).forked(connected=False)
        assert left.compare(right) is Ordering.EQUAL

    def test_repr_names_the_wrapped_clock(self, family):
        assert repr(KernelTracker(family=family)).startswith("KernelTracker(")


def test_default_kernel_tracker_is_a_version_stamp_seed():
    assert "[ε | ε]" in repr(KernelTracker())


class TestDynamicVVTracker:
    def test_requires_identifier_authority_with_central_source(self):
        tracker = DynamicVVTracker(id_source=CentralIdSource())
        assert tracker.requires_identifier_authority

    def test_fork_under_partition_fails(self):
        tracker = DynamicVVTracker(id_source=CentralIdSource())
        with pytest.raises(IdAllocationError):
            tracker.forked(connected=False)

    def test_repr(self):
        assert "DynamicVVTracker" in repr(DynamicVVTracker())
