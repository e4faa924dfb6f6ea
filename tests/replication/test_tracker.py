"""Unit tests for the store's trackers: kernel clocks and the baseline."""

import pytest

from repro import kernel
from repro.core.order import Ordering
from repro.kernel import KernelClock
from repro.replication import DynamicVVTracker
from repro.vv.id_source import CentralIdSource, IdAllocationError

KERNEL_FAMILIES = ["version-stamp", "itc", "vv-dynamic", "causal-history"]

TRACKER_FACTORIES = [
    pytest.param(kernel.family(family).factory, id=f"kernel-{family}")
    for family in KERNEL_FAMILIES
] + [
    pytest.param(lambda: DynamicVVTracker(), id="dynamic-vv"),
]


@pytest.mark.parametrize("factory", TRACKER_FACTORIES)
class TestTrackerContract:
    """Every tracker must honour the same causal semantics."""

    def test_fresh_forks_are_equal(self, factory):
        left, right = factory().fork()
        assert left.compare(right) is Ordering.EQUAL

    def test_update_dominates_fork_sibling(self, factory):
        left, right = factory().fork()
        updated = left.event()
        assert updated.compare(right) is Ordering.AFTER
        assert right.compare(updated) is Ordering.BEFORE

    def test_concurrent_updates_conflict(self, factory):
        left, right = factory().fork()
        assert left.event().compare(right.event()) is Ordering.CONCURRENT

    def test_join_dominates_other_live_replicas(self, factory):
        # Causality mechanisms order *coexisting* replicas, so the joined
        # result is compared against a replica that is still live (the join's
        # inputs are retired by the operation), as in the paper's model.
        left, right = factory().fork()
        left, bystander = left.fork()
        left, right = left.event(), right.event()
        joined = left.join(right)
        assert joined.compare(bystander) is Ordering.AFTER
        assert bystander.compare(joined) is Ordering.BEFORE

    def test_size_is_positive(self, factory):
        assert factory().encoded_size_bits() >= 0

    def test_cross_kind_operations_rejected(self, factory):
        tracker = factory()
        other = (
            DynamicVVTracker()
            if isinstance(tracker, KernelClock)
            else kernel.make("version-stamp")
        )
        with pytest.raises(TypeError):
            tracker.join(other)
        with pytest.raises(TypeError):
            tracker.compare(other)


class TestDynamicVVTracker:
    def test_fork_under_partition_fails(self):
        tracker = DynamicVVTracker(id_source=CentralIdSource())
        with pytest.raises(IdAllocationError):
            tracker.fork(connected=False)

    def test_repr(self):
        assert "DynamicVVTracker" in repr(DynamicVVTracker())
