"""The ``dominates`` / ``stale_or_concurrent`` tracker helpers.

These are the primitives the contracts layer builds on, so they are
pinned across every kernel family *and* the in-memory baseline: the
contracts checker must behave identically no matter which clock tracks a
key.
"""

import pytest

from repro.replication.tracker import DynamicVVTracker, KernelTracker

KERNEL_FAMILIES = ["version-stamp", "itc", "vv-dynamic", "causal-history"]

TRACKER_FACTORIES = [
    pytest.param(KernelTracker.factory(family), id=f"kernel-{family}")
    for family in KERNEL_FAMILIES
] + [
    pytest.param(lambda: DynamicVVTracker(), id="baseline-dynamic-vv"),
]


@pytest.mark.parametrize("factory", TRACKER_FACTORIES)
class TestDominance:
    def test_equal_trackers_dominate_each_other(self, factory):
        left, right = factory().forked()
        assert left.dominates(right)
        assert right.dominates(left)
        assert left.stale_or_concurrent(right) is None
        assert right.stale_or_concurrent(left) is None

    def test_update_dominates_sibling_one_way(self, factory):
        left, right = factory().forked()
        updated = left.updated()
        assert updated.dominates(right)
        assert not right.dominates(updated)
        assert updated.stale_or_concurrent(right) is None

    def test_dominated_side_reports_stale(self, factory):
        left, right = factory().forked()
        updated = left.updated()
        assert right.stale_or_concurrent(updated) == "stale"

    def test_concurrent_updates_report_concurrent(self, factory):
        left, right = factory().forked()
        left, right = left.updated(), right.updated()
        assert not left.dominates(right)
        assert not right.dominates(left)
        assert left.stale_or_concurrent(right) == "concurrent"
        assert right.stale_or_concurrent(left) == "concurrent"

    def test_join_restores_dominance(self, factory):
        left, right = factory().forked()
        left, right = left.updated(), right.updated()
        # Keep a live witness of the pre-join right-hand state.
        right, witness = right.forked()
        joined = left.joined(right)
        assert joined.dominates(witness)
        assert witness.stale_or_concurrent(joined) == "stale"
