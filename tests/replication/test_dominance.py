"""Dominance read off ``compare``: ``Ordering.dominates`` and ``shortfall``.

These are the primitives the contracts layer builds on, so they are
pinned across every kernel family *and* the dynamic-VV baseline: the
contracts checker must behave identically no matter which clock tracks a
key.
"""

import pytest

from repro import kernel
from repro.replication import DynamicVVTracker

KERNEL_FAMILIES = ["version-stamp", "itc", "vv-dynamic", "causal-history"]

TRACKER_FACTORIES = [
    pytest.param(kernel.family(family).factory, id=f"kernel-{family}")
    for family in KERNEL_FAMILIES
] + [
    pytest.param(lambda: DynamicVVTracker(), id="baseline-dynamic-vv"),
]


@pytest.mark.parametrize("factory", TRACKER_FACTORIES)
class TestDominance:
    def test_equal_trackers_dominate_each_other(self, factory):
        left, right = factory().fork()
        assert left.compare(right).dominates
        assert right.compare(left).dominates
        assert left.compare(right).shortfall is None
        assert right.compare(left).shortfall is None

    def test_update_dominates_sibling_one_way(self, factory):
        left, right = factory().fork()
        updated = left.event()
        assert updated.compare(right).dominates
        assert not right.compare(updated).dominates
        assert updated.compare(right).shortfall is None

    def test_dominated_side_reports_stale(self, factory):
        left, right = factory().fork()
        updated = left.event()
        assert right.compare(updated).shortfall == "stale"

    def test_concurrent_updates_report_concurrent(self, factory):
        left, right = factory().fork()
        left, right = left.event(), right.event()
        assert not left.compare(right).dominates
        assert not right.compare(left).dominates
        assert left.compare(right).shortfall == "concurrent"
        assert right.compare(left).shortfall == "concurrent"

    def test_join_restores_dominance(self, factory):
        left, right = factory().fork()
        left, right = left.event(), right.event()
        # Keep a live witness of the pre-join right-hand state.
        right, witness = right.fork()
        joined = left.join(right)
        assert joined.compare(witness).dominates
        assert witness.compare(joined).shortfall == "stale"
