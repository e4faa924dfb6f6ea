"""Cross-family tests of the ``CausalityClock`` protocol and its consumers.

The point of the kernel redesign: every registered clock family runs the
same traces through the same protocol, and the lockstep harness cross-checks
each one against the causal-history oracle -- a cross-family comparison
matrix for free.
"""

import pytest
from hypothesis import given, settings

from repro import kernel
from repro.analysis.sizes import kernel_family_matrix, measure_trace_sizes
from repro.core.errors import EpochMismatch
from repro.core.order import Ordering
from repro.kernel import CausalityClock, KernelClockAdapter, kernel_adapters
from repro.replication import MergeWith, StoreReplica
from repro.sim.runner import LockstepRunner
from repro.sim.workload import churn_trace, random_dynamic_trace
from repro.testing import trace_operations

FAMILIES = kernel.families()


@pytest.mark.parametrize("family", FAMILIES)
class TestProtocolConformance:
    def test_runtime_protocol_check(self, family):
        clock = kernel.make(family)
        assert isinstance(clock, CausalityClock)
        assert clock.family == family
        assert clock.epoch == 0

    def test_fork_event_join_compare(self, family):
        left, right = kernel.make(family).fork()
        left = left.event()
        assert left.compare(right) is kernel.PartialOrder.AFTER
        assert right.compare(left) is kernel.PartialOrder.BEFORE
        right = right.event()
        assert left.compare(right) is kernel.PartialOrder.CONCURRENT
        merged = left.join(right)
        assert merged.compare(merged) is kernel.PartialOrder.EQUAL

    def test_clocks_are_immutable_values(self, family):
        clock = kernel.make(family).event()
        with pytest.raises(AttributeError):
            clock.epoch = 3
        assert clock == clock.with_epoch(0)
        assert hash(clock) == hash(clock.with_epoch(0))
        assert clock != clock.with_epoch(1)

    def test_epoch_mismatch_is_typed(self, family):
        clock = kernel.make(family)
        newer = clock.with_epoch(1)
        with pytest.raises(EpochMismatch):
            clock.compare(newer)
        with pytest.raises(EpochMismatch):
            clock.join(newer)
        exc = pytest.raises(EpochMismatch, newer.compare, clock).value
        assert exc.mine == 1 and exc.theirs == 0

    def test_cross_family_operations_rejected(self, family):
        other_family = next(name for name in FAMILIES if name != family)
        with pytest.raises(TypeError):
            kernel.make(family).join(kernel.make(other_family))

    def test_encoded_size_grows_with_knowledge(self, family):
        clock = kernel.make(family)
        evolved = clock
        for _ in range(5):
            left, right = evolved.fork()
            evolved = left.event().join(right.event())
        assert evolved.encoded_size_bits() >= clock.encoded_size_bits()
        assert evolved.encoded_size_bits() > 0


class TestCrossFamilyMatrix:
    @pytest.mark.parametrize(
        "trace",
        [
            random_dynamic_trace(80, seed=5, max_frontier=8),
            churn_trace(100, seed=9),
        ],
        ids=["random", "churn"],
    )
    def test_every_family_agrees_with_the_oracle(self, trace):
        runner = LockstepRunner(kernel_adapters())
        reports, sizes = runner.run(trace)
        assert len(reports) == len(FAMILIES)
        for report in reports.values():
            assert report.agreement_rate == 1.0, str(report)
        for sample in sizes.values():
            assert sample.final_mean_bits > 0

    @settings(max_examples=15)
    @given(trace=trace_operations(max_operations=20, max_frontier=5))
    def test_property_every_family_agrees(self, trace):
        reports, _sizes = LockstepRunner(kernel_adapters()).run(trace)
        for report in reports.values():
            assert report.agreement_rate == 1.0, str(report)

    def test_kernel_family_matrix_table(self):
        table = kernel_family_matrix(random_dynamic_trace(50, seed=2))
        assert sorted(table.column("family")) == sorted(FAMILIES)
        assert all(value == 1.0 for value in table.column("agreement"))
        rendered = table.render(title="families")
        assert "vv-dynamic" in rendered

    def test_measure_trace_sizes_reports_legacy_names(self):
        sizes = measure_trace_sizes(random_dynamic_trace(40, seed=1))
        assert {
            "version-stamps",
            "version-stamps-nonreducing",
            "dynamic-version-vectors",
            "interval-tree-clocks",
            "causal-history",
        } <= set(sizes)


@pytest.mark.parametrize("family", FAMILIES)
class TestReplicationOverTheProtocol:
    def test_replica_scenario_runs_over_any_family(self, family):
        origin = StoreReplica(
            "origin",
            tracker_factory=kernel.family(family).factory,
            policy=MergeWith(lambda values: "".join(sorted(values))),
        )
        origin.put("k", "v1")
        copy = origin.fork("copy")
        origin.put("k", "v2")
        report = copy.sync_with(origin)
        assert report.conflicts_detected == 0
        assert copy.get("k") == ["v2"]
        # Now force a genuine conflict.
        origin.put("k", "left")
        copy.put("k", "right")
        relation = origin.tracker_of("k").compare(copy.tracker_of("k"))
        assert relation is Ordering.CONCURRENT
        report = origin.sync_with(copy)
        assert report.conflicts_detected == 1
        assert origin.get("k") == copy.get("k") == ["leftright"]
        assert origin.metadata_size_in_bits() > 0

    def test_tracker_round_trips_through_the_envelope(self, family):
        tracker = kernel.make(family).event()
        restored = kernel.from_bytes(tracker.to_bytes())
        assert restored == tracker
        assert restored.family == family


class TestKernelClockAdapter:
    def test_unknown_label_is_a_simulation_error(self):
        from repro.core.errors import SimulationError

        adapter = KernelClockAdapter("itc")
        adapter.start("a")
        with pytest.raises(SimulationError):
            adapter.compare("a", "ghost")

    def test_factory_kwargs_flow_through(self):
        adapter = KernelClockAdapter(
            "version-stamp", name="nonreducing", reducing=False
        )
        adapter.start("a")
        assert adapter.clock_of("a").stamp.reducing is False

    def test_oracle_name_collision_avoided_and_guarded(self):
        from repro.core.errors import SimulationError

        assert KernelClockAdapter("causal-history").name == "causal-history-kernel"
        shadowing = KernelClockAdapter("causal-history", name="causal-history")
        runner = LockstepRunner([shadowing])
        with pytest.raises(SimulationError):
            runner.run(random_dynamic_trace(5, seed=0))
