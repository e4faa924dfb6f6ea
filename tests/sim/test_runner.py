"""Unit tests for the lockstep runner and its mechanism adapters."""

import pytest

import repro.kernel.adapters as kernel_adapters
import repro.sim
import repro.sim.runner as runner
from repro.core.errors import ReproError
from repro.core.order import Ordering
from repro.kernel.adapters import (
    CausalAdapter,
    DynamicVVAdapter,
    ITCAdapter,
    KernelClockAdapter,
    LamportAdapter,
    PlausibleAdapter,
    RefCausalAdapter,
    StampAdapter,
    default_adapters,
)
from repro.sim.runner import AgreementReport, LockstepRunner, SizeSample
from repro.sim.trace import Operation, Trace
from repro.sim.workload import churn_trace, fixed_replica_trace, random_dynamic_trace


FIGURE2_TRACE = Trace(
    seed="a1",
    operations=(
        Operation.update("a1", "a2"),
        Operation.fork("a2", "b1", "c1"),
        Operation.update("c1", "c2"),
        Operation.fork("b1", "d1", "e1"),
        Operation.update("c2", "c3"),
        Operation.join("e1", "c3", "f1"),
        Operation.join("d1", "f1", "g1"),
    ),
    name="figure-2",
)

ADAPTER_FACTORIES = [
    pytest.param(lambda: StampAdapter(reducing=True), id="stamps-reducing"),
    pytest.param(lambda: StampAdapter(reducing=False), id="stamps-nonreducing"),
    pytest.param(lambda: DynamicVVAdapter(), id="dynamic-vv"),
    pytest.param(lambda: ITCAdapter(), id="itc"),
    pytest.param(lambda: CausalAdapter(), id="causal"),
    pytest.param(lambda: RefCausalAdapter(), id="causal-ref"),
    pytest.param(lambda: PlausibleAdapter(), id="plausible"),
    pytest.param(lambda: LamportAdapter(), id="lamport"),
    pytest.param(lambda: KernelClockAdapter("itc"), id="kernel-itc"),
]


@pytest.mark.parametrize("factory", ADAPTER_FACTORIES)
class TestAdapterContract:
    def test_replays_figure2_and_tracks_frontier(self, factory):
        adapter = factory()
        adapter.start(FIGURE2_TRACE.seed)
        for operation in FIGURE2_TRACE.operations:
            adapter.apply(operation)
        assert set(adapter.labels()) == {"g1"}

    def test_compare_after_divergence(self, factory):
        adapter = factory()
        adapter.start("a")
        adapter.apply(Operation.fork("a", "b", "c"))
        adapter.apply(Operation.update("b", "b2"))
        assert adapter.compare("b2", "c") is Ordering.AFTER
        assert adapter.compare("c", "b2") is Ordering.BEFORE

    def test_size_is_non_negative(self, factory):
        adapter = factory()
        adapter.start("a")
        assert adapter.size_in_bits("a") >= 0

    def test_invariant_self_check_passes(self, factory):
        adapter = factory()
        adapter.start("a")
        adapter.apply(Operation.fork("a", "b", "c"))
        assert adapter.check_invariants()

    def test_unknown_label_is_a_typed_error(self, factory):
        adapter = factory()
        adapter.start("a")
        with pytest.raises(ReproError):
            adapter.compare("a", "ghost")
        with pytest.raises(ReproError):
            adapter.size_in_bits("ghost")


class TestAgreementReport:
    def test_record_agreement(self):
        report = AgreementReport("m")
        report.record(Ordering.EQUAL, Ordering.EQUAL)
        assert report.agreements == 1
        assert report.agreement_rate == 1.0

    def test_record_missed_and_false_conflicts(self):
        report = AgreementReport("m")
        report.record(Ordering.CONCURRENT, Ordering.BEFORE)
        report.record(Ordering.AFTER, Ordering.CONCURRENT)
        report.record(Ordering.AFTER, Ordering.BEFORE)
        assert report.missed_conflicts == 1
        assert report.false_conflicts == 1
        assert report.other_disagreements == 1
        assert report.agreement_rate == 0.0

    def test_empty_report_rate_is_one(self):
        assert AgreementReport("m").agreement_rate == 1.0

    def test_str(self):
        report = AgreementReport("m")
        report.record(Ordering.EQUAL, Ordering.EQUAL)
        assert "m:" in str(report)


class TestSizeSample:
    def test_records_means_and_peaks(self):
        sample = SizeSample("m")
        sample.record([2, 4])
        sample.record([10, 20, 30])
        assert sample.per_step_mean_bits == [3.0, 20.0]
        assert sample.peak_bits == 30
        assert sample.final_mean_bits == 20.0
        assert sample.overall_mean_bits == pytest.approx(11.5)

    def test_empty_sample(self):
        sample = SizeSample("m")
        assert sample.final_mean_bits == 0.0
        assert sample.peak_bits == 0

    def test_ignores_empty_measurements(self):
        sample = SizeSample("m")
        sample.record([])
        assert sample.per_step_mean_bits == []


class TestLockstepRunner:
    def test_default_adapters(self):
        names = {adapter.name for adapter in default_adapters()}
        assert "version-stamps" in names
        assert "version-stamps-nonreducing" in names
        assert "dynamic-version-vectors" in names
        assert "interval-tree-clocks" in names

    def test_plausible_adapter_optional(self):
        names = {adapter.name for adapter in default_adapters(include_plausible=True)}
        assert any(name.startswith("plausible") for name in names)

    def test_figure2_full_agreement(self):
        runner = LockstepRunner()
        reports, _sizes = runner.run(FIGURE2_TRACE)
        for report in reports.values():
            assert report.agreement_rate == 1.0
            assert report.invariant_failures == 0

    def test_random_trace_full_agreement_for_exact_mechanisms(self):
        trace = random_dynamic_trace(60, seed=11, max_frontier=8)
        runner = LockstepRunner()
        reports, _sizes = runner.run(trace)
        for report in reports.values():
            assert report.agreement_rate == 1.0

    def test_plausible_clocks_miss_conflicts_on_wide_frontiers(self):
        trace = fixed_replica_trace(8, 120, seed=13)
        runner = LockstepRunner([PlausibleAdapter(entries=2)])
        reports, _sizes = runner.run(trace)
        report = next(iter(reports.values()))
        assert report.missed_conflicts > 0
        assert report.false_conflicts == 0

    def test_sizes_are_collected_for_every_mechanism(self):
        trace = random_dynamic_trace(30, seed=7)
        runner = LockstepRunner()
        _reports, sizes = runner.run(trace)
        assert "causal-history" in sizes
        for sample in sizes.values():
            assert sample.final_mean_bits > 0

    def test_compare_only_at_end(self):
        trace = random_dynamic_trace(30, seed=9)
        runner = LockstepRunner(compare_every_step=False)
        reports, sizes = runner.run(trace)
        for report in reports.values():
            assert report.agreement_rate == 1.0
        # Only one measurement point recorded.
        for sample in sizes.values():
            assert len(sample.per_step_mean_bits) == 1

    def test_empty_trace(self):
        trace = Trace(seed="a", operations=())
        reports, sizes = LockstepRunner().run(trace)
        for report in reports.values():
            assert report.comparisons == 0

    def test_ref_oracle_full_agreement(self):
        runner = LockstepRunner(oracle=RefCausalAdapter())
        reports, sizes = runner.run(FIGURE2_TRACE)
        assert "causal-history-ref" in sizes
        for report in reports.values():
            assert report.agreement_rate == 1.0

    def test_seed_strategy_matches_incremental(self):
        trace = random_dynamic_trace(60, seed=11, max_frontier=8)
        incremental, _ = LockstepRunner(incremental=True).run(trace)
        rescan, _ = LockstepRunner(incremental=False).run(trace)
        assert incremental == rescan

    def test_recycled_labels_not_served_from_stale_cache(self):
        # Syncs that reuse their operands' labels recycle "b" and "c" on
        # every step; with compare_every_step=False the caches are only
        # populated at the end, and invalidation must still have dropped
        # anything cached for the recycled labels along the way.
        operations = [Operation.fork("a", "b", "c")]
        for _ in range(6):
            operations.append(Operation.update("b", "b"))
            operations.append(Operation.sync("b", "c", "b", "c"))
        trace = Trace(seed="a", operations=tuple(operations))
        for compare_every_step in (True, False):
            runner = LockstepRunner(compare_every_step=compare_every_step)
            reports, _ = runner.run(trace)
            for report in reports.values():
                assert report.agreement_rate == 1.0

    def test_direction_inconsistent_adapter_is_caught(self):
        # The incremental strategy stores only canonical pairs, but it must
        # still measure the mechanism in both argument orders: an adapter
        # whose compare ignores argument order has to show up as a
        # disagreement, exactly as it does under the seed strategy.
        class OneDirectionAdapter(StampAdapter):
            name = "one-direction"

            def compare(self, first, second):
                first, second = sorted((first, second))
                return super().compare(first, second)

        trace = Trace(
            seed="a",
            operations=(
                Operation.fork("a", "b", "c"),
                Operation.update("b", "b2"),
            ),
        )
        for incremental in (True, False):
            adapter = OneDirectionAdapter()
            adapter.name = "one-direction"
            runner = LockstepRunner(
                [adapter], incremental=incremental, check_invariants=False
            )
            reports, _ = runner.run(trace)
            assert reports["one-direction"].agreement_rate < 1.0, incremental

    def test_reverse_index_consistent_with_matrices(self):
        trace = random_dynamic_trace(40, seed=3, max_frontier=6)
        runner = LockstepRunner()
        runner.run(trace)
        for name, matrix in runner._matrices.items():
            index = runner._pair_index[name]
            for pair in matrix:
                assert pair[0] < pair[1]  # canonical storage
                assert pair in index[pair[0]]
                assert pair in index[pair[1]]

    def test_reused_runner_replays_identically(self):
        # Plausible clocks hash their fresh replica ids into slots, so a
        # reused adapter must restart its ids with every replay.
        trace = churn_trace(60, seed=2)
        runner = LockstepRunner(
            default_adapters() + [PlausibleAdapter(), LamportAdapter()]
        )
        first = runner.run(trace)
        assert runner.run(trace) == first
        assert runner.run(trace) == first


class TestLockstepYardsticks:
    """Pin the numbers ``repro simulate`` prints, per mechanism yardstick."""

    def test_churn_sizes_match_the_simulate_table(self):
        # The trace `repro simulate --workload churn --operations 100` builds.
        reports, sizes = LockstepRunner().run(
            churn_trace(100, seed=0, target_frontier=8)
        )
        assert all(report.agreement_rate == 1.0 for report in reports.values())
        measured = {
            name: (sample.final_mean_bits, sample.peak_bits)
            for name, sample in sizes.items()
        }
        assert measured == {
            "dynamic-version-vectors": (844.0, 1120),
            "interval-tree-clocks": (1170.5, 1204),
            "version-stamps": (976.5, 2537),
            "version-stamps-nonreducing": (1120.125, 2537),
            "causal-history": (936.0, 1152),
        }

    def test_lossy_clock_agreement_counts(self):
        trace = random_dynamic_trace(300, seed=5, max_frontier=12)
        adapters = [PlausibleAdapter(entries=n) for n in (2, 4, 8)]
        reports, _ = LockstepRunner(adapters + [LamportAdapter()]).run(trace)
        counts = {
            name: (report.agreements, report.comparisons)
            for name, report in reports.items()
        }
        assert counts == {
            "plausible-clocks-2": (7402, 14058),
            "plausible-clocks-4": (9134, 14058),
            "plausible-clocks-8": (10874, 14058),
            "lamport-clocks": (2666, 14058),
        }


@pytest.mark.parametrize(
    "name",
    [
        "MechanismAdapter",
        "CausalAdapter",
        "RefCausalAdapter",
        "StampAdapter",
        "RerootingStampAdapter",
        "DynamicVVAdapter",
        "ITCAdapter",
        "PlausibleAdapter",
        "LamportAdapter",
        "default_adapters",
    ],
)
def test_adapters_moved_out_of_the_runner(name):
    # The kernel owns the adapters; the runner module, where they once
    # lived, no longer resolves them.
    assert name in kernel_adapters.__all__
    assert not hasattr(runner, name)


def test_repro_sim_reexports_the_kernel_adapters():
    reexported = [name for name in kernel_adapters.__all__ if hasattr(repro.sim, name)]
    assert "StampAdapter" in reexported and "default_adapters" in reexported
    for name in reexported:
        assert getattr(repro.sim, name) is getattr(kernel_adapters, name)
