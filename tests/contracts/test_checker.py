"""Contract enforcement across every kind and every clock family.

Each scenario is driven through real :class:`StoreReplica` populations
syncing over the wire engine, parametrized over all four registered
kernel families -- the checker only ever talks to the family-generic
tracker interface, and these tests pin that the verdicts agree.
"""

import random

import pytest

from repro import kernel
from repro.contracts import (
    ContractChecker,
    ContractSpec,
    ContractViolation,
)
from repro.core.errors import ContractError
from repro.replication import (
    AntiEntropy,
    MobileNode,
    SyncHistory,
    WireSyncEngine,
)
from repro.replication.network import FullyConnectedNetwork

FAMILIES = ["version-stamp", "itc", "vv-dynamic", "causal-history"]


def _population(family, count=2, *, history=None):
    network = FullyConnectedNetwork()
    first = MobileNode.first(
        "n0", network, tracker_factory=kernel.family(family).factory
    )
    nodes = [first] + [first.spawn_peer(f"n{i}") for i in range(1, count)]
    engine = WireSyncEngine(history=history)
    gossip = AntiEntropy(nodes, rng=random.Random(0), engine=engine)
    return nodes, gossip


def _sync_all(gossip, rounds=3):
    for _ in range(rounds):
        gossip.run_round()


@pytest.mark.parametrize("family", FAMILIES)
class TestObserves:
    def _checker(self, history=None):
        return ContractChecker(
            [
                ContractSpec(
                    name="c",
                    kind="observes",
                    source="export",
                    target="train",
                    key="k",
                )
            ],
            history=history,
        )

    def test_vacuous_before_any_recording(self, family):
        nodes, _ = _population(family)
        checker = self._checker()
        assert checker.check("train", nodes[1].store, raise_on_violation=False) == []

    def test_missing_key_violates_once_recorded(self, family):
        nodes, _ = _population(family)
        checker = self._checker()
        nodes[0].write("k", 1)
        checker.record("export", nodes[0].store)
        (report,) = checker.check(
            "train", nodes[1].store, raise_on_violation=False
        )
        assert report.mode == "missing"
        assert report.source_replica == "n0"
        assert report.target_replica == "n1"

    def test_synced_target_passes(self, family):
        nodes, gossip = _population(family)
        checker = self._checker()
        nodes[0].write("k", 1)
        checker.record("export", nodes[0].store)
        _sync_all(gossip)
        assert checker.check("train", nodes[1].store, raise_on_violation=False) == []

    def test_stale_target_raises_typed_violation(self, family):
        nodes, gossip = _population(family)
        checker = self._checker()
        checker.watch_writes(nodes[0].store, "export")
        nodes[0].write("k", 1)
        _sync_all(gossip)
        nodes[0].write("k", 2)
        with pytest.raises(ContractViolation) as excinfo:
            checker.check("train", nodes[1].store)
        report = excinfo.value.report
        assert report.mode == "stale"
        assert report.ordering == "before"
        assert report.contract == "c"
        assert report.kind == "observes"
        assert isinstance(excinfo.value, ContractError)
        assert "train" in report.describe() and "'k'" in report.describe()

    def test_latest_recording_wins(self, family):
        # The obligation tracks the *latest* export: observing only an
        # older one is a violation even though some export was observed.
        nodes, gossip = _population(family)
        checker = self._checker()
        checker.watch_writes(nodes[0].store, "export")
        nodes[0].write("k", 1)
        _sync_all(gossip)
        nodes[0].write("k", 2)
        nodes[0].write("k", 3)
        (report,) = checker.check(
            "train", nodes[1].store, raise_on_violation=False
        )
        assert report.mode == "stale"
        assert report.record_index == 3


@pytest.mark.parametrize("family", FAMILIES)
class TestHappenedBefore:
    def _checker(self):
        return ContractChecker(
            [
                ContractSpec(
                    name="hb",
                    kind="happened-before",
                    source="migrate",
                    target="serve",
                    key="schema",
                )
            ]
        )

    def test_source_never_ran_is_a_violation(self, family):
        nodes, _ = _population(family)
        checker = self._checker()
        (report,) = checker.check(
            "serve", nodes[1].store, raise_on_violation=False
        )
        assert report.mode == "missing"
        assert report.source_replica is None

    def test_following_first_completion_suffices(self, family):
        # Unlike observes, later un-observed completions do not violate:
        # the obligation is "a migrate happened before", pinned to the
        # first recorded completion.
        nodes, gossip = _population(family)
        checker = self._checker()
        checker.watch_writes(nodes[0].store, "migrate")
        nodes[0].write("schema", "v1")
        _sync_all(gossip)
        nodes[0].write("schema", "v2")
        assert checker.check("serve", nodes[1].store, raise_on_violation=False) == []

    def test_target_behind_first_completion_violates(self, family):
        nodes, _ = _population(family)
        checker = self._checker()
        checker.watch_writes(nodes[0].store, "migrate")
        nodes[0].write("schema", "v1")
        (report,) = checker.check(
            "serve", nodes[1].store, raise_on_violation=False
        )
        assert report.mode == "missing"
        assert report.source_replica == "n0"


@pytest.mark.parametrize("family", FAMILIES)
class TestMutualExclusion:
    def _checker(self):
        return ContractChecker(
            [
                ContractSpec(
                    name="mx",
                    kind="mutual-exclusion",
                    source="compact",
                    target="rebalance",
                    key="shard-map",
                )
            ]
        )

    def test_ordered_states_pass(self, family):
        nodes, gossip = _population(family)
        checker = self._checker()
        checker.watch_writes(nodes[0].store, "compact")
        nodes[0].write("shard-map", "a")
        _sync_all(gossip)
        # Target strictly ahead of the recording is fine too.
        nodes[1].write("shard-map", "b")
        assert (
            checker.check("rebalance", nodes[1].store, raise_on_violation=False)
            == []
        )

    def test_concurrent_actors_violate(self, family):
        nodes, gossip = _population(family)
        checker = self._checker()
        checker.watch_writes(nodes[0].store, "compact")
        nodes[0].write("shard-map", "seed")
        _sync_all(gossip)
        # Both sides now race on the key without syncing.
        nodes[0].write("shard-map", "a")
        nodes[1].write("shard-map", "b")
        (report,) = checker.check(
            "rebalance", nodes[1].store, raise_on_violation=False
        )
        assert report.mode == "concurrent"
        assert report.ordering == "concurrent"

    def test_no_recording_or_no_key_passes(self, family):
        nodes, _ = _population(family)
        checker = self._checker()
        assert (
            checker.check("rebalance", nodes[1].store, raise_on_violation=False)
            == []
        )
        checker.watch_writes(nodes[0].store, "compact")
        nodes[0].write("shard-map", "a")
        assert (
            checker.check("rebalance", nodes[1].store, raise_on_violation=False)
            == []
        )


@pytest.mark.parametrize("family", FAMILIES)
class TestFreshness:
    def _checker(self, max_lag=2):
        return ContractChecker(
            [
                ContractSpec(
                    name="lagged",
                    kind="freshness-within-k-events",
                    source="export",
                    target="train",
                    key="k",
                    max_lag=max_lag,
                )
            ]
        )

    def test_within_bound_passes(self, family):
        nodes, gossip = _population(family)
        checker = self._checker(max_lag=2)
        checker.watch_writes(nodes[0].store, "export")
        nodes[0].write("k", 0)
        _sync_all(gossip)
        nodes[0].write("k", 1)
        nodes[0].write("k", 2)
        # Target saw export 0 and is 2 behind: exactly at the bound.
        assert checker.check("train", nodes[1].store, raise_on_violation=False) == []

    def test_beyond_bound_violates_with_lag(self, family):
        nodes, gossip = _population(family)
        checker = self._checker(max_lag=2)
        checker.watch_writes(nodes[0].store, "export")
        nodes[0].write("k", 0)
        _sync_all(gossip)
        for value in (1, 2, 3):
            nodes[0].write("k", value)
        (report,) = checker.check(
            "train", nodes[1].store, raise_on_violation=False
        )
        assert report.mode == "stale"
        # Retention keeps exactly max_lag + 1 recordings, so on a
        # violation no retained recording is dominated: the lag is only
        # reported as "beyond everything retained".
        assert report.lag is None
        assert "allowed: 2" in report.describe()

    def test_actual_lag_reported_when_retention_allows(self, family):
        # A sibling contract with a larger bound deepens retention for
        # the shared (source, key) pair, so the tighter contract can
        # report the target's actual lag.
        nodes, gossip = _population(family)
        checker = ContractChecker(
            [
                ContractSpec(
                    name="tight",
                    kind="freshness-within-k-events",
                    source="export",
                    target="train",
                    key="k",
                    max_lag=1,
                ),
                ContractSpec(
                    name="loose",
                    kind="freshness-within-k-events",
                    source="export",
                    target="train",
                    key="k",
                    max_lag=5,
                ),
            ]
        )
        checker.watch_writes(nodes[0].store, "export")
        nodes[0].write("k", 0)
        _sync_all(gossip)
        for value in (1, 2, 3):
            nodes[0].write("k", value)
        (report,) = checker.check(
            "train", nodes[1].store, raise_on_violation=False
        )
        assert report.contract == "tight"
        assert report.mode == "stale"
        assert report.lag == 3
        assert "lag: 3" in report.describe()

    def test_fewer_recordings_than_bound_passes(self, family):
        nodes, _ = _population(family)
        checker = self._checker(max_lag=2)
        checker.watch_writes(nodes[0].store, "export")
        nodes[0].write("k", 0)
        nodes[0].write("k", 1)
        # Two exports exist; a target holding neither is at most 2 behind.
        assert checker.check("train", nodes[1].store, raise_on_violation=False) == []


@pytest.mark.parametrize("family", FAMILIES)
class TestEpochResolution:
    """Cross-epoch checks resolve by the compaction invariant, not compare."""

    def _checker(self):
        return ContractChecker(
            [
                ContractSpec(
                    name="c",
                    kind="observes",
                    source="export",
                    target="train",
                    key="k",
                )
            ]
        )

    def test_target_past_an_epoch_bump_passes(self, family):
        nodes, gossip = _population(family, count=3)
        checker = self._checker()
        checker.watch_writes(nodes[0].store, "export")
        nodes[0].write("k", 1)
        _sync_all(gossip)
        # The bump happens at common knowledge, so the post-bump target
        # dominates the pre-bump recording -- and no EpochMismatch leaks.
        assert gossip.compact_key("k")
        assert checker.check("train", nodes[2].store, raise_on_violation=False) == []

    def test_straggler_target_violates(self, family):
        nodes, gossip = _population(family, count=3)
        checker = self._checker()
        checker.watch_writes(nodes[0].store, "export")
        nodes[0].write("k", 1)
        _sync_all(gossip)
        gossip.crash(nodes[2])
        assert gossip.compact_key("k")
        nodes[0].write("k", 2)
        # Revive the node with its pre-bump state intact: a genuine epoch
        # straggler whose last sync predates the bump and the export.
        nodes[2].alive = True
        (report,) = checker.check(
            "train", nodes[2].store, raise_on_violation=False
        )
        assert report.mode == "straggler"
        assert report.ordering is None


class TestCheckerApi:
    def _spec(self, name="c", **overrides):
        fields = dict(
            name=name, kind="observes", source="export", target="train", key="k"
        )
        fields.update(overrides)
        return ContractSpec(**fields)

    def test_rejects_empty_and_duplicate_specs(self):
        with pytest.raises(ContractError):
            ContractChecker([])
        with pytest.raises(ContractError) as excinfo:
            ContractChecker([self._spec(), self._spec(key="other")])
        assert "duplicate" in str(excinfo.value)

    def test_record_unknown_operation(self):
        checker = ContractChecker([self._spec()])
        nodes, _ = _population("version-stamp")
        with pytest.raises(ContractError) as excinfo:
            checker.record("deploy", nodes[0].store)
        assert "export" in str(excinfo.value)

    def test_record_missing_key(self):
        checker = ContractChecker([self._spec()])
        nodes, _ = _population("version-stamp")
        with pytest.raises(ContractError):
            checker.record("export", nodes[0].store)

    def test_check_unknown_operation(self):
        checker = ContractChecker([self._spec()])
        nodes, _ = _population("version-stamp")
        with pytest.raises(ContractError):
            checker.check("deploy", nodes[0].store)

    def test_check_unbound_without_store(self):
        checker = ContractChecker([self._spec()])
        with pytest.raises(ContractError) as excinfo:
            checker.check("train")
        assert "bind" in str(excinfo.value)

    def test_bind_unknown_operation(self):
        checker = ContractChecker([self._spec()])
        nodes, _ = _population("version-stamp")
        with pytest.raises(ContractError):
            checker.bind("deploy", nodes[0].store)

    def test_watch_writes_only_records_contract_keys(self):
        checker = ContractChecker([self._spec()])
        nodes, _ = _population("version-stamp")
        checker.watch_writes(nodes[0].store, "export")
        nodes[0].write("unrelated", 1)
        # No recording happened, so the contract is still vacuous.
        assert checker.check("train", nodes[1].store, raise_on_violation=False) == []
        nodes[0].write("k", 1)
        (report,) = checker.check(
            "train", nodes[1].store, raise_on_violation=False
        )
        assert report.mode == "missing"

    def test_scan_collects_without_raising(self):
        nodes, gossip = _population("version-stamp")
        history = SyncHistory()
        checker = ContractChecker([self._spec()], history=history)
        checker.watch_writes(nodes[0].store, "export")
        checker.bind("train", nodes[1].store)
        nodes[0].write("k", 1)
        fresh = checker.scan()
        assert [r.mode for r in fresh] == ["missing"]
        assert checker.violations == fresh
        _sync_all(gossip)
        assert checker.scan() == []
        assert len(checker.violations) == 1

    def test_anti_entropy_scans_checker_each_round(self):
        from repro.replication.network import PartitionedNetwork

        network = PartitionedNetwork()
        first = MobileNode.first(
            "n0", network, tracker_factory=kernel.family("version-stamp").factory
        )
        nodes = [first, first.spawn_peer("n1")]
        history = SyncHistory()
        engine = WireSyncEngine(history=history)
        checker = ContractChecker([self._spec()], history=history)
        checker.watch_writes(nodes[0].store, "export")
        checker.bind("train", nodes[1].store)
        gossip = AntiEntropy(
            nodes, rng=random.Random(0), engine=engine, checker=checker
        )
        nodes[0].write("k", 1)
        gossip.run_round()
        # The round itself cured the gap before the inline scan fired.
        assert checker.violations == []
        network.set_partitions([["n0"], ["n1"]])
        nodes[0].write("k", 2)
        gossip.run_round()
        # Partitioned round could not cure it: the scan caught the gap.
        assert [v.mode for v in checker.violations] == ["stale"]
        network.heal()
        gossip.run_round()
        assert len(checker.violations) == 1
