"""``ContractChecker.scan()`` as a transition reporter.

``check()`` answers "which contracts are violated now?" at every call.
``scan()`` answers "what changed since the last scan?": it appends a
violation to ``violations`` when it opens or its report changes, records
a :class:`~repro.contracts.checker.HealedViolation` when it closes, and
skips bindings whose inputs did not change.  These tests pin it three
ways:

* scripted transitions -- open, change, heal, reopen, rebind;
* an oracle soak -- the single-writer chaos soak of
  ``test_contract_chaos.py`` with the checker scanned by the gossip
  driver every round: the open violations must equal the oracle's gaps
  after every round, epoch compactions included;
* a differential test -- on service runs, the transitions must equal
  what collapsing a stateless ``check()`` of every binding at every scan
  yields, provenance included.

Full soaks are ``pytest -m chaos``; an unmarked smoke keeps the soak
machinery covered in the default tier.
"""

import random
from dataclasses import replace

import pytest

from repro import kernel
from repro.contracts import ContractChecker, ContractSpec, HealedViolation
from repro.replication import (
    AntiEntropy,
    DegradationPlan,
    FaultPlan,
    FaultyTransport,
    MobileNode,
    RetryPolicy,
    SyncHistory,
    WireSyncEngine,
)
from repro.replication.network import FullyConnectedNetwork
from repro.service import (
    AntiEntropyService,
    AsyncWireSyncEngine,
    HealthConfig,
    LinkProfile,
    build_cluster,
)

FAMILIES = ["version-stamp", "itc", "vv-dynamic", "causal-history"]

MAX_LAG = 3


def _observes(name="c", target="train", key="k"):
    return ContractSpec(
        name=name, kind="observes", source="export", target=target, key=key
    )


def _pair(family="version-stamp", history=None):
    network = FullyConnectedNetwork()
    first = MobileNode.first(
        "n0", network, tracker_factory=kernel.family(family).factory
    )
    nodes = [first, first.spawn_peer("n1")]
    gossip = AntiEntropy(
        nodes, rng=random.Random(0), engine=WireSyncEngine(history=history)
    )
    return nodes, gossip


def _sync(gossip, rounds=3):
    for _ in range(rounds):
        gossip.run_round()


@pytest.mark.parametrize("family", FAMILIES)
class TestTransitions:
    def _checker(self, nodes, history):
        checker = ContractChecker([_observes()], history=history)
        checker.watch_writes(nodes[0].store, "export")
        checker.bind("train", nodes[1].store)
        return checker

    def test_open_heal_reopen(self, family):
        history = SyncHistory()
        nodes, gossip = _pair(family, history)
        checker = self._checker(nodes, history)
        nodes[0].write("k", 1)
        (opened,) = checker.scan()
        assert opened.mode == "missing"
        assert opened.provenance is not None
        # Nothing changed: the open violation is not reported again.
        assert checker.scan() == []
        _sync(gossip)
        assert checker.scan() == []
        (heal,) = checker.healed
        assert heal.report is opened
        assert heal.opened_seq == 0
        assert heal.healed_seq == history.next_seq > 0
        # A fresh export the target has not seen reopens the contract.
        nodes[0].write("k", 2)
        (reopened,) = checker.scan()
        assert reopened.mode == "stale"
        assert reopened.record_index == 2
        assert checker.violations == [opened, reopened]
        assert len(checker.healed) == 1

    def test_changed_report_is_reported_and_heal_keeps_the_opening(self, family):
        history = SyncHistory()
        nodes, gossip = _pair(family, history)
        checker = self._checker(nodes, history)
        nodes[0].write("k", 1)
        _sync(gossip)
        nodes[0].write("k", 2)
        (first,) = checker.scan()
        nodes[0].write("k", 3)
        (changed,) = checker.scan()
        assert (first.mode, first.record_index) == ("stale", 2)
        assert (changed.mode, changed.record_index) == ("stale", 3)
        assert checker.healed == []
        _sync(gossip)
        assert checker.scan() == []
        (heal,) = checker.healed
        assert heal.report is first
        assert heal.opened_seq < heal.healed_seq

    def test_rebinding_reevaluates(self, family):
        nodes, _ = _pair(family)
        checker = self._checker(nodes, None)
        nodes[0].write("k", 1)
        (opened,) = checker.scan()
        assert opened.target_replica == "n1"
        # The exporter itself holds what it exported.
        checker.bind("train", nodes[0].store)
        assert checker.scan() == []
        assert checker.healed == [HealedViolation(opened, None, None)]


# -- oracle soak ---------------------------------------------------------------


def _held_generation(store, key):
    """The generation a replica has observed (-1: never received the key)."""
    values = store.get(key)
    if not values:
        return -1
    # Single writer: siblings cannot form, so there is exactly one value.
    assert len(values) == 1, values
    return values[0]


def _run_scan_soak(family, loss, rounds, seed):
    """The chaos soak with scans inline; returns (transitions, compactions)."""
    network = FullyConnectedNetwork()
    transport = FaultyTransport(network, plan=FaultPlan.chaos(loss=loss), seed=seed)
    history = SyncHistory(maxlen=512)
    engine = WireSyncEngine(
        history=history, transport=transport, retry=RetryPolicy(attempts=4)
    )
    writer = MobileNode.first(
        "writer", network, tracker_factory=kernel.family(family).factory
    )
    nodes = [writer] + [writer.spawn_peer(f"r{i}") for i in range(3)]
    consumer = nodes[-1].store
    checker = ContractChecker(
        [
            _observes(name="observes", target="consume"),
            ContractSpec(
                name="freshness",
                kind="freshness-within-k-events",
                source="export",
                target="consume",
                key="k",
                max_lag=MAX_LAG,
            ),
        ],
        history=history,
    )
    checker.watch_writes(writer.store, "export")
    checker.bind("consume", consumer)
    gossip = AntiEntropy(
        nodes,
        rng=random.Random(seed + 1),
        engine=engine,
        compact_threshold_bits=384,
        checker=checker,
    )
    rng = random.Random(seed + 2)
    generation = 0
    # Per open contract: its last report (provenance-free) and the report
    # that opened it, rebuilt from the transitions alone.
    open_now = {}
    for step in range(rounds):
        if rng.random() < 0.4:
            generation += 1
            writer.write("k", generation)
        reported, healed = len(checker.violations), len(checker.healed)
        gossip.run_round()  # ends in one scan

        for heal in checker.healed[healed:]:
            name = heal.report.contract
            assert heal.report is open_now.pop(name)[1], f"step {step}"
            assert heal.opened_seq <= heal.healed_seq
        for report in checker.violations[reported:]:
            plain = replace(report, provenance=None)
            last = open_now.get(report.contract)
            # Appended only on a transition, never to repeat itself.
            assert last is None or last[0] != plain, f"step {step}"
            assert report.provenance is not None
            open_now[report.contract] = (
                plain, last[1] if last is not None else report
            )

        held = _held_generation(consumer, "k")
        assert held <= generation
        gaps = set()
        if generation > 0 and held < generation:
            gaps.add("observes")
        if generation > MAX_LAG and held < generation - MAX_LAG:
            gaps.add("freshness")
        assert set(open_now) == gaps, (
            f"step {step}: open={sorted(open_now)} oracle={sorted(gaps)} "
            f"(held={held}, latest={generation})"
        )
        # The transitions add up to exactly the state check() reports.
        current = {
            report.contract: replace(report, provenance=None)
            for report in checker.check("consume", raise_on_violation=False)
        }
        assert current == {name: entry[0] for name, entry in open_now.items()}
    return len(checker.violations), gossip.compactions


@pytest.mark.chaos
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("loss", [0.1, 0.3])
def test_scan_transitions_match_oracle_under_chaos(family, loss):
    transitions, compactions = _run_scan_soak(family, loss, rounds=300, seed=11)
    assert transitions > 0
    # The soak crosses epoch bumps, where verdicts resolve by epoch alone.
    assert compactions > 0


@pytest.mark.parametrize("family", FAMILIES)
def test_scan_transitions_match_oracle_smoke(family):
    _run_scan_soak(family, 0.3, rounds=40, seed=5)


# -- differential: scan() vs check() at every scan -----------------------------


class _CheckThenScan:
    """A service ``checker`` that queries every binding, then scans.

    At each scan it records ``check()``'s verdict for every bound spec,
    in ``scan()``'s order, with the history position; then it delegates
    to the real ``scan()``.
    """

    def __init__(self, checker):
        self.checker = checker
        self.scans = []

    def scan(self):
        checker = self.checker
        verdicts = []
        for operation in sorted({spec.target for spec in checker.specs}):
            reports = {
                report.contract: report
                for report in checker.check(operation, raise_on_violation=False)
            }
            verdicts.extend(
                (spec.name, reports.get(spec.name))
                for spec in checker.specs
                if spec.target == operation
            )
        self.scans.append((checker.history.next_seq, verdicts))
        return checker.scan()

    def expected(self):
        """The ``(violations, healed)`` the recorded verdicts imply.

        Each run of equal provenance-free reports per spec collapses to
        its first report, and a run that ends in a satisfied verdict is a
        heal.
        """
        violations, healed = [], []
        runs = {}  # spec name -> (provenance-free report, first report, seq)
        for seq, verdicts in self.scans:
            for name, report in verdicts:
                run = runs.get(name)
                if report is None:
                    if run is not None:
                        del runs[name]
                        healed.append(HealedViolation(run[1], run[2], seq))
                    continue
                plain = replace(report, provenance=None)
                if run is not None and run[0] == plain:
                    continue
                violations.append(report)
                runs[name] = (
                    (plain, run[1], run[2]) if run is not None
                    else (plain, report, seq)
                )
        return violations, healed

    def reports_checked(self):
        return sum(
            report is not None
            for _seq, verdicts in self.scans
            for _name, report in verdicts
        )


def _assert_scan_matches_checks(recorder):
    violations, healed = recorder.expected()
    assert recorder.checker.violations == violations
    assert recorder.checker.healed == healed
    # Collapsing must have had something to collapse.
    assert len(violations) < recorder.reports_checked()


def test_scan_matches_checks_on_a_grey_service():
    seed = 17
    nodes, keys = build_cluster(
        24, keys=4, family="vv-dynamic", seed=seed, writes_per_key=0
    )
    for key in keys:
        nodes[0].write(key, f"{key}@seed")
    warmup = AntiEntropyService(nodes, seed=seed).run(max_rounds=64)
    assert warmup.converged_after is not None
    history = SyncHistory(maxlen=512)
    transport = FaultyTransport(
        nodes[0].network,
        plan=FaultPlan(degradation=DegradationPlan.grey()),
        seed=seed,
    )
    engine = AsyncWireSyncEngine(transport=transport, history=history)
    specs = []
    for index in range(4):
        target = f"consume{index}"
        specs.append(
            _observes(name=f"observes{index}", target=target, key=keys[index])
        )
        specs.append(
            ContractSpec(
                name=f"fresh{index}",
                kind="freshness-within-k-events",
                source="export",
                target=target,
                key=keys[index],
                max_lag=2,
            )
        )
    checker = ContractChecker(specs, history=history)
    writers = nodes[:2]
    for writer in writers:
        checker.watch_writes(writer.store, "export")
    for index, consumer in enumerate(nodes[-4:]):
        checker.bind(f"consume{index}", consumer.store)
    recorder = _CheckThenScan(checker)
    service = AntiEntropyService(
        nodes,
        engine=engine,
        link=LinkProfile(latency=0.001),
        seed=seed,
        checker=recorder,
        health=HealthConfig(min_samples=3, min_deadline=1.0, max_deadline=20.0),
        hedge=True,
    )
    ops = random.Random(seed + 2)

    def write(metrics):
        # Each writer owns its own keys, as in the grey-service benchmark.
        for step in range(4):
            writer = ops.randrange(len(writers))
            owned = keys[writer :: len(writers)]
            key = owned[ops.randrange(len(owned))]
            writers[writer].write(key, f"r{metrics.number}w{step}")

    service.run(max_rounds=8, until_converged=False, on_round=write)
    settle = service.run(max_rounds=32)
    assert settle.converged_after is not None
    _assert_scan_matches_checks(recorder)
    assert checker.healed  # the scenario opened and closed violations
    assert checker.violations and all(
        report.provenance is not None for report in checker.violations
    )


def test_scan_matches_checks_on_the_service_contracts_scenario():
    nodes, _keys = build_cluster(8, keys=2, seed=3)
    history = SyncHistory(maxlen=256)
    engine = AsyncWireSyncEngine(history=history)
    checker = ContractChecker([_observes(key="key0")], history=history)
    checker.watch_writes(nodes[0].store, "export")
    checker.bind("train", nodes[-1].store)
    recorder = _CheckThenScan(checker)
    service = AntiEntropyService(nodes, engine=engine, seed=3, checker=recorder)
    assert service.run(max_rounds=16).converged_after is not None
    nodes[0].write("key0", "export #1")
    assert service.run(max_rounds=16).converged_after is not None
    _assert_scan_matches_checks(recorder)
    assert len(checker.healed) == 1
