"""Seeded chaos soaks: contract verdicts vs. a causal ground-truth oracle.

The scripting gives the soak an exact oracle: one designated writer owns
the contract key, every export writes a strictly increasing generation
number, and nobody else ever writes it.  Single-writer means each
replica's copy of the key is always some causal prefix of the writer's
history, so *value generations are the causal ground truth* -- replica
``r`` has observed export ``g`` if and only if its stored generation is
``>= g``.  That stays true across re-rooting epoch bumps (compaction
syncs every live holder first), which is exactly the window where the
checker resolves relations by the epoch invariant instead of comparing.

Every round, the consumer "runs" its operation and the checker's verdict
is compared against the oracle:

* a violation with no oracle gap would be a **false positive** -- the
  checker inventing staleness;
* an oracle gap with no violation would be a **false negative** -- the
  checker blessing a stale read.

The soaks assert zero of both (100% agreement), for the observes and
bounded-freshness contracts, across all four clock families at 10% and
30% loss under the full chaos fault matrix.  Full runs are
``pytest -m chaos``; an unmarked smoke keeps the machinery covered in
the default tier.
"""

import random

import pytest

from repro import kernel
from repro.contracts import ContractChecker, ContractSpec
from repro.replication import (
    AntiEntropy,
    FaultPlan,
    FaultyTransport,
    MobileNode,
    RetryPolicy,
    SyncHistory,
    WireSyncEngine,
)
from repro.replication.network import FullyConnectedNetwork

FAMILIES = ["version-stamp", "itc", "vv-dynamic", "causal-history"]

MAX_LAG = 3


def _held_generation(store, key):
    """The generation a replica has observed (-1: never received the key)."""
    values = store.get(key)
    if not values:
        return -1
    # Single writer: siblings cannot form, so there is exactly one value.
    assert len(values) == 1, values
    return values[0]


def _run_soak(family, loss, rounds, seed):
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
            ContractSpec(
                name="observes",
                kind="observes",
                source="export",
                target="consume",
                key="k",
            ),
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
    gossip = AntiEntropy(
        nodes,
        rng=random.Random(seed + 1),
        engine=engine,
        compact_threshold_bits=384,
    )
    rng = random.Random(seed + 2)
    generation = 0
    checks = violations = 0
    for _step in range(rounds):
        if rng.random() < 0.4:
            generation += 1
            writer.write("k", generation)
        gossip.run_round()

        held = _held_generation(consumer, "k")
        assert held <= generation  # the oracle's sanity: no time travel
        reports = checker.check("consume", consumer, raise_on_violation=False)
        violated = {report.contract for report in reports}

        observes_gap = generation > 0 and held < generation
        freshness_gap = generation > MAX_LAG and held < generation - MAX_LAG
        assert ("observes" in violated) == observes_gap, (
            f"step {_step}: checker={'observes' in violated} "
            f"oracle={observes_gap} (held={held}, latest={generation})"
        )
        assert ("freshness" in violated) == freshness_gap, (
            f"step {_step}: checker={'freshness' in violated} "
            f"oracle={freshness_gap} (held={held}, latest={generation})"
        )
        for report in reports:
            # Machine-readable and provenance-traced, every time.
            assert report.target_replica == consumer.name
            assert report.source_replica == "writer"
            assert report.mode in ("stale", "concurrent", "missing", "straggler")
            assert report.provenance is not None
            assert report.provenance.key == "k"
        checks += 1
        violations += len(reports)
    # The soak must have exercised both verdicts to mean anything.
    assert checks == rounds
    return violations


@pytest.mark.chaos
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("loss", [0.1, 0.3])
def test_contract_verdicts_match_oracle_under_chaos(family, loss):
    violations = _run_soak(family, loss, rounds=300, seed=11)
    assert violations > 0  # chaos at these rates must trip contracts sometimes


@pytest.mark.parametrize("family", FAMILIES)
def test_contract_verdicts_match_oracle_smoke(family):
    _run_soak(family, 0.3, rounds=40, seed=5)
