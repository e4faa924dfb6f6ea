"""Seeded chaos soaks: anti-entropy under the full fault matrix.

Each soak drives a five-node population through thousands of steps of
message loss, duplication, reordering, bit corruption, scripted partition
windows, crash/restart churn and decentralized re-rooting
(``compact_threshold_bits`` auto-compaction plus scripted straggler
episodes), then heals everything and checks that the system converged to
the *predicted* configuration.

The oracle: the final write to every key is scripted to happen on a
stable core node after a full settle, so the causally-correct outcome is
known in advance and identical for every clock family.  Every family arm
running the same seeded schedule must end in exactly that configuration
-- the causal-history arm is the exact-causality oracle, and because all
four arms are asserted against the same prediction, cross-family
agreement is 100% by transitivity.  Any ``EpochMismatch`` (or any other
exception) anywhere in the 2,000 steps fails the soak outright.

The crash model is crash-stop with rejoin-empty (see
``MobileNode.restart``), so only core nodes -- which never crash -- take
writes: a write on a node that later crashes before spreading would be
lost non-deterministically, and a write on a freshly-restarted empty node
would re-create the key with a fresh full identity, which the ITC family
cannot merge with the live forked identities (identity spaces must stay
disjoint).  Churn nodes exist to crash, partition, re-replicate and
straggle -- the roles the fault matrix is aimed at.

Run the full soaks with ``pytest -m chaos``; an unmarked smoke variant
keeps the machinery covered in the default test tier.
"""

import random

import pytest

from repro import kernel
from repro.replication import (
    AntiEntropy,
    FaultPlan,
    FaultyTransport,
    MobileNode,
    RetryPolicy,
    WireSyncEngine,
)
from repro.replication.network import PartitionedNetwork

FAMILIES = ["version-stamp", "itc", "vv-dynamic", "causal-history"]

CORE = ("n0", "n1")  # never crash, take every write
CHURN = ("n2", "n3", "n4")  # crash, partition, straggle

KEYS = [f"key-{index}" for index in range(6)]

COMPACT_THRESHOLD_BITS = 384
SETTLE_ROUNDS = 40


def _build(family, loss, seed):
    network = PartitionedNetwork()
    plan = FaultPlan.chaos(loss=loss)
    transport = FaultyTransport(network, plan=plan, seed=seed)
    engine = WireSyncEngine(transport=transport, retry=RetryPolicy(attempts=6))
    first = MobileNode.first(
        CORE[0], transport, tracker_factory=kernel.family(family).factory
    )
    nodes = [first] + [
        first.spawn_peer(name) for name in CORE[1:] + CHURN
    ]
    gossip = AntiEntropy(
        nodes,
        rng=random.Random(seed + 1),
        engine=engine,
        compact_threshold_bits=COMPACT_THRESHOLD_BITS,
    )
    return network, transport, engine, nodes, gossip


def _settle(gossip, network, transport):
    """Heal everything and run fault-free rounds until convergence."""
    network.heal()
    for node in gossip.nodes:
        if not node.alive:
            gossip.restart(node)
    previous_plan = transport.plan
    transport.plan = FaultPlan.perfect()
    for _ in range(SETTLE_ROUNDS):
        gossip.run_round()
        if gossip.converged():
            break
    transport.plan = previous_plan
    assert gossip.converged(), "population failed to converge after healing"


def _run_soak(family, *, steps, loss, seed):
    """Drive one family arm through the scripted chaos schedule."""
    network, transport, engine, nodes, gossip = _build(family, loss, seed)
    by_name = {node.node_id: node for node in nodes}
    core = [by_name[name] for name in CORE]
    churn = [by_name[name] for name in CHURN]
    ops = random.Random(seed + 2)

    # Clean pre-phase: one creator writes every key and replicates it
    # everywhere, so every later write is an update on a held key.
    transport.plan = FaultPlan.perfect()
    for key in KEYS:
        core[0].write(key, f"seed-{key}")
    for _ in range(8):
        gossip.run_round()
    assert gossip.converged()
    transport.plan = FaultPlan.chaos(loss=loss)

    isolated = None  # the current straggler, if an episode is running
    crashed = []  # (node, restart_step) pairs
    for step in range(steps):
        # Scripted crash/restart churn (chaos window only: the tail of
        # the trace stays crash-free so re-replication can complete).
        if step % 131 == 17 and step < steps - 300:
            victim = churn[(step // 131) % len(churn)]
            if victim.alive and victim is not isolated:
                gossip.crash(victim)
                crashed.append((victim, step + 53))
        for victim, due in list(crashed):
            if step >= due:
                gossip.restart(victim)
                crashed.remove((victim, due))

        # Scripted partition windows: two churn nodes split away.  A
        # running straggler episode owns the partition state, so windows
        # pause while one is active.
        if isolated is None and step % 97 == 41:
            split = [CHURN[step % len(CHURN)], CHURN[(step + 1) % len(CHURN)]]
            network.set_partitions(
                [[name for name in CORE + CHURN if name not in split], split]
            )
        elif isolated is None and step % 97 == 57:
            # Windows stay short on purpose: auto re-rooting pauses for
            # keys held by an unreachable holder, and uncompacted version
            # stamps grow exponentially under sync churn (the paper's
            # core motivation) -- a window much past ~20 rounds overflows
            # the 16-bit wire length field before compaction can resume.
            network.heal()

        # Scripted straggler episodes: isolate one churn node, let the
        # rest advance and compact, then heal -- the straggler comes back
        # at a stale epoch and must be upgraded by gossip, never refused.
        if isolated is None and step % 151 == 31:
            candidate = churn[(step // 151) % len(churn)]
            if candidate.alive and candidate.store.keys():
                isolated = candidate
                network.set_partitions(
                    [[n for n in CORE + CHURN if n != isolated.node_id],
                     [isolated.node_id]]
                )
        elif isolated is not None and step % 151 == 47:
            # Compact a key the straggler actually holds, so healing has
            # a stale epoch to upgrade.
            held = isolated.store.keys()
            target = ops.choice(held)
            participants = [
                node for node in nodes if node.alive and node is not isolated
            ]
            gossip.compact_key(target, participants=participants)
            network.heal()
            isolated = None

        # Maintenance re-rooting among the reachable majority: the
        # automatic sweep stands down while any live holder is
        # unreachable, but churn nodes are quiescent by construction, so
        # excluding the split-away ones is sound (the ``participants``
        # assertion) -- and without it, version stamps grow exponentially
        # through a blocked window and overflow the wire format.  Each
        # such compaction also leaves the split holders one epoch behind,
        # feeding the straggler-upgrade path on heal.
        majority = [
            node
            for node in nodes
            if node.alive and (node is core[0] or core[0].can_reach(node))
        ]
        for key in KEYS:
            if any(
                key in node.store.keys()
                and node.store.tracker_of(key).encoded_size_bits()
                > COMPACT_THRESHOLD_BITS
                for node in majority
            ):
                gossip.compact_key(key, participants=majority)

        # One write per step, always on a core node.
        writer = core[step % len(core)]
        writer.write(ops.choice(KEYS), f"s{step}")
        gossip.run_round()

    # Heal, restart, settle -- then the oracle phase: one final write per
    # key on the creator, which after convergence strictly dominates
    # every surviving sibling in every arm.
    _settle(gossip, network, transport)
    for key in KEYS:
        core[0].write(key, f"final-{key}")
    _settle(gossip, network, transport)
    return transport, engine, nodes, gossip


def _assert_oracle_agreement(nodes):
    for node in nodes:
        for key in KEYS:
            assert node.store.get(key) == [f"final-{key}"], (
                f"{node.node_id} disagrees with the causal oracle on {key}"
            )


def _assert_fault_matrix_exercised(engine, gossip, *, expect_upgrades):
    meter = engine.meter
    assert meter.dropped > 0, "loss never fired"
    assert meter.duplicated > 0, "duplication never fired"
    assert meter.corrupted > 0, "corruption never fired"
    assert meter.retried > 0, "the retry policy never fired"
    assert meter.retry_latency > 0.0
    assert 0.0 < meter.goodput() < 1.0
    assert gossip.compactions > 0, "auto re-rooting never fired"
    if expect_upgrades:
        assert engine.epoch_upgrades > 0, "no straggler was ever upgraded"


@pytest.mark.parametrize("family", FAMILIES)
def test_chaos_smoke(family):
    """A short arm of the soak runs in the default tier for every family."""
    transport, engine, nodes, gossip = _run_soak(
        family, steps=300, loss=0.1, seed=1000
    )
    _assert_oracle_agreement(nodes)
    _assert_fault_matrix_exercised(engine, gossip, expect_upgrades=True)


@pytest.mark.chaos
@pytest.mark.parametrize("family", FAMILIES)
def test_chaos_soak_10pct_loss(family):
    """2,000 steps at 10% loss plus the full fault matrix (acceptance)."""
    transport, engine, nodes, gossip = _run_soak(
        family, steps=2000, loss=0.1, seed=2000
    )
    _assert_oracle_agreement(nodes)
    _assert_fault_matrix_exercised(engine, gossip, expect_upgrades=True)
    # The churn actually happened: every churn node crashed at least once.
    assert all(node.crashes > 0 for node in nodes if node.node_id in CHURN)


@pytest.mark.chaos
@pytest.mark.parametrize("family", FAMILIES)
def test_chaos_soak_30pct_loss(family):
    """The heavy arm: 30% loss stresses the retry budget and rollback."""
    transport, engine, nodes, gossip = _run_soak(
        family, steps=2000, loss=0.3, seed=3000
    )
    _assert_oracle_agreement(nodes)
    _assert_fault_matrix_exercised(engine, gossip, expect_upgrades=True)
    assert engine.deliveries_failed > 0, "30% loss should exhaust some budgets"
