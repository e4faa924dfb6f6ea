"""Seeded chaos soaks under the crash-*recover* model.

The companion of :mod:`test_chaos_soak` (crash-stop / rejoin-empty):
here the churn nodes are **durable** -- each journals to its own
on-disk log (mixed file and SQLite backends) -- and the fault plan sets
``crash_restart="recover"``, so every scripted crash is followed by a
restart that rebuilds the replica from snapshot + log tail instead of
rejoining empty.

What that changes, and what must *not* change:

* A recovered node resumes the identifier space it owned before the
  crash (nothing was shared while it was down -- see the recovery
  soundness record in ``ROADMAP.md``), so recovery never violates the
  paper's I2 disjointness invariant, for ITC included.
* A node that crashed across an epoch bump recovers as an epoch
  straggler; the existing in-band epoch gossip must upgrade it, never
  refuse it -- the soak asserts upgrades actually happened and any
  ``EpochMismatch`` anywhere fails the arm outright.
* The oracle is unchanged: after healing, the final scripted write per
  key must win on **every** node in **every** family arm (100%
  predicted-oracle agreement).

Run the full soaks with ``pytest -m chaos``; the unmarked smoke variant
keeps the recovery machinery covered in the default tier.
"""

import random

import pytest

from repro import kernel
from repro.durability.store import StoreJournal, open_log
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
CHURN = ("n2", "n3", "n4")  # durable: crash, recover, straggle

#: Backend per durable churn node -- both backends ride every soak.
BACKEND = {"n2": "file", "n3": "sqlite", "n4": "file"}

KEYS = [f"key-{index}" for index in range(6)]

COMPACT_THRESHOLD_BITS = 384
SNAPSHOT_EVERY = 192  # bound journal growth across a 2,000-step trace
SETTLE_ROUNDS = 40


def _build(family, loss, seed, tmp_path):
    network = PartitionedNetwork()
    plan = FaultPlan.chaos(loss=loss, crash_restart="recover")
    transport = FaultyTransport(network, plan=plan, seed=seed)
    engine = WireSyncEngine(transport=transport, retry=RetryPolicy(attempts=6))
    first = MobileNode.first(
        CORE[0], transport, tracker_factory=kernel.family(family).factory
    )
    nodes = [first] + [first.spawn_peer(name) for name in CORE[1:] + CHURN]
    for node in nodes:
        if node.node_id in CHURN:
            log = open_log(
                tmp_path / f"{family}-{node.node_id}",
                backend=BACKEND[node.node_id],
            )
            node.store.journal = StoreJournal(log, snapshot_every=SNAPSHOT_EVERY)
            for key in node.store.keys():
                node.store._record(key)
            node.store._flush_journal()
    gossip = AntiEntropy(
        nodes,
        rng=random.Random(seed + 1),
        engine=engine,
        compact_threshold_bits=COMPACT_THRESHOLD_BITS,
    )
    return network, transport, engine, nodes, gossip


def _settle(gossip, network, transport):
    """Heal everything, recover the crashed, run fault-free to convergence."""
    network.heal()
    for node in gossip.nodes:
        if not node.alive:
            gossip.restart(node)  # plan says "recover"
    previous_plan = transport.plan
    transport.plan = FaultPlan.perfect()
    for _ in range(SETTLE_ROUNDS):
        gossip.run_round()
        if gossip.converged():
            break
    transport.plan = previous_plan
    assert gossip.converged(), "population failed to converge after healing"


def _run_soak(family, *, steps, loss, seed, tmp_path):
    """Drive one family arm through the scripted crash-recover schedule."""
    network, transport, engine, nodes, gossip = _build(
        family, loss, seed, tmp_path
    )
    by_name = {node.node_id: node for node in nodes}
    core = [by_name[name] for name in CORE]
    churn = [by_name[name] for name in CHURN]
    ops = random.Random(seed + 2)

    transport.plan = FaultPlan.perfect()
    for key in KEYS:
        core[0].write(key, f"seed-{key}")
    for _ in range(8):
        gossip.run_round()
    assert gossip.converged()
    transport.plan = FaultPlan.chaos(loss=loss, crash_restart="recover")

    recoveries = 0
    isolated = None
    crashed = []  # (node, restart_step) pairs
    for step in range(steps):
        # Scripted crash/recover churn.  Unlike the rejoin-empty soak the
        # tail need not be crash-free -- a recovered node brings its
        # state back itself -- but the final window stays quiet so the
        # very last recoveries still settle through the faulty transport.
        if step % 131 == 17 and step < steps - 150:
            victim = churn[(step // 131) % len(churn)]
            if victim.alive and victim is not isolated:
                gossip.crash(victim)
                crashed.append((victim, step + 53))
        for victim, due in list(crashed):
            if step >= due:
                gossip.restart(victim)  # mode comes from the plan
                assert victim.last_recovery is not None
                assert victim.last_recovery.clean
                recoveries += 1
                crashed.remove((victim, due))

        # Scripted partition windows (same schedule as the base soak).
        if isolated is None and step % 97 == 41:
            split = [CHURN[step % len(CHURN)], CHURN[(step + 1) % len(CHURN)]]
            network.set_partitions(
                [[name for name in CORE + CHURN if name not in split], split]
            )
        elif isolated is None and step % 97 == 57:
            network.heal()

        # Straggler episodes: with recover-restarts these compose with
        # crashes -- an isolated node that crashes and recovers behind an
        # epoch bump is exactly the disk-born straggler the ISSUE wants.
        if isolated is None and step % 151 == 31:
            candidate = churn[(step // 151) % len(churn)]
            if candidate.alive and candidate.store.keys():
                isolated = candidate
                network.set_partitions(
                    [[n for n in CORE + CHURN if n != isolated.node_id],
                     [isolated.node_id]]
                )
        elif isolated is not None and step % 151 == 47:
            held = isolated.store.keys()
            target = ops.choice(held)
            participants = [
                node for node in nodes if node.alive and node is not isolated
            ]
            gossip.compact_key(target, participants=participants)
            network.heal()
            isolated = None

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

        writer = core[step % len(core)]
        writer.write(ops.choice(KEYS), f"s{step}")
        gossip.run_round()

    # Deterministic disk-born straggler: crash a durable node, bump a
    # key's epoch while it is down, then recover it from disk.  It comes
    # back at the stale epoch and the settle phase must upgrade it
    # in-band -- the exact composition of crash-recover and re-rooting
    # the scripted schedule cannot guarantee on every seed.
    network.heal()
    victim = next(node for node in churn if node.alive)
    gossip.crash(victim)
    gossip.compact_key(
        KEYS[0], participants=[node for node in nodes if node.alive]
    )
    gossip.restart(victim)
    assert victim.last_recovery is not None and victim.last_recovery.clean
    recoveries += 1

    _settle(gossip, network, transport)
    for key in KEYS:
        core[0].write(key, f"final-{key}")
    _settle(gossip, network, transport)
    return transport, engine, nodes, gossip, recoveries


def _assert_oracle_agreement(nodes):
    for node in nodes:
        for key in KEYS:
            assert node.store.get(key) == [f"final-{key}"], (
                f"{node.node_id} disagrees with the causal oracle on {key}"
            )


def _assert_recovery_exercised(engine, gossip, nodes, recoveries):
    assert recoveries > 0, "no crash ever recovered from disk"
    meter = engine.meter
    assert meter.dropped > 0, "loss never fired"
    assert meter.retried > 0, "the retry policy never fired"
    assert gossip.compactions > 0, "auto re-rooting never fired"
    assert engine.epoch_upgrades > 0, "no straggler was ever upgraded"
    for node in nodes:
        if node.node_id in CHURN and node.crashes > 0:
            assert node.last_recovery is not None
            # Compaction kept the journals bounded across the soak.
            assert node.store.journal.records_since_snapshot <= 2 * SNAPSHOT_EVERY


@pytest.mark.parametrize("family", FAMILIES)
def test_recovery_smoke(family, tmp_path):
    """A short crash-recover arm runs in the default tier for every family."""
    transport, engine, nodes, gossip, recoveries = _run_soak(
        family, steps=300, loss=0.1, seed=5000, tmp_path=tmp_path
    )
    _assert_oracle_agreement(nodes)
    _assert_recovery_exercised(engine, gossip, nodes, recoveries)


@pytest.mark.chaos
@pytest.mark.parametrize("family", FAMILIES)
def test_recovery_soak_10pct_loss(family, tmp_path):
    """2,000 steps at 10% loss with crash-recover churn (acceptance)."""
    transport, engine, nodes, gossip, recoveries = _run_soak(
        family, steps=2000, loss=0.1, seed=6000, tmp_path=tmp_path
    )
    _assert_oracle_agreement(nodes)
    _assert_recovery_exercised(engine, gossip, nodes, recoveries)
    assert all(node.crashes > 0 for node in nodes if node.node_id in CHURN)


@pytest.mark.chaos
@pytest.mark.parametrize("family", FAMILIES)
def test_recovery_soak_30pct_loss(family, tmp_path):
    """The heavy arm: 30% loss, recovery racing the retry budget."""
    transport, engine, nodes, gossip, recoveries = _run_soak(
        family, steps=2000, loss=0.3, seed=7000, tmp_path=tmp_path
    )
    _assert_oracle_agreement(nodes)
    _assert_recovery_exercised(engine, gossip, nodes, recoveries)
    assert engine.deliveries_failed > 0, "30% loss should exhaust some budgets"
