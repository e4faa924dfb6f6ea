"""Seeded grey-failure soaks: the anti-entropy service under degradation.

The chaos soaks (``tests/replication/test_chaos_soak.py``) cover *crash*
faults -- loss, corruption, partitions, dead nodes.  This soak covers the
grey band between healthy and dead: 30% of the population is degraded
(10--100x slowdown factors, stuck sessions that hang half a minute,
flapping links, cluster-wide throttle windows) while 2,000 scripted write
steps churn through the cluster on the virtual clock.

Each family runs four arms on the same seeded schedule:

``healthy``
    No degradation, full health layer.  The false-positive control: the
    accrual detector must stay silent (zero timeouts, zero breaker
    skips) on a cluster that is merely busy.
``control``
    Degradation with the health layer off.  Every session waits out the
    full grey delay, so total virtual time balloons -- this arm proves
    the defensive layer is load-bearing, not decorative.
``protected``
    Degradation with accrual detection, adaptive deadlines, circuit
    breakers and hedged sessions.  Must converge to the oracle at a
    fraction of the control's virtual time, and its settle phase must
    stay within 2x the healthy baseline's rounds.
``prot-nohedge``
    Same, hedging off.  Sync idempotence means a hedge can move
    knowledge but never diverge, so this arm's final configuration must
    be byte-identical to the protected arm's.

The oracle is the chaos-soak idiom: a clean pre-phase seeds every key
everywhere, then after the write phase the cluster settles, one node
writes a final value per key, and the cluster settles again -- every
replica must end holding exactly the final values.  Any
``EpochMismatch`` (or any other exception) anywhere in the run fails the
soak outright.

Version stamps grow exponentially under sync churn (the paper's core
motivation), so a maintenance :class:`~repro.replication.AntiEntropy`
with a clean engine runs one ``run_round()`` per service round.  Each of
those calls is a full gossip round over a fault-free engine *and* a
re-rooting sweep, and both halves are load-bearing: with only the sweep
(``_auto_compact()``) in place of the three ``run_round()`` calls after
the clean pre-phase, 7 of the 16 arms at seed 6000 fail -- version-stamp
healthy overflows the 16-bit wire length prefix (``EncodingError``), the
itc healthy, control and prot-nohedge arms never finish the first
settle, and the vv-dynamic protected and prot-nohedge arms never finish
the final one.

Even so, the version-stamp protected arm overflows at seed 6011 (1 of
seeds 6000-6011): the ``EncodingError`` is raised in the maintenance
driver's ``compact_key`` hub sweep.  That is defect (a) of
``perfbench/README.md``; a strict xfail pins it until a key-scoped sweep
or service-side compaction removes it.

Run the full matrix with ``pytest -m chaos``; an unmarked smoke variant
keeps the machinery covered in the default tier.
"""

import functools
import random

import pytest

from repro.core.errors import EncodingError
from repro.replication import (
    AntiEntropy,
    DegradationPlan,
    FaultPlan,
    FaultyTransport,
    WireSyncEngine,
)
from repro.service import (
    AntiEntropyService,
    AsyncWireSyncEngine,
    HealthConfig,
    LinkProfile,
    build_cluster,
)

FAMILIES = ["version-stamp", "itc", "vv-dynamic", "causal-history"]

REPLICAS = 10
KEYS = 6
PER_ROUND = 20  # writes injected per service round
WRITE_ROUNDS = 100  # x PER_ROUND = 2,000 write steps in the full soak
SETTLE_ROUNDS = 120
WRITERS = 2  # only the first two nodes take writes (chaos-soak idiom)
COMPACT_THRESHOLD_BITS = 512

#: The soak's defensive-driving policy.  ``min_deadline`` sits well above
#: the slowest *clean* session (two 0.05s legs plus retries), so the
#: healthy arm never times out; ``max_deadline`` sits below the 30s
#: stuck-session hang, so genuinely wedged sessions are always cut off.
HEALTH = HealthConfig(min_samples=3, min_deadline=1.0, max_deadline=20.0)


def _run_arm(
    family, *, degrade, health, hedge, seed, write_rounds,
    keys=KEYS, per_round=PER_ROUND,
):
    """Drive one arm of the soak; returns the observables the asserts use."""
    nodes, names = build_cluster(
        REPLICAS, keys=keys, family=family, seed=seed, writes_per_key=0
    )
    plan = FaultPlan(degradation=DegradationPlan.grey() if degrade else None)
    transport = FaultyTransport(nodes[0].network, plan=plan, seed=seed)
    service = AntiEntropyService(
        nodes,
        engine=AsyncWireSyncEngine(transport=transport),
        link=LinkProfile(latency=0.05),
        seed=seed,
        health=HEALTH if health else None,
        hedge=hedge,
    )
    # Maintenance re-rooting on a clean, fault-free engine: compaction is
    # an agreement protocol, not a gossip exchange, so it must not run
    # through the degraded transport.
    maintenance = AntiEntropy(
        nodes,
        rng=random.Random(seed + 1),
        engine=WireSyncEngine(),
        compact_threshold_bits=COMPACT_THRESHOLD_BITS,
    )

    # Clean pre-phase: one creator writes every key and replicates it
    # everywhere before the grey weather starts, so compaction never sees
    # a node missing a key (ITC identity spaces must stay disjoint).
    for name in names:
        nodes[0].write(name, f"seed-{name}")
    for _ in range(40):
        maintenance.run_round()
        if maintenance.converged():
            break
    assert maintenance.converged(), "clean pre-phase failed to converge"

    ops = random.Random(seed + 2)
    step = 0

    def sweep_and_inject(metrics):
        nonlocal step
        maintenance.run_round()
        for _ in range(per_round):
            nodes[ops.randrange(WRITERS)].write(ops.choice(names), f"s{step}")
            step += 1

    def sweep(metrics):
        maintenance.run_round()

    write = service.run(
        max_rounds=write_rounds, until_converged=False, on_round=sweep_and_inject
    )
    maintenance.run_round()
    settle1 = service.run(
        max_rounds=SETTLE_ROUNDS, until_converged=True, on_round=sweep
    )
    assert settle1.converged_after is not None, "first settle never converged"
    for name in names:
        nodes[0].write(name, f"final-{name}")
    settle2 = service.run(
        max_rounds=SETTLE_ROUNDS, until_converged=True, on_round=sweep
    )
    assert settle2.converged_after is not None, "final settle never converged"

    oracle = all(
        node.store.get(name) == [f"final-{name}"]
        for node in nodes
        for name in names
    )
    digest = tuple(
        (node.node_id, name, tuple(sorted(repr(v) for v in node.store.get(name))))
        for node in nodes
        for name in names
    )
    counters = service.health.counters() if service.health is not None else {}
    return {
        "oracle": oracle,
        "digest": digest,
        "settle2_rounds": len(settle2.rounds),
        "virtual_to_settle": write.virtual_seconds + settle1.virtual_seconds,
        "virtual_total": (
            write.virtual_seconds
            + settle1.virtual_seconds
            + settle2.virtual_seconds
        ),
        "timeouts": counters.get("timeouts", 0),
        "hedges": counters.get("hedges", 0),
        "breaker_skips": counters.get("breaker_skips", 0),
    }


def test_grey_smoke():
    """A short protected-vs-healthy arm pair runs in the default tier."""
    healthy = _run_arm(
        "version-stamp", degrade=False, health=True, hedge=True,
        seed=6100, write_rounds=25,
    )
    protected = _run_arm(
        "version-stamp", degrade=True, health=True, hedge=True,
        seed=6100, write_rounds=25,
    )
    assert healthy["oracle"] and protected["oracle"]
    # The detector stayed silent on the healthy cluster...
    assert healthy["timeouts"] == 0
    assert healthy["breaker_skips"] == 0
    # ...and actually fired under the grey weather.
    assert protected["timeouts"] > 0


def test_grey_resilience_is_pinned():
    """Health, deadlines and hedging cut the grey weather's cost 4.79x.

    The ratio is the control arm's virtual seconds over the protected
    arm's, through the write phase and the first settle, on a short
    version-stamp schedule (seed 6600, 4 keys, 10 writes per round).
    Every input is seeded, so the ratio repeats exactly: a drift is a
    change in detection, deadlines, breakers or hedging, not noise.
    """
    arm = functools.partial(
        _run_arm, "version-stamp", seed=6600, write_rounds=40, keys=4, per_round=10
    )
    healthy = arm(degrade=False, health=True, hedge=True)
    control = arm(degrade=True, health=False, hedge=False)
    protected = arm(degrade=True, health=True, hedge=True)
    assert healthy["oracle"] and control["oracle"] and protected["oracle"]
    # A false positive on the healthy cluster would make the ratio moot.
    assert healthy["timeouts"] == 0
    assert healthy["breaker_skips"] == 0
    resilience = control["virtual_to_settle"] / protected["virtual_to_settle"]
    assert resilience == pytest.approx(4.7891266861138035, rel=1e-6)


@pytest.mark.chaos
@pytest.mark.parametrize("family", FAMILIES)
def test_grey_soak(family):
    """2,000 grey write steps per family, four arms (acceptance)."""
    seed = 6000
    healthy = _run_arm(
        family, degrade=False, health=True, hedge=True,
        seed=seed, write_rounds=WRITE_ROUNDS,
    )
    control = _run_arm(
        family, degrade=True, health=False, hedge=False,
        seed=seed, write_rounds=WRITE_ROUNDS,
    )
    protected = _run_arm(
        family, degrade=True, health=True, hedge=True,
        seed=seed, write_rounds=WRITE_ROUNDS,
    )
    nohedge = _run_arm(
        family, degrade=True, health=True, hedge=False,
        seed=seed, write_rounds=WRITE_ROUNDS,
    )

    # 100% oracle agreement in every arm.
    for arm in (healthy, control, protected, nohedge):
        assert arm["oracle"], "an arm disagrees with the causal oracle"

    # The false-positive control: a busy-but-healthy cluster never trips
    # the accrual detector.
    assert healthy["timeouts"] == 0
    assert healthy["breaker_skips"] == 0

    # The defense was exercised: deadlines fired and hedges launched.
    assert protected["timeouts"] > 0
    assert protected["hedges"] > 0

    # Convergence stayed within 2x the healthy baseline's settle rounds.
    assert protected["settle2_rounds"] <= 2 * healthy["settle2_rounds"]

    # The no-health control is demonstrably worse: without deadlines every
    # session waits out the full grey delay.
    assert control["virtual_total"] > 1.5 * protected["virtual_total"]

    # Hedging is state-transparent: sync idempotence means the hedged and
    # unhedged arms end byte-identical.
    assert protected["digest"] == nohedge["digest"]


@pytest.mark.chaos
@pytest.mark.xfail(
    raises=EncodingError,
    strict=True,
    reason="defect (a): the maintenance hub sweep overflows a stamp's "
    "16-bit length prefix",
)
def test_grey_soak_version_stamp_overflow_at_seed_6011():
    """The protected version-stamp arm of seed 6011 still overflows.

    A fix to defect (a) turns this strict xfail into a failure, which is
    the cue to drop the marker and add seed 6011 to the soak.
    """
    _run_arm(
        "version-stamp", degrade=True, health=True, hedge=True,
        seed=6011, write_rounds=WRITE_ROUNDS,
    )
