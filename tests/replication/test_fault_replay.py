"""Replay determinism of the fault machinery.

Property: a ``(FaultPlan, seed)`` pair fully determines the fault
schedule.  Two runs of the same seeded scenario must produce the exact
same transport deliveries -- byte for byte, in the same order -- and the
same meter counters, on the synchronous engine path *and* on both async
service paths (lockstep and overlap).  Any hidden nondeterminism (an
unseeded RNG, hash-order iteration, wall-clock coupling) breaks this.
The engine's fault counters are a recount of those deliveries against
the blobs sent.
"""

import dataclasses
import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.replication import (
    DegradationPlan,
    FaultPlan,
    FaultyTransport,
    WireSyncEngine,
)
from repro.service import (
    AntiEntropyService,
    AsyncWireSyncEngine,
    HealthConfig,
    build_cluster,
    gossip_schedule,
    replay_schedule_sync,
)
from repro.service.health import HEALTH_SEED_SALT

REPLICAS = 5
KEYS = 3
ROUNDS = 3


class RecordingTransport(FaultyTransport):
    """A fault transport that journals every batch sent and delivered."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sent = []
        self.deliveries = []

    def transfer_batch(self, source, destination, blobs):
        delivered = super().transfer_batch(source, destination, blobs)
        self.sent.append(tuple(bytes(blob) for blob in blobs))
        self.deliveries.append(
            (source, destination, tuple((i, bytes(p)) for i, p in delivered))
        )
        return delivered


def fault_plans():
    return st.builds(
        FaultPlan,
        loss=st.floats(min_value=0.0, max_value=0.3),
        duplicate=st.floats(min_value=0.0, max_value=0.2),
        reorder=st.floats(min_value=0.0, max_value=0.5),
        corrupt=st.floats(min_value=0.0, max_value=0.1),
    )


def _digest(nodes):
    return [
        (node.node_id, key, sorted(repr(value) for value in node.store.get(key)))
        for node in nodes
        for key in sorted(node.store.keys())
    ]


def _run_sync(plan, seed):
    nodes, _ = build_cluster(REPLICAS, keys=KEYS, seed=seed)
    transport = RecordingTransport(nodes[0].network, plan=plan, seed=seed)
    engine = WireSyncEngine(transport=transport)
    schedule = gossip_schedule(REPLICAS, ROUNDS, seed=seed)
    replay_schedule_sync(nodes, schedule, engine, shards=2)
    return (
        transport.deliveries,
        engine.meter.snapshot() + engine.meter.fault_snapshot(),
        _digest(nodes),
    )


def _run_async(plan, seed, *, lockstep, health=None, internal_schedule=False):
    nodes, _ = build_cluster(REPLICAS, keys=KEYS, seed=seed)
    transport = RecordingTransport(nodes[0].network, plan=plan, seed=seed)
    engine = AsyncWireSyncEngine(transport=transport)
    service = AntiEntropyService(
        nodes,
        engine=engine,
        shards=2,
        seed=seed,
        lockstep=lockstep,
        health=health,
    )
    if internal_schedule:
        service.run(max_rounds=ROUNDS, until_converged=False)
    else:
        service.run(
            schedule=gossip_schedule(REPLICAS, ROUNDS, seed=seed),
            until_converged=False,
        )
    return (
        transport.deliveries,
        engine.meter.snapshot() + engine.meter.fault_snapshot(),
        _digest(nodes),
    )


@settings(max_examples=15, deadline=None)
@given(plan=fault_plans(), seed=st.integers(min_value=0, max_value=2**16))
def test_sync_fault_schedule_replays_byte_identically(plan, seed):
    assert _run_sync(plan, seed) == _run_sync(plan, seed)


@settings(max_examples=15, deadline=None)
@given(plan=fault_plans(), seed=st.integers(min_value=0, max_value=2**16))
def test_engine_fault_counts_recount_the_deliveries(plan, seed):
    """The transport only delivers; the engine's counts match a recount.

    A sent message with no copy back was dropped, copies after the first
    are duplicates, and a copy whose bytes differ from the blob sent was
    corrupted.
    """
    nodes, _ = build_cluster(REPLICAS, keys=KEYS, seed=seed)
    transport = RecordingTransport(nodes[0].network, plan=plan, seed=seed)
    engine = WireSyncEngine(transport=transport)
    schedule = gossip_schedule(REPLICAS, ROUNDS, seed=seed)
    replay_schedule_sync(nodes, schedule, engine, shards=2)
    dropped = duplicated = corrupted = 0
    for blobs, (_, _, delivered) in zip(transport.sent, transport.deliveries):
        copies = Counter(index for index, _ in delivered)
        dropped += len(blobs) - len(copies)
        duplicated += sum(count - 1 for count in copies.values())
        corrupted += sum(payload != blobs[index] for index, payload in delivered)
    meter = engine.meter
    assert transport.sent
    assert (meter.dropped, meter.duplicated, meter.corrupted) == (
        dropped,
        duplicated,
        corrupted,
    )


@settings(max_examples=10, deadline=None)
@given(plan=fault_plans(), seed=st.integers(min_value=0, max_value=2**16))
def test_async_lockstep_replays_byte_identically(plan, seed):
    assert _run_async(plan, seed, lockstep=True) == _run_async(
        plan, seed, lockstep=True
    )


@settings(max_examples=10, deadline=None)
@given(plan=fault_plans(), seed=st.integers(min_value=0, max_value=2**16))
def test_async_overlap_replays_byte_identically(plan, seed):
    assert _run_async(plan, seed, lockstep=False) == _run_async(
        plan, seed, lockstep=False
    )


@settings(max_examples=10, deadline=None)
@given(plan=fault_plans(), seed=st.integers(min_value=0, max_value=2**16))
def test_lockstep_async_equals_sync_reference(plan, seed):
    """The cross-path half: same plan, same seed, same everything."""
    assert _run_async(plan, seed, lockstep=True) == _run_sync(plan, seed)


# -- RNG-stream isolation: health, grey, fault and link RNGs never mix ------

#: An observation-only health config: deadlines pinned absurdly high so
#: no session can ever time out -- the detector watches, never acts.
OBSERVER = HealthConfig(min_deadline=1e9, max_deadline=1e9)


@settings(max_examples=10, deadline=None)
@given(plan=fault_plans(), seed=st.integers(min_value=0, max_value=2**16))
def test_detector_on_vs_off_fault_schedules_identical(plan, seed):
    """Enabling the accrual detector must not shift the fault schedule.

    The monitor owns its own seeded RNG stream; with deadlines that never
    fire, a run with the detector on performs exactly the same transport
    calls, fault-RNG draws and merges as one with it off -- byte for byte.
    """
    for lockstep in (True, False):
        assert _run_async(plan, seed, lockstep=lockstep, health=OBSERVER) == _run_async(
            plan, seed, lockstep=lockstep
        )


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_healthy_cluster_weighted_draw_consumes_no_health_rng(seed):
    """On a healthy cluster the internal gossip schedule is untouched.

    Every peer sits on the weight-1.0 fast path, so the health-weighted
    draw accepts the schedule RNG's uniform pick without consuming any
    health RNG at all -- detector on vs. off is byte-identical even when
    the service draws its own schedule.
    """
    plan = FaultPlan.perfect()
    assert _run_async(
        plan, seed, lockstep=True, health=OBSERVER, internal_schedule=True
    ) == _run_async(plan, seed, lockstep=True, internal_schedule=True)


def test_health_rng_untouched_on_quiet_run():
    """The monitor's dedicated RNG is never drawn from while quiet."""
    nodes, _ = build_cluster(REPLICAS, keys=KEYS, seed=5)
    transport = RecordingTransport(nodes[0].network, plan=FaultPlan.perfect(), seed=5)
    service = AntiEntropyService(
        nodes, engine=AsyncWireSyncEngine(transport=transport), seed=5, health=True
    )
    service.run(max_rounds=ROUNDS, until_converged=False)
    assert service.health.rng.getstate() == random.Random(5 ^ HEALTH_SEED_SALT).getstate()
    assert service.health.redraws == 0


@settings(max_examples=10, deadline=None)
@given(plan=fault_plans(), seed=st.integers(min_value=0, max_value=2**16))
def test_timing_only_degradation_is_delivery_identical(plan, seed):
    """Grey modes with no stuck rate shape time, never state.

    Slowdown factors, flapping links and throttle windows only stretch
    virtual time; in lockstep order the transport sees the same calls and
    the fault RNG the same draws, so deliveries, fault counters and final
    state are byte-identical with the grey modes on or off.
    """
    grey = dataclasses.replace(
        plan,
        degradation=DegradationPlan(
            slow_fraction=0.5,
            slow_factor=(5.0, 20.0),
            stuck_rate=0.0,
            flap_fraction=0.5,
            flap_period=2.0,
            flap_duty=0.5,
            throttle_windows=((0.0, 1e6, 3.0),),
        ),
    )
    assert _run_async(grey, seed, lockstep=True) == _run_async(
        plan, seed, lockstep=True
    )


def test_resolving_degradation_leaves_the_fault_rng_alone():
    """The grey RNG is a stream of its own, split off the fault RNG."""
    plan = dataclasses.replace(FaultPlan.chaos(loss=0.2), degradation=DegradationPlan.grey())
    nodes, _ = build_cluster(3, keys=1, seed=9)
    transport = FaultyTransport(nodes[0].network, plan=plan, seed=9)
    before = transport._rng.getstate()
    state = transport.ensure_degradation([node.node_id for node in nodes])
    assert state is not None and state.degraded_nodes()
    assert transport._rng.getstate() == before
    # Stuck draws come from the grey stream too, never the fault stream.
    degraded = state.degraded_nodes()[0]
    for _ in range(32):
        state.stuck_hang(degraded, "elsewhere")
    assert transport._rng.getstate() == before
