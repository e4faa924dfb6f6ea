"""Unit tests for the grey-failure resilience layer.

The accrual detector (phi scoring, adaptive deadlines, suspicion-decayed
weights), the circuit-breaker automaton, the health-weighted and hedged
peer selection, the grey degradation model, and the daemon's deadline
enforcement with transactional rollback.
"""

import random

import pytest

from repro.core.errors import FaultInjectionError, SessionTimeout
from repro.replication import (
    DegradationPlan,
    FaultPlan,
    FaultyTransport,
    FullyConnectedNetwork,
)
from repro.service import (
    AntiEntropyService,
    AsyncWireSyncEngine,
    CircuitBreaker,
    HealthConfig,
    HealthMonitor,
    Interpreter,
    Job,
    LinkProfile,
    PeerHealth,
    build_cluster,
)


def _config(**overrides):
    return HealthConfig(**overrides)


class TestHealthConfig:
    def test_defaults_validate(self):
        config = HealthConfig()
        assert config.window >= config.min_samples

    @pytest.mark.parametrize(
        "overrides",
        [
            {"window": 1},
            {"min_samples": 1},
            {"decay": 0.0},
            {"decay": 1.5},
            {"min_weight": 0.0},
            {"min_weight": 1.1},
            {"min_deadline": 0.0},
            {"min_deadline": 2.0, "max_deadline": 1.0},
            {"breaker_failures": 0},
            {"breaker_cooldown": 0.0},
            {"breaker_backoff": 0.5},
        ],
    )
    def test_invalid_values_rejected(self, overrides):
        with pytest.raises(ValueError):
            HealthConfig(**overrides)


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        breaker = CircuitBreaker(_config(breaker_failures=3))
        for _ in range(2):
            breaker.record_failure(now=0.0)
            assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure(now=0.0)
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opens == 1
        assert not breaker.allow(now=1.0)

    def test_success_resets_the_failure_run(self):
        breaker = CircuitBreaker(_config(breaker_failures=2))
        breaker.record_failure(now=0.0)
        breaker.record_success()
        breaker.record_failure(now=0.0)
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_admits_exactly_one_probe(self):
        breaker = CircuitBreaker(_config(breaker_failures=1, breaker_cooldown=5.0))
        breaker.record_failure(now=0.0)
        assert not breaker.allow(now=4.9)
        assert breaker.allow(now=5.0)  # the probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert not breaker.allow(now=5.0)  # refused while the probe flies

    def test_probe_success_closes_the_circuit(self):
        breaker = CircuitBreaker(_config(breaker_failures=1, breaker_cooldown=1.0))
        breaker.record_failure(now=0.0)
        assert breaker.allow(now=1.0)
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow(now=1.0)

    def test_probe_failure_backs_the_cooldown_off(self):
        config = _config(
            breaker_failures=1, breaker_cooldown=2.0, breaker_backoff=2.0
        )
        breaker = CircuitBreaker(config)
        breaker.record_failure(now=0.0)  # open until 2.0
        assert breaker.allow(now=2.0)  # probe
        breaker.record_failure(now=2.0)  # probe fails: cooldown doubles
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow(now=5.9)  # 2.0 + 4.0 = 6.0
        assert breaker.allow(now=6.0)
        breaker.record_success()
        assert breaker.cooldown == config.breaker_cooldown  # reset on recovery


class TestPeerHealth:
    def _steady(self, config=None, latency=1.0, count=None):
        config = config or HealthConfig()
        peer = PeerHealth(config)
        for _ in range(count if count is not None else config.min_samples):
            peer.observe_success(latency)
        return peer

    def test_phi_is_zero_below_min_samples(self):
        peer = PeerHealth(HealthConfig(min_samples=5))
        for _ in range(4):
            peer.observe_success(1.0)
        assert peer.phi(100.0) == 0.0
        assert peer.deadline() == peer.config.max_deadline

    def test_phi_grows_with_improbability(self):
        peer = self._steady(latency=1.0)
        assert peer.phi(0.5) == 0.0  # faster than the model: never suspect
        assert peer.phi(1.0) == 0.0  # at the mean
        slow, slower = peer.phi(1.5), peer.phi(3.0)
        assert 0.0 < slow < slower

    def test_adaptive_deadline_tracks_the_history(self):
        config = HealthConfig(deadline_sigmas=4.0)
        fast = self._steady(config, latency=0.1)
        slow = self._steady(config, latency=10.0)
        assert fast.deadline() < slow.deadline() <= config.max_deadline
        # The std floor (10% of the mean) makes the steady-history
        # deadline mean * (1 + sigmas / 10).
        assert fast.deadline() == pytest.approx(0.1 * 1.4)

    def test_timeouts_accrue_suspicion_and_feed_the_breaker(self):
        peer = PeerHealth(HealthConfig(timeout_suspicion=3.0, breaker_failures=2))
        peer.observe_timeout(now=0.0)
        assert peer.suspicion == 3.0
        assert peer.breaker.state == CircuitBreaker.CLOSED
        peer.observe_timeout(now=0.0)
        assert peer.suspicion == 6.0
        assert peer.breaker.state == CircuitBreaker.OPEN

    def test_weight_is_one_while_quiet_then_decays_to_a_floor(self):
        peer = PeerHealth(HealthConfig(quiet_suspicion=1.0, min_weight=0.05))
        assert peer.weight() == 1.0
        peer.suspicion = 1.0
        assert peer.weight() == 1.0  # at the threshold: still quiet
        peer.suspicion = 2.0
        assert peer.weight() == pytest.approx(0.5)
        peer.suspicion = 100.0
        assert peer.weight() == 0.05  # the floor: never zero

    def test_success_decays_suspicion(self):
        peer = PeerHealth(HealthConfig(decay=0.5))
        peer.suspicion = 4.0
        peer.observe_success(1.0)
        assert peer.suspicion == 2.0


class TestHealthMonitor:
    def test_peers_materialize_lazily(self):
        monitor = HealthMonitor(seed=1)
        assert monitor.peers == {}
        assert monitor.allow(7, now=0.0)  # unknown peer: no state created
        assert monitor.deadline(7) == monitor.config.max_deadline
        assert monitor.peers == {}
        monitor.observe_success(7, 0.5)
        assert list(monitor.peers) == [7]

    def test_select_fast_path_consumes_no_rng(self):
        monitor = HealthMonitor(seed=3)
        before = monitor.rng.getstate()
        assert monitor.select([0, 1, 2], initiator=0, drawn=2) == 2
        assert monitor.rng.getstate() == before
        assert monitor.redraws == 0

    def test_select_redraws_away_from_suspects_but_never_excommunicates(self):
        monitor = HealthMonitor(config=HealthConfig(min_weight=0.05), seed=3)
        monitor.peer(1).suspicion = 50.0  # weight floored at 0.05
        picks = [monitor.select([0, 1, 2], initiator=0, drawn=1) for _ in range(400)]
        assert monitor.redraws > 0
        assert picks.count(1) < 100  # strongly steered away...
        assert 1 in picks  # ...but still reachable
        assert 0 not in picks  # the initiator is never drawn

    def test_breaker_refusals_are_counted(self):
        monitor = HealthMonitor(config=HealthConfig(breaker_failures=1), seed=0)
        monitor.observe_timeout(4, now=0.0)
        assert not monitor.allow(4, now=0.0)
        assert monitor.breaker_skips == 1

    def test_decay_round_forgives(self):
        monitor = HealthMonitor(config=HealthConfig(decay=0.5), seed=0)
        monitor.peer(2).suspicion = 8.0
        monitor.decay_round()
        assert monitor.peer(2).suspicion == 4.0

    def test_hedge_candidate_is_the_healthiest_non_excluded_peer(self):
        monitor = HealthMonitor(seed=0)
        monitor.peer(1).suspicion = 9.0
        monitor.peer(3).suspicion = 2.0
        # Peers 2 and 4 are untracked (weight 1.0); lowest index wins ties.
        assert monitor.hedge_candidate([0, 1, 2, 3, 4], exclude=(0, 2)) == 4
        assert monitor.hedge_candidate([0, 1], exclude=(0, 1)) is None

    def test_counters_and_table_shapes(self):
        monitor = HealthMonitor(seed=0)
        monitor.observe_success(0, 0.2)
        monitor.observe_timeout(1, now=1.0)
        counters = monitor.counters()
        assert counters["peers_tracked"] == 2
        assert counters["sessions_observed"] == 1
        assert counters["timeouts"] == 1
        rows = monitor.table()
        assert [row["peer"] for row in rows] == [0, 1]
        assert rows[0]["samples"] == 1
        assert rows[0]["circuit"] == CircuitBreaker.CLOSED
        assert rows[1]["timeouts"] == 1


class TestDegradation:
    def test_plan_validation(self):
        with pytest.raises(FaultInjectionError):
            DegradationPlan(slow_fraction=1.5)
        with pytest.raises(FaultInjectionError):
            DegradationPlan(slow_factor=(0.5, 2.0))
        with pytest.raises(FaultInjectionError):
            DegradationPlan(slow_factor=(3.0, 2.0))
        with pytest.raises(FaultInjectionError):
            DegradationPlan(stuck_seconds=0.0)
        with pytest.raises(FaultInjectionError):
            DegradationPlan(throttle_windows=((5.0, 4.0, 2.0),))
        with pytest.raises(FaultInjectionError):
            DegradationPlan(throttle_windows=((0.0, 1.0, 0.5),))

    def test_resolution_is_seeded_and_deterministic(self):
        plan = DegradationPlan.grey(slow_fraction=0.4)
        ids = [f"n{i}" for i in range(10)]
        first = plan.resolve(ids, seed=42)
        second = plan.resolve(ids, seed=42)
        assert first.degraded_nodes() == second.degraded_nodes()
        assert len(first.degraded_nodes()) == 4
        assert first.factors == second.factors
        assert all(10.0 <= f <= 100.0 for f in first.factors.values())
        other = plan.resolve(ids, seed=43)
        assert (
            other.degraded_nodes() != first.degraded_nodes()
            or other.factors != first.factors
        )

    def test_shape_leg_scales_by_the_slower_endpoint(self):
        state = DegradationPlan(slow_fraction=0.5, slow_factor=(8.0, 8.0)).resolve(
            ["a", "b"], seed=0
        )
        (degraded,) = state.degraded_nodes()
        healthy = "a" if degraded == "b" else "b"
        assert state.shape_leg(degraded, healthy, 1.0, now=0.0) == pytest.approx(8.0)
        assert state.shape_leg(healthy, degraded, 1.0, now=0.0) == pytest.approx(8.0)
        assert state.shape_leg(healthy, healthy, 1.0, now=0.0) == pytest.approx(1.0)

    def test_throttle_windows_multiply_inside_the_window_only(self):
        plan = DegradationPlan(throttle_windows=((10.0, 20.0, 4.0),))
        state = plan.resolve(["a"], seed=0)
        assert state.throttle_divisor(9.9) == 1.0
        assert state.throttle_divisor(10.0) == 4.0
        assert state.throttle_divisor(20.0) == 1.0

    def test_flapping_links_wait_for_the_next_up_phase(self):
        plan = DegradationPlan(
            slow_fraction=1.0,
            slow_factor=(1.0, 1.0),
            flap_fraction=1.0,
            flap_period=2.0,
            flap_duty=0.5,
        )
        state = plan.resolve(["a", "b"], seed=1)
        phase = state.flap_phase["a"]
        # Aligned so the cycle starts now: up for 1s, down for 1s.
        start = 2.0 - phase
        assert state.flap_wait("a", start) == 0.0
        down = start + 1.5  # mid down-phase: wait for the cycle to end
        assert state.flap_wait("a", down) == pytest.approx(0.5)

    def test_stuck_hang_only_draws_on_degraded_endpoints(self):
        plan = DegradationPlan(slow_fraction=0.5, stuck_rate=1.0, stuck_seconds=7.0)
        state = plan.resolve(["a", "b"], seed=0)
        (degraded,) = state.degraded_nodes()
        healthy = "a" if degraded == "b" else "b"
        before = state.rng.getstate()
        assert state.stuck_hang(healthy, healthy) == 0.0
        assert state.rng.getstate() == before  # healthy legs cost no RNG
        assert state.stuck_hang(degraded, healthy) == 7.0
        assert state.stuck_legs == 1
        assert state.stuck_seconds_total == 7.0

    def test_transport_charges_hangs_and_drops_the_leg(self):
        plan = FaultPlan(
            degradation=DegradationPlan(
                slow_fraction=1.0,
                slow_factor=(1.0, 1.0),
                stuck_rate=1.0,
                stuck_seconds=5.0,
            )
        )
        transport = FaultyTransport(FullyConnectedNetwork(), plan=plan, seed=0)
        transport.ensure_degradation(["a", "b"])
        delivered = transport.transfer_batch("a", "b", [(0, b"payload")])
        assert delivered == []
        assert transport.take_pending_hang() == 5.0
        assert transport.take_pending_hang() == 0.0  # charged exactly once


def _digest(nodes):
    return [
        (node.node_id, key, sorted(repr(value) for value in node.store.get(key)))
        for node in nodes
        for key in sorted(node.store.keys())
    ]


def _drive(nodes, link, deadline, link_seed=1):
    """Run one session between the two nodes; returns (job, virtual time)."""
    first, second = nodes
    session = AsyncWireSyncEngine().session(first.store, second.store)
    job = Job(((first.node_id, 0), (second.node_id, 0)), session, deadline=deadline)
    interpreter = Interpreter(link=link, link_rng=random.Random(link_seed))
    interpreter.submit(job)
    return job, interpreter.run()


class TestDeadlineDriving:
    def test_session_timeout_rolls_both_replicas_back(self):
        nodes, _ = build_cluster(2, keys=3, seed=11)
        before = _digest(nodes)
        job, elapsed = _drive(nodes, LinkProfile(latency=1.0), deadline=0.5)
        assert _digest(nodes) == before  # never half-merges
        error = job.result
        assert isinstance(error, SessionTimeout)
        assert error.initiator == nodes[0].node_id
        assert error.peer == nodes[1].node_id
        assert elapsed == pytest.approx(0.5)  # the timeout costs honest time

    def test_generous_deadline_completes_normally(self):
        nodes, _ = build_cluster(2, keys=3, seed=11)
        job, _ = _drive(nodes, LinkProfile(latency=0.01), deadline=100.0)
        assert job.result is not None
        assert not isinstance(job.result, SessionTimeout)
        assert _digest([nodes[0]]) != []

    def test_abortable_equals_plain_session_outcome(self):
        plain_nodes, _ = build_cluster(2, keys=3, seed=21)
        bounded_nodes, _ = build_cluster(2, keys=3, seed=21)
        _drive(plain_nodes, LinkProfile(), deadline=None, link_seed=2)
        _drive(bounded_nodes, LinkProfile(), deadline=1e9, link_seed=2)
        assert _digest(plain_nodes) == _digest(bounded_nodes)

    def test_queued_session_reports_only_its_wire_time(self):
        # Two sessions share peer 1's slot; the second waits out the first.
        # The accrual model must see each session's own wire time, not the
        # queueing delay in front of it (which would make a busy but
        # healthy cluster look grey).
        nodes, _ = build_cluster(3, keys=3, seed=4)
        service = AntiEntropyService(
            nodes,
            link=LinkProfile(latency=1.0),
            health=HealthConfig(min_deadline=1e9, max_deadline=1e9),
        )
        report = service.run(schedule=[[(0, 1), (2, 1)]], until_converged=False)
        first, second = service.health.peer(1).history
        assert 0 < first <= 2.0 and 0 < second <= 2.0  # at most two 1s legs
        # Serialized on the shared slot, the round lasts both sessions, yet
        # the queued one reported only its own legs.
        assert report.rounds[0].virtual_duration == pytest.approx(first + second)


class TestServiceGreyIntegration:
    def test_grey_cluster_converges_with_health_and_hedging(self):
        plan = FaultPlan(degradation=DegradationPlan.grey(slow_fraction=0.3))
        nodes, _ = build_cluster(8, keys=4, seed=7)
        transport = FaultyTransport(nodes[0].network, plan=plan, seed=7)
        service = AntiEntropyService(
            nodes,
            engine=AsyncWireSyncEngine(transport=transport),
            link=LinkProfile(latency=0.05),
            seed=7,
            health=HealthConfig(min_samples=3),
            hedge=True,
        )
        report = service.run(max_rounds=60)
        assert report.converged_after is not None
        assert report.health is not None
        assert service.degradation is not None
        assert service.degradation.degraded_nodes()

    def test_timeouts_surface_in_round_metrics_and_report(self):
        plan = FaultPlan(degradation=DegradationPlan.grey(slow_fraction=0.5))
        nodes, _ = build_cluster(6, keys=4, seed=3)
        transport = FaultyTransport(nodes[0].network, plan=plan, seed=3)
        service = AntiEntropyService(
            nodes,
            engine=AsyncWireSyncEngine(transport=transport),
            link=LinkProfile(latency=0.05),
            seed=3,
            health=HealthConfig(min_samples=3, max_deadline=1.0),
        )
        report = service.run(max_rounds=30, until_converged=False)
        assert report.total_timeouts > 0
        assert report.health["timeouts"] == report.total_timeouts
        data = report.as_dict()
        assert data["totals"]["timeouts"] == report.total_timeouts
        assert data["health"]["timeouts"] == report.total_timeouts
