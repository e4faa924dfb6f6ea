"""Unit tests for the simulated network models."""

import random

import pytest

from repro.core.errors import ReplicationError
from repro.replication.network import (
    FullyConnectedNetwork,
    LatencyPercentiles,
    nearest_rank,
    NodePosition,
    PartitionSchedule,
    PartitionedNetwork,
    ProximityNetwork,
    ScheduledNetwork,
)
from repro.replication.synchronizer import RunReport


class TestFullyConnected:
    def test_everyone_talks_to_everyone(self):
        network = FullyConnectedNetwork()
        assert network.can_communicate("a", "b")
        assert network.partitions(["a", "b", "c"]) == [{"a", "b", "c"}]


class TestPartitionedNetwork:
    def test_same_partition_communicates(self):
        network = PartitionedNetwork([["a", "b"], ["c"]])
        assert network.can_communicate("a", "b")
        assert not network.can_communicate("a", "c")

    def test_unlisted_nodes_share_default_partition(self):
        network = PartitionedNetwork([["a", "b"]])
        assert network.can_communicate("x", "y")
        assert not network.can_communicate("a", "x")

    def test_self_communication_always_allowed(self):
        network = PartitionedNetwork([["a"], ["b"]])
        assert network.can_communicate("a", "a")

    def test_overlapping_partitions_rejected(self):
        with pytest.raises(ReplicationError):
            PartitionedNetwork([["a", "b"], ["b", "c"]])

    def test_heal_restores_connectivity(self):
        network = PartitionedNetwork([["a"], ["b"]])
        network.heal()
        assert network.can_communicate("a", "b")

    def test_set_partitions_replaces(self):
        network = PartitionedNetwork([["a"], ["b"]])
        network.set_partitions([["a", "b"]])
        assert network.can_communicate("a", "b")

    def test_partitions_grouping(self):
        network = PartitionedNetwork([["a", "b"], ["c", "d"]])
        groups = network.partitions(["a", "b", "c", "d"])
        assert {frozenset(group) for group in groups} == {
            frozenset({"a", "b"}),
            frozenset({"c", "d"}),
        }

    def test_partition_of(self):
        network = PartitionedNetwork([["a", "b"]])
        assert network.partition_of("a") == frozenset({"a", "b"})
        assert network.partition_of("z") is None

    def test_reachable_from(self):
        network = PartitionedNetwork([["a", "b"], ["c"]])
        assert network.reachable_from("a", ["b", "c"]) == {"b"}


class TestScheduledNetwork:
    def test_schedule_progression(self):
        schedule = PartitionSchedule(
            phases=[
                (2, [["a"], ["b"]]),
                (2, [["a", "b"]]),
            ]
        )
        network = ScheduledNetwork(schedule)
        assert not network.can_communicate("a", "b")
        network.advance(2)
        assert network.can_communicate("a", "b")

    def test_schedule_stays_in_last_phase(self):
        schedule = PartitionSchedule(phases=[(1, [["a"], ["b"]])])
        network = ScheduledNetwork(schedule)
        network.advance(10)
        assert not network.can_communicate("a", "b")
        assert network.time == 10

    def test_partitions_at(self):
        schedule = PartitionSchedule(phases=[(3, [["a"]]), (1, [["a", "b"]])])
        assert schedule.partitions_at(0) == [["a"]]
        assert schedule.partitions_at(3) == [["a", "b"]]
        assert schedule.partitions_at(99) == [["a", "b"]]


class TestProximityNetwork:
    def test_nodes_in_range_communicate(self):
        network = ProximityNetwork(arena=100, radio_range=10)
        network.add_node("a", NodePosition(0, 0))
        network.add_node("b", NodePosition(5, 0))
        network.add_node("c", NodePosition(50, 50))
        assert network.can_communicate("a", "b")
        assert not network.can_communicate("a", "c")

    def test_unknown_node_cannot_communicate(self):
        network = ProximityNetwork()
        network.add_node("a", NodePosition(0, 0))
        assert not network.can_communicate("a", "ghost")

    def test_position_of_unknown_node_raises(self):
        with pytest.raises(ReplicationError):
            ProximityNetwork().position_of("ghost")

    def test_mobility_changes_connectivity(self):
        network = ProximityNetwork(arena=100, radio_range=10)
        network.add_node("a", NodePosition(0, 0, dx=0, dy=0))
        network.add_node("b", NodePosition(30, 0, dx=-1, dy=0))
        assert not network.can_communicate("a", "b")
        network.advance(25)
        assert network.can_communicate("a", "b")

    def test_bounce_keeps_nodes_in_arena(self):
        position = NodePosition(1, 1, dx=-5, dy=-5)
        position.step(bounds=10)
        assert 0 <= position.x <= 10
        assert 0 <= position.y <= 10

    def test_random_positions_seeded(self):
        network = ProximityNetwork(rng=random.Random(7))
        network.add_node("a")
        assert 0 <= network.position_of("a").x <= 100

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ReplicationError):
            ProximityNetwork(arena=-1)
        with pytest.raises(ReplicationError):
            ProximityNetwork(radio_range=0)


class TestNearestRank:
    """Nearest-rank tail percentiles and the typed empty result."""

    def test_no_samples_give_a_typed_empty_result(self):
        result = nearest_rank([], (0.5, 0.9, 0.99))
        assert isinstance(result, LatencyPercentiles)
        assert result.empty
        assert result.samples == 0
        assert result == {0.5: 0.0, 0.9: 0.0, 0.99: 0.0}

    def test_single_sample_answers_every_quantile(self):
        result = nearest_rank([0.25], (0.01, 0.5, 0.99, 1.0))
        assert not result.empty
        assert result.samples == 1
        assert all(value == 0.25 for value in result.values())

    def test_p99_of_two_samples_is_the_larger(self):
        result = nearest_rank([0.1, 0.9], (0.5, 0.99))
        assert result.samples == 2
        assert result[0.5] == 0.1  # ceil(0.5 * 2) - 1 == 0
        assert result[0.99] == 0.9  # ceil(0.99 * 2) - 1 == 1

    def test_nearest_rank_on_a_known_population(self):
        result = nearest_rank([5.0, 1.0, 3.0, 2.0, 4.0], (0.5, 0.9, 0.99))
        assert result[0.5] == 3.0
        assert result[0.9] == 5.0
        assert result[0.99] == 5.0
        assert result.samples == 5

    def test_subscripting_stays_dict_compatible(self):
        result = nearest_rank([1.5], (0.5, 0.9, 0.99))
        assert result[0.5] == 1.5
        assert sorted(result) == [0.5, 0.9, 0.99]

    def test_a_run_report_ranks_its_own_legs(self):
        samples = [0.4, 0.1, 0.9, 0.3, 0.7, 0.2]
        report = RunReport(
            replicas=2, rounds=[], converged_after=None, leg_latencies=samples
        )
        quantiles = (0.1, 0.5, 0.9, 0.99)
        assert report.session_latency_percentiles(quantiles) == nearest_rank(
            samples, quantiles
        )
        assert report.session_latency_percentiles().samples == len(samples)
