"""Scale smokes: the service drives large populations to convergence.

The unmarked test keeps a 2,000-replica run in the everyday suite; the
``scale``-marked test is the 10^4-replica acceptance smoke (also soaked
in its own CI job).  Epidemic gossip converges in O(log N) rounds, so
both bounds are generous.
"""

import math

import pytest

from repro.service import AntiEntropyService, LinkProfile, build_cluster


def _converge(replicas, *, shards, max_rounds):
    nodes, keys = build_cluster(replicas, keys=4, seed=0)
    service = AntiEntropyService(
        nodes,
        shards=shards,
        seed=0,
        link=LinkProfile(latency=0.001, bandwidth=1e9, jitter=0.1),
    )
    report = service.run(max_rounds=max_rounds)
    assert report.converged_after is not None, (
        f"{replicas} replicas not converged within {max_rounds} rounds"
    )
    assert service.converged()
    # Epidemic spread: convergence within a small multiple of log2(N).
    assert report.converged_after <= 4 * math.log2(replicas)
    assert report.total_bytes > 0
    assert report.virtual_seconds > 0
    return report


def test_two_thousand_replicas_converge():
    report = _converge(2_000, shards=2, max_rounds=48)
    assert report.replicas == 2_000


@pytest.mark.scale
def test_ten_thousand_replicas_converge():
    report = _converge(10_000, shards=4, max_rounds=64)
    assert report.replicas == 10_000
    # Seeded, so exact: 9 rounds, log2(10^4) / 9 = 1.48 doublings of the
    # informed population per round.  A later round means the service
    # started wasting rounds.
    assert report.converged_after == 9
    # The run must be virtual-time cheap: sub-second simulated convergence
    # at millisecond link latency, regardless of wall-clock cost.
    assert report.virtual_seconds < 1.0
