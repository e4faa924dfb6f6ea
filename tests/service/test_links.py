"""Tests for the link timing model (:mod:`repro.service.links`)."""

import random

import pytest

from repro.service import LinkProfile


@pytest.mark.parametrize(
    "overrides",
    [{"latency": -0.1}, {"bandwidth": 0.0}, {"jitter": -0.5}],
)
def test_invalid_values_rejected(overrides):
    with pytest.raises(ValueError):
        LinkProfile(**overrides)


def test_a_leg_costs_latency_plus_serialization():
    link = LinkProfile(latency=0.25, bandwidth=1000.0)
    assert link.leg_delay(500, random.Random(0)) == pytest.approx(0.75)
    assert LinkProfile().leg_delay(10**9, random.Random(0)) == 0.0


def test_jitter_stays_within_its_fraction_and_replays():
    link = LinkProfile(latency=1.0, jitter=0.5)
    first = [link.leg_delay(0, random.Random(9)) for _ in range(3)]
    rng = random.Random(3)
    delays = [link.leg_delay(0, rng) for _ in range(200)]
    assert all(1.0 <= delay < 1.5 for delay in delays)
    assert len(set(delays)) > 1
    assert first == [link.leg_delay(0, random.Random(9)) for _ in range(3)]


def test_zero_latency_draws_nothing_from_the_rng():
    rng = random.Random(4)
    LinkProfile(jitter=0.3, bandwidth=10.0).leg_delay(20, rng)
    assert rng.random() == random.Random(4).random()
