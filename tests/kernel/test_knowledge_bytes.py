"""``KernelClock.knowledge_bytes``: equal bytes mean ``compare()`` is EQUAL.

The wire session's digest leg settles a key when the two replicas'
digests match, without shipping or comparing the trackers.  That is sound
only if equal knowledge bytes (same family and epoch) imply that the two
clocks compare EQUAL, for every family.  The property below replays random
fork/event/join/sync histories and checks it over every pair of live
clocks after every step; forks, which share knowledge, keep it from being
vacuous.
"""

import pytest
from hypothesis import given, settings

from repro import kernel
from repro.core.order import Ordering
from repro.sim.trace import apply_operation
from repro.testing import trace_operations

FAMILIES = kernel.families()


class _Replay:
    """Label-addressed kernel clocks, driven by ``apply_operation``."""

    def __init__(self, family, seed_label):
        self.live = {seed_label: kernel.make(family)}

    def update(self, source, result):
        self.live[result] = self.live.pop(source).event()

    def fork(self, source, left, right):
        self.live[left], self.live[right] = self.live.pop(source).fork()

    def join(self, source, other, result):
        self.live[result] = self.live.pop(source).join(self.live.pop(other))

    def sync(self, source, other, left, right):
        joined = self.live.pop(source).join(self.live.pop(other))
        self.live[left], self.live[right] = joined.fork()


def _check_live_pairs(live):
    clocks = list(live.values())
    equal_pairs = 0
    for i, mine in enumerate(clocks):
        for theirs in clocks[i + 1 :]:
            if mine.knowledge_bytes() == theirs.knowledge_bytes():
                equal_pairs += 1
                assert mine.compare(theirs) is Ordering.EQUAL
                assert theirs.compare(mine) is Ordering.EQUAL
    return equal_pairs


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=60, deadline=None)
@given(trace=trace_operations(max_operations=18, max_frontier=5))
def test_equal_knowledge_bytes_compare_equal(family, trace):
    replay = _Replay(family, trace.seed)
    _check_live_pairs(replay.live)
    for operation in trace.operations:
        apply_operation(replay, operation)
        _check_live_pairs(replay.live)
    # Forks with no event between them share their knowledge bytes.
    label, clock = sorted(replay.live.items())[0]
    left, right = clock.fork()
    assert left.knowledge_bytes() == right.knowledge_bytes() == clock.knowledge_bytes()
    replay.live[label] = left
    replay.live[f"{label}'"] = right
    assert _check_live_pairs(replay.live) >= 1


@pytest.mark.parametrize("family", FAMILIES)
def test_an_event_changes_the_knowledge_bytes(family):
    left, right = kernel.make(family).fork()
    assert left.knowledge_bytes() == right.knowledge_bytes()
    newer = left.event()
    assert newer.knowledge_bytes() != right.knowledge_bytes()
    assert newer.compare(right) is Ordering.AFTER


def test_version_stamp_knowledge_is_the_update_component_alone():
    # Identities differ after a fork, knowledge does not: the full
    # payloads differ while the knowledge bytes match.
    left, right = kernel.make("version-stamp").event().fork()
    assert left.payload_bytes() != right.payload_bytes()
    assert left.knowledge_bytes() == right.knowledge_bytes()


@pytest.mark.parametrize("family", FAMILIES)
def test_knowledge_bytes_are_cached(family):
    clock = kernel.make(family).event()
    assert clock.knowledge_bytes() is clock.knowledge_bytes()
