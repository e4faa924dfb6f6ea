"""Repros of the defects found while sizing the benchmark workloads.

Run from the repository root::

    python3 perfbench/defects.py

Each check prints whether its defect still reproduces; the exit code is
the number that do.  The workloads in ``workloads.py`` are sized so that
none of them is tripped; once a defect is fixed its repro reports
``fixed`` and the workload may grow past it.
"""

from __future__ import annotations

import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from repro.core.errors import EncodingError, StampError  # noqa: E402
from repro.replication import (  # noqa: E402
    FullyConnectedNetwork,
    KernelTracker,
    MobileNode,
    WireSyncEngine,
)
from repro.service import AntiEntropyService, LinkProfile, build_cluster  # noqa: E402

import workloads  # noqa: E402

FAMILIES = ("version-stamp", "itc", "vv-dynamic", "causal-history")


def defect_a() -> str:
    """Write churn with auto-compaction overflows a 16-bit length prefix.

    ``compact_key`` syncs every key of the store through one hub,
    2 x (holders - 1) times per compacted key, so keys still waiting for
    their own compaction in the same sweep grow multiplicatively.  At 16
    replicas the churn-chaos schedule of seed 106 raises ``EncodingError``
    from the hub syncs.
    """

    class Sixteen(workloads.ChurnChaos):
        REPLICAS = 16
        WRITE_ROUNDS = 24

    try:
        Sixteen(106, "").run(workloads.Sample())
    except EncodingError as error:
        return f"reproduced: EncodingError({error})"
    return "fixed"


def defect_b() -> str:
    """A fresh write to a never-held key compares EQUAL to a replicated copy.

    Replica ``b`` writes key ``k`` without ever having held it, then syncs
    with ``c``, which holds a copy replicated from ``a``'s own first write.
    Both lineages start from the family's seed clock, so over the wire the
    two trackers compare EQUAL and the differing values are never merged.
    """
    found = []
    for family in FAMILIES:
        network = FullyConnectedNetwork()
        a = MobileNode.first("a", network, tracker_factory=KernelTracker.factory(family))
        b, c = a.spawn_peer("b"), a.spawn_peer("c")
        engine = WireSyncEngine()
        a.write("k", "from a")
        engine.sync(a.store, c.store)
        b.write("k", "from b")
        for _ in range(3):
            engine.sync(b.store, c.store)
        if b.read("k") != c.read("k"):
            found.append(family)
    itc = []
    network = FullyConnectedNetwork()
    a = MobileNode.first("a", network, tracker_factory=KernelTracker.factory("itc"))
    b, c = a.spawn_peer("b"), a.spawn_peer("c")
    a.write("k", "from a")
    a.store.sync_with(c.store)
    b.write("k", "from b")
    try:
        b.store.sync_with(c.store)
    except StampError as error:
        itc.append(f"in-memory itc raises StampError({error})")
    if not found and not itc:
        return "fixed"
    return f"reproduced: values differ after wire syncs for {found}; " + "; ".join(itc)


def defect_c() -> str:
    """Concurrent service writes to one key end EQUAL with different siblings.

    Two writers that both hold every key write the same keys while a
    clean service gossips.  Some replicas finish with an extra sibling that
    the others dropped, while their trackers compare EQUAL, so anti-entropy
    never converges.  Writers that own disjoint keys are not affected.
    """
    nodes, keys = build_cluster(200, keys=4, family="vv-dynamic", seed=3, writes_per_key=0)
    for key in keys:
        nodes[0].write(key, f"{key}@seed")
    AntiEntropyService(nodes, seed=3).run(max_rounds=64)
    service = AntiEntropyService(nodes, link=LinkProfile(latency=0.001), seed=3)
    ops = random.Random(5)

    def write(metrics):
        for index in range(2):
            writer = nodes[ops.randrange(2)]
            writer.write(keys[ops.randrange(len(keys))], f"r{metrics.number}w{index}")

    service.run(max_rounds=12, until_converged=False, on_round=write)
    if service.run(max_rounds=64).converged_after is not None:
        return "fixed"
    for key in keys:
        held = {}
        for node in nodes:
            held.setdefault(tuple(sorted(map(repr, node.read(key)))), node)
        if len(held) > 1:
            first, second = list(held.values())[:2]
            relation = first.store.tracker_of(key).compare(second.store.tracker_of(key))
            return (
                f"reproduced: {key} holds {len(held)} sibling sets after 64 "
                f"settle rounds; {first.node_id} vs {second.node_id} compare "
                f"{relation.name}"
            )
    return "reproduced: no convergence within 64 settle rounds"


def main() -> int:
    reproduced = 0
    for check in (defect_a, defect_b, defect_c):
        outcome = check()
        reproduced += outcome != "fixed"
        print(f"{check.__name__}: {outcome}")
    return reproduced


if __name__ == "__main__":
    sys.exit(main())
