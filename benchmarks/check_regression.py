"""Fail CI when a fresh perf snapshot regresses below the committed floors.

Compares two ``BENCH_ops.json`` files -- the committed snapshot (the floor)
and a freshly measured one -- on ten tracked ratios:

* ``join_normalize[<frontier>].speedup_vs_reference`` (packed stamp core vs
  the text-based seed implementation), at frontier 32 by default;
* ``lockstep.speedup_vs_refhistory`` (bitset oracle + incremental lockstep
  cross-check vs the retained frozenset oracle + seed full-rescan strategy);
* ``reroot.speedup_vs_raw`` (Section 7 re-rooting GC vs raw reducing stamps
  on a sibling-starved sync chain);
* ``codec.envelope_vs_json_roundtrip`` (a version-stamp frontier
  round-tripped through the kernel's binary wire envelope vs through the
  JSON codec);
* ``replication.batched_vs_per_envelope`` (steady-state anti-entropy
  rounds/sec with the batched stream sync engine vs the per-envelope
  baseline, version-stamp family at 32 replicas);
* ``chaos.convergence_efficiency`` (fault-free rounds-to-convergence over
  rounds-to-convergence under the 10%-loss fault matrix -- a deterministic
  seeded count ratio, so any drift at all is a real behaviour change in
  the retry/skip machinery, not noise);
* ``health.grey_resilience`` (virtual time for a degraded seeded run with
  the accrual health layer *off* over the same run with detection,
  adaptive deadlines, circuit breakers and hedging *on* -- a
  deterministic virtual-time ratio measuring how much simulated time the
  defensive layer claws back from grey failures);
* ``scale.convergence_efficiency`` (log2(replicas) over the async
  service's rounds-to-convergence at 10^4 simulated replicas -- epidemic
  gossip converges in ~log2(N) rounds, and this deterministic ratio
  drops when the datacenter-scale service starts wasting rounds);
* ``contracts.check_vs_compare`` (per-spec causal ordering contract
  check evaluations/sec over the bare tracker comparison each check
  wraps, both arms in-process on a converged population -- the floor
  pins the enforcement layer's per-comparison overhead);
* ``durability.durable_vs_memory_sync`` (write-churn anti-entropy
  rounds/sec with journaling on over journaling off -- the committed
  floor enforces the <= 10% journaling-overhead budget of the durable
  store design).

Ratios rather than absolute ops/sec are checked because both sides of each
ratio run on the same machine in the same process, so the ratio is stable
across runner hardware while absolute throughput is not.  For the seven
timed ratios a tolerance (default 30%) absorbs scheduler noise on shared CI
runners: the check fails only when ``fresh < committed * (1 - tolerance)``.
The three deterministic ratios (chaos, health and scale) are seeded counts
and virtual times, so they are compared exactly instead: the check fails
when one moves more than a relative 1e-6 from the committed value, in
either direction.  A PR that changes one on purpose commits the new value
and says why.

A top-level section *wholly absent from the committed snapshot* is skipped
with a note instead of failing: the committed file predates the section,
which is exactly the state of the first PR introducing a new benchmark (the
chicken-and-egg this rule breaks).  Everything else stays strict: a section
that is present but malformed errors, a ratio absent from the *fresh*
snapshot errors (that is a benchmark disappearing, not appearing), and a
committed snapshot with none of the tracked sections fails outright
(an empty or corrupted floor file must not wave CI through).

Usage::

    python benchmarks/check_regression.py BENCH_ops.json BENCH_quick.json
    python benchmarks/check_regression.py floor.json fresh.json --tolerance 0.3

Exit status 0 when every ratio holds, 1 on regression or missing data.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

DEFAULT_TOLERANCE = 0.30
JOIN_NORMALIZE_FRONTIER = "32"

#: Ratios of seeded counts and virtual times: bit-identical across machines
#: and runs, so any drift is a behaviour change, not noise.
DETERMINISTIC_RATIOS = frozenset(
    {
        "chaos.convergence_efficiency",
        "health.grey_resilience",
        "scale.convergence_efficiency",
    }
)
#: Relative drift allowed on a deterministic ratio: room for last-digit
#: float differences between platforms, far below any behaviour change.
DETERMINISTIC_TOLERANCE = 1e-6

#: Sections whose floors are already committed.  These may never be
#: skipped: deleting one from the committed snapshot must fail the check,
#: otherwise a regressing PR could disable its own floor by dropping the
#: section.  The new-section skip below applies only to sections *not*
#: listed here (i.e. benchmarks newer than this file).  When a new section
#: lands, add it to this set in the same PR that commits its first floor.
ESTABLISHED_SECTIONS = frozenset(
    {
        "join_normalize",
        "lockstep",
        "reroot",
        "codec",
        "replication",
        "chaos",
        "health",
        "scale",
        "contracts",
        "durability",
    }
)


def _load(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read snapshot {path}: {exc}", file=sys.stderr)
        return None


def _ratio(data, label, *keys):
    """Fetch a nested float or report what is missing/malformed."""
    node = data
    for key in keys:
        if not isinstance(node, dict) or key not in node:
            print(
                f"error: {label} snapshot has no {'.'.join(keys)} entry "
                f"(stale schema? regenerate with perf_snapshot.py)",
                file=sys.stderr,
            )
            return None
        node = node[key]
    if not isinstance(node, (int, float)) or isinstance(node, bool):
        print(f"error: {label} {'.'.join(keys)} is not a number", file=sys.stderr)
        return None
    return float(node)


def check(committed, fresh, *, tolerance=DEFAULT_TOLERANCE):
    """Return True when every tracked ratio holds.

    A timed ratio holds within ``tolerance`` below its floor; a
    deterministic ratio holds when it matches its committed value.
    """
    ok = True
    skipped = 0
    tracked = (
        ("join_normalize", JOIN_NORMALIZE_FRONTIER, "speedup_vs_reference"),
        ("lockstep", "speedup_vs_refhistory"),
        ("reroot", "speedup_vs_raw"),
        ("codec", "envelope_vs_json_roundtrip"),
        ("replication", "batched_vs_per_envelope"),
        ("chaos", "convergence_efficiency"),
        ("health", "grey_resilience"),
        ("scale", "convergence_efficiency"),
        ("contracts", "check_vs_compare"),
        ("durability", "durable_vs_memory_sync"),
    )
    for keys in tracked:
        name = ".".join(keys)
        if (
            isinstance(committed, dict)
            and keys[0] not in committed
            and keys[0] not in ESTABLISHED_SECTIONS
        ):
            # Newly-added bench section: there is no committed floor yet, so
            # there is nothing to regress against.  Skipping (instead of
            # failing) lets the PR that introduces the section also commit
            # its first floor.  Only a *wholly absent*, not-yet-established
            # top-level section qualifies -- a present-but-malformed one and
            # a deleted established one still error below.
            print(f"skip: committed snapshot has no {name} (new section)")
            skipped += 1
            continue
        floor = _ratio(committed, "committed", *keys)
        value = _ratio(fresh, "fresh", *keys)
        if floor is None or value is None:
            ok = False
            continue
        if name in DETERMINISTIC_RATIOS:
            if math.isclose(value, floor, rel_tol=DETERMINISTIC_TOLERANCE):
                print(f"ok: {name} = {value!r} (deterministic, committed {floor!r})")
            else:
                print(
                    f"CHANGED: {name} = {value!r}, committed {floor!r}: a "
                    f"deterministic ratio moved by more than a relative "
                    f"{DETERMINISTIC_TOLERANCE:g} (a behaviour change; commit "
                    f"the new value in the PR that explains it)"
                )
                ok = False
            continue
        allowed = floor * (1.0 - tolerance)
        if value < allowed:
            print(
                f"REGRESSION: {name} = {value:.2f}x, below the committed "
                f"floor {floor:.2f}x - {tolerance:.0%} tolerance "
                f"(= {allowed:.2f}x)"
            )
            ok = False
        else:
            print(
                f"ok: {name} = {value:.2f}x (floor {floor:.2f}x, "
                f"allowed >= {allowed:.2f}x)"
            )
    if skipped == len(tracked):
        # Every tracked section "new" means the committed snapshot is empty
        # or corrupted, not newer than one benchmark -- fail loudly rather
        # than waving CI through with no floor enforced at all.
        print(
            "error: committed snapshot has none of the tracked sections "
            "(corrupted floor file? regenerate with perf_snapshot.py)",
            file=sys.stderr,
        )
        return False
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("committed", help="committed BENCH_ops.json (the floor)")
    parser.add_argument("fresh", help="freshly measured snapshot to validate")
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help=(
            "allowed fractional drop of a timed ratio below its floor "
            "(default: 0.30); deterministic ratios must match exactly"
        ),
    )
    args = parser.parse_args(argv)

    committed = _load(args.committed)
    fresh = _load(args.fresh)
    if committed is None or fresh is None:
        return 1
    return 0 if check(committed, fresh, tolerance=args.tolerance) else 1


if __name__ == "__main__":
    raise SystemExit(main())
