"""Wall-clock, layer-attributed benchmark of the replicated version-stamp store.

Run from the repository root::

    python3 perfbench/run.py --workload converge-service --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

One single-threaded process runs the named workload (or all four) as a
closed loop: an unmeasured warm-up pass, then measured passes until
``--seconds`` have elapsed.  Pass ``i`` is built from the sub-seed
``seed * 1000 + i``, so one seed always yields the same inputs, and the
first measured pass repeats the warm-up's inputs: its final state digest
must be identical.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
sub-seed twice, untraced then traced, demands identical digests, and
reports the per-layer metrics, the tracing overhead (traced minus
untraced ``wall_s``) and the share of traced ``wall_s`` the layer self
times cover, which must reach 95%.  Every metric is printed by name with
its unit; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")

WORKLOAD_NAMES = ("converge-service", "churn-chaos", "durable-recover", "grey-service")
SUBSEEDS = 1000
MIN_PASSES = 2
MIN_COVERAGE = 0.95
#: Nominal duration of one calibration probe: reported times are measured
#: times scaled by this over the pass's mean probe duration.
REFERENCE_PROBE_S = 0.001

#: Reported with ``--trace 0``; each applies to every workload.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("round_p50_ms", "ms"),
    ("bytes_per_key_replica", "B"),
    ("peak_rss_mb", "MB"),
)


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples)``.  Below 21 samples that
    percentile would fall under the median, so the median is reported.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count < 21:
        return median(ordered), 50.0, count
    return ordered[count - 11], 100.0 * (count - 10) / count, count


def machine():
    return (
        f"nproc={os.cpu_count()} python={platform.python_version()} "
        f"platform={platform.platform()}"
    )


class Run:
    """What one workload's run measured and which checks failed."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.setups = []
        self.samples = []
        #: Per pass: reference probe time over measured probe time.
        self.speed = []
        self.peak_rss_mb = 0.0
        self.layers = []
        self.overheads = []
        self.problems = []
        self.attempted = 0
        self.errors = 0


def measure_pass(workloads, tracing, name, seed, workdir, tracer=None):
    """Build, run and digest one pass.

    Returns ``(setup_s, sample, digest, layer metrics or None)``.
    """
    gc.collect()
    began = time.perf_counter()
    workload = workloads.build(name, seed, workdir)
    setup_s = time.perf_counter() - began
    sample = workloads.Sample()
    try:
        if tracer is None:
            sample.calibrate = workload.PROBES_PER_ROUND
            began = time.perf_counter()
            workload.run(sample)
            sample.wall_s = time.perf_counter() - began - sum(sample.probes_s)
            layers = None
        else:
            before = tracing.engine_counters(workload)
            with tracer:
                began = time.perf_counter()
                workload.run(sample)
                sample.wall_s = time.perf_counter() - began
            layers = tracing.layer_metrics(tracer, workload, before, sample.wall_s)
        digest = workload.digest()
    finally:
        workload.close()
    return setup_s, sample, digest, layers


def run_workload(name, seed, seconds, trace, workdir, outdir):
    import tracing
    import workloads

    run = Run(name)

    def record(pass_seed, setup_s, sample):
        run.setups.append(setup_s)
        run.samples.append(sample)
        run.speed.append(REFERENCE_PROBE_S / statistics.mean(sample.probes_s))
        run.attempted += sample.attempted
        run.problems.extend(f"seed {pass_seed}: {p}" for p in sample.problems)
        run.errors += len(sample.problems)

    try:
        _, warm, reference, _ = measure_pass(
            workloads, tracing, name, seed * SUBSEEDS, workdir
        )
        run.problems.extend(f"warm-up: {problem}" for problem in warm.problems)
        started = time.perf_counter()
        index = 0
        while index < MIN_PASSES or time.perf_counter() - started < seconds:
            pass_seed = seed * SUBSEEDS + index
            setup_s, sample, digest, _ = measure_pass(
                workloads, tracing, name, pass_seed, workdir
            )
            record(pass_seed, setup_s, sample)
            if index == 0:
                # Taken before later passes can fragment the heap, so it
                # does not depend on how many passes the run fits in.
                run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                if digest != reference:
                    run.problems.append("the same seed ended in a different state digest")
            if trace:
                tracer = tracing.Tracer()
                _, traced, traced_digest, layers = measure_pass(
                    workloads, tracing, name, pass_seed, workdir, tracer
                )
                run.attempted += traced.attempted
                if traced_digest != digest:
                    run.problems.append(f"seed {pass_seed}: tracing changed the state")
                run.layers.append(layers + (traced.wall_s,))
                run.overheads.append(traced.wall_s - sample.wall_s)
            index += 1
        if trace:
            os.makedirs(outdir, exist_ok=True)
            tracer.write(os.path.join(outdir, f"{name}-seed{seed}.spans.tsv.gz"))
    except Exception:  # the harness reports a crashed pass and keeps going
        traceback.print_exc()
        run.errors += 1
        run.problems.append(f"an exception escaped a pass of {name}")
    return run


def end_to_end(run):
    """Calibrated end-to-end metrics, and the extras printed beside them."""
    samples, speed = run.samples, run.speed

    def pooled(field):
        return [
            value * factor
            for sample, factor in zip(samples, speed)
            for value in getattr(sample, field)
        ]

    metrics = {
        "setup_s": median([s * f for s, f in zip(run.setups, speed)]),
        "wall_s": median([s.wall_s * f for s, f in zip(samples, speed)]),
        "round_p50_ms": median(pooled("rounds_ms")),
        "bytes_per_key_replica": median(
            [sample.bytes_sent / sample.key_replicas for sample in samples]
        ),
        "peak_rss_mb": run.peak_rss_mb,
    }
    extra = [
        ("wall_raw_s", median([sample.wall_s for sample in samples]), "s", "uncalibrated"),
        ("probe_ms", 1e3 * REFERENCE_PROBE_S / median(speed), "ms", "calibration probe"),
    ]
    value, percentile, count = tail(pooled("rounds_ms"))
    extra.append(("round_tail_ms", value, "ms", f"p{percentile:.1f} of {count}"))
    for label, unit, values in (
        ("session", "ms", pooled("sessions_ms")),
        ("write", "us", pooled("writes_us")),
        ("recover", "ms", pooled("recovers_ms")),
    ):
        if values:
            value, percentile, count = tail(values)
            extra.append((f"{label}_p50_{unit}", median(values), unit, ""))
            extra.append(
                (f"{label}_tail_{unit}", value, unit, f"p{percentile:.1f} of {count}")
            )
    attempted = sum(sample.attempted for sample in samples)
    failed = sum(sample.failed for sample in samples)
    extra.append(
        ("rounds_to_converge", median([s.rounds_to_converge for s in samples]), "rounds", "")
    )
    extra.append(("virtual_s", median([s.virtual_s for s in samples]), "s", ""))
    extra.append(
        ("fail_frac", failed / attempted if attempted else 0.0, "ratio",
         f"{failed} of {attempted} operations")
    )
    return metrics, extra


def report(run, seed, trace):
    """Print the run's metrics by name and unit; returns the JSON metrics."""
    print(f"# workload {run.name}  seed {seed}  passes {len(run.samples)}  trace {trace}")
    print(f"# machine {machine()}")
    if not run.samples:
        return {}
    metrics, extra = end_to_end(run)
    units = dict(END_TO_END)
    for name, unit in END_TO_END:
        print(f"{name} = {metrics[name]:.6g} {unit}")
    for name, value, unit, note in extra:
        print(f"{name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    if not trace:
        return {name: {"value": metrics[name], "unit": units[name]} for name in metrics}
    if not run.layers:
        return {}
    layered = {}
    for name, (_, unit) in run.layers[0][0].items():
        value = median([metrics[name][0] for metrics, _, _ in run.layers])
        layered[name] = {"value": value, "unit": unit}
    layered["trace.overhead_s"] = {"value": median(run.overheads), "unit": "s"}
    coverage = min(metrics["trace.coverage"][0] for metrics, _, _ in run.layers)
    if coverage < MIN_COVERAGE:
        run.problems.append(
            f"layer self times cover only {coverage:.1%} of traced wall_s"
        )
    for name, entry in layered.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print("# self-time share of traced wall_s, median over traced passes:")
    for layer in sorted({layer for _, own, _ in run.layers for layer in own}):
        share = median([own.get(layer, 0.0) / wall for _, own, wall in run.layers])
        print(f"share.{layer} = {share:.4f}")
    share = median([m["compact.s"][0] / wall for m, _, wall in run.layers])
    print(f"share.compact_inclusive = {share:.4f}")
    return layered


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        print(f"error: no program source at {SOURCE}", file=sys.stderr)
        return 2
    sys.path[:0] = [SOURCE, HERE]
    # Per process, so concurrent runs in one checkout never share files.
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    outdir = os.path.join(ROOT, ".perfbench_out")
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results, runs = {}, []
    try:
        for name in names:
            run = run_workload(name, args.seed, args.seconds, args.trace, workdir, outdir)
            runs.append(run)
            metrics = report(run, args.seed, args.trace)
            for problem in run.problems:
                print(f"FAILED {name}: {problem}")
            if len(names) == 1:
                results = metrics
            else:
                results.update(
                    {f"{name}/{metric}": entry for metric, entry in metrics.items()}
                )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:  # another run still holds its own directory there
            pass
    correct = all(not run.problems and run.samples for run in runs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(run.attempted for run in runs),
        "failed": sum(run.errors for run in runs),
        "metrics": results,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
