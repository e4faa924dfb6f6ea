"""The names ``perfbench/`` patches, reads and calls still exist.

``perfbench/tracing.py`` measures layers by rebinding attributes of the
program from outside it, and ``perfbench/workloads.py`` builds its
workloads through store and service entry points.  A refactor that
renames one of them would otherwise fail only the benchmark's own smoke
job.  The modules are loaded by file path, unedited.
"""

import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

from repro import kernel
from repro.durability.log import DurableLog
from repro.replication import KeepBoth, KernelTracker
from repro.replication.synchronizer import WireSyncEngine
from repro.service import AsyncWireSyncEngine

ROOT = Path(__file__).resolve().parents[2]
PERFBENCH = ROOT / "perfbench"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def perfbench():
    """``(tracing, workloads)``, each registered in ``sys.modules`` first."""
    loaded = {}
    for name in ("tracing", "workloads"):
        module_name = f"_perfbench_{name}"
        spec = importlib.util.spec_from_file_location(
            module_name, PERFBENCH / f"{name}.py"
        )
        module = importlib.util.module_from_spec(spec)
        # workloads.py's dataclasses look their module up by name.
        sys.modules[module_name] = module
        spec.loader.exec_module(module)
        loaded[name] = module
    yield loaded["tracing"], loaded["workloads"]
    for name in loaded:
        sys.modules.pop(f"_perfbench_{name}", None)


def _patched_names(tracing):
    return [(owner, attribute) for owner, attribute, _ in tracing.SPANS] + [
        (WireSyncEngine, "session"),
        (DurableLog, "append"),
        (KeepBoth, "resolve"),
    ]


def test_every_patch_target_is_defined_on_its_owner(perfbench):
    tracing, _ = perfbench
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attribute}"
        for owner, attribute in _patched_names(tracing)
        if attribute not in vars(owner)
    ]
    assert not missing


def test_the_tracer_restores_every_original(perfbench):
    tracing, _ = perfbench
    names = _patched_names(tracing)
    originals = [vars(owner)[attribute] for owner, attribute in names]
    with tracing.Tracer():
        patched = [vars(owner)[attribute] for owner, attribute in names]
    assert all(new is not old for new, old in zip(patched, originals))
    restored = [vars(owner)[attribute] for owner, attribute in names]
    assert all(new is old for new, old in zip(restored, originals))


#: One pass of each workload at sub-seed 1001: the final state digest's
#: first 16 hex digits, bytes sent, operations attempted and failed.
SAME_WORK = {
    "converge-service": ("32077444849e6a3c", 618818, 48000, 0),
    "churn-chaos": ("79d2ef7469439d7c", 1675204, 1648, 3),
    "durable-recover": ("6b3927f1c93a6124", 2270476, 1576, 0),
    "grey-service": ("310f6155221dc451", 781624, 2896, 785),
}


def test_every_workload_builds_digests_and_closes(perfbench, tmp_path):
    """Each workload builds, runs one pass and does the same work as before.

    A refactor that keeps behaviour keeps every value in
    :data:`SAME_WORK`.  A deliberate behaviour change updates them in its
    own change and records old -> new in CHANGES.md.
    """
    _, workloads = perfbench
    assert set(workloads.WORKLOADS) == set(SAME_WORK)
    for name in workloads.WORKLOADS:
        workdir = tmp_path / name
        workdir.mkdir()
        workload = workloads.build(name, 1001, str(workdir))
        try:
            assert re.fullmatch(r"[0-9a-f]{64}", workload.digest())
            sample = workloads.Sample()
            workload.run(sample)
            assert not sample.problems
            done = (
                workload.digest()[:16],
                sample.bytes_sent,
                sample.attempted,
                sample.failed,
            )
        finally:
            workload.close()
        assert done == SAME_WORK[name], (
            f"{name} did different work at sub-seed 1001: {done} != "
            f"{SAME_WORK[name]}.  A change to either gossip driver's peer "
            f"draw moves these values and re-rolls the grey soak's seed, "
            f"which can trip defect (a), the version-stamp overflow in "
            f"tests/service/test_grey_soak.py."
        )


@pytest.mark.parametrize(
    "name", [workload["name"] for workload in BENCHMARK["workloads"]]
)
def test_the_tracer_reads_every_layer_metric(perfbench, tmp_path, name):
    # The traced step reads engine counters (``intern``,
    # ``equal_cache_hits`` among them) that only the benchmark uses.
    tracing, workloads = perfbench
    workload = workloads.build(name, 1001, str(tmp_path))
    try:
        metrics, _ = tracing.layer_metrics(
            tracing.Tracer(), workload, tracing.engine_counters(workload), 1.0
        )
    finally:
        workload.close()
    # 55 of the 56 declared per-layer metrics: run.py adds
    # trace.overhead_s across passes.
    declared = {metric["name"] for metric in BENCHMARK["per_layer"]}
    assert set(metrics) == declared - {"trace.overhead_s"}


@pytest.mark.parametrize("family", kernel.families())
def test_the_factory_alias_builds_seed_clocks(family):
    assert KernelTracker.factory(family)() == kernel.make(family)


def test_the_service_engine_alias_is_the_wire_engine():
    assert AsyncWireSyncEngine is WireSyncEngine
