"""Tests for the discrete-event interpreter (:mod:`repro.service.interpreter`)."""

import ast
import random
import time
from pathlib import Path

import pytest

import repro
from repro.core.errors import SessionTimeout
from repro.replication.synchronizer import SessionAbort, SleepEffect, TransferEffect
from repro.service import Interpreter, Job, LinkProfile


def sleeps(*seconds):
    """A stand-in session that waits out each of ``seconds`` in turn."""
    for wait in seconds:
        yield SleepEffect(wait)
    return "done"


class Recorded(Job):
    """A job that logs ``(name, started, ended)`` when it ends."""

    def __init__(self, log, name, slots, *waits):
        super().__init__(slots, sleeps(*waits))
        self.log = log
        self.name = name

    def close(self, interpreter):
        self.log.append((self.name, self.started, interpreter.now))


def run_jobs(*jobs):
    interpreter = Interpreter()
    for job in jobs:
        interpreter.submit(job)
    return interpreter.run()


def test_an_hour_of_virtual_time_costs_under_a_second():
    began = time.monotonic()
    one_sleep = run_jobs(Job((("a", 0), ("b", 0)), sleeps(3600.0)))
    many_sleeps = run_jobs(Job((("a", 0), ("b", 0)), sleeps(*[0.5] * 7200)))
    assert time.monotonic() - began < 1.0
    assert one_sleep == pytest.approx(3600.0)
    assert many_sleeps == pytest.approx(3600.0)


def test_jobs_on_disjoint_slots_overlap():
    jobs = [Job(((f"a{i}", 0), (f"b{i}", 0)), sleeps(10.0)) for i in range(50)]
    # Fifty concurrent 10s sessions take 10 virtual seconds, not 500.
    assert run_jobs(*jobs) == pytest.approx(10.0)
    assert all(job.result == "done" for job in jobs)


def test_jobs_due_at_the_same_time_run_in_fifo_order():
    def trace():
        log = []
        run_jobs(
            Recorded(log, "c", (("c", 0), ("x", 0)), 0.3),
            Recorded(log, "a", (("a", 0), ("y", 0)), 0.1),
            Recorded(log, "b", (("b", 0), ("z", 0)), 0.2),
            Recorded(log, "a2", (("a2", 0), ("w", 0)), 0.1),
            *[Recorded(log, f"t{i}", ((f"t{i}", 0), ("u", i)), 1.0) for i in range(10)],
        )
        return log

    first = trace()
    assert first == trace()
    assert [name for name, _, _ in first] == (
        ["a", "a2", "b", "c"] + [f"t{i}" for i in range(10)]
    )


def test_jobs_sharing_a_slot_never_overlap():
    rng = random.Random(5)
    slots = [(replica, shard) for replica in range(6) for shard in range(2)]
    log = []
    jobs = []
    for index in range(60):
        first, second = rng.sample(range(6), 2)
        shard = rng.randrange(2)
        waits = [rng.choice([0.0, 0.5, 1.0, 2.5]) for _ in range(rng.randrange(3))]
        jobs.append(Recorded(log, index, ((first, shard), (second, shard)), *waits))
    run_jobs(*jobs)
    assert len(log) == len(jobs)
    spans = {name: (start, end) for name, start, end in log}
    for slot in slots:
        holders = [job.name for job in jobs if slot in job.slots]
        intervals = [spans[name] for name in holders]
        # Each slot serves its jobs one at a time, in submission order.
        for (_, end), (start, _) in zip(intervals, intervals[1:]):
            assert start >= end


def test_a_job_with_nothing_to_run_releases_its_slots():
    class Empty(Job):
        def open(self):
            return None

    empty = Empty((("a", 0), ("b", 0)))
    after = Job((("b", 0), ("c", 0)), sleeps(1.0))
    assert run_jobs(empty, after) == pytest.approx(1.0)
    assert empty.result is None
    assert after.started == 0.0


def test_the_clock_starts_at_zero():
    interpreter = Interpreter()
    assert interpreter.now == 0.0
    assert interpreter.run() == 0.0


def test_waits_within_one_session_accumulate():
    job = Job((("a", 0), ("b", 0)), sleeps(*[0.5] * 1000))
    assert run_jobs(job) == pytest.approx(500.0)


def test_the_session_return_value_becomes_the_job_result():
    job = Job((("a", 0), ("b", 0)), sleeps(1.0))
    run_jobs(job)
    assert job.result == "done"
    assert job.started == 0.0


def test_a_missed_deadline_spends_the_budget_then_aborts_the_session():
    aborted = []

    def session():
        try:
            yield SleepEffect(1.0)
            yield SleepEffect(5.0)
        except SessionAbort:
            aborted.append(True)
            raise
        return "done"

    job = Job((("a", 0), ("b", 0)), session(), deadline=3.0)
    assert run_jobs(job) == pytest.approx(3.0)
    assert aborted == [True]
    assert isinstance(job.result, SessionTimeout)
    assert (job.result.initiator, job.result.peer) == ("a", "b")


def test_a_queued_job_starts_when_the_holder_of_its_slot_ends():
    log = []
    holder = Recorded(log, "holder", (("a", 0), ("b", 0)), 2.0)
    queued = Recorded(log, "queued", (("b", 0), ("c", 0)), 1.0)
    other_shard = Recorded(log, "other", (("b", 1), ("c", 1)), 1.0)
    assert run_jobs(holder, queued, other_shard) == pytest.approx(3.0)
    assert log == [("other", 0.0, 1.0), ("holder", 0.0, 2.0), ("queued", 2.0, 3.0)]


def test_transfer_legs_are_priced_by_the_link_and_kept():
    def session():
        yield TransferEffect("a", "b", 1, 100)
        yield TransferEffect("b", "a", 1, 300, hang=5.0)

    interpreter = Interpreter(link=LinkProfile(latency=1.0, bandwidth=100.0))
    interpreter.submit(Job((("a", 0), ("b", 0)), session()))
    assert interpreter.run() == pytest.approx(11.0)
    # The stuck second leg pays its hang on top of its link price.
    assert interpreter.leg_latencies == pytest.approx([2.0, 9.0])


def test_close_may_submit_a_follow_up_job():
    log = []

    class Chained(Recorded):
        def close(self, interpreter):
            super().close(interpreter)
            interpreter.submit(Recorded(log, "follow-up", self.slots, 1.0))

    assert run_jobs(Chained(log, "first", (("a", 0), ("b", 0)), 2.0)) == pytest.approx(3.0)
    assert log == [("first", 0.0, 2.0), ("follow-up", 2.0, 3.0)]


def test_the_library_imports_no_asyncio():
    package = Path(repro.__file__).parent
    importers = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "asyncio" for name in names):
                importers.append(path.relative_to(package).as_posix())
    assert importers == []
