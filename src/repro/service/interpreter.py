"""The discrete-event interpreter that drives sync sessions on virtual time.

A :meth:`~repro.replication.synchronizer.WireSyncEngine.session` generator
performs every state mutation, RNG draw and meter update of one pairwise
sync itself and yields a :class:`~repro.replication.synchronizer.
TransferEffect` or :class:`~repro.replication.synchronizer.SleepEffect`
wherever a real network would spend time.  Driving thousands of sessions
on a simulated clock therefore only means deciding *when* each effect
happens, and that takes three small pieces:

* **The heap** of ``(virtual_time, seq, job)`` entries.  Popping an entry
  sets :attr:`Interpreter.now` and resumes the job; ``seq`` breaks ties in
  FIFO order, so a run is a deterministic function of its inputs, and an
  hour of virtual time costs one heap entry per wait, not an hour.
* **Slots instead of locks.**  Each (replica, shard) slot is a FIFO queue
  of jobs whose head holds the slot.  A job starts only when it heads the
  queues of both its slots, so sessions touching the same replica's shard
  run one at a time and in submission order, nothing waits while holding
  a slot, and jobs on disjoint slots overlap freely.
* **One effect-step function**, :meth:`Interpreter._step`.  It prices a
  transfer leg with the link model, the grey shaping and the hang of a
  stuck leg (which rides the leg's effect), or waits out a retry backoff.
  A job with a deadline whose next wait would cross it spends only what
  is left of the budget, then has
  :class:`~repro.replication.synchronizer.SessionAbort` thrown into its
  session -- which rolls both replicas back -- and ends with a typed
  :class:`~repro.core.errors.SessionTimeout`.

The interpreter reads effects and nothing else: it never calls the
transport, and it counts no messages.  It keeps the price of every leg
it waited out in :attr:`Interpreter.leg_latencies`, for the run that
owns it to report.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from itertools import count
from typing import Deque, Dict, Hashable, List, Optional, Tuple

from ..core.errors import SessionTimeout
from ..replication.degradation import DegradationState
from ..replication.synchronizer import SessionAbort, SleepEffect, TransferEffect
from .links import LinkProfile

__all__ = ["Interpreter", "Job"]

#: A (replica, shard) pair; a job holds one per session endpoint.
Slot = Tuple[Hashable, int]


class Job:
    """One session that holds two slots from its start to its end.

    ``slots`` are the initiator's and the peer's (replica, shard) pairs;
    their replica halves name the endpoints of a timeout.  Subclasses
    override :meth:`open` to build the session only once both slots are
    held, and :meth:`close` to act on :attr:`result`: the session's return
    value, ``None`` when :meth:`open` had nothing to run, or a
    :class:`~repro.core.errors.SessionTimeout`.
    """

    __slots__ = ("slots", "session", "deadline", "started", "overdue", "result")

    def __init__(
        self,
        slots: Tuple[Slot, Slot],
        session=None,
        *,
        deadline: Optional[float] = None,
    ) -> None:
        self.slots = slots
        self.session = session
        #: Virtual seconds the session may run, measured from :attr:`started`.
        self.deadline = deadline
        #: Virtual time the job acquired its slots (``None`` while queued).
        self.started: Optional[float] = None
        #: Set when the deadline falls inside the wait in progress.
        self.overdue = False
        self.result = None

    def open(self):
        """The session generator to run, or ``None`` to end at once."""
        return self.session

    def close(self, interpreter: "Interpreter") -> None:
        """Called once the job ended; its slots are free again."""


class Interpreter:
    """Runs jobs on a virtual clock that starts at ``0.0``.

    ``link`` and ``link_rng`` price transfer legs; the RNG is the
    caller's own, never the transport's fault RNG, so link timing cannot
    shift a fault schedule.  ``degradation`` adds grey shaping.  Every
    leg's price is appended to :attr:`leg_latencies`.
    """

    def __init__(
        self,
        *,
        link: Optional[LinkProfile] = None,
        link_rng: Optional[random.Random] = None,
        degradation: Optional[DegradationState] = None,
    ) -> None:
        self.now = 0.0
        self.link = link if link is not None else LinkProfile()
        self.link_rng = link_rng if link_rng is not None else random.Random(0)
        self.degradation = degradation
        #: Virtual seconds of every transfer leg priced so far, in order.
        self.leg_latencies: List[float] = []
        self._heap: List[Tuple[float, int, Job]] = []
        self._seq = count()
        self._queues: Dict[Slot, Deque[Job]] = {}

    def submit(self, job: Job) -> None:
        """Queue ``job`` on its slots; it starts once it heads both."""
        queues = self._queues
        ready = True
        for slot in job.slots:
            queue = queues.get(slot)
            if queue is None:
                queues[slot] = deque((job,))
            else:
                queue.append(job)
                ready = False
        if ready:
            self._push(self.now, job)

    def run(self) -> float:
        """Run until no job is left; returns the virtual time reached."""
        heap = self._heap
        while heap:
            self.now, _, job = heapq.heappop(heap)
            self._step(job)
        return self.now

    def _push(self, when: float, job: Job) -> None:
        heapq.heappush(self._heap, (when, next(self._seq), job))

    def _step(self, job: Job) -> None:
        """Resume ``job`` until its next wait is scheduled or it ends."""
        if job.started is None:
            job.started = self.now
            job.session = job.open()
            if job.session is None:
                return self._finish(job, None)
        elif job.overdue:
            # The deadline landed inside the last wait, which spent what
            # was left of the budget.  The generator restores both
            # replicas before the abort propagates, so a timed-out
            # session never half-merges.
            try:
                job.session.throw(SessionAbort())
            except (SessionAbort, StopIteration):
                pass
            (initiator, _), (peer, _) = job.slots
            timeout = SessionTimeout(
                initiator, peer, job.deadline, self.now - job.started
            )
            return self._finish(job, timeout)
        session, deadline = job.session, job.deadline
        while True:
            try:
                effect = next(session)
            except StopIteration as stop:
                return self._finish(job, stop.value)
            kind = type(effect)
            if kind is TransferEffect:
                wait = self.link.leg_delay(effect.nbytes, self.link_rng)
                if self.degradation is not None:
                    wait = self.degradation.shape_leg(
                        effect.source, effect.destination, wait, now=self.now
                    )
                if effect.hang:
                    # A stuck leg: nothing was delivered, and the session
                    # pays the hang time on top of the leg's price.
                    wait += effect.hang
                self.leg_latencies.append(wait)
            elif kind is SleepEffect:
                wait = effect.seconds
            else:
                wait = 0.0
            if deadline is not None:
                remaining = deadline - (self.now - job.started)
                if wait >= remaining:
                    job.overdue = True
                    return self._push(self.now + max(remaining, 0.0), job)
            if wait > 0:
                return self._push(self.now + wait, job)

    def _finish(self, job: Job, result) -> None:
        """End ``job``: free its slots, close it, start the new heads."""
        job.result = result
        queues = self._queues
        heads: List[Job] = []
        for slot in job.slots:
            queue = queues[slot]
            queue.popleft()
            if not queue:
                del queues[slot]
            elif queue[0] not in heads:
                heads.append(queue[0])
        job.close(self)
        for head in heads:
            if all(queues[slot][0] is head for slot in head.slots):
                self._push(self.now, head)
