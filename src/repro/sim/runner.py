"""Lockstep execution of one trace against every causality mechanism.

Proposition 5.1 is an equivalence between the orders induced by causal
histories and by version stamps *for the same system execution*.  The
:class:`LockstepRunner` makes that statement executable: it replays a single
:class:`~repro.sim.trace.Trace` simultaneously against the causal-history
oracle and any set of mechanism adapters, and after every step compares each
mechanism's pairwise ordering of the current frontier with the oracle's.

The adapters live in :mod:`repro.kernel.adapters`, and every one replays
the trace through :func:`~repro.sim.trace.apply_operation`.  The generic
:class:`~repro.kernel.adapters.KernelClockAdapter` drives any registered
clock family through the kernel protocol alone, so one lockstep replay
doubles as a cross-family comparison matrix; it shares one
:class:`~repro.kernel.adapters.ClockAdapter` replay with the ITC, plausible
and Lamport adapters.

The per-mechanism :class:`AgreementReport` records exact agreement counts
plus the two interesting error kinds: *missed conflicts* (mechanism says
ordered, oracle says concurrent -- expected only for plausible clocks) and
*false conflicts* (the reverse).  Size statistics are collected at the same
time so a single trace replay feeds both the correctness and the space
experiments.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.errors import SimulationError
from ..core.order import Ordering
from ..kernel import adapters as _adapters
from .trace import Operation, Trace

__all__ = [
    "AgreementReport",
    "SizeSample",
    "LockstepRunner",
]


@dataclass
class AgreementReport:
    """How one mechanism's frontier order compares with the oracle's."""

    mechanism: str
    comparisons: int = 0
    agreements: int = 0
    missed_conflicts: int = 0
    false_conflicts: int = 0
    other_disagreements: int = 0
    invariant_failures: int = 0

    @property
    def agreement_rate(self) -> float:
        """Fraction of pairwise comparisons that matched the oracle exactly."""
        if self.comparisons == 0:
            return 1.0
        return self.agreements / self.comparisons

    def record(self, oracle: Ordering, observed: Ordering) -> None:
        """Fold one pairwise comparison into the report."""
        self.comparisons += 1
        if oracle is observed:
            self.agreements += 1
        elif oracle is Ordering.CONCURRENT and observed is not Ordering.CONCURRENT:
            self.missed_conflicts += 1
        elif oracle is not Ordering.CONCURRENT and observed is Ordering.CONCURRENT:
            self.false_conflicts += 1
        else:
            self.other_disagreements += 1

    def __str__(self) -> str:
        return (
            f"{self.mechanism}: {self.agreements}/{self.comparisons} agree "
            f"({self.agreement_rate:.1%}), missed={self.missed_conflicts}, "
            f"false={self.false_conflicts}, other={self.other_disagreements}, "
            f"invariant failures={self.invariant_failures}"
        )


@dataclass
class SizeSample:
    """Metadata-size statistics of one mechanism over one trace replay."""

    mechanism: str
    per_step_mean_bits: List[float] = field(default_factory=list)
    per_step_max_bits: List[int] = field(default_factory=list)

    def record(self, sizes: Sequence[int]) -> None:
        """Record the per-element sizes observed after one trace step."""
        if not sizes:
            return
        self.per_step_mean_bits.append(sum(sizes) / len(sizes))
        self.per_step_max_bits.append(max(sizes))

    @property
    def final_mean_bits(self) -> float:
        """Mean element size after the last step (0.0 for empty traces)."""
        return self.per_step_mean_bits[-1] if self.per_step_mean_bits else 0.0

    @property
    def peak_bits(self) -> int:
        """Largest single element observed anywhere in the trace."""
        return max(self.per_step_max_bits, default=0)

    @property
    def overall_mean_bits(self) -> float:
        """Mean of the per-step means (a trace-level size summary)."""
        if not self.per_step_mean_bits:
            return 0.0
        return statistics.fmean(self.per_step_mean_bits)


class LockstepRunner:
    """Replay one trace against the oracle and a set of mechanisms.

    Parameters
    ----------
    adapters:
        Mechanisms to compare against the causal-history oracle; defaults to
        :func:`repro.kernel.adapters.default_adapters`.  Pass
        :func:`repro.kernel.adapters.kernel_adapters` to compare every
        registered clock family through the kernel protocol instead.
    oracle:
        The oracle adapter to cross-check against; defaults to the
        bitset-backed :class:`~repro.kernel.adapters.CausalAdapter`.  Pass
        :class:`~repro.kernel.adapters.RefCausalAdapter` to run against the
        retained frozenset implementation (used by the differential tests
        and the lockstep benchmark).
    compare_every_step:
        When ``True`` (default) the full pairwise ordering of the frontier is
        cross-checked after every operation; when ``False`` only after the
        final operation (cheaper for very long traces).
    check_invariants:
        When ``True`` each adapter's self-check runs after every step.
    incremental:
        When ``True`` (default) the pairwise-comparison caches are kept
        *incrementally*: only canonical ``(min, max)`` pairs are stored (the
        mirror ordering is derived with :meth:`Ordering.flipped`), a
        ``label -> cached pairs`` reverse index makes each operation's
        invalidation O(pairs actually touched), and the per-step refill only
        walks pairs involving labels produced since the last cross-check.
        When ``False`` the runner uses the retained seed strategy -- a full
        O(F²) matrix rescan per operation and a full alive×alive refill per
        cross-check -- kept as the baseline for the lockstep benchmark and
        the differential tests.  Both strategies produce identical
        :class:`AgreementReport`/:class:`SizeSample` results: only the
        oracle's mirror ordering is derived with :meth:`Ordering.flipped`
        (valid for a preorder by construction); each mechanism under test is
        still *measured* in both argument orders, so a direction-inconsistent
        ``compare`` is caught under either strategy.

    Notes
    -----
    Invalidation runs on every operation even when ``compare_every_step`` is
    off, so a cache can never serve a pair whose labels were consumed and
    recycled (e.g. by a relabelling ``sync``) between cross-checks.
    """

    def __init__(
        self,
        adapters: Optional[Sequence["_adapters.MechanismAdapter"]] = None,
        *,
        oracle: Optional["_adapters.MechanismAdapter"] = None,
        compare_every_step: bool = True,
        check_invariants: bool = True,
        incremental: bool = True,
    ) -> None:
        self.oracle = oracle if oracle is not None else _adapters.CausalAdapter()
        self.adapters: List["_adapters.MechanismAdapter"] = (
            list(adapters) if adapters is not None else _adapters.default_adapters()
        )
        self._compare_every_step = compare_every_step
        self._check_invariants = check_invariants
        self._incremental = incremental

    def run(self, trace: Trace) -> Tuple[Dict[str, AgreementReport], Dict[str, SizeSample]]:
        """Replay ``trace``; return per-mechanism agreement and size reports."""
        names = [adapter.name for adapter in self.adapters] + [self.oracle.name]
        if len(set(names)) != len(names):
            raise SimulationError(
                f"adapter names must be unique (reports and comparison caches "
                f"are keyed by them): {sorted(names)}"
            )
        reports = {
            adapter.name: AgreementReport(adapter.name) for adapter in self.adapters
        }
        sizes = {adapter.name: SizeSample(adapter.name) for adapter in self.adapters}
        sizes[self.oracle.name] = SizeSample(self.oracle.name)

        self.oracle.start(trace.seed)
        for adapter in self.adapters:
            adapter.start(trace.seed)

        # Per-mechanism pairwise-comparison caches.  Each trace operation
        # removes and creates a handful of elements; every other pair's
        # comparison is unchanged, so with per-step cross-checking the work
        # per step drops from O(F²) comparisons to O(F) fresh ones.  In
        # incremental mode the cache is keyed by canonical (min, max) pairs
        # and a reverse index (label -> cached pairs) bounds invalidation;
        # in seed mode it is keyed by ordered (x, y) pairs and rescanned.
        self._matrices = {self.oracle.name: {}}
        self._pair_index: Dict[str, Dict[str, set]] = {self.oracle.name: {}}
        for adapter in self.adapters:
            self._matrices[adapter.name] = {}
            self._pair_index[adapter.name] = {}
        # Labels produced since the last cross-check.  Any canonical pair
        # missing from a matrix involves one of them (invalidation only
        # drops pairs whose endpoints died or were re-produced), so the
        # incremental refill walks fresh × alive instead of alive × alive.
        self._fresh_labels = {trace.seed}

        steps = list(trace.operations)
        for index, operation in enumerate(steps):
            self.oracle.apply(operation)
            for adapter in self.adapters:
                adapter.apply(operation)
            self._invalidate_matrices(operation)
            last_step = index == len(steps) - 1
            if self._compare_every_step or last_step:
                self._cross_check(reports, sizes)
        if not steps:
            self._cross_check(reports, sizes)
        return reports, sizes

    def _invalidate_matrices(self, operation: Operation) -> None:
        """Drop cached comparisons involving the labels an operation touched."""
        dirty = set(operation.results)
        dirty.add(operation.source)
        if operation.other is not None:
            dirty.add(operation.other)
        if self._incremental:
            self._fresh_labels.difference_update(dirty)
            self._fresh_labels.update(operation.results)
            # Reverse-index invalidation: O(cached pairs touching a dirty
            # label).  A pair lives in both endpoints' buckets; the partner
            # bucket is cleaned lazily (its matrix.pop is a no-op later),
            # which keeps the hot path to one dict pop per dirty label.
            for name, matrix in self._matrices.items():
                index = self._pair_index[name]
                for label in dirty:
                    pairs = index.pop(label, None)
                    if pairs:
                        for pair in pairs:
                            matrix.pop(pair, None)
        else:
            # Seed strategy: rescan every cached pair of every matrix.
            for matrix in self._matrices.values():
                stale = [
                    pair for pair in matrix if pair[0] in dirty or pair[1] in dirty
                ]
                for pair in stale:
                    del matrix[pair]

    def _fill_oracle_matrix(self, labels: List[str]) -> Dict:
        """Bring the oracle's comparison cache up to date for ``labels``."""
        oracle_matrix = self._matrices[self.oracle.name]
        if not self._incremental:
            # Seed strategy: rescan alive × alive, both directions.
            for x in labels:
                for y in labels:
                    if x != y and (x, y) not in oracle_matrix:
                        oracle_matrix[(x, y)] = self.oracle.compare(x, y)
            return oracle_matrix
        # Incremental: only pairs involving a label produced since the last
        # cross-check can be missing; store the canonical direction only.
        fresh = [label for label in labels if label in self._fresh_labels]
        if fresh:
            table = self.oracle.comparison_table()
            index = self._pair_index[self.oracle.name]
            oracle = self.oracle
            for x in fresh:
                for y in labels:
                    if x == y:
                        continue
                    pair = (x, y) if x < y else (y, x)
                    if pair not in oracle_matrix:
                        if table is not None:
                            ordering = table[pair[0]].compare(table[pair[1]])
                        else:
                            ordering = oracle.compare(pair[0], pair[1])
                        oracle_matrix[pair] = ordering
                        index.setdefault(pair[0], set()).add(pair)
                        index.setdefault(pair[1], set()).add(pair)
        self._fresh_labels.clear()
        return oracle_matrix

    def _cross_check(
        self,
        reports: Dict[str, AgreementReport],
        sizes: Dict[str, SizeSample],
    ) -> None:
        labels = self.oracle.labels()
        oracle_matrix = self._fill_oracle_matrix(labels)
        sizes[self.oracle.name].record(
            [self.oracle.size_in_bits(label) for label in labels]
        )

        incremental = self._incremental
        for adapter in self.adapters:
            adapter_labels = set(adapter.labels())
            if adapter_labels != set(labels):
                raise SimulationError(
                    f"{adapter.name} diverged from the oracle: frontier "
                    f"{sorted(adapter_labels)} vs {sorted(labels)}"
                )
            report = reports[adapter.name]
            matrix = self._matrices[adapter.name]
            index = self._pair_index[adapter.name]
            if incremental:
                # Canonical pairs, but both directions are *measured* on the
                # mechanism under test (a direction-inconsistent compare must
                # not be masked by deriving the mirror with flipped()); only
                # the oracle side, a preorder by construction, is flipped.
                for pair, oracle_ordering in oracle_matrix.items():
                    observed = matrix.get(pair)
                    if observed is None:
                        observed = (
                            adapter.compare(pair[0], pair[1]),
                            adapter.compare(pair[1], pair[0]),
                        )
                        matrix[pair] = observed
                        index.setdefault(pair[0], set()).add(pair)
                        index.setdefault(pair[1], set()).add(pair)
                    report.record(oracle_ordering, observed[0])
                    report.record(oracle_ordering.flipped(), observed[1])
            else:
                for pair, oracle_ordering in oracle_matrix.items():
                    observed = matrix.get(pair)
                    if observed is None:
                        observed = adapter.compare(*pair)
                        matrix[pair] = observed
                    report.record(oracle_ordering, observed)
            if self._check_invariants and not adapter.check_invariants():
                report.invariant_failures += 1
            sizes[adapter.name].record(
                [adapter.size_in_bits(label) for label in labels]
            )
