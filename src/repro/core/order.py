"""Ordering vocabulary shared by every causality mechanism in the library.

Section 2 of the paper distinguishes three situations when comparing two
coexisting (frontier) elements:

* **Equivalence** -- both have seen exactly the same updates.
* **Obsolescence** -- one has seen all the updates of the other and at least
  one more (the other is *obsolete*, the first *dominates*).
* **Mutual inconsistency** -- each has seen at least one update the other has
  not (they are *concurrent* / in conflict).

:class:`Ordering` encodes the four possible outcomes of an asymmetric
comparison ``compare(a, b)`` and every mechanism in the library (version
stamps, causal histories, version vectors, dynamic version vectors, interval
tree clocks) reports its comparisons with it, which is what lets the lockstep
simulation runner check that they agree.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional, TypeVar

__all__ = ["Ordering", "ordering_from_leq", "ordering_from_sets"]

T = TypeVar("T")


class Ordering(enum.Enum):
    """Result of comparing two versions ``a`` and ``b``.

    The values describe ``a`` relative to ``b``.
    """

    #: ``a`` and ``b`` have seen exactly the same updates.
    EQUAL = "equal"
    #: ``a`` is strictly dominated by ``b`` (``a`` is obsolete relative to ``b``).
    BEFORE = "before"
    #: ``a`` strictly dominates ``b`` (``b`` is obsolete relative to ``a``).
    AFTER = "after"
    #: ``a`` and ``b`` are mutually inconsistent (concurrent, in conflict).
    CONCURRENT = "concurrent"

    def flipped(self) -> "Ordering":
        """The result of the comparison with the arguments swapped."""
        if self is Ordering.BEFORE:
            return Ordering.AFTER
        if self is Ordering.AFTER:
            return Ordering.BEFORE
        return self

    @property
    def is_ordered(self) -> bool:
        """True when the two versions are causally related (not concurrent)."""
        return self is not Ordering.CONCURRENT

    @property
    def dominates(self) -> bool:
        """True when ``a`` has seen every update of ``b`` (EQUAL or AFTER)."""
        return self in (Ordering.EQUAL, Ordering.AFTER)

    @property
    def dominated(self) -> bool:
        """True when ``b`` has seen every update of ``a`` (EQUAL or BEFORE)."""
        return self in (Ordering.EQUAL, Ordering.BEFORE)

    @property
    def shortfall(self) -> Optional[str]:
        """How ``a`` fails to dominate ``b``, if it does.

        ``None`` when ``a`` dominates ``b``; ``"stale"`` when ``a`` is
        strictly dominated (it has seen only a causal prefix of ``b``'s
        updates); ``"concurrent"`` when each has seen an update the other
        missed.  The contract checker reports it as *why* an ordering
        contract failed.
        """
        if self is Ordering.EQUAL or self is Ordering.AFTER:
            return None
        return "stale" if self is Ordering.BEFORE else "concurrent"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def ordering_from_leq(a: T, b: T, leq: Callable[[T, T], bool]) -> Ordering:
    """Derive an :class:`Ordering` from a pre-order predicate ``leq``.

    ``leq(x, y)`` must return ``True`` iff ``x`` is dominated by ``y`` (has
    seen no update that ``y`` has not).  Every mechanism whose comparison is
    a pre-order can reuse this helper.
    """
    forward = leq(a, b)
    backward = leq(b, a)
    if forward and backward:
        return Ordering.EQUAL
    if forward:
        return Ordering.BEFORE
    if backward:
        return Ordering.AFTER
    return Ordering.CONCURRENT


def ordering_from_sets(a: frozenset, b: frozenset) -> Ordering:
    """Derive an :class:`Ordering` from two sets of update events.

    This is the causal-history comparison of Section 2: set equality,
    strict inclusion either way, or incomparability.
    """
    if a == b:
        return Ordering.EQUAL
    if a < b:
        return Ordering.BEFORE
    if a > b:
        return Ordering.AFTER
    return Ordering.CONCURRENT
