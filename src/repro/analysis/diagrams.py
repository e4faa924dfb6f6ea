"""ASCII rendering of system evolutions, in the spirit of the paper's figures.

The paper communicates executions as diagrams: one horizontal line per
lineage, ``-Æ->`` arrows for updates, splits for forks and merges for joins,
with either version vectors (Figure 1) or version stamps (Figure 4) annotated
on every element.  :func:`render_trace` produces a textual approximation of
those diagrams for any :class:`~repro.sim.trace.Trace`, optionally annotating
every element with its version stamp, which makes traces self-explanatory in
examples, docs and debugging sessions.

The layout is deliberately simple: one row per element label, one column per
trace step; an element occupies the columns during which it is alive.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.frontier import Frontier
from ..sim.trace import OpKind, Trace, apply_operation

__all__ = ["render_trace", "trace_timeline"]


def trace_timeline(trace: Trace) -> List[Tuple[str, int, int, Optional[str]]]:
    """Compute, for every element of the trace, its lifetime and origin.

    Returns a list of ``(label, born_step, died_step, origin_label)`` tuples
    where steps index into ``trace.operations`` (birth step 0 is the seed;
    ``died_step`` is ``len(trace)`` for elements still alive at the end).
    """
    born: Dict[str, int] = {trace.seed: 0}
    died: Dict[str, int] = {}
    origin: Dict[str, Optional[str]] = {trace.seed: None}
    for index, operation in enumerate(trace.operations, start=1):
        for label in operation.consumed():
            died.setdefault(label, index)
        for label in operation.results:
            born.setdefault(label, index)
            origin.setdefault(label, operation.source)
    lifetimes = []
    for label, start in born.items():
        end = died.get(label, len(trace.operations) + 1)
        lifetimes.append((label, start, end, origin[label]))
    return lifetimes


def _annotations(trace: Trace, annotate: str) -> Dict[str, str]:
    """Compute the per-element annotation text (stamps or nothing)."""
    if annotate == "none":
        return {}
    frontier = Frontier.initial(trace.seed, reducing=annotate == "stamps")
    annotations = {trace.seed: str(frontier.stamp_of(trace.seed))}
    for operation in trace.operations:
        apply_operation(frontier, operation)
        for label in operation.results:
            annotations[label] = str(frontier.stamp_of(label))
    return annotations


def render_trace(trace: Trace, *, annotate: str = "stamps", width: int = 100) -> str:
    """Render ``trace`` as an ASCII diagram.

    Parameters
    ----------
    trace:
        The trace to render.
    annotate:
        ``"stamps"`` (reducing stamps, the default), ``"stamps-nonreducing"``
        or ``"none"``.
    width:
        Maximum line width; longer annotation columns are truncated.
    """
    if annotate not in ("stamps", "stamps-nonreducing", "none"):
        raise ValueError(f"unknown annotation mode {annotate!r}")
    annotations = _annotations(trace, annotate)

    lines: List[str] = []
    title = trace.name or "trace"
    lines.append(f"{title}  ({len(trace.operations)} operations)")
    lines.append("=" * min(width, max(len(lines[0]), 20)))

    lines.append(f"step  0: seed element {trace.seed}"
                 + (f"  {annotations.get(trace.seed, '')}" if annotations else ""))
    for index, operation in enumerate(trace.operations, start=1):
        if operation.kind == OpKind.UPDATE:
            arrow = f"{operation.source} --*--> {operation.results[0]}"
        elif operation.kind == OpKind.FORK:
            arrow = (
                f"{operation.source} --<fork>--> "
                f"{operation.results[0]} / {operation.results[1]}"
            )
        elif operation.kind == OpKind.JOIN:
            arrow = (
                f"{operation.source} + {operation.other} --<join>--> "
                f"{operation.results[0]}"
            )
        else:
            arrow = (
                f"{operation.source} ~ {operation.other} --<sync>--> "
                f"{operation.results[0]} / {operation.results[1]}"
            )
        annotation = ""
        if annotations:
            parts = [
                f"{label}={annotations[label]}"
                for label in operation.results
                if label in annotations
            ]
            annotation = "   " + ", ".join(parts)
        line = f"step {index:2d}: {arrow}{annotation}"
        if len(line) > width:
            line = line[: width - 3] + "..."
        lines.append(line)

    alive = sorted(trace.final_frontier())
    closing = f"final frontier: {', '.join(alive)}"
    if annotations:
        closing += "   [" + "; ".join(
            f"{label}={annotations.get(label, '?')}" for label in alive
        ) + "]"
    if len(closing) > width:
        closing = closing[: width - 3] + "..."
    lines.append(closing)
    return "\n".join(lines)
