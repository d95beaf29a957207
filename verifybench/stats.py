"""Pure statistics of the benchmark: medians, percentiles, self time."""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from typing import Iterable, NamedTuple, Sequence


class Percentile(NamedTuple):
    """A percentile with its sample count and the number of samples
    beyond it."""

    value: float
    samples: int
    beyond: int


def median(values: Sequence[float]) -> Percentile:
    """The median, the mean of the two middle samples for an even count.

    Unlike a nearest-rank median it moves smoothly when the samples fall
    in two clusters (fast and slow protocols) and the middle sits between
    them.  ``beyond`` counts the samples above the middle.
    """
    if not values:
        raise ValueError("median of no samples")
    return Percentile(statistics.median(values), len(values), len(values) // 2)


def nearest_rank(values: Sequence[float], q: float) -> Percentile:
    """The ``q`` quantile (0 < q <= 1) by the nearest-rank method: the
    smallest sample with at least ``q`` of all samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 1:
        raise ValueError(f"quantile {q!r} outside (0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return Percentile(ordered[rank - 1], len(ordered), len(ordered) - rank)


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by ``(start, end)`` intervals, overlaps counted
    once."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


class Span(NamedTuple):
    """One timed call: ``parent`` is the id of the enclosing span, 0 at the
    top."""

    id: int
    parent: int
    name: str
    start: float
    end: float


def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Seconds per span name: each span's duration minus the union of its
    children's intervals, clipped to the span."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent:
            children[span.parent].append((span.start, span.end))
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        clipped = (
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(span.id, ())
        )
        covered = union_length((s, e) for s, e in clipped if e > s)
        totals[span.name] += (span.end - span.start) - covered
    return dict(totals)


def call_counts(spans: Iterable[Span]) -> dict[str, int]:
    """Number of spans per name."""
    counts: dict[str, int] = defaultdict(int)
    for span in spans:
        counts[span.name] += 1
    return dict(counts)


def ratio(part: float, whole: float) -> float:
    """``part / whole``, or 0.0 when nothing was attempted."""
    return part / whole if whole else 0.0
