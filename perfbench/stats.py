"""Nearest-rank percentiles that refuse to extrapolate past their samples."""

from __future__ import annotations

import math
from typing import Dict, Sequence, Tuple

#: A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


class InsufficientSamples(Exception):
    """A percentile was asked of a sample too small to support it."""


def percentile(values: Sequence[float], pct: float, name: str) -> float:
    """Nearest-rank ``pct``-th percentile of ``values``.

    Raises :class:`InsufficientSamples` unless at least :data:`MIN_BEYOND`
    samples lie strictly above the returned rank, so a p99 needs 1000
    samples and a p50 needs 20.
    """
    count = len(values)
    rank = max(1, math.ceil(pct / 100.0 * count))
    if count - rank < MIN_BEYOND:
        raise InsufficientSamples(
            f"{name}: p{pct:g} needs {MIN_BEYOND} samples beyond it, "
            f"got {max(count - rank, 0)} of {count}"
        )
    return sorted(values)[rank - 1]


def median(values: Sequence[float]) -> float:
    """Plain median for small repeat counts (setup, pipeline repeats)."""
    if not values:
        raise InsufficientSamples("median of no samples")
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


class Metrics:
    """Named results with their units and sample counts, in report order."""

    def __init__(self) -> None:
        self._rows: Dict[str, Tuple[float, str, int]] = {}

    def add(self, name: str, value: float, unit: str, samples: int) -> None:
        if name in self._rows:
            raise ValueError(f"metric {name!r} reported twice")
        self._rows[name] = (float(value), unit, int(samples))

    def extend(self, other: "Metrics") -> None:
        for name, (value, unit, samples) in other._rows.items():
            self.add(name, value, unit, samples)

    def result(self) -> Dict[str, Dict[str, object]]:
        """The ``metrics`` object of the result line."""
        return {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in self._rows.items()
        }

    def table(self) -> str:
        """Human-readable rows: name, value, unit, sample count."""
        return "\n".join(
            f"  {name:<38} {value:>14.6g} {unit:<8} n={samples}"
            for name, (value, unit, samples) in self._rows.items()
        )
