"""Output checks: a run whose check fails reports the failure, not numbers."""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

#: HLL relative standard error at β registers is 1.04/sqrt(β) (Flajolet et al.).
HLL_RSE_FACTOR = 1.04


class CheckFailed(Exception):
    """An answer of the program differs from its reference."""


def registers_identical(memory, loaded) -> int:
    """The reloaded oracle's registers equal the in-memory ones, bit for bit."""
    memory_nodes = set(memory.nodes())
    if memory_nodes != set(loaded.nodes()):
        raise CheckFailed("reloaded snapshot holds a different node set")
    for node in memory_nodes:
        if memory.registers(node) != loaded.registers(node):
            raise CheckFailed(f"registers of node {node!r} differ after reload")
    return len(memory_nodes)


def seeds_equal(memory_seeds: Sequence, loaded_seeds: Sequence) -> None:
    if list(memory_seeds) != list(loaded_seeds):
        raise CheckFailed(
            f"CELF seeds differ: in memory {list(memory_seeds)}, "
            f"reloaded {list(loaded_seeds)}"
        )


def sketch_error_bound(precision: int) -> Tuple[float, float]:
    """(mean, per-node) relative error bounds of a β = 2**precision sketch.

    Table 3 of the paper reports the mean relative error of the σω(u)
    estimates; the bound allows twice the HLL standard error on the mean
    and five times it on any one node (plus one for the self-count the
    sketch makes on cycles).
    """
    rse = HLL_RSE_FACTOR / math.sqrt(1 << precision)
    return 2.0 * rse, 5.0 * rse


def sketch_vs_exact(
    estimates: Dict[object, float], exact: Dict[object, int], precision: int
) -> float:
    """Sampled σω(u) estimates agree with ExactIRS; returns the mean error."""
    mean_bound, node_bound = sketch_error_bound(precision)
    errors: List[float] = []
    for node, truth in exact.items():
        estimate = estimates[node]
        if abs(estimate - truth) > 1.0 + node_bound * truth:
            raise CheckFailed(
                f"sigma estimate of node {node!r} is {estimate:.1f}, exact {truth}"
            )
        if truth:
            errors.append(abs(estimate - truth) / truth)
    if not errors:
        raise CheckFailed("no sampled node has a nonempty reachability set")
    mean_error = sum(errors) / len(errors)
    if mean_error > mean_bound:
        raise CheckFailed(
            f"mean relative sigma error {mean_error:.4f} exceeds {mean_bound:.4f}"
        )
    return mean_error


def answers_equal(
    label: str, expected: Sequence[object], observed: Sequence[object]
) -> None:
    """HTTP answers equal the in-process answers, request by request."""
    if len(expected) != len(observed):
        raise CheckFailed(f"{label}: {len(observed)} answers for {len(expected)} requests")
    for index, (want, got) in enumerate(zip(expected, observed)):
        if want != got:
            raise CheckFailed(f"{label}: answer #{index} is {got!r}, expected {want!r}")


def ingest_consistent(
    sent: int, stats: Dict[str, object], acked: int, rejected: int
) -> None:
    """No event was rejected and the server applied exactly what was sent."""
    if rejected or stats.get("events_rejected"):
        raise CheckFailed(
            f"{rejected} events rejected in answers, "
            f"{stats.get('events_rejected')} by the server"
        )
    if acked != sent or stats.get("events_applied") != sent:
        raise CheckFailed(
            f"sent {sent} events, acknowledged {acked}, "
            f"server applied {stats.get('events_applied')}"
        )
