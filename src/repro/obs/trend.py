"""Performance-trend snapshots (``BENCH_<n>.json``) and regression gates.

The paper's headline claims are performance claims (Fig. 3 build
runtime, Fig. 4 query time, Table 4 memory); the benchmark suite
measures them, but a measurement nobody compares is not a gate.  This
module turns each benchmark session into a schema-versioned snapshot and
gives CI a noise-tolerant comparator:

* :func:`bench_snapshot` / :func:`write_bench_snapshot` — collect
  per-benchmark ``median`` / ``IQR`` timings (from the pytest-benchmark
  session, see ``benchmarks/conftest.py``), key obs counters, and a
  machine fingerprint into one JSON document;
* :func:`load_bench_snapshot` — read + validate a snapshot, with clean
  one-line errors for missing files, truncated JSON and schema
  mismatches;
* :func:`diff_snapshots` — compare two snapshots entry by entry under
  :func:`trend_verdict`, the relative-threshold **and** IQR-overlap rule;
* :func:`render_diff` / :func:`has_regressions` — render a diff document
  as a table, JSON or markdown, and report whether any regression
  survived both rules (the CI exit code).  The experiment-matrix diff
  (:mod:`repro.xp.report`) renders and gates through the same two.

Noise rule
----------
:func:`trend_verdict` is the one implementation.  A benchmark regresses
only when *both* hold:

1. ``new.median > old.median * (1 + threshold)`` (default +10 %), and
2. the interquartile ranges ``[q1, q3]`` of old and new do **not**
   overlap.

Rule 2 is what makes the gate honest on shared CI runners: a noisy
benchmark has wide, overlapping IQRs, and a genuine slowdown separates
them.  Improvements are reported symmetrically but never gate.
"""

from __future__ import annotations

import json
import time
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

# The single definition of run provenance lives in utils.provenance (the
# experiment-matrix store reuses it verbatim); re-exported here because
# every snapshot producer historically imported it from this module.
from repro.utils.provenance import machine_fingerprint

__all__ = [
    "BENCH_SCHEMA",
    "BENCH_SCHEMA_PREFIX",
    "SERVE_SCHEMA",
    "DEFAULT_THRESHOLD",
    "machine_fingerprint",
    "quartiles",
    "bench_snapshot",
    "serve_bench_snapshot",
    "write_bench_snapshot",
    "load_bench_snapshot",
    "validate_snapshot",
    "trend_verdict",
    "diff_snapshots",
    "diff_table",
    "render_diff",
    "has_regressions",
]

#: Version marker of the snapshot document.  Bump the suffix on breaking
#: field changes; the comparator refuses to diff mismatched versions.
BENCH_SCHEMA = "repro-bench/1"
BENCH_SCHEMA_PREFIX = "repro-bench/"

#: Serving-tier latency/throughput snapshots written by ``bench_serve``
#: (aggregated loadgen rounds).  Same entry shape as :data:`BENCH_SCHEMA`
#: plus an optional per-entry ``direction``; the comparator refuses to
#: diff a serve snapshot against a build/query one.
SERVE_SCHEMA = "repro-servebench/1"
SERVE_SCHEMA_PREFIX = "repro-servebench/"

#: Every schema this build can read, mapped to its version marker.
_SUPPORTED_SCHEMAS = {
    BENCH_SCHEMA_PREFIX: BENCH_SCHEMA,
    SERVE_SCHEMA_PREFIX: SERVE_SCHEMA,
}

#: Default relative slowdown (on the median) that rule 1 tolerates.
DEFAULT_THRESHOLD = 0.10

#: Numeric timing fields every benchmark entry must carry (seconds for
#: ``repro-bench``; milliseconds or requests/s for ``repro-servebench``).
TIMING_FIELDS = ("median", "q1", "q3", "iqr")

#: Per-entry comparison direction: latencies regress when they grow,
#: throughput regresses when it shrinks.
DIRECTION_LOWER = "lower_is_better"
DIRECTION_HIGHER = "higher_is_better"
_DIRECTIONS = (DIRECTION_LOWER, DIRECTION_HIGHER)


def bench_snapshot(
    benchmarks: Iterable[Mapping[str, object]],
    counters: Optional[Mapping[str, float]] = None,
    context: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """Assemble a snapshot document.

    ``benchmarks`` yields mappings with at least ``name`` plus the
    :data:`TIMING_FIELDS` (seconds) and optionally ``rounds`` / ``mean``
    / ``stddev``.  ``counters`` carries key obs counter values (e.g.
    ``exact.interactions``); ``context`` is free-form run metadata
    (dataset names, scale, benchmark selection).
    """
    entries: List[Dict[str, object]] = []
    for bench in benchmarks:
        entry: Dict[str, object] = {"name": str(bench["name"])}
        for field in TIMING_FIELDS:
            entry[field] = float(bench[field])  # type: ignore[arg-type]
        for optional in ("rounds", "mean", "stddev", "group"):
            if optional in bench and bench[optional] is not None:
                entry[optional] = bench[optional]
        entries.append(entry)
    entries.sort(key=lambda entry: entry["name"])  # type: ignore[arg-type,return-value]
    return {
        "schema": BENCH_SCHEMA,
        "created_unix": time.time(),
        "machine": machine_fingerprint(),
        "context": dict(context or {}),
        "benchmarks": entries,
        "counters": {str(k): float(v) for k, v in (counters or {}).items()},
    }


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """``median``/``q1``/``q3``/``iqr`` of ``values`` (linear interpolation).

    The summary :func:`trend_verdict` compares, shared by serve-bench
    aggregation below and the experiment-matrix significance layer
    (:mod:`repro.xp.stats`).
    """
    if not values:
        raise ValueError("cannot take quartiles of an empty sequence")
    ordered = sorted(float(v) for v in values)

    def _at(quantile: float) -> float:
        position = quantile * (len(ordered) - 1)
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        fraction = position - low
        return ordered[low] * (1.0 - fraction) + ordered[high] * fraction

    q1, median, q3 = _at(0.25), _at(0.5), _at(0.75)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}



def serve_bench_snapshot(
    reports: Sequence[Mapping[str, object]],
    counters: Optional[Mapping[str, float]] = None,
    context: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """Aggregate loadgen round reports into a ``repro-servebench/1`` doc.

    ``reports`` holds one ``LoadgenReport.to_dict()`` mapping per round;
    each latency percentile (and the throughput) becomes one benchmark
    entry whose ``median``/``q1``/``q3`` summarise the *across-round*
    distribution, so the IQR-overlap noise rule of :func:`diff_snapshots`
    applies to serve numbers exactly as it does to build/query timings.
    Throughput entries carry ``direction: higher_is_better``.
    """
    if not reports:
        raise ValueError("serve_bench_snapshot needs at least one loadgen report")
    percentiles = ("p50", "p95", "p99", "mean")
    entries: List[Dict[str, object]] = []
    for key in percentiles:
        samples = [float(report["latency_ms"][key]) for report in reports]  # type: ignore[index,call-overload]
        entry: Dict[str, object] = {"name": f"loadgen.{key}_ms", "rounds": len(reports)}
        entry.update(quartiles(samples))
        entries.append(entry)
    throughput: Dict[str, object] = {
        "name": "loadgen.throughput_rps",
        "rounds": len(reports),
        "direction": DIRECTION_HIGHER,
    }
    throughput.update(quartiles([float(r["throughput_rps"]) for r in reports]))
    entries.append(throughput)
    entries.sort(key=lambda entry: entry["name"])  # type: ignore[arg-type,return-value]
    totals = {
        "loadgen.requests": float(sum(int(r["requests"]) for r in reports)),  # type: ignore[call-overload]
        "loadgen.errors": float(sum(int(r["errors"]) for r in reports)),  # type: ignore[call-overload]
    }
    totals.update({str(k): float(v) for k, v in (counters or {}).items()})
    return {
        "schema": SERVE_SCHEMA,
        "created_unix": time.time(),
        "machine": machine_fingerprint(),
        "context": dict(context or {}),
        "benchmarks": entries,
        "counters": totals,
    }


def write_bench_snapshot(path: str, snapshot: Mapping[str, object]) -> None:
    """Validate and write ``snapshot`` to ``path`` as indented JSON."""
    validate_snapshot(snapshot)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")


def validate_snapshot(snapshot: object) -> None:
    """Raise ``ValueError`` (one line) when ``snapshot`` is malformed."""
    if not isinstance(snapshot, dict):
        raise ValueError("bench snapshot must be a JSON object")
    schema = snapshot.get("schema")
    prefix = next(
        (p for p in _SUPPORTED_SCHEMAS if isinstance(schema, str) and schema.startswith(p)),
        None,
    )
    if prefix is None:
        raise ValueError(
            f"not a bench snapshot: missing/foreign schema marker {schema!r} "
            f"(expected {BENCH_SCHEMA!r} or {SERVE_SCHEMA!r})"
        )
    if schema != _SUPPORTED_SCHEMAS[prefix]:
        raise ValueError(
            f"unsupported bench schema {schema!r}; this build reads "
            f"{_SUPPORTED_SCHEMAS[prefix]!r}"
        )
    benchmarks = snapshot.get("benchmarks")
    if not isinstance(benchmarks, list):
        raise ValueError("bench snapshot field 'benchmarks' must be a list")
    seen = set()
    for index, entry in enumerate(benchmarks):
        if not isinstance(entry, dict) or "name" not in entry:
            raise ValueError(f"benchmarks[{index}] must be an object with a 'name'")
        name = entry["name"]
        if name in seen:
            raise ValueError(f"duplicate benchmark name {name!r}")
        seen.add(name)
        for field in TIMING_FIELDS:
            value = entry.get(field)
            if not isinstance(value, (int, float)) or value < 0:
                raise ValueError(
                    f"benchmarks[{index}] ({name!r}): field {field!r} must be a "
                    f"non-negative number, got {value!r}"
                )
        direction = entry.get("direction", DIRECTION_LOWER)
        if direction not in _DIRECTIONS:
            raise ValueError(
                f"benchmarks[{index}] ({name!r}): field 'direction' must be one "
                f"of {_DIRECTIONS}, got {direction!r}"
            )
    counters = snapshot.get("counters", {})
    if not isinstance(counters, dict):
        raise ValueError("bench snapshot field 'counters' must be an object")


def load_bench_snapshot(path: str) -> Dict[str, object]:
    """Read and validate a snapshot file.

    Every failure mode — missing file, unreadable JSON, wrong schema —
    surfaces as a single-line ``ValueError`` naming the file, so the CLI
    can print it verbatim and exit 1.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ValueError(f"{path}: cannot read bench snapshot: {exc.strerror or exc}") from exc
    if not text.strip():
        raise ValueError(f"{path}: empty bench snapshot")
    try:
        snapshot = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: truncated or invalid JSON: {exc}") from exc
    try:
        validate_snapshot(snapshot)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return snapshot


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

#: Per-benchmark comparison verdicts.
VERDICT_REGRESSION = "regression"
VERDICT_IMPROVEMENT = "improvement"
VERDICT_OK = "ok"
VERDICT_ADDED = "added"
VERDICT_REMOVED = "removed"

#: Snapshot entry directions in the ``lower``/``higher`` terms of
#: :func:`trend_verdict` (the experiment-matrix spelling).
_VERDICT_DIRECTION = {DIRECTION_LOWER: "lower", DIRECTION_HIGHER: "higher"}


def trend_verdict(
    old: Mapping[str, object],
    new: Mapping[str, object],
    direction: str = "lower",
    threshold: float = DEFAULT_THRESHOLD,
) -> Dict[str, object]:
    """The noise rule over two ``median``/``q1``/``q3`` summaries.

    ``direction`` is ``"lower"`` (timings, latency, error) or ``"higher"``
    (throughput, spread) is better.  Returns ``ratio`` (new/old median,
    ``inf`` when the old median is 0), ``iqr_overlap`` and ``verdict``:
    ``regression`` when the median moved the wrong way by more than
    ``threshold`` *and* the ``[q1, q3]`` ranges are disjoint,
    ``improvement`` for the mirror case, ``ok`` otherwise.  This is the
    only implementation of the rule; :func:`diff_snapshots` and
    :func:`repro.xp.stats.compare_samples` both call it.
    """
    if direction not in ("lower", "higher"):
        raise ValueError(f"direction must be 'lower' or 'higher', got {direction!r}")
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    old_median = float(old["median"])  # type: ignore[arg-type]
    new_median = float(new["median"])  # type: ignore[arg-type]
    overlap = (
        float(new["q1"]) <= float(old["q3"])  # type: ignore[arg-type]
        and float(old["q1"]) <= float(new["q3"])  # type: ignore[arg-type]
    )
    grew = new_median > old_median * (1.0 + threshold)
    shrank = new_median < old_median * (1.0 - threshold)
    if direction == "higher":
        grew, shrank = shrank, grew  # less throughput is the slowdown
    if overlap:
        verdict = VERDICT_OK
    elif grew:
        verdict = VERDICT_REGRESSION
    elif shrank:
        verdict = VERDICT_IMPROVEMENT
    else:
        verdict = VERDICT_OK
    return {
        "ratio": new_median / old_median if old_median else float("inf"),
        "iqr_overlap": overlap,
        "verdict": verdict,
    }


def diff_snapshots(
    old: Mapping[str, object],
    new: Mapping[str, object],
    threshold: float = DEFAULT_THRESHOLD,
) -> Dict[str, object]:
    """Compare two snapshots benchmark by benchmark.

    Returns a report dict: ``rows`` (one per benchmark, sorted by name,
    each with old/new medians and the :func:`trend_verdict` fields),
    ``counters`` (relative drift of shared obs counters, informational
    only) and ``threshold``.  Schema compatibility must already hold
    (:func:`load_bench_snapshot` enforces it for files; for in-memory
    documents call :func:`validate_snapshot` yourself).
    """
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    old_schema = old.get("schema")
    new_schema = new.get("schema")
    if old_schema != new_schema:
        raise ValueError(
            f"cannot diff snapshots of different schemas: "
            f"{old_schema!r} vs {new_schema!r}"
        )
    old_entries = {entry["name"]: entry for entry in old["benchmarks"]}  # type: ignore[index,union-attr]
    new_entries = {entry["name"]: entry for entry in new["benchmarks"]}  # type: ignore[index,union-attr]
    rows: List[Dict[str, object]] = []
    for name in sorted(set(old_entries) | set(new_entries)):
        before = old_entries.get(name)
        after = new_entries.get(name)
        if before is None:
            rows.append(
                {
                    "name": name,
                    "verdict": VERDICT_ADDED,
                    "new_median": float(after["median"]),  # type: ignore[index]
                }
            )
            continue
        if after is None:
            rows.append(
                {
                    "name": name,
                    "verdict": VERDICT_REMOVED,
                    "old_median": float(before["median"]),
                }
            )
            continue
        direction = str(after.get("direction", before.get("direction", DIRECTION_LOWER)))
        row: Dict[str, object] = {
            "name": name,
            "old_median": float(before["median"]),
            "new_median": float(after["median"]),
            "direction": direction,
        }
        row.update(trend_verdict(before, after, _VERDICT_DIRECTION[direction], threshold))
        rows.append(row)
    old_counters: Mapping[str, float] = old.get("counters", {})  # type: ignore[assignment]
    new_counters: Mapping[str, float] = new.get("counters", {})  # type: ignore[assignment]
    counter_rows = []
    for name in sorted(set(old_counters) & set(new_counters)):
        before_value = float(old_counters[name])
        after_value = float(new_counters[name])
        counter_rows.append(
            {
                "name": name,
                "old": before_value,
                "new": after_value,
                "ratio": after_value / before_value if before_value else float("inf"),
            }
        )
    return {
        "schema": old_schema,
        "threshold": threshold,
        "rows": rows,
        "counters": counter_rows,
    }


def has_regressions(diff: Mapping[str, object]) -> bool:
    """True when any row of a diff document regressed (the CI exit code)."""
    return any(row["verdict"] == VERDICT_REGRESSION for row in diff["rows"])  # type: ignore[index,union-attr]


def _number(value: object) -> str:
    if not isinstance(value, (int, float)):
        return "-"
    return f"{value:.4g}"


def _ratio_text(row: Mapping[str, object]) -> str:
    ratio = row.get("ratio")
    if not isinstance(ratio, float) or ratio == float("inf"):
        return "-"
    return f"{(ratio - 1.0) * 100.0:+.1f}%"


def diff_table(
    diff: Mapping[str, object],
) -> Tuple[Tuple[str, ...], List[Tuple[str, ...]], str]:
    """Headers, cell rows and summary line of a diff document.

    Serves :func:`diff_snapshots` reports and experiment-matrix
    ``repro-xp-diff/1`` documents (:func:`repro.xp.report.diff_runs`)
    alike.  The latter are rank-tested: they carry an ``alpha``, a
    ``p_value`` per row (shown as a ``p`` column) and ``added`` /
    ``removed`` group label lists counted in the summary.
    """
    rows: Sequence[Mapping[str, object]] = diff["rows"]  # type: ignore[assignment]
    ranked = "alpha" in diff
    noun = "measurement" if ranked else "benchmark"
    p_column = ("p",) if ranked else ()
    headers = (noun, "old_median", "new_median", "delta") + p_column + ("verdict",)
    cells: List[Tuple[str, ...]] = []
    for row in rows:
        cell = [
            str(row["name"]),
            _number(row.get("old_median")),
            _number(row.get("new_median")),
            _ratio_text(row),
        ]
        if ranked:
            cell.append(f"{float(row['p_value']):.3f}")  # type: ignore[arg-type]
        cells.append(tuple(cell + [str(row["verdict"])]))
    verdicts = [row["verdict"] for row in rows]
    threshold = float(diff.get("threshold", DEFAULT_THRESHOLD))  # type: ignore[arg-type]
    summary = (
        f"{len(cells)} {noun}s compared, {verdicts.count(VERDICT_REGRESSION)} regression(s), "
        f"{verdicts.count(VERDICT_IMPROVEMENT)} improvement(s) at threshold "
        f"+{threshold * 100.0:g}% with disjoint IQRs"
    )
    if ranked:
        summary += f" and alpha={float(diff['alpha']):g}"  # type: ignore[arg-type]
    unmatched = [
        f"{len(diff[key])} group(s) {where}"  # type: ignore[arg-type]
        for key, where in (("added", "only in the new run"), ("removed", "only in the baseline"))
        if diff.get(key)
    ]
    if unmatched:
        summary += "; " + ", ".join(unmatched)
    return headers, cells, summary


def render_diff(diff: Mapping[str, object], format: str = "table") -> str:
    """Render a diff document (:func:`diff_table`) as ``table``/``json``/``markdown``."""
    if format == "json":
        return json.dumps(diff, indent=2, sort_keys=True) + "\n"
    if format not in ("table", "markdown"):
        raise ValueError(f"unknown diff format {format!r}; use table, json or markdown")
    headers, cells, summary = diff_table(diff)
    if format == "markdown":
        lines = ["| " + " | ".join(headers) + " |"]
        lines.append("|" + "|".join("---" for _ in headers) + "|")
        lines.extend("| " + " | ".join(row) + " |" for row in cells)
    elif cells:
        from repro.obs.export import _render_table

        lines = _render_table(headers, cells)
    else:
        lines = [f"(no {headers[0]}s to compare)"]
    return "\n".join(lines + ["", summary]) + "\n"
