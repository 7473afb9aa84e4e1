"""Opt-in runtime allocation sanitizer — the dynamic half of R301–R303.

The static pass in :mod:`repro.lint.hotpath` flags allocation patterns it
can prove from the AST; this module measures the allocations that actually
happen, so a static finding can be confirmed (or a fix shown to help) with
numbers instead of taste.  When ``REPRO_DEBUG_ALLOC=1`` is set (read once
at import of :mod:`repro.obs`, at decoration time of ``@hotpath``
functions, or via :func:`enable`) the sanitizer records, backed by
:mod:`tracemalloc`:

* per **hot function** (anything decorated ``@hotpath`` in
  :mod:`repro.lint.hotpath`): call count, net traced bytes retained
  across the call, and the largest single-call retention — the cheap
  always-on accounting used by the CI ``alloc-stress`` budget gate;
* per **allocation site** (``file:line``) inside a :func:`watch` scope:
  the net number of traced blocks and bytes the scope retained at that
  line, filtered to the hot paths named by ``REPRO_DEBUG_ALLOC_FILTER``
  (default: the sketch/core hot subsystems).  This is what ties a static
  R301 finding — "this line allocates per iteration" — to measured
  blocks at exactly that line;
* per :func:`watch` scope: net bytes, **peak** bytes (via
  ``tracemalloc.reset_peak``), and entry count.  Peak is the honest
  metric for *throwaway* intermediates: a per-iteration temporary that
  is freed before the scope exits never shows up in retained counts,
  but it does raise the peak.

Semantics worth stating plainly: tracemalloc snapshots count **live**
blocks, so per-site numbers are *net retained* allocations, not
cumulative allocation events; transient churn is visible through the
scope peak instead.  Both views are dumped in the JSON report.

Cost model (same bar as :mod:`repro.lint.contracts` and
:mod:`repro.lint.locktrace`): with the flag unset nothing is patched,
``@hotpath`` is the identity at decoration time, and :func:`watch` is a
no-op context manager — production code pays nothing.

A report is dumped at interpreter exit: JSON to the path named by
``REPRO_DEBUG_ALLOC_REPORT`` when set::

    REPRO_DEBUG_ALLOC=1 REPRO_DEBUG_ALLOC_REPORT=alloc.json \\
        python -m pytest tests/sketch tests/core

``python -m repro.lint.alloctrace --check report.json budget.json``
compares such a report against a committed per-function allocation
budget (see ``benchmarks/results/alloc-budget.json``) and exits
non-zero on any breach — the CI ``alloc-stress`` gate.

This module must stay standard-library only and must not import
``repro.obs`` (obs imports *it* to honour the env flag early).
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import sys
import threading
import tracemalloc
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, TypeVar

__all__ = [
    "ALLOC_ENV",
    "REPORT_ENV",
    "FILTER_ENV",
    "hotpath",
    "coldpath",
    "allocs_enabled",
    "enable",
    "disable",
    "is_enabled",
    "install_from_env",
    "reset",
    "note_call",
    "watch",
    "report",
    "dump_report",
    "check_budget",
    "main",
]

ALLOC_ENV = "REPRO_DEBUG_ALLOC"
REPORT_ENV = "REPRO_DEBUG_ALLOC_REPORT"
FILTER_ENV = "REPRO_DEBUG_ALLOC_FILTER"

#: Path substrings a snapshot frame must contain for its site to be kept.
#: Matches the hot subsystems R301–R303 police; override (comma-separated)
#: with ``REPRO_DEBUG_ALLOC_FILTER``; an empty value keeps every site.
DEFAULT_FILTER = ("repro/sketch", "repro/core")


def allocs_enabled() -> bool:
    """True when ``REPRO_DEBUG_ALLOC`` requests allocation tracing."""
    return os.environ.get(ALLOC_ENV, "") not in ("", "0")


def _site_filter() -> Tuple[str, ...]:
    raw = os.environ.get(FILTER_ENV)
    if raw is None:
        return DEFAULT_FILTER
    parts = tuple(part.strip() for part in raw.split(",") if part.strip())
    return parts  # empty tuple → keep everything


class _AllocState:
    """Accumulated per-function and per-site allocation accounting."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.site_filter = _site_filter()
        #: label → {calls, net_bytes, max_call_net_bytes}
        self.functions: Dict[str, Dict[str, int]] = {}
        #: ``file:line`` → {blocks, bytes} (net retained inside watch scopes)
        self.sites: Dict[str, Dict[str, int]] = {}
        #: label → {entries, net_bytes, peak_bytes}
        self.scopes: Dict[str, Dict[str, int]] = {}

    def note_call(self, label: str, net_bytes: int) -> None:
        with self._lock:
            entry = self.functions.setdefault(
                label, {"calls": 0, "net_bytes": 0, "max_call_net_bytes": 0}
            )
            entry["calls"] += 1
            entry["net_bytes"] += net_bytes
            if net_bytes > entry["max_call_net_bytes"]:
                entry["max_call_net_bytes"] = net_bytes

    def note_scope(self, label: str, net_bytes: int, peak_bytes: int) -> None:
        with self._lock:
            entry = self.scopes.setdefault(
                label, {"entries": 0, "net_bytes": 0, "peak_bytes": 0}
            )
            entry["entries"] += 1
            entry["net_bytes"] += net_bytes
            if peak_bytes > entry["peak_bytes"]:
                entry["peak_bytes"] = peak_bytes

    def note_sites(self, stats: List[tracemalloc.StatisticDiff]) -> None:
        keep = self.site_filter
        with self._lock:
            for stat in stats:
                frame = stat.traceback[0]
                filename = frame.filename.replace("\\", "/")
                if keep and not any(part in filename for part in keep):
                    continue
                if stat.count_diff <= 0 and stat.size_diff <= 0:
                    continue
                site = f"{'/'.join(filename.rsplit('/', 3)[1:])}:{frame.lineno}"
                entry = self.sites.setdefault(site, {"blocks": 0, "bytes": 0})
                entry["blocks"] += stat.count_diff
                entry["bytes"] += stat.size_diff

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "filter": list(self.site_filter),
                "functions": {
                    label: dict(entry)
                    for label, entry in sorted(self.functions.items())
                },
                "sites": {
                    site: dict(entry) for site, entry in sorted(self.sites.items())
                },
                "scopes": {
                    label: dict(entry)
                    for label, entry in sorted(self.scopes.items())
                },
            }


_STATE = _AllocState()

_enabled = False
_started_tracemalloc = False
_atexit_registered = False


def is_enabled() -> bool:
    """True while the sanitizer is recording."""
    return _enabled


def enable() -> None:
    """Start recording (starts ``tracemalloc`` if nothing else did).

    Functions decorated ``@hotpath`` *before* enabling keep their
    undecorated fast path — set the env flag before importing the hot
    modules (the CI ``alloc-stress`` job does) to get per-function
    accounting; :func:`watch` scopes work regardless.
    """
    global _enabled, _started_tracemalloc, _atexit_registered
    if _enabled:
        return
    if not tracemalloc.is_tracing():
        tracemalloc.start()
        _started_tracemalloc = True
    _enabled = True
    if not _atexit_registered:
        atexit.register(_exit_report)
        _atexit_registered = True


def disable() -> None:
    """Stop recording (stops ``tracemalloc`` only if :func:`enable` started it)."""
    global _enabled, _started_tracemalloc
    if not _enabled:
        return
    _enabled = False
    if _started_tracemalloc and tracemalloc.is_tracing():
        tracemalloc.stop()
    _started_tracemalloc = False


def install_from_env() -> bool:
    """Enable tracing iff ``REPRO_DEBUG_ALLOC`` is set; returns enabled."""
    if allocs_enabled():
        enable()
    return _enabled


def reset() -> None:
    """Drop all recorded events (the enabled state is kept).

    The site filter is re-read from ``REPRO_DEBUG_ALLOC_FILTER`` so a
    changed environment takes effect on the fresh state.
    """
    global _STATE
    _STATE = _AllocState()


def note_call(label: str, net_bytes: int) -> None:
    """Record one hot-function call (used by the ``@hotpath`` wrapper)."""
    if _enabled:
        _STATE.note_call(label, net_bytes)


@contextmanager
def watch(label: str, sites: bool = True) -> Iterator[None]:
    """Measure a code region: net/peak bytes plus per-site retained blocks.

    A no-op when the sanitizer is disabled.  ``sites=False`` skips the
    (expensive) tracemalloc snapshot diff and records only the scope's
    net and peak byte counts.
    """
    if not _enabled or not tracemalloc.is_tracing():
        yield
        return
    before = tracemalloc.take_snapshot() if sites else None
    tracemalloc.reset_peak()
    start_bytes, _ = tracemalloc.get_traced_memory()
    try:
        yield
    finally:
        if _enabled and tracemalloc.is_tracing():
            current, peak = tracemalloc.get_traced_memory()
            _STATE.note_scope(
                label,
                net_bytes=current - start_bytes,
                peak_bytes=max(0, peak - start_bytes),
            )
            if before is not None:
                after = tracemalloc.take_snapshot()
                _STATE.note_sites(after.compare_to(before, "lineno"))


F = TypeVar("F", bound=Callable[..., Any])


def hotpath(func: F) -> F:
    """Mark ``func`` as a hot-region seed for the R301–R303 static pass.

    The static half (:mod:`repro.lint.hotpath`) treats any function
    decorated ``@hotpath`` as a hot-region root and closes over the call
    graph from it.  The dynamic half activates only when the sanitizer is
    on *at decoration time* (``REPRO_DEBUG_ALLOC=1`` or a prior
    :func:`enable`): the function is then wrapped to record per-call net
    traced bytes under its qualified name.  Otherwise the original
    function is returned untouched — zero overhead, same bar as
    :func:`repro.lint.contracts.invariant`.
    """
    if not (allocs_enabled() or _enabled):
        return func
    label = f"{func.__module__}.{func.__qualname__}"

    @functools.wraps(func)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not _enabled or not tracemalloc.is_tracing():
            return func(*args, **kwargs)
        before, _ = tracemalloc.get_traced_memory()
        try:
            return func(*args, **kwargs)
        finally:
            after, _ = tracemalloc.get_traced_memory()
            note_call(label, after - before)

    return wrapper  # type: ignore[return-value]


def coldpath(func: F) -> F:
    """Mark ``func`` as a hot-region *boundary* for the static pass.

    Call-graph closure in :mod:`repro.lint.hotpath` does not enter a
    function decorated ``@coldpath`` (nor traverse through it), so setup
    and serialisation helpers reachable from benchmarks stay outside the
    hot region.  Purely a marker — the function is returned unchanged.
    """
    return func


def report() -> Dict[str, Any]:
    """A snapshot of everything recorded so far (JSON-serialisable)."""
    snapshot = _STATE.snapshot()
    snapshot["enabled"] = _enabled
    return snapshot


def dump_report(path: Optional[str] = None) -> Dict[str, Any]:
    """Write the report as JSON to ``path`` (or ``REPRO_DEBUG_ALLOC_REPORT``).

    Returns the report dict either way; with no path it is not written.
    """
    snapshot = report()
    target = path or os.environ.get(REPORT_ENV, "")
    if target:
        with open(target, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return snapshot


def _exit_report() -> None:
    """Atexit hook: persist the report to the env-named path, if any."""
    try:
        dump_report()
    except Exception:  # pragma: no cover - never break interpreter exit
        pass


# ----------------------------------------------------------------------
# Budget gate (CI ``alloc-stress``)
# ----------------------------------------------------------------------


def check_budget(
    report_data: Dict[str, Any], budget: Dict[str, Any]
) -> List[str]:
    """Compare a report against a committed budget; returns breach messages.

    The budget maps hot-function labels (substring match against the
    report's function labels) to ceilings::

        {"version": 1,
         "functions": {"VersionedHLL.merge_within":
                           {"max_call_net_bytes": 262144}}}

    ``max_call_net_bytes`` bounds the worst single-call net retention of
    the function — the number that jumps when someone adds a per-call
    throwaway container to a lint-clean hot region.  A budgeted function
    missing from the report is *not* a breach (the workload may not have
    driven it); a breached ceiling is.
    """
    breaches: List[str] = []
    functions: Dict[str, Any] = report_data.get("functions", {})
    for pattern, limits in budget.get("functions", {}).items():
        ceiling = int(limits.get("max_call_net_bytes", 0))
        if ceiling <= 0:
            continue
        for label, entry in functions.items():
            if pattern not in label:
                continue
            observed = int(entry.get("max_call_net_bytes", 0))
            if observed > ceiling:
                breaches.append(
                    f"{label}: max_call_net_bytes {observed} exceeds "
                    f"budget {ceiling} (pattern {pattern!r})"
                )
    return breaches


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.lint.alloctrace --check REPORT BUDGET``."""
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 3 or args[0] != "--check":
        print(
            "usage: python -m repro.lint.alloctrace --check REPORT.json BUDGET.json",
            file=sys.stderr,
        )
        return 2
    with open(args[1], "r", encoding="utf-8") as handle:
        report_data = json.load(handle)
    with open(args[2], "r", encoding="utf-8") as handle:
        budget = json.load(handle)
    breaches = check_budget(report_data, budget)
    if breaches:
        print("[alloctrace] allocation budget breached:", file=sys.stderr)
        for breach in breaches:
            print(f"[alloctrace]   {breach}", file=sys.stderr)
        return 1
    checked = len(budget.get("functions", {}))
    print(f"[alloctrace] {checked} budget entr{'y' if checked == 1 else 'ies'} ok")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
