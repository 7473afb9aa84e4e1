"""Programmatic experiment reports.

``generate_report`` runs the complete experiment battery (every table and
figure of the paper, at a configurable scale) and renders one markdown
document — the machine-written counterpart of the hand-curated
EXPERIMENTS.md.  Downstream users call it to regenerate all numbers on
their own machine::

    from repro.analysis.report import generate_report
    print(generate_report(scale=0.2, seed=1))

or from the benchmarks, which persist it under ``benchmarks/results/``.

Scale guidance: 1.0 is the full catalog (~2–3 minutes of pure Python);
0.1 gives a smoke-test report in seconds.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis import grid
from repro.analysis.experiments import (
    accuracy_experiment,
    dataset_characteristics,
    memory_experiment,
    oracle_query_experiment,
    runtime_experiment,
    seed_overlap_experiment,
    seed_time_experiment,
    spread_comparison,
)
from repro.analysis.metrics import format_table
from repro.analysis.plots import ascii_chart, series_from_rows
from repro.core.interactions import InteractionLog
from repro.datasets.catalog import dataset_names, load_dataset
from repro.utils.validation import require_positive

__all__ = ["generate_report", "REPORT_SECTIONS"]

REPORT_SECTIONS = (
    "table2",
    "table3",
    "table4",
    "fig3",
    "fig4",
    "fig5",
    "table5",
    "table6",
)


def _markdown_block(title: str, body: str) -> str:
    return f"## {title}\n\n```\n{body}\n```\n"


def generate_report(
    scale: float = 1.0,
    seed: int = 1,
    sections: Optional[Sequence[str]] = None,
    datasets: Optional[Sequence[str]] = None,
    precision: int = 9,
) -> str:
    """Run the experiment battery and return a markdown report.

    Parameters
    ----------
    scale:
        Dataset size multiplier relative to the catalog.
    seed:
        Generator seed; the whole report is deterministic given it.
    sections:
        Subset of :data:`REPORT_SECTIONS` to include (default: all).
    datasets:
        Catalog names to use (default: all six; the exact-index sections
        always restrict themselves to the datasets small enough for it).
    precision:
        Sketch index bits.
    """
    require_positive(scale, "scale")
    chosen = list(sections) if sections is not None else list(REPORT_SECTIONS)
    unknown = [s for s in chosen if s not in REPORT_SECTIONS]
    if unknown:
        raise ValueError(f"unknown sections: {unknown}; known: {REPORT_SECTIONS}")
    names = list(datasets) if datasets is not None else dataset_names()

    logs: Dict[str, InteractionLog] = {
        name: load_dataset(name, rng=seed, scale=scale) for name in names
    }
    small_names = [name for name in names if name in grid.SMALL_DATASETS] or names[:1]
    small_logs = {name: logs[name] for name in small_names}

    parts: List[str] = [
        "# Experiment report (auto-generated)",
        "",
        f"catalog scale = {scale}, generator seed = {seed}, "
        f"sketch precision = {precision} (beta = {1 << precision}).",
        "",
    ]

    if "table2" in chosen:
        rows = dataset_characteristics(names, rng=seed, scale=scale)
        parts.append(
            _markdown_block(
                "Table 2 — dataset characteristics",
                format_table(rows),
            )
        )

    if "table3" in chosen:
        rows = []
        for name in [n for n in grid.ACCURACY_DATASETS if n in logs] or small_names[:1]:
            rows.extend(
                accuracy_experiment(
                    logs[name],
                    name,
                    betas=(16, 64, 256, 512),
                    window_percents=(1, 10, 20),
                )
            )
        parts.append(
            _markdown_block("Table 3 — IRS-size estimation error", format_table(rows))
        )

    if "table4" in chosen:
        rows = memory_experiment(logs, window_percents=(1, 10, 20), precision=precision)
        parts.append(
            _markdown_block("Table 4 — accounted sketch memory (MB)", format_table(rows))
        )

    if "fig3" in chosen:
        rows = runtime_experiment(
            logs, window_percents=(1, 10, 20, 50, 100), precision=precision
        )
        chart = ascii_chart(
            series_from_rows(rows, x="window_pct", y="seconds", series="dataset"),
            title="processing seconds (log10) vs window %",
            log_y=True,
        )
        parts.append(
            _markdown_block(
                "Figure 3 — processing time vs window",
                format_table(rows) + "\n\n" + chart,
            )
        )

    if "fig4" in chosen:
        rows = []
        for name in small_names[:1] + names[-1:]:
            rows.extend(
                oracle_query_experiment(
                    logs[name],
                    name,
                    seed_counts=(10, 100, 1_000),
                    precision=precision,
                    repetitions=3,
                    rng=seed,
                )
            )
        parts.append(
            _markdown_block(
                "Figure 4 — oracle query time vs seed count", format_table(rows)
            )
        )

    if "fig5" in chosen:
        rows = []
        for name in small_names[:2]:
            rows.extend(
                spread_comparison(
                    logs[name],
                    name,
                    ks=(5, 15, 30),
                    window_percents=(1,),
                    probabilities=(1.0,),
                    runs=2,
                    precision=precision,
                    rng=seed,
                )
            )
        chart_sections = []
        for name in small_names[:2]:
            chart_sections.append(
                ascii_chart(
                    series_from_rows(
                        rows,
                        x="k",
                        y="spread",
                        series="method",
                        where={"dataset": name},
                    ),
                    title=f"{name}: TCIC spread vs k (omega = 1%, p = 1)",
                    width=48,
                    height=10,
                )
            )
        parts.append(
            _markdown_block(
                "Figure 5 — TCIC spread of top-k seeds",
                format_table(rows) + "\n\n" + "\n\n".join(chart_sections),
            )
        )

    if "table5" in chosen:
        rows = seed_overlap_experiment(
            logs, window_percents=(1, 10, 20), k=10, precision=precision
        )
        parts.append(
            _markdown_block(
                "Table 5 — common top-10 seeds across windows", format_table(rows)
            )
        )

    if "table6" in chosen:
        rows = seed_time_experiment(
            small_logs,
            k=20,
            methods=("IRS-approx", "SKIM", "PR", "HD", "SHD", "CTE"),
            precision=precision,
            rng=seed,
        )
        parts.append(
            _markdown_block(
                "Table 6 — seconds to find top-20 seeds", format_table(rows)
            )
        )

    return "\n".join(parts)
