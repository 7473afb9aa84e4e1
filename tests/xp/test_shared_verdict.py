"""The trend gate and the experiment-matrix diff share one verdict rule.

``repro obs diff`` judges quartile summaries from snapshot files;
``repro xp diff`` judges raw seed replicates.  With at most three
replicates per side the Mann-Whitney gate can never reject at the
default alpha, so ``compare_samples`` must reduce exactly to the trend
rule that ``diff_snapshots`` applies to the same samples' quartiles.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.obs.trend import (
    BENCH_SCHEMA,
    diff_snapshots,
    diff_table,
    quartiles,
    validate_snapshot,
)
from repro.xp.stats import compare_samples

SNAPSHOT_DIRECTION = {"lower": "lower_is_better", "higher": "higher_is_better"}

replicates = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=3,
)


def snapshot(values, direction):
    entry = {"name": "metric", "direction": SNAPSHOT_DIRECTION[direction]}
    entry.update(quartiles(values))
    document = {"schema": BENCH_SCHEMA, "benchmarks": [entry], "counters": {}}
    validate_snapshot(document)
    return document


@given(
    old=replicates,
    new=replicates,
    direction=st.sampled_from(["lower", "higher"]),
    threshold=st.one_of(
        st.just(0.0),
        st.floats(min_value=0.0, max_value=5.0, allow_nan=False, allow_infinity=False),
    ),
)
@settings(max_examples=300, deadline=None)
def test_snapshot_diff_and_sample_comparison_agree(old, new, direction, threshold):
    (row,) = diff_snapshots(
        snapshot(old, direction), snapshot(new, direction), threshold=threshold
    )["rows"]
    compared = compare_samples(old, new, direction=direction, threshold=threshold)
    assert row["verdict"] == compared["verdict"]
    assert row["ratio"] == compared["ratio"]
    assert row["iqr_overlap"] == compared["iqr_overlap"]
    assert row["old_median"] == compared["old_median"]
    assert row["new_median"] == compared["new_median"]


def test_rank_tested_documents_add_a_p_column():
    bench = diff_snapshots(snapshot([1.0], "lower"), snapshot([3.0], "lower"))
    headers, cells, summary = diff_table(bench)
    assert headers == ("benchmark", "old_median", "new_median", "delta", "verdict")
    assert cells == [("metric", "1", "3", "+200.0%", "regression")]
    assert summary.startswith("1 benchmarks compared, 1 regression(s)")

    row = compare_samples([1.0], [3.0])
    row["name"] = "metric"
    ranked = {"threshold": 0.1, "alpha": 0.05, "rows": [row], "added": ["g"], "removed": []}
    headers, cells, summary = diff_table(ranked)
    assert headers == ("measurement", "old_median", "new_median", "delta", "p", "verdict")
    assert cells == [("metric", "1", "3", "+200.0%", "1.000", "regression")]
    assert "alpha=0.05" in summary
    assert summary.endswith("; 1 group(s) only in the new run")
