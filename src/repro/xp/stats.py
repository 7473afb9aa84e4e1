"""Significance testing for experiment-cell comparisons.

Dependency-free implementations of the two tests the evidence reports
need, plus the comparison rule shared with the performance-trend gate:

* :func:`mann_whitney_u` — two-sided Mann-Whitney U (Wilcoxon rank-sum)
  with tie correction and continuity-corrected normal approximation.
  The replicate counts here (3–10 seeds per cell) are far below any
  asymptotic regime, so the p-value is advisory — which is exactly why
  the verdict below *also* requires the trend gate's median-shift and
  disjoint-IQR rule.
* :func:`bootstrap_ci` — seeded percentile-bootstrap confidence interval
  of the median (or mean), for annotating point estimates.
* :func:`compare_samples` — :func:`repro.obs.trend.trend_verdict` (the
  median moved more than ``threshold`` and the ``[q1, q3]`` ranges do
  not overlap) over the samples' :func:`quartiles`, gated additionally
  on Mann-Whitney rejecting at ``alpha``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.obs.trend import DEFAULT_THRESHOLD, quartiles, trend_verdict

__all__ = [
    "DEFAULT_ALPHA",
    "MannWhitneyResult",
    "rankdata",
    "mann_whitney_u",
    "bootstrap_ci",
    "significance_marker",
    "compare_samples",
]

#: Default two-sided significance level of the report annotations.
DEFAULT_ALPHA = 0.05


def rankdata(values: Sequence[float]) -> List[float]:
    """Average ranks (1-based), ties sharing their mean rank."""
    order = sorted(range(len(values)), key=lambda index: values[index])
    ranks = [0.0] * len(values)
    position = 0
    while position < len(order):
        tail = position
        while (
            tail + 1 < len(order)
            and values[order[tail + 1]] == values[order[position]]
        ):
            tail += 1
        average = (position + tail) / 2.0 + 1.0
        for index in order[position : tail + 1]:
            ranks[index] = average
        position = tail + 1
    return ranks


@dataclass(frozen=True)
class MannWhitneyResult:
    """Outcome of a two-sided Mann-Whitney U test."""

    u: float  #: U statistic of the *first* sample.
    p_value: float  #: two-sided, normal approximation (1.0 when degenerate)
    n_x: int
    n_y: int

    @property
    def significant(self) -> bool:
        return self.p_value < DEFAULT_ALPHA


def mann_whitney_u(xs: Sequence[float], ys: Sequence[float]) -> MannWhitneyResult:
    """Two-sided Mann-Whitney U over two independent samples.

    Uses the tie-corrected normal approximation with continuity
    correction.  Degenerate inputs (an empty sample, or all values
    identical) return ``p = 1.0`` rather than raising: a cell comparison
    with no variation carries no evidence either way.
    """
    n_x, n_y = len(xs), len(ys)
    if n_x == 0 or n_y == 0:
        return MannWhitneyResult(u=0.0, p_value=1.0, n_x=n_x, n_y=n_y)
    pooled = [float(v) for v in xs] + [float(v) for v in ys]
    ranks = rankdata(pooled)
    rank_sum_x = sum(ranks[:n_x])
    u_x = rank_sum_x - n_x * (n_x + 1) / 2.0
    mean_u = n_x * n_y / 2.0
    total = n_x + n_y
    # Tie correction on the variance: sum over tie groups of (t^3 - t).
    tie_term = 0.0
    counts: Dict[float, int] = {}
    for value in pooled:
        counts[value] = counts.get(value, 0) + 1
    for count in counts.values():
        tie_term += count**3 - count
    variance = (
        n_x * n_y / 12.0 * ((total + 1) - tie_term / (total * (total - 1)))
        if total > 1
        else 0.0
    )
    if variance <= 0.0:
        return MannWhitneyResult(u=u_x, p_value=1.0, n_x=n_x, n_y=n_y)
    z = (abs(u_x - mean_u) - 0.5) / math.sqrt(variance)
    z = max(z, 0.0)
    p = 2.0 * (1.0 - _normal_cdf(z))
    return MannWhitneyResult(u=u_x, p_value=min(max(p, 0.0), 1.0), n_x=n_x, n_y=n_y)


def _normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def bootstrap_ci(
    values: Sequence[float],
    statistic: str = "median",
    confidence: float = 0.95,
    resamples: int = 2000,
    seed: int = 0,
) -> Tuple[float, float]:
    """Seeded percentile-bootstrap CI of ``median`` or ``mean``.

    Deterministic for a given ``seed`` so report regeneration is
    reproducible bit for bit.
    """
    if not values:
        raise ValueError("cannot bootstrap an empty sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if statistic == "median":
        stat: Callable[[Sequence[float]], float] = lambda sample: quartiles(sample)["median"]
    elif statistic == "mean":
        stat = lambda sample: sum(sample) / len(sample)  # noqa: E731
    else:
        raise ValueError(f"unknown bootstrap statistic {statistic!r}; use median or mean")
    data = [float(v) for v in values]
    if len(data) == 1:
        return (data[0], data[0])
    rng = random.Random(seed)
    n = len(data)
    estimates = []
    for _ in range(resamples):
        sample = [data[rng.randrange(n)] for _ in range(n)]
        estimates.append(stat(sample))
    estimates.sort()
    lower = (1.0 - confidence) / 2.0
    lo = estimates[min(int(lower * resamples), resamples - 1)]
    hi = estimates[min(int((1.0 - lower) * resamples), resamples - 1)]
    return (lo, hi)


#: Cache of "can an (n_x, n_y, alpha) rank test ever reject?" answers.
_POWER_CACHE: Dict[Tuple[int, int, float], bool] = {}


def _test_is_powered(n_x: int, n_y: int, alpha: float) -> bool:
    """Whether Mann-Whitney at these sample sizes can reject at ``alpha``.

    The best case is two perfectly separated tie-free samples; if even
    that p-value misses ``alpha`` (e.g. 3 vs 3 bottoms out near 0.08),
    requiring rejection would make a regression verdict unreachable, so
    :func:`compare_samples` treats the test as advisory instead.
    """
    cache_key = (n_x, n_y, alpha)
    cached = _POWER_CACHE.get(cache_key)
    if cached is None:
        floor = mann_whitney_u(
            [float(i) for i in range(n_x)],
            [float(n_x + i) for i in range(n_y)],
        ).p_value
        cached = floor < alpha
        _POWER_CACHE[cache_key] = cached
    return cached


def significance_marker(p_value: float) -> str:
    """The usual star notation: ``***`` <0.001, ``**`` <0.01, ``*`` <0.05."""
    if p_value < 0.001:
        return "***"
    if p_value < 0.01:
        return "**"
    if p_value < 0.05:
        return "*"
    return ""


def compare_samples(
    baseline: Sequence[float],
    candidate: Sequence[float],
    direction: str = "lower",
    threshold: float = DEFAULT_THRESHOLD,
    alpha: float = DEFAULT_ALPHA,
) -> Dict[str, object]:
    """Compare two replicate samples of one metric; the trend-delta rule.

    ``direction`` is ``"lower"`` (smaller is better: timings, error,
    memory) or ``"higher"`` (spread, overlap).  The returned dict has the
    two medians plus the :func:`~repro.obs.trend.trend_verdict` fields
    over the samples' quartiles and the Mann-Whitney ``p_value``.  A
    ``regression`` / ``improvement`` verdict stands only when the test
    also rejects at ``alpha``; otherwise it becomes ``ok``.  When the
    replicate counts are too small for the rank test ever to reject at
    ``alpha`` (a 3-vs-3 split bottoms out near ``p = 0.08``; single
    replicates are fully degenerate), the test becomes advisory and the
    plain trend rule decides alone — the recorded ``p_value`` still shows
    what the test said (``1.0`` for single replicates), visible in the
    report as unannotated.
    """
    old = quartiles(baseline)
    new = quartiles(candidate)
    result = trend_verdict(old, new, direction=direction, threshold=threshold)
    test = mann_whitney_u(baseline, candidate)
    multi = test.n_x > 1 and test.n_y > 1
    if multi and _test_is_powered(test.n_x, test.n_y, alpha) and test.p_value >= alpha:
        result["verdict"] = "ok"
    result.update(
        old_median=old["median"],
        new_median=new["median"],
        p_value=test.p_value if multi else 1.0,
        n_old=test.n_x,
        n_new=test.n_y,
        direction=direction,
    )
    return result
