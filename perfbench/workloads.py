"""Workload definitions, input generation and input pinning.

Every workload drives the whole system the way a deployment does: the
batch pipeline builds a cold-start snapshot from a history log, and a
``python -m repro serve --live sketch`` process boots from it.  The
workloads differ in the history the pipeline builds and in the traffic:

* ``ingest-lkml`` sends writes beside reads.  One writer connection
  streams newer events to ``/v1/ingest`` while one reader connection
  queries, and the server's publisher republishes the live index every
  second, so the reads hit the live oracle.
* ``serve-us2016`` sends its timed reads first, before any event is
  ingested.  The publisher publishes only after new events, so every
  read hits the 18.6k-node us2016 snapshot.  A write phase follows, in
  which the writer streams events and the reader only polls healthz.

The live stream keeps a catalog population (scaled for us2016-sim) and
observes it for longer, so the stream is long enough for a run while the
live index, whose publish and top-k costs grow with its node count,
stays at the catalog's size.

The datasets are generated from a pinned generator seed per workload and
their digests are committed in ``pins.json``: across generator seeds the
lkml-sim×4 build alone varies from 4.1 to 6.1 s, more than any bound
could absorb, so letting ``--seed`` pick the graph would make runs
incomparable.  ``--seed`` drives everything the benchmark itself draws —
arrival times, request mix, node and seed-set choices, check samples.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

from repro.core.interactions import InteractionLog
from repro.datasets import CATALOG, load_dataset

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")

#: Events per ``/v1/ingest`` request.
BATCH_EVENTS = 8
#: Events streamed before the timed writes, in requests of WARMUP_BATCH:
#: more than the decay horizon holds, so the live index is in its steady
#: state (evictions balance insertions) and a publish has made every
#: lookup node known to the served oracle.
WARMUP_EVENTS = 6144
WARMUP_BATCH = 256
#: Hot spread pool: seed sets that recur, so the service cache hits.
HOT_POOL_SIZE = 32
HOT_SEEDS = (1, 8)
#: Fresh spread sets: new every time, so the cache misses.
MISS_SEEDS = (100, 1000)
#: Period of the reader's ``/v1/healthz`` polls (freshness resolution).
HEALTHZ_PERIOD_S = 0.1
TOPK_LIVE_K = 10
CELF_K = 10
WINDOW_PERCENT = 10.0
PRECISION = 9
#: The live index's decay horizon, in multiples of its window ω.
DECAY_WINDOWS = 5
PUBLISH_INTERVAL_S = 1
#: The latency limit of ``max_rate_rps``: a rung passes while the p99 of
#: its reads and the p99 of its ingests stay under it.  Over 20 runs at
#: HEAD the fixed-rate p99s were, as median (range): reads 100 ms (55-145)
#: and ingests 160 ms (100-265) on ingest-lkml; reads 55 ms (35-140) on
#: serve-us2016, whose write phase gave ingest p99s of 180 ms (95-285).
#: Publish stalls set these.  300 ms is above all of them, so the fixed
#: rate passes and a probe fails once its queue grows.
LATENCY_LIMIT_MS = 300.0


@dataclass(frozen=True)
class Workload:
    """One traffic mix over one history; README.md gives each one's reason."""

    name: str
    history: Tuple[str, float, int]  # dataset, scale, pinned generator seed
    #: The live stream: the catalog population scaled by the second field,
    #: observed for the third field times as many days, pinned seed last.
    stream: Tuple[str, float, float, int]
    #: Offered reads and ingests per second in the fixed-rate phase: about
    #: 0.4 of the median max_rate_rps at HEAD (310 and 390 rps), a little
    #: under half, so that a slow spell of the host cannot grow the queue
    #: past the client's 10 s timeout, where requests would fail.
    read_rps: float
    write_rps: float
    #: Reader request mix: lookup / hot spread / miss spread.
    mix: Dict[str, float]
    #: True: the writer streams beside the reader, in the fixed phase and on
    #: the ladder.  False: the reads run first, against the cold snapshot,
    #: and a write phase of ``write_phase_s`` follows them.
    writes_beside_reads: bool
    write_phase_s: float = 0.0


WORKLOADS: Dict[str, Workload] = {
    spec.name: spec
    for spec in (
        # Reads: 90 % hot spreads, and lookups and fresh spreads in place
        # of /v1/topk_live calls (README.md says why).
        # 60 ingests/s give ingest_p99_ms its 1000 samples in a 20 s phase.
        Workload(
            name="ingest-lkml",
            history=("lkml-sim", 4.0, 1),
            stream=("lkml-sim", 1.0, 5.0, 2),
            read_rps=60.0,
            write_rps=60.0,
            mix={"lookup": 0.05, "hot": 0.90, "miss": 0.05},
            writes_beside_reads=True,
        ),
        # Reads only: 60 % lookups, 30 % hot spreads, 10 % fresh spreads.
        # The write phase gives the ingest and freshness numbers every
        # workload reports; 120 ingests/s give ingest_p99_ms its 1000
        # samples in 10 s.
        Workload(
            name="serve-us2016",
            history=("us2016-sim", 1.0, 1),
            stream=("us2016-sim", 0.1, 12.0, 2),
            read_rps=150.0,
            write_rps=120.0,
            mix={"lookup": 0.60, "hot": 0.30, "miss": 0.10},
            writes_beside_reads=False,
            write_phase_s=10.0,
        ),
    )
}


def log_digest(log: InteractionLog) -> str:
    digest = hashlib.sha256()
    for record in log:
        digest.update(f"{record.source!r},{record.target!r},{record.time};".encode())
    return digest.hexdigest()


def json_digest(payload: object) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


@dataclass
class Inputs:
    """Everything generated for one run, with the digests that pin it."""

    history: InteractionLog
    stream: List[List[int]]  # forward-ordered [u, v, t] events
    history_window: int
    live_window: int
    digests: Dict[str, str]


def generate(spec: Workload) -> Inputs:
    """The pinned history log and ingest stream of ``spec``."""
    name, scale, seed = spec.history
    history = load_dataset(name, rng=seed, scale=scale)
    name, population, span, seed = spec.stream
    base = CATALOG[name]
    stream_log = replace(
        base,
        num_nodes=int(base.num_nodes * population),
        num_interactions=int(base.num_interactions * population * span),
        days=int(base.days * span),
    ).generate(rng=seed)
    stream = [[record.source, record.target, record.time] for record in stream_log]
    return Inputs(
        history=history,
        stream=stream,
        history_window=history.window_from_percent(WINDOW_PERCENT),
        # ω of the catalog span, not of the longer stream, so the decay
        # horizon is a fixed share of the population's activity.
        live_window=round(base.time_span * WINDOW_PERCENT / 100.0),
        digests={"history": log_digest(history), "stream": log_digest(stream_log)},
    )


def check_pins(spec: Workload, digests: Dict[str, str]) -> List[str]:
    """Mismatches between generated inputs and the committed pins."""
    with open(PINS_PATH, encoding="utf-8") as handle:
        pins = json.load(handle).get(spec.name, {})
    return [
        f"{key} digest {digests[key][:16]} != pinned {pins.get(key, '<none>')[:16]}"
        for key in ("history", "stream")
        if pins.get(key) != digests[key]
    ]


def zipf_choice(rng: random.Random, count: int) -> int:
    """Rank-skewed index in ``range(count)`` (weight 1/(rank+1))."""
    weights = [1.0 / (rank + 1) for rank in range(count)]
    return rng.choices(range(count), weights=weights)[0]


def stratified_sizes(rng: random.Random, count: int, low: int, high: int) -> List[int]:
    """``count`` sizes spread evenly over ``[low, high]``, in random order.

    Evenly spread sizes keep the size distribution, and so the union
    cost's median, the same from seed to seed.
    """
    sizes = [
        low + int((high - low) * (index + rng.random()) / count)
        for index in range(count)
    ]
    rng.shuffle(sizes)
    return sizes


def hot_pool(rng: random.Random, nodes: Sequence[int]) -> List[List[int]]:
    return [
        sorted(rng.sample(nodes, rng.randint(*HOT_SEEDS)))
        for _ in range(HOT_POOL_SIZE)
    ]
