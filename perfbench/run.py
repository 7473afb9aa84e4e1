#!/usr/bin/env python3
"""Layered benchmark: batch pipeline, HTTP oracle reads and live ingest.

Run from the repository root::

    python3 perfbench/run.py --workload ingest-lkml --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

One run generates its inputs (pinned history and stream, seeded request
schedule), times the batch pipeline twice in this process, boots
``python -m repro serve --live sketch`` five times (the set-up), and
drives the last server open-loop: a fixed-rate phase for the latencies,
then a ladder of offered rates for ``max_rate_rps``, and, where the
workload keeps writes apart from reads, a write phase.  Every answer the
checks cover is compared with an in-process reference before any number
is reported.  ``--trace 1`` runs the same work with spans recorded around
each call into the program and reports the per-layer metrics instead.
``--workload all`` runs each workload in a child process of its own, so
that each one's ``peak_rss_mb`` is that of a fresh process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give every metric with its unit and sample count, and the input
digests.  A failed check prints ``"correct": false`` with no metrics and
exits with status 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".perfbench-runs")

# The program's own instrumentation and sanitizers stay off: the benchmark
# times the program as it ships, from outside.
PROGRAM_ENV_FLAGS = ("REPRO_OBS", "REPRO_DEBUG_LOCKS", "REPRO_DEBUG_ALLOC")
for _flag in PROGRAM_ENV_FLAGS:
    os.environ.pop(_flag, None)
sys.path.insert(0, SRC)

try:
    from repro.core.approx import ApproxIRS
    from repro.core.exact import ExactIRS
    from repro.core.maximization import celf_top_k
    from repro.core.oracle import ApproxInfluenceOracle, InfluenceOracle
    from repro.ingest.live import LiveIndex
    from repro.ingest.publisher import SnapshotPublisher
    from repro.serve.service import OracleService
    from repro.serve.snapshot import load_oracle, save_oracle
except ImportError as _error:  # not a checkout of the program
    print(f"perfbench: cannot import the program from {SRC}: {_error}", file=sys.stderr)
    sys.exit(2)

import checks  # noqa: E402
import httpload  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from tracing import Tracer, span_cost_s  # noqa: E402
from workloads import Workload  # noqa: E402

#: Acks in the fixed phase's last seconds are left out of freshness: their
#: covering publish may fall after the phase ends (a publish cycle is the
#: 1 s interval plus the publish itself).
FRESHNESS_HORIZON_S = 2.5
#: Ladder of offered rates: the fixed rate times LADDER_STEP**k for
#: -LADDER_DOWN <= k <= LADDER_UP (0.47x to 9x), searched by
#: LADDER_PROBES probes of PROBE_S each.
LADDER_STEP = 1.1
LADDER_DOWN, LADDER_UP = 8, 23
LADDER_PROBES = 5
PROBE_S = 2.0
SETUP_REPEATS = 5
#: Pipelines per run; pipeline_s is the median (the mean) of their CPU times.
PIPELINE_REPEATS = 2
#: Spans one pipeline records: the root and its five stages.
PIPELINE_SPANS = 6
PIPELINE_STAGES = ("build", "from_index", "save", "load", "celf")
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
#: HTTP answers compared with in-process answers before and after traffic.
CHECK_SAMPLE = 24
#: Nodes whose sketch estimate is compared with ExactIRS.
EXACT_SAMPLE = 200
READ_KINDS = ("lookup", "hot", "miss")


class RunError(Exception):
    """The run could not produce its numbers (not an output mismatch)."""


# ----------------------------------------------------------------------
# Process helpers
# ----------------------------------------------------------------------
def vm_hwm_mb(pid: str = "self") -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        match = re.search(r"VmHWM:\s+(\d+)\s+kB", handle.read())
    if match is None:
        raise RunError("VmHWM missing from /proc status")
    return int(match.group(1)) / 1024.0


def reset_hwm() -> None:
    """Reset this process's RSS high-water mark (Linux ``clear_refs`` 5)."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


class Server:
    """A ``python -m repro serve --live sketch`` child process."""

    def __init__(self, snapshot: str, inputs: workloads.Inputs, tag: str) -> None:
        self.publish_path = os.path.join(RUN_DIR, f"published-{tag}.snap")
        window = inputs.live_window
        command = [
            sys.executable, "-m", "repro", "serve", snapshot,
            "--port", "0",
            "--live", "sketch",
            "--live-window", str(window),
            "--decay-window", str(workloads.DECAY_WINDOWS * window),
            "--publish-path", self.publish_path,
            "--publish-interval", str(workloads.PUBLISH_INTERVAL_S),
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        self._log = open(os.path.join(RUN_DIR, f"server-{tag}.log"), "w", encoding="utf-8")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=self._log, text=True,
        )
        self.host = "127.0.0.1"
        self.control: Optional[httpload.Connection] = None
        try:
            self.control = httpload.Connection(self.host, self._read_port())
            deadline = started + BOOT_TIMEOUT_S
            while not self._healthy():
                if time.perf_counter() > deadline or self.proc.poll() is not None:
                    raise RunError("server did not become healthy")
                time.sleep(0.01)
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - started
        self.port = self.control.port

    def _healthy(self) -> bool:
        try:
            return self.healthz() is not None
        except OSError:
            return False

    def _read_port(self) -> int:
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline()
        match = re.search(r"http://[^:]+:(\d+)", line)
        if match is None:
            raise RunError(f"server did not announce its port: {line!r}")
        return int(match.group(1))

    def healthz(self) -> Optional[dict]:
        status, payload = self.control.request("GET", "/v1/healthz", None)
        return json.loads(payload) if status == 200 else None

    def post(self, path: str, body: object) -> Tuple[int, object]:
        status, payload = self.control.request("POST", path, json.dumps(body).encode())
        return status, json.loads(payload)

    def hwm_mb(self) -> float:
        return vm_hwm_mb(str(self.proc.pid))

    def stop(self) -> None:
        if self.control is not None:
            self.control.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


class CountingOracle(InfluenceOracle):
    """Delegates to an oracle and counts the marginal-gain evaluations."""

    def __init__(self, inner: InfluenceOracle) -> None:
        self.inner = inner
        self.gain_calls = 0

    def nodes(self):
        return self.inner.nodes()

    def influence(self, node):
        return self.inner.influence(node)

    def spread(self, seeds):
        return self.inner.spread(seeds)

    def new_accumulator(self):
        return self.inner.new_accumulator()

    def accumulate(self, state, node):
        self.inner.accumulate(state, node)

    def value(self, state):
        return self.inner.value(state)

    def gain(self, state, node):
        self.gain_calls += 1
        return self.inner.gain(state, node)

    def copy_accumulator(self, state):
        return self.inner.copy_accumulator(state)


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
class Run:
    def __init__(self, spec: Workload, seed: int, seconds: int, trace: bool) -> None:
        self.spec = spec
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tracer = Tracer(trace)
        self.rng = random.Random(f"{spec.name}/{seed}")
        self.tag = f"{spec.name}-{seed}-{os.getpid()}"
        self.snapshot = os.path.join(RUN_DIR, f"cold-{self.tag}.snap")
        self.servers: List[Server] = []
        self.metrics = stats.Metrics()
        self.attempted = 0
        self.failed = 0
        self.acked = 0
        self.rejected = 0
        self.errors: List[str] = []
        self.schedule_digest: List[str] = []
        self.layer: Dict[str, Tuple[float, str, int]] = {}
        self.started = time.perf_counter()

    def note(self, message: str) -> None:
        elapsed = time.perf_counter() - self.started
        print(f"perfbench: {self.spec.name}: {elapsed:6.1f}s {message}", file=sys.stderr)

    # -- set-up and pipeline ------------------------------------------
    def setup(self) -> Tuple[workloads.Inputs, Server, float]:
        """Generate inputs and boot a server, SETUP_REPEATS times; keep the last."""
        setups: List[float] = []
        boots: List[float] = []
        inputs: Optional[workloads.Inputs] = None
        server: Optional[Server] = None
        for repeat in range(SETUP_REPEATS):
            started = time.perf_counter()
            generated = workloads.generate(self.spec)
            generate_s = time.perf_counter() - started
            if inputs is None:
                mismatches = workloads.check_pins(self.spec, generated.digests)
                if mismatches:
                    raise RunError(
                        "generated inputs differ from perfbench/pins.json, runs are "
                        "not comparable: " + "; ".join(mismatches)
                    )
                inputs = generated
                self.pipelines(inputs)
            elif generated.digests != inputs.digests:
                raise RunError("input generation is not deterministic")
            if server is not None:
                server.stop()
                self.servers.remove(server)
            with self.tracer.span("serve.http.boot"):
                server = Server(self.snapshot, inputs, f"{self.tag}-{repeat}")
            self.servers.append(server)
            boots.append(server.boot_s)
            setups.append(generate_s + server.boot_s)
        assert inputs is not None and server is not None
        self.layer["serve.http.boot_s"] = (stats.median(boots), "s", len(boots))
        return inputs, server, stats.median(setups)

    def pipeline(self, history, window: int):
        """log in memory → build → oracle → save → load → CELF seeds.

        Timed in CPU seconds of this thread: the pipeline is single-threaded,
        and CPU time leaves out the time the host steals from the VM.
        """
        tracer = self.tracer
        gc.collect()
        started = time.perf_counter()
        cpu_started = time.thread_time()
        with tracer.span("pipeline"):
            with tracer.span("core.approx.build") as build:
                index = ApproxIRS.from_log(history, window, precision=workloads.PRECISION)
            with tracer.span("core.oracle.from_index") as from_index:
                oracle = ApproxInfluenceOracle.from_index(index)
            with tracer.span("serve.snapshot.save") as save:
                info = save_oracle(self.snapshot, oracle)
            with tracer.span("serve.snapshot.load") as load:
                loaded = load_oracle(self.snapshot)
            with tracer.span("core.maximization.celf") as celf:
                seeds = celf_top_k(loaded, workloads.CELF_K)
        cpu_s = time.thread_time() - cpu_started
        wall_s = time.perf_counter() - started
        self.attempted += 5
        stages = {
            "build": build, "from_index": from_index, "save": save,
            "load": load, "celf": celf,
        }
        return cpu_s, wall_s, index, oracle, loaded, seeds, info, stages

    def pipelines(self, inputs: workloads.Inputs) -> None:
        """The timed pipeline, PIPELINE_REPEATS times; the first one's
        oracles and peak RSS are kept for the checks and peak_rss_mb."""
        reset_hwm()
        cpu_times: List[float] = []
        wall_times: List[float] = []
        stage_runs: List[Tuple[float, dict]] = []
        for repeat in range(PIPELINE_REPEATS):
            cpu_s, wall_s, index, oracle, loaded, seeds, info, stages = self.pipeline(
                inputs.history, inputs.history_window
            )
            if repeat == 0:
                self.peak_rss_mb = vm_hwm_mb()
                self.index_stats = (index.entry_count(), index.max_cell_length())
                checks.registers_identical(oracle, loaded)
                self.memory_oracle, self.loaded = oracle, loaded
                self.celf_seeds, self.snapshot_info = seeds, info
            else:
                checks.seeds_equal(self.celf_seeds, seeds)
            cpu_times.append(cpu_s)
            wall_times.append(wall_s)
            stage_runs.append((cpu_s, stages))
            del index, oracle, loaded
        self.pipeline_s = stats.median(cpu_times)
        self.pipeline_wall_s = stats.median(wall_times)
        if self.trace:
            self.pipeline_layers(inputs, stage_runs)

    def pipeline_layers(self, inputs, stage_runs) -> None:
        """Per-stage medians (means of two) of the traced pipelines' CPU times."""
        def stage_s(key: str) -> float:
            return stats.median([stages[key].cpu_seconds for _, stages in stage_runs])

        repeats = len(stage_runs)
        events = len(inputs.history)
        size_mb = self.snapshot_info["bytes"] / 1e6
        build_s = stage_s("build")
        entries, max_cell = self.index_stats
        counting = CountingOracle(self.loaded)
        celf_top_k(counting, workloads.CELF_K)  # untimed: only counts the gains
        layer = self.layer
        layer["core.approx.build_s"] = (build_s, "s", repeats)
        layer["core.approx.events_per_s"] = (events / build_s, "1/s", events)
        layer["sketch.vhll.entries"] = (entries, "count", 1)
        layer["sketch.vhll.max_cell_len"] = (max_cell, "count", 1)
        layer["core.oracle.from_index_s"] = (stage_s("from_index"), "s", repeats)
        layer["core.maximization.celf_s"] = (stage_s("celf"), "s", repeats)
        layer["core.maximization.gain_calls"] = (counting.gain_calls, "count", 1)
        layer["serve.snapshot.bytes"] = (self.snapshot_info["bytes"], "B", 1)
        layer["serve.snapshot.save_mb_per_s"] = (size_mb / stage_s("save"), "MB/s", repeats)
        layer["serve.snapshot.load_mb_per_s"] = (size_mb / stage_s("load"), "MB/s", repeats)
        # What tracing adds to a pipeline: its spans times the measured cost
        # of one recorded span entered with cold caches.
        overhead = 1.0 + PIPELINE_SPANS * span_cost_s() / self.pipeline_s
        layer["bench.trace_overhead"] = (overhead, "ratio", PIPELINE_SPANS)
        # Each pipeline's stage self-times against its own CPU time; what the
        # stages leave out is the spans' own bookkeeping.
        ratio = stats.median([
            sum(self.tracer.self_cpu_seconds(stages[key]) for key in PIPELINE_STAGES) / cpu_s
            for cpu_s, stages in stage_runs
        ])
        layer["bench.stage_sum_ratio"] = (ratio, "ratio", repeats)
        self.note(
            f"stage self-times cover {ratio:.7f} of pipeline_s; tracing overhead "
            f"{overhead - 1.0:.2e}: {'within' if 1.0 - ratio <= overhead - 1.0 else 'NOT within'}"
        )

    # -- schedules -----------------------------------------------------
    def plans(
        self, duration: float, pools: Dict[str, list], read_scale: float, write_scale: float
    ) -> Tuple[List[httpload.Planned], List[httpload.Planned]]:
        """Seeded open-loop schedules: the workload's rates times the scales.

        The reader polls healthz (for freshness) whenever events are written.
        """
        spec = self.spec
        rng = self.rng
        times = httpload.poisson_times(rng, spec.read_rps * read_scale, duration)
        kinds = rng.choices(list(spec.mix), weights=list(spec.mix.values()), k=len(times))
        sizes = workloads.stratified_sizes(
            rng, kinds.count("miss"), *workloads.MISS_SEEDS
        )
        reader: List[httpload.Planned] = []
        for due, kind in zip(times, kinds):
            if kind == "lookup":
                path, body = "/v1/influence", {"node": rng.choice(pools["lookup"])}
            elif kind == "hot":
                pick = workloads.zipf_choice(rng, len(pools["hot"]))
                path, body = "/v1/spread", {"seeds": pools["hot"][pick]}
            else:
                path, body = "/v1/spread", {"seeds": rng.sample(pools["universe"], sizes.pop())}
            reader.append(
                httpload.Planned(due, kind, "POST", path, json.dumps(body).encode())
            )
        writer = [
            httpload.Planned(due, "ingest", "POST", "/v1/ingest")
            for due in httpload.poisson_times(rng, spec.write_rps * write_scale, duration)
        ]
        if writer:
            period = workloads.HEALTHZ_PERIOD_S
            reader.extend(
                httpload.Planned(period * (tick + 1), "healthz", "GET", "/v1/healthz")
                for tick in range(int(duration / period))
            )
            reader.sort(key=lambda item: item.due)
        self.schedule_digest.append(
            workloads.json_digest(
                [[round(item.due, 6), item.kind, (item.body or b"").decode()] for item in reader]
                + [[round(item.due, 6)] for item in writer]
            )
        )
        return reader, writer

    def account(self, result: httpload.PhaseResult) -> None:
        if httpload.STREAM_EXHAUSTED in result.errors:
            raise RunError("the ingest stream is too short for this run")
        outcomes = result.outcomes()
        self.attempted += len(outcomes)
        self.failed += sum(1 for outcome in outcomes if not outcome.ok)
        self.errors.extend(result.errors)
        for outcome in result.writer:
            if outcome.ok:
                self.ingested(json.loads(outcome.payload))

    def ingested(self, answer: dict) -> None:
        self.acked += int(answer["applied"])
        self.rejected += int(answer["rejected"])
        self.failed += int(answer["rejected"])

    # -- traffic -------------------------------------------------------
    def warmup(self, server: Server, cursor: httpload.StreamCursor) -> None:
        """Stream the warm-up events in bulk; wait until a publish covers them."""
        while cursor.position < workloads.WARMUP_EVENTS:
            batch = cursor.take(workloads.WARMUP_BATCH)
            status, answer = server.post("/v1/ingest", {"events": batch})
            self.attempted += 1
            if status != 200:
                raise RunError(f"warm-up ingest answered {status}")
            self.ingested(answer)
        self.wait_published(server, cursor.position)

    def wait_published(self, server: Server, events: int, timeout: float = 20.0) -> dict:
        deadline = time.perf_counter() + timeout
        while True:
            health = server.healthz()
            self.attempted += 1
            if health and int(health["publisher"]["published_events"]) >= events:
                return health
            if time.perf_counter() > deadline:
                raise RunError(f"no publish covered {events} events within {timeout}s")
            time.sleep(0.05)

    def phase(
        self, server, cursor, pools, duration: float, read_scale: float, write_scale: float
    ) -> httpload.PhaseResult:
        """A timed phase at the workload's rates times the scales; each
        request is recorded as a span after the phase."""
        reader, writer = self.plans(duration, pools, read_scale, write_scale)
        result = httpload.run_phase(
            server.host, server.port, reader, writer, cursor, duration
        )
        self.account(result)
        for outcome in result.outcomes():
            self.tracer.record(
                f"http.{outcome.kind}",
                int((result.start + outcome.sent) * 1e9),
                int((result.start + outcome.done) * 1e9),
                status=outcome.status,
                due_ns=int((result.start + outcome.due) * 1e9),
            )
        return result

    def offered(self, scale: float) -> float:
        """Requests per second offered at ``scale`` times the fixed rates."""
        spec = self.spec
        writes = spec.write_rps if spec.writes_beside_reads else 0.0
        return (spec.read_rps + writes) * scale

    def ladder(self, server, cursor, pools, fixed: httpload.PhaseResult) -> float:
        """Highest rung whose reads and ingests meet the limits without backlog.

        The rungs scale the fixed phase's rates.  The fixed-rate phase is
        the first probe; a bisection of ``LADDER_PROBES`` more probes then
        resolves the ladder to one rung.
        """
        write = 1.0 if self.spec.writes_beside_reads else 0.0
        scales = [LADDER_STEP ** step for step in range(-LADDER_DOWN, LADDER_UP + 1)]
        low, high = -1, len(scales)
        if self.passes(fixed, self.offered(1.0)):
            low = LADDER_DOWN
        else:
            high = LADDER_DOWN
        for _ in range(LADDER_PROBES):
            if high - low <= 1:
                break
            middle = (low + high) // 2
            scale = scales[middle]
            reader, writer = self.plans(PROBE_S, pools, scale, scale * write)
            reads = sum(1 for item in reader if item.kind != "healthz")
            limits = httpload.Limits(
                limit_s=workloads.LATENCY_LIMIT_MS / 1e3,
                allowed_read=reads // 100,
                allowed_ingest=len(writer) // 100,
            )
            result = httpload.run_phase(
                server.host, server.port, reader, writer, cursor, PROBE_S, limits=limits
            )
            self.account(result)
            if self.passes(result, self.offered(scale)):
                low = middle
            else:
                high = middle
        if low < 0:
            raise RunError("even the lowest offered rate missed the latency limit")
        return self.offered(scales[low])

    def passes(self, result: httpload.PhaseResult, rate: float) -> bool:
        """At most 1 % of reads and of ingests over the latency limit, and a
        backlog at the end that the offered rate would clear within it."""
        limit_s = workloads.LATENCY_LIMIT_MS / 1e3
        reads = [o for o in result.reader if o.kind in READ_KINDS and o.due <= result.duration]
        ingests = result.writer
        read_misses = sum(1 for o in reads if httpload.misses(o, limit_s))
        ingest_misses = sum(1 for o in ingests if httpload.misses(o, limit_s))
        backlog = result.backlog_at_end()
        verdict = (
            not result.aborted
            and read_misses <= len(reads) // 100
            and ingest_misses <= len(ingests) // 100
            and backlog <= rate * limit_s
        )
        print(
            f"perfbench: {self.spec.name}: {rate:.1f} rps offered: {len(reads)} reads "
            f"({read_misses} missed), {len(ingests)} ingests ({ingest_misses} missed), "
            f"backlog {backlog}{', aborted' if result.aborted else ''}: "
            f"{'pass' if verdict else 'fail'}",
            file=sys.stderr,
        )
        return verdict

    # -- metrics -------------------------------------------------------
    @staticmethod
    def latencies_ms(outcomes: Sequence[httpload.Outcome]) -> List[float]:
        """Open-loop latencies; a failed request counts at the client timeout."""
        return [
            (o.latency if o.ok else httpload.REQUEST_TIMEOUT_S) * 1e3 for o in outcomes
        ]

    def freshness(self, result: httpload.PhaseResult) -> List[float]:
        """Ack → first healthz answer whose published_events covers the batch."""
        polls = []
        for outcome in result.reader:
            if outcome.kind == "healthz" and outcome.ok:
                published = json.loads(outcome.payload)["publisher"]["published_events"]
                polls.append((outcome.done, int(published)))
        polls.sort()
        values = []
        last = result.duration - FRESHNESS_HORIZON_S
        for ack in sorted(result.writer, key=lambda o: o.done):
            if not ack.ok or ack.done > last:
                continue
            covering = next(
                (done for done, published in polls
                 if done > ack.done and published >= ack.events_sent),
                None,
            )
            if covering is None:
                raise RunError("an acknowledged batch was never covered by a publish")
            values.append(covering - ack.done)
        return values

    def end_to_end(self, setup_s, writes, server_hwm) -> None:
        """The gated metrics: the ones that hold steady from run to run."""
        m = self.metrics
        m.add("setup_s", setup_s, "s", SETUP_REPEATS)
        m.add("peak_rss_mb", self.peak_rss_mb, "MB", 1)
        m.add("server_rss_mb", server_hwm, "MB", 1)
        fresh = self.freshness(writes)
        m.add("freshness_p50_s", stats.percentile(fresh, 50, "freshness_p50_s"), "s", len(fresh))

    def ungated(self, fixed, writes, max_rate) -> stats.Metrics:
        """pipeline_s, and the HTTP latencies at the fixed rates and the
        ladder's highest rate.

        On the 2-vCPU VM they were measured on, the host's load moves
        these by more than any bound allows (README.md gives the spreads),
        so they are reported without one: in every run's table, and as
        per-layer metrics of the traced run.
        """
        m = stats.Metrics()
        m.add("pipeline_s", self.pipeline_s, "s", PIPELINE_REPEATS)
        by_kind: Dict[str, List[httpload.Outcome]] = {}
        for phase, outcomes in ((fixed, fixed.reader), (writes, writes.writer)):
            for outcome in outcomes:
                if outcome.due <= phase.duration:
                    by_kind.setdefault(outcome.kind, []).append(outcome)
        reads = [o for kind in READ_KINDS for o in by_kind.get(kind, [])]
        ms = self.latencies_ms
        m.add("max_rate_rps", max_rate, "1/s", LADDER_PROBES + 1)
        m.add("read_p99_ms", stats.percentile(ms(reads), 99, "read_p99_ms"), "ms", len(reads))
        for name, kind in (
            ("lookup_p50_ms", "lookup"),
            ("spread_p50_ms", "hot"),
            ("union_p50_ms", "miss"),
            ("ingest_p50_ms", "ingest"),
        ):
            values = ms(by_kind.get(kind, []))
            m.add(name, stats.percentile(values, 50, name), "ms", len(values))
        values = ms(by_kind.get("ingest", []))
        m.add("ingest_p99_ms", stats.percentile(values, 99, "ingest_p99_ms"), "ms", len(values))
        return m

    # -- checks --------------------------------------------------------
    def sample_requests(self, nodes: Sequence) -> List[Tuple[str, dict]]:
        rng = random.Random(f"{self.spec.name}/{self.seed}/check")
        requests = []
        for _ in range(CHECK_SAMPLE // 2):
            requests.append(("/v1/influence", {"node": rng.choice(nodes)}))
            size = rng.randint(1, 64)
            requests.append(("/v1/spread", {"seeds": rng.sample(nodes, size)}))
        return requests

    def http_answers(self, server: Server, requests) -> List[float]:
        answers = []
        for path, body in requests:
            status, payload = server.post(path, body)
            self.attempted += 1
            if status != 200:
                raise CheckFailed(f"{path} answered {status}: {payload}")
            answers.append(payload["influence" if path == "/v1/influence" else "spread"])
        return answers

    @staticmethod
    def oracle_answers(oracle, requests) -> List[float]:
        return [
            oracle.influence(body["node"]) if path == "/v1/influence"
            else oracle.spread(body["seeds"])
            for path, body in requests
        ]

    def replay_live(self, inputs, batches: Sequence[list]) -> Tuple[LiveIndex, List[float]]:
        live = LiveIndex(
            inputs.live_window,
            mode="sketch",
            decay_window=workloads.DECAY_WINDOWS * inputs.live_window,
        )
        timings = []
        for batch in batches:
            started = time.perf_counter()
            live.apply_events(batch)
            timings.append(time.perf_counter() - started)
        return live, timings

    def exact_check(self, inputs) -> float:
        history = inputs.history
        exact = ExactIRS.from_log(history, inputs.history_window)
        rng = random.Random(f"{self.spec.name}/{self.seed}/exact")
        nodes = sorted(history.nodes, key=repr)
        sample = rng.sample(nodes, min(EXACT_SAMPLE, len(nodes)))
        truth = {node: exact.irs_size(node) for node in sample}
        estimates = {node: self.loaded.influence(node) for node in sample}
        return checks.sketch_vs_exact(estimates, truth, workloads.PRECISION)

    # -- the whole run -------------------------------------------------
    def execute(self) -> None:
        spec = self.spec
        inputs, server, setup_s = self.setup()
        self.note(
            f"set up (pipeline {self.pipeline_s:.2f}s CPU, {self.pipeline_wall_s:.2f}s wall; "
            f"set-up {setup_s:.2f}s)"
        )
        cursor = httpload.StreamCursor(inputs.stream, workloads.BATCH_EVENTS)
        history_nodes = sorted(inputs.history.nodes, key=repr)
        cold_requests = self.sample_requests(history_nodes)
        checks.answers_equal(
            "cold snapshot over HTTP",
            self.oracle_answers(self.loaded, cold_requests),
            self.http_answers(server, cold_requests),
        )
        if spec.writes_beside_reads:
            # The reads hit the live oracle the warm-up publish installs.
            self.warmup(server, cursor)
            read_nodes = sorted({n for event in inputs.stream[: cursor.position] for n in event[:2]})
            universe = sorted({n for event in inputs.stream for n in event[:2]})
            read_oracle = None  # the published live oracle, rebuilt below
        else:
            # Nothing is ingested yet, so nothing is published: the reads hit
            # the cold snapshot.
            read_nodes = universe = history_nodes
            read_oracle = self.loaded
        pools = {
            "lookup": read_nodes,
            "hot": workloads.hot_pool(self.rng, read_nodes),
            "universe": universe,
        }
        self.note("ready for traffic")
        write_scale = 1.0 if spec.writes_beside_reads else 0.0
        fixed_s = self.seconds - LADDER_PROBES * PROBE_S - spec.write_phase_s
        fixed = self.phase(server, cursor, pools, fixed_s, 1.0, write_scale)
        fixed_health = server.healthz()
        self.note(f"fixed-rate phase done, {cursor.position} events streamed")
        max_rate = self.ladder(server, cursor, pools, fixed)
        self.note(f"ladder done, {cursor.position} events streamed")
        if spec.writes_beside_reads:
            writes = fixed
        else:
            health = server.healthz()
            self.attempted += 1
            if health is None or int(health["publisher"]["publishes"]):
                raise RunError("the server published during the read phases")
            after_requests = self.sample_requests(history_nodes)
            checks.answers_equal(
                "snapshot over HTTP after the reads",
                self.oracle_answers(self.loaded, after_requests),
                self.http_answers(server, after_requests),
            )
            self.warmup(server, cursor)
            writes = self.phase(server, cursor, pools, spec.write_phase_s, 0.0, 1.0)
            self.note(f"write phase done, {cursor.position} events streamed")
        warm_nodes = sorted({n for event in inputs.stream[: workloads.WARMUP_EVENTS] for n in event[:2]})
        # Final state: every sent event applied and covered by a publish.
        health = self.wait_published(server, cursor.position)
        checks.ingest_consistent(cursor.position, health["ingest"], self.acked, self.rejected)
        status, live_topk = server.post("/v1/topk_live", {"k": workloads.TOPK_LIVE_K})
        self.attempted += 1
        if status != 200:
            raise CheckFailed(f"/v1/topk_live answered {status}")
        final_requests = self.sample_requests(warm_nodes)
        final_http = self.http_answers(server, final_requests)
        server_hwm = server.hwm_mb()
        publisher_stats = health["publisher"]
        cache = (fixed_health or {}).get("cache", {})
        server.stop()
        self.servers.remove(server)

        self.note("server stopped")
        # References, computed after all timing is done.
        sent = inputs.stream[: cursor.position]
        batches = [sent[i : i + workloads.BATCH_EVENTS] for i in range(0, len(sent), workloads.BATCH_EVENTS)]
        live, apply_timings = self.replay_live(inputs, batches)
        checks.answers_equal(
            "final /v1/topk_live",
            [[node, value] for node, value in live.topk(workloads.TOPK_LIVE_K)],
            [[entry["node"], entry["influence"]] for entry in live_topk["ranking"]],
        )
        published = live.build_oracle()
        checks.answers_equal(
            "published snapshot over HTTP",
            self.oracle_answers(published, final_requests),
            final_http,
        )
        memory_seeds = celf_top_k(self.memory_oracle, workloads.CELF_K)
        checks.seeds_equal(memory_seeds, self.celf_seeds)
        self.exact_check(inputs)

        self.note("outputs checked")
        self.served = self.ungated(fixed, writes, max_rate)
        if self.trace:
            self.http_layers(
                fixed, writes, read_oracle or published, live, apply_timings,
                publisher_stats, cache,
            )
            self.metrics.extend(self.served)
        else:
            self.end_to_end(setup_s, writes, server_hwm)
        self.digests = dict(inputs.digests)
        self.digests["schedule"] = workloads.json_digest(self.schedule_digest)

    def http_layers(
        self, fixed, writes, read_oracle, live, apply_timings, publisher_stats, cache
    ) -> None:
        """Per-layer numbers: the timed requests replayed in-process, against
        the oracle the reads hit (for the live oracle, its final state)."""
        layer = self.layer
        spreads = [o for o in fixed.reader if o.kind in ("hot", "miss") and o.ok]
        lookups = [o for o in fixed.reader if o.kind == "lookup" and o.ok]
        ingests = [o for o in writes.writer if o.ok]
        service = OracleService(read_oracle)
        union_time = union_seeds = 0.0
        hit, miss = [], []
        for outcome in spreads:
            seeds = json.loads(outcome.body)["seeds"]
            started = time.perf_counter()
            read_oracle.spread(seeds)
            union_time += time.perf_counter() - started
            union_seeds += len(seeds)
            before = service.stats()["cache"]["hits"]
            started = time.perf_counter()
            service.spread(seeds)
            elapsed = time.perf_counter() - started
            (hit if service.stats()["cache"]["hits"] > before else miss).append(elapsed)
        influence_times, lookup_times = [], []
        for outcome in lookups:
            node = json.loads(outcome.body)["node"]
            started = time.perf_counter()
            read_oracle.influence(node)
            influence_times.append(time.perf_counter() - started)
            started = time.perf_counter()
            service.influence(node)
            lookup_times.append(time.perf_counter() - started)
        layer["core.oracle.union_us_per_seed"] = (union_time / union_seeds * 1e6, "us", int(union_seeds))
        layer["core.oracle.influence_us"] = (stats.median(influence_times) * 1e6, "us", len(influence_times))
        layer["serve.service.spread_hit_us"] = (stats.median(hit) * 1e6 if hit else 0.0, "us", len(hit))
        layer["serve.service.spread_miss_us"] = (stats.median(miss) * 1e6 if miss else 0.0, "us", len(miss))
        hits, misses = int(cache.get("hits", 0)), int(cache.get("misses", 0))
        layer["serve.service.cache_hit_ratio"] = (hits / max(1, hits + misses), "ratio", hits + misses)
        reload_times = []
        for _ in range(3):
            started = time.perf_counter()
            service.reload(self.snapshot)
            reload_times.append(time.perf_counter() - started)
        layer["serve.service.reload_s"] = (stats.median(reload_times), "s", 3)
        lookup_service = stats.median([o.service for o in lookups])
        layer["serve.http.lookup_overhead_ms"] = ((lookup_service - stats.median(lookup_times)) * 1e3, "ms", len(lookups))
        ingest_service = stats.median([o.service for o in ingests])
        layer["serve.http.ingest_overhead_ms"] = ((ingest_service - stats.median(apply_timings)) * 1e3, "ms", len(ingests))
        phases = [fixed] if writes is fixed else [fixed, writes]
        timed = [o for phase in phases for o in phase.outcomes()]
        connects = sum(phase.connects for phase in phases)
        layer["serve.http.connects_per_request"] = (connects / max(1, len(timed)), "ratio", len(timed))
        live_stats = live.stats()
        total_events = int(live_stats["events_applied"])
        layer["ingest.live.apply_us_per_event"] = (sum(apply_timings) / total_events * 1e6, "us", total_events)
        layer["ingest.live.entries"] = (int(live_stats["entries"]), "count", 1)
        layer["ingest.live.evicted"] = (int(live_stats["evicted"]), "count", 1)
        topk_times = []
        for _ in range(5):
            started = time.perf_counter()
            live.topk(workloads.TOPK_LIVE_K)
            topk_times.append(time.perf_counter() - started)
        layer["ingest.live.topk_ms"] = (stats.median(topk_times) * 1e3, "ms", 5)
        publisher = SnapshotPublisher(live, service, os.path.join(RUN_DIR, f"publish-{self.tag}.snap"))
        publish_times = []
        for _ in range(3):
            started = time.perf_counter()
            publisher.publish_once(force=True)
            publish_times.append(time.perf_counter() - started)
        layer["ingest.publisher.publish_s"] = (stats.median(publish_times), "s", 3)
        attempts = sum(int(publisher_stats[key]) for key in ("publishes", "skipped", "failed"))
        layer["ingest.publisher.publish_ratio"] = (int(publisher_stats["publishes"]) / max(1, attempts), "ratio", attempts)
        late = [o.late * 1e3 for o in timed]
        waits = [o.queue_wait * 1e3 for o in timed]
        layer["bench.late_p99_ms"] = (stats.percentile(late, 99, "bench.late_p99_ms"), "ms", len(late))
        layer["bench.queue_wait_p99_ms"] = (stats.percentile(waits, 99, "bench.queue_wait_p99_ms"), "ms", len(waits))
        for name, (value, unit, samples) in self.layer.items():
            self.metrics.add(name, value, unit, samples)

    def cleanup(self, keep_logs: bool) -> None:
        """Stop every server; remove this run's snapshots (and logs unless kept)."""
        for server in list(self.servers):
            server.stop()
        self.servers.clear()
        leftovers = (".snap", ".tmp") if keep_logs else (".snap", ".tmp", ".log")
        for path in os.listdir(RUN_DIR):
            if self.tag in path and path.endswith(leftovers):
                os.remove(os.path.join(RUN_DIR, path))
        if self.trace:
            self.tracer.write(os.path.join(RUN_DIR, f"trace-{self.spec.name}-{self.seed}.json"))


def run_workload(spec: Workload, seed: int, seconds: int, trace: bool) -> Tuple[bool, dict]:
    run = Run(spec, seed, seconds, trace)
    correct = False
    try:
        run.execute()
        correct = True
    except CheckFailed as failure:
        print(f"perfbench: {spec.name}: CHECK FAILED: {failure}", file=sys.stderr)
    finally:
        run.cleanup(keep_logs=not correct)
        for error in run.errors[:10]:
            print(f"perfbench: {spec.name}: request error: {error}", file=sys.stderr)
    if correct:
        print(f"perfbench: {spec.name} seed={seed} trace={int(trace)} inputs={json.dumps(run.digests)}")
        print(run.metrics.table())
        if not trace:
            print("  not gated (reported per layer by --trace 1):")
            print(run.served.table())
            print(f"  pipeline wall time: {run.pipeline_wall_s:.6g} s")
    result = {
        "correct": correct,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": run.metrics.result() if correct else {},
    }
    return correct, result


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    os.makedirs(RUN_DIR, exist_ok=True)
    if args.self_test:
        import selftest

        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.workload == "all":
        return run_all(args)
    try:
        correct, result = run_workload(
            workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
        )
    except (RunError, stats.InsufficientSamples) as error:
        print(f"perfbench: {args.workload}: {error}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh child process; one combined result line."""
    results = []
    for name in sorted(workloads.WORKLOADS):
        command = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        child = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode not in (0, 1) or not lines:
            return child.returncode or 2
        results.append(json.loads(lines[-1]))
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {},
    }))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
