"""The benchmark's own HTTP/1.1 client and open-loop load generator.

Each connection is served by one thread that sends its planned requests
at their due times, whatever the server does: a slow answer delays the
next send on that connection (the wait is counted from the due time) but
never thins the schedule.  The client reuses a connection whenever the
server keeps it open and counts every connect, so a keep-alive change in
the server shows up both in latency and in ``connects_per_request``.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

JSON_HEADERS = {"Content-Type": "application/json"}
REQUEST_TIMEOUT_S = 10.0
STREAM_EXHAUSTED = "ingest stream exhausted"


class Connection:
    """One client connection; reconnects only when the server closed it."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.connects = 0
        self._conn: Optional[http.client.HTTPConnection] = None

    def request(self, method: str, path: str, body: Optional[bytes]) -> Tuple[int, bytes]:
        headers = JSON_HEADERS if body is not None else {}
        for attempt in (0, 1):
            reused = self._conn is not None
            if self._conn is None:
                conn = http.client.HTTPConnection(
                    self.host, self.port, timeout=REQUEST_TIMEOUT_S
                )
                conn.connect()
                self._conn = conn
                self.connects += 1
            try:
                self._conn.request(method, path, body=body, headers=headers)
                response = self._conn.getresponse()
                payload = response.read()
            except (http.client.RemoteDisconnected, BrokenPipeError, ConnectionResetError):
                self.close()
                # A kept-alive socket the server has since closed: resend once
                # on a fresh connection.  A fresh socket failing is a failure.
                if reused and attempt == 0:
                    continue
                raise
            except (OSError, http.client.HTTPException):
                self.close()
                raise
            if response.will_close:
                self.close()
            return response.status, payload
        raise AssertionError("unreachable")

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


@dataclass
class Planned:
    """One request of a schedule; ingest bodies come from the stream at send time."""

    due: float
    kind: str
    method: str
    path: str
    body: Optional[bytes] = None


@dataclass
class Outcome:
    kind: str
    due: float
    free: float  # when the connection became free for this request
    sent: float
    done: float
    status: int
    payload: bytes = b""
    body: Optional[bytes] = None
    events_sent: int = 0  # ingest: cumulative events sent, this batch included

    @property
    def ok(self) -> bool:
        return self.status == 200

    @property
    def latency(self) -> float:
        """Seconds from the due time to the answer (open-loop latency)."""
        return self.done - self.due

    @property
    def service(self) -> float:
        """Seconds from the send to the answer (what one request costs)."""
        return self.done - self.sent

    @property
    def queue_wait(self) -> float:
        """Time the request waited for its busy connection."""
        return max(0.0, min(self.sent, self.free) - self.due)

    @property
    def late(self) -> float:
        """Time the generator overslept after the connection was free."""
        return max(0.0, self.sent - max(self.due, self.free))


class StreamCursor:
    """Hands out consecutive ingest batches in forward time order."""

    def __init__(self, events: Sequence[list], batch: int) -> None:
        self._events = events
        self._batch = batch
        self.position = 0

    def take(self, size: int = 0) -> Optional[list]:
        """The next ``size`` events (default: the cursor's batch size)."""
        if self.position >= len(self._events):
            return None
        end = self.position + (size or self._batch)
        chunk = list(self._events[self.position : end])
        self.position += len(chunk)
        return chunk

    @property
    def remaining(self) -> int:
        return len(self._events) - self.position


def misses(outcome: Outcome, limit_s: float) -> bool:
    """A failed request misses every latency limit."""
    return not outcome.ok or outcome.latency > limit_s


@dataclass
class Limits:
    """Stops a ladder probe once more than 1 % of reads or of ingests miss."""

    limit_s: float
    allowed_read: int
    allowed_ingest: int
    read_misses: int = 0
    ingest_misses: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)

    def observe(self, outcome: Outcome) -> bool:
        """Count ``outcome``; True once either class exceeds its allowance."""
        if outcome.kind == "healthz" or not misses(outcome, self.limit_s):
            return False
        with self.lock:
            if outcome.kind == "ingest":
                self.ingest_misses += 1
            else:
                self.read_misses += 1
            return (
                self.read_misses > self.allowed_read
                or self.ingest_misses > self.allowed_ingest
            )


@dataclass
class PhaseResult:
    start: float  # perf_counter() at the phase's time zero
    duration: float
    reader: List[Outcome]
    writer: List[Outcome]
    aborted: bool
    connects: int
    errors: List[str]

    def outcomes(self) -> List[Outcome]:
        return self.reader + self.writer

    def backlog_at_end(self) -> int:
        """Requests due inside the phase but still unsent when it ended."""
        return sum(
            1
            for outcome in self.outcomes()
            if outcome.due <= self.duration and outcome.sent > self.duration
        )


def poisson_times(rng: random.Random, rate: float, duration: float) -> List[float]:
    times: List[float] = []
    if rate <= 0:
        return times
    now = rng.expovariate(rate)
    while now < duration:
        times.append(now)
        now += rng.expovariate(rate)
    return times


def _run_connection(
    host: str,
    port: int,
    plan: Sequence[Planned],
    start: float,
    stop: threading.Event,
    outcomes: List[Outcome],
    errors: List[str],
    counts: Dict[str, int],
    cursor: Optional[StreamCursor],
    limits: Optional[Limits],
) -> None:
    connection = Connection(host, port)
    free = 0.0
    try:
        for item in plan:
            if stop.is_set():
                break
            delay = start + item.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            body = item.body
            batch = None
            if item.kind == "ingest":
                assert cursor is not None
                batch = cursor.take()
                if batch is None:
                    errors.append(STREAM_EXHAUSTED)
                    stop.set()
                    break
                body = json.dumps({"events": batch}).encode()
            sent = time.perf_counter() - start
            try:
                status, payload = connection.request(item.method, item.path, body)
            except (OSError, http.client.HTTPException) as error:
                status, payload = 0, b""
                errors.append(f"{item.kind}: {type(error).__name__}: {error}")
            done = time.perf_counter() - start
            outcome = Outcome(
                kind=item.kind,
                due=item.due,
                free=free,
                sent=sent,
                done=done,
                status=status,
                payload=payload,
                body=body,
                events_sent=cursor.position if cursor is not None else 0,
            )
            free = done
            if status != 200 and status != 0:
                errors.append(f"{item.kind}: HTTP {status}: {payload[:200]!r}")
            outcomes.append(outcome)
            if limits is not None and limits.observe(outcome):
                stop.set()
    finally:
        connection.close()
        counts[threading.current_thread().name] = connection.connects


def run_phase(
    host: str,
    port: int,
    reader_plan: Sequence[Planned],
    writer_plan: Sequence[Planned],
    cursor: StreamCursor,
    duration: float,
    limits: Optional[Limits] = None,
) -> PhaseResult:
    """Send both plans open-loop on one reader and one writer connection."""
    stop = threading.Event()
    reader: List[Outcome] = []
    writer: List[Outcome] = []
    errors: List[str] = []
    counts: Dict[str, int] = {}
    start = time.perf_counter() + 0.05
    threads = [
        threading.Thread(
            target=_run_connection,
            args=(host, port, plan, start, stop, out, errors, counts, cur, limits),
            name=f"perfbench-{role}",
        )
        for role, plan, out, cur in (
            ("reader", reader_plan, reader, None),
            ("writer", writer_plan, writer, cursor),
        )
    ]
    for thread in threads:
        thread.start()
    try:
        for thread in threads:
            thread.join()
        aborted = stop.is_set()
    finally:
        # Interrupted (SIGTERM): stop sending, let in-flight requests end.
        stop.set()
        for thread in threads:
            thread.join()
    return PhaseResult(
        start=start,
        duration=duration,
        reader=reader,
        writer=writer,
        aborted=aborted,
        connects=sum(counts.values()),
        errors=errors,
    )
