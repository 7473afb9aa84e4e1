"""Show that every output check trips on a corrupted answer.

For each workload, a scaled-down copy of its inputs goes through the same
code paths as a run (pipeline, server, ingest, publish), each check is
run on the genuine answers (it must pass) and then on the same answers
with exactly one of them corrupted (it must fail).  Run it with
``python3 perfbench/run.py --self-test``.
"""

from __future__ import annotations

import copy
import dataclasses
import sys
from typing import Callable, List, Tuple

from repro.core.exact import ExactIRS
from repro.core.maximization import celf_top_k
from repro.core.oracle import ApproxInfluenceOracle

import checks
import httpload
import run
import workloads
from checks import CheckFailed

#: Scale of the history and number of streamed events in the self-test.
HISTORY_SCALE = 0.1
STREAM_EVENTS = 512


def _verdict(check: Callable[[], object]) -> bool:
    try:
        check()
    except CheckFailed:
        return False
    return True


def _bump(value: float) -> float:
    return value + 1.0


def workload_cases(spec: workloads.Workload) -> List[Tuple[str, Callable, Callable]]:
    """(check name, genuine check, corrupted check) for one workload."""
    name, _, seed = spec.history
    small = dataclasses.replace(spec, history=(name, HISTORY_SCALE, seed))
    bench = run.Run(small, seed=1, seconds=1, trace=False)
    inputs = workloads.generate(small)
    inputs.stream = inputs.stream[:STREAM_EVENTS]
    bench.pipelines(inputs)
    cases: List[Tuple[str, Callable, Callable]] = []

    memory, loaded = bench.memory_oracle, bench.loaded
    registers = {node: loaded.registers(node) for node in loaded.nodes()}
    registers[next(iter(registers))][0] += 1
    broken = ApproxInfluenceOracle(registers, loaded.num_cells)
    cases.append((
        "reloaded registers bit-identical",
        lambda: checks.registers_identical(memory, loaded),
        lambda: checks.registers_identical(memory, broken),
    ))

    seeds = list(bench.celf_seeds)
    memory_seeds = celf_top_k(memory, workloads.CELF_K)
    cases.append((
        "CELF seeds equal on both oracles",
        lambda: checks.seeds_equal(memory_seeds, seeds),
        lambda: checks.seeds_equal(memory_seeds, seeds[:-1] + [seeds[0]]),
    ))

    history = inputs.history
    exact = ExactIRS.from_log(history, inputs.history_window)
    sample = sorted(history.nodes, key=repr)[: run.EXACT_SAMPLE]
    truth = {n: exact.irs_size(n) for n in sample}
    estimates = {n: loaded.influence(n) for n in sample}
    largest = max(truth, key=truth.get)
    wrong = dict(estimates)
    wrong[largest] = 2.0 * truth[largest] + 2.0
    cases.append((
        "sigma estimates within the sketch error bound",
        lambda: checks.sketch_vs_exact(estimates, truth, workloads.PRECISION),
        lambda: checks.sketch_vs_exact(wrong, truth, workloads.PRECISION),
    ))

    server = run.Server(bench.snapshot, inputs, f"{bench.tag}-selftest")
    bench.servers.append(server)
    try:
        nodes = sorted(history.nodes, key=repr)
        requests = bench.sample_requests(nodes)
        observed = bench.http_answers(server, requests)
        expected = bench.oracle_answers(loaded, requests)
        cases.append((
            "HTTP answers equal in-process answers",
            lambda: checks.answers_equal("http", expected, observed),
            lambda: checks.answers_equal("http", expected, observed[:-1] + [_bump(observed[-1])]),
        ))
        cursor = httpload.StreamCursor(inputs.stream, workloads.BATCH_EVENTS)
        while cursor.remaining:
            status, answer = server.post("/v1/ingest", {"events": cursor.take()})
            bench.ingested(answer)
        health = bench.wait_published(server, cursor.position)
        sent = cursor.position
        stats = health["ingest"]
        cases.append((
            "no rejected events, applied == sent",
            lambda: checks.ingest_consistent(sent, stats, bench.acked, bench.rejected),
            lambda: checks.ingest_consistent(sent + 1, stats, bench.acked, bench.rejected),
        ))
        _, topk = server.post("/v1/topk_live", {"k": workloads.TOPK_LIVE_K})
    finally:
        bench.cleanup(keep_logs=False)
    batches = [inputs.stream[i : i + 8] for i in range(0, len(inputs.stream), 8)]
    live, _ = bench.replay_live(inputs, batches)
    want = [[n, v] for n, v in live.topk(workloads.TOPK_LIVE_K)]
    got = [[entry["node"], entry["influence"]] for entry in topk["ranking"]]
    bad = copy.deepcopy(got)
    bad[-1][1] = _bump(bad[-1][1])
    cases.append((
        "final topk_live equals the in-process replay",
        lambda: checks.answers_equal("topk", want, got),
        lambda: checks.answers_equal("topk", want, bad),
    ))
    return cases


def main() -> int:
    ok = True
    for spec in workloads.WORKLOADS.values():
        for label, genuine, corrupted in workload_cases(spec):
            passes = _verdict(genuine)
            trips = not _verdict(corrupted)
            ok = ok and passes and trips
            print(
                f"{spec.name:<14} {label:<46} genuine: {'pass' if passes else 'FAIL'}"
                f"  corrupted: {'tripped' if trips else 'NOT TRIPPED'}"
            )
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
