"""LiveIndex: batch equivalence, decay semantics, validation, modes."""

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from tests.ingest.conftest import forward_events

from repro.core.approx import ApproxIRS
from repro.core.exact import ExactIRS
from repro.core.oracle import ApproxInfluenceOracle, ExactInfluenceOracle
from repro.ingest.live import IngestResult, LiveIndex
from repro.sketch.hll import HyperLogLog

WINDOW = 40


class TestExactEquivalence:
    """Full-log live ingest must match the batch reverse-scan index."""

    @pytest.fixture(scope="class")
    def pair(self, small_log):
        live = LiveIndex(window=WINDOW, mode="exact")
        result = live.apply_events(forward_events(small_log))
        assert result.rejected == 0
        batch = ExactIRS.from_log(small_log, WINDOW)
        return live, batch

    def test_influence_matches_irs_sizes(self, pair, small_log):
        live, batch = pair
        for node in small_log.nodes:
            assert live.influence(node) == batch.irs_size(node), node

    def test_topk_matches_batch_ranking(self, pair, small_log):
        live, batch = pair
        sizes = batch.irs_sizes()
        expected = sorted(sizes.items(), key=lambda entry: (-entry[1], repr(entry[0])))
        got = live.topk(10)
        assert [(node, float(size)) for node, size in expected[:10]] == got

    def test_oracle_inversion_matches_reachability_sets(self, pair, small_log):
        live, batch = pair
        oracle = live.build_oracle()
        assert isinstance(oracle, ExactInfluenceOracle)
        for node in small_log.nodes:
            assert oracle.reachability_set(node) == frozenset(
                batch.reachability_set(node)
            ), node

    def test_spread_matches_batch_union(self, pair, small_log):
        live, batch = pair
        seeds = sorted(small_log.nodes, key=repr)[:6]
        assert live.spread(seeds) == float(batch.spread(seeds))

    def test_influencers_are_the_dual_sets(self, pair, small_log):
        live, batch = pair
        target = sorted(small_log.nodes, key=repr)[0]
        assert live.influencers(target) == {
            node for node in small_log.nodes if target in batch.reachability_set(node)
        }


class TestSketchEquivalence:
    """Live vHLL sketches equal batch ApproxIRS on cycle-free logs."""

    PRECISION = 7

    @pytest.fixture(scope="class")
    def pair(self, acyclic_log):
        live = LiveIndex(window=WINDOW, mode="sketch", precision=self.PRECISION)
        result = live.apply_events(forward_events(acyclic_log))
        assert result.rejected == 0
        batch = ApproxIRS.from_log(acyclic_log, WINDOW, precision=self.PRECISION)
        return live, batch

    def test_registers_match_exactly(self, pair, acyclic_log):
        live, batch = pair
        oracle = live.build_oracle()
        assert isinstance(oracle, ApproxInfluenceOracle)
        for node in acyclic_log.nodes:
            assert oracle.registers(node) == batch.registers(node), node

    def test_influence_estimates_match(self, pair, acyclic_log):
        live, batch = pair
        for node in acyclic_log.nodes:
            assert live.influence(node) == batch.irs_estimate(node), node

    def test_spread_estimates_match(self, pair, acyclic_log):
        live, batch = pair
        seeds = sorted(acyclic_log.nodes, key=repr)[:5]
        assert live.spread(seeds) == batch.spread(seeds)


@st.composite
def tied_logs(draw):
    """Forward event lists over few nodes: tied stamps, cycles, self-loops."""
    nodes = st.sampled_from("abcdef")
    steps = draw(st.lists(st.sampled_from([0, 0, 1, 2, 5]), min_size=1, max_size=40))
    events, time = [], 0
    for step in steps:
        time += step
        events.append((draw(nodes), draw(nodes), time))
    return events


class TestSketchMatchesExact:
    """Sketch registers == a plain HLL of the exact-mode reachability set.

    Holds on every log, cycles included, and at every decay horizon: the
    per-influencer vHLL over negated channel starts must answer a horizon
    with exactly the in-horizon channels the dual keeps.
    """

    PRECISION = 4
    SALT = 3

    @given(
        events=tied_logs(),
        window=st.integers(min_value=0, max_value=12),
        decay_window=st.sampled_from([None, 3, 10, 40]),
        sweep_every=st.sampled_from([1, 4, 1024]),
    )
    @settings(max_examples=80, deadline=None)
    def test_registers_equal_hll_of_exact_sets(
        self, events, window, decay_window, sweep_every
    ):
        def replay(mode):
            live = LiveIndex(
                window,
                mode=mode,
                decay_window=decay_window,
                precision=self.PRECISION,
                salt=self.SALT,
                sweep_every=sweep_every,
            )
            live.apply_events(events)
            return live.build_oracle()

        sketch_oracle, exact_oracle = replay("sketch"), replay("exact")
        for node in {node for event in events for node in event[:2]}:
            expected = HyperLogLog(self.PRECISION, self.SALT)
            expected.update(exact_oracle.reachability_set(node))
            assert sketch_oracle.registers(node) == expected.registers(), node


class TestDecay:
    """Aged-out interactions must leave sigma(u) — the liveness guarantee."""

    def test_old_channel_leaves_influence_set(self):
        live = LiveIndex(window=10, mode="exact", decay_window=5)
        live.apply("a", "b", 1)
        assert live.influence("a") == 1.0
        assert live.influencers("b") == {"a"}
        # Unrelated traffic pushes the horizon past the a->b channel start.
        live.apply("x", "y", 20)
        assert live.horizon() == 16
        assert live.influence("a") == 0.0
        assert live.influencers("b") == set()
        assert ("a", 1.0) not in live.topk(5)

    def test_sweep_evicts_and_decrements_counts(self):
        live = LiveIndex(window=10, mode="exact", decay_window=5, sweep_every=10_000)
        live.apply("a", "b", 1)
        live.apply("x", "y", 20)
        before = live.stats()
        assert before["entries"] == 2
        evicted = live.sweep()
        assert evicted == 1  # the (a -> b, start 1) entry
        after = live.stats()
        assert after["entries"] == 1
        assert after["evicted"] == 1
        # Counts agree with the horizon-filtered answer after the sweep.
        assert live.influence("a") == 0.0
        assert live.influence("x") == 1.0

    def test_periodic_sweep_runs_by_itself(self):
        live = LiveIndex(window=10, mode="exact", decay_window=5, sweep_every=8)
        events = [("a", "b", 1)] + [
            (f"s{index}", f"t{index}", 30 + index) for index in range(10)
        ]
        result = live.apply_events(events)
        assert result.evicted >= 1
        assert live.stats()["sweeps"] >= 1

    def test_refreshed_channel_survives_decay(self):
        """A re-interaction restarts the channel, so it must not age out."""
        live = LiveIndex(window=10, mode="exact", decay_window=8)
        live.apply("a", "b", 1)
        live.apply("a", "b", 12)  # fresh channel, start 12
        live.apply("x", "y", 15)  # horizon = 8: start-1 is out, start-12 in
        assert live.influence("a") == 1.0
        assert live.influencers("b") == {"a"}

    def test_sketch_mode_decays_too(self):
        live = LiveIndex(window=10, mode="sketch", decay_window=5, precision=6)
        live.apply("a", "b", 1)
        assert live.influence("a") > 0.0
        live.apply("x", "y", 20)
        assert live.influence("a") == 0.0

    def test_decay_matches_batch_over_recent_suffix(self, small_log):
        """Horizon-filtered live influence == batch influence of channels
        starting in the window (computed via the streaming dual)."""
        from repro.core.streaming import StreamingExactIndex

        live = LiveIndex(window=WINDOW, mode="exact", decay_window=30)
        live.apply_events(forward_events(small_log))
        dual = StreamingExactIndex.from_log(small_log, WINDOW)
        horizon = live.horizon()
        assert horizon is not None
        expected: dict = {}
        for node in small_log.nodes:
            for influencer in dual.influencers(node, since=horizon):
                expected[influencer] = expected.get(influencer, 0) + 1
        for node in small_log.nodes:
            assert live.influence(node) == float(expected.get(node, 0)), node


class TestBuildOracleMemory:
    def test_sketch_build_oracle_peak_is_at_most_three_bytes_per_register(self):
        """Registers are written straight into the packed n×β matrix; a
        per-node register list would cost 8 bytes per register alone."""
        nodes, cells = 2000, 512
        live = LiveIndex(window=5, mode="sketch", precision=9)
        live.apply_events([(i % nodes, (7 * i + 1) % nodes, i // 4) for i in range(3 * nodes)])
        tracemalloc.start()
        try:
            oracle = live.build_oracle()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert isinstance(oracle, ApproxInfluenceOracle)
        assert len(oracle.matrix) == nodes * cells
        assert peak <= 3 * nodes * cells, f"peak {peak} B"


class TestValidationAndBookkeeping:
    def test_rejects_unknown_mode_and_bad_params(self):
        with pytest.raises(ValueError, match="unknown live mode"):
            LiveIndex(window=5, mode="magic")
        with pytest.raises(ValueError):
            LiveIndex(window=5, decay_window=0)
        with pytest.raises(ValueError):
            LiveIndex(window=-1)

    def test_rejects_non_int_salt_before_any_event(self):
        with pytest.raises(TypeError, match="salt"):
            LiveIndex(window=10, mode="sketch", salt="x")

    def test_stale_events_are_rejected_not_raised(self):
        live = LiveIndex(window=5)
        result = live.apply_events([("a", "b", 10), ("c", "d", 3), ("e", "f", 11)])
        assert result.applied == 2
        assert result.rejected == 1
        assert result.last_time == 11
        stats = live.stats()
        assert stats["events_applied"] == 2
        assert stats["events_rejected"] == 1

    def test_malformed_events_raise(self):
        live = LiveIndex(window=5)
        with pytest.raises(ValueError, match="triple"):
            live.apply_events([("a", "b")])
        with pytest.raises(TypeError, match="time"):
            live.apply_events([("a", "b", "soon")])

    def test_tied_stamps_do_not_chain(self):
        """Two tied edges a->b, b->c must not form a channel a->c."""
        live = LiveIndex(window=10, mode="exact")
        live.apply_events([("a", "b", 5), ("b", "c", 5)])
        oracle = live.build_oracle()
        assert oracle.reachability_set("a") == frozenset({"b"})
        assert oracle.reachability_set("b") == frozenset({"c"})

    def test_result_to_dict_round_trip(self):
        live = LiveIndex(window=5)
        result = live.apply("a", "b", 1)
        assert isinstance(result, IngestResult)
        assert result.to_dict() == {
            "applied": 1,
            "rejected": 0,
            "evicted": 0,
            "last_time": 1,
        }
