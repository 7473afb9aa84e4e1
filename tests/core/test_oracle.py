"""Unit tests for the exact and sketch-backed influence oracles."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.approx import ApproxIRS
from repro.core.exact import ExactIRS
from repro.core.interactions import InteractionLog
from repro.core.oracle import (
    ApproxInfluenceOracle,
    ExactInfluenceOracle,
    InfluenceOracle,
)
from repro.serve.snapshot import load_oracle, save_oracle
from repro.sketch.hll import estimate_from_registers


@pytest.fixture
def exact_oracle():
    sets = {
        "a": {"b", "c", "d"},
        "b": {"c"},
        "c": set(),
        "d": {"e", "f"},
    }
    return ExactInfluenceOracle(sets)


class TestExactOracle:
    def test_influence(self, exact_oracle):
        assert exact_oracle.influence("a") == 3.0
        assert exact_oracle.influence("c") == 0.0

    def test_influence_of_unknown_node(self, exact_oracle):
        assert exact_oracle.influence("zzz") == 0.0

    def test_spread_unions(self, exact_oracle):
        assert exact_oracle.spread(["a", "b"]) == 3.0  # {b,c,d}
        assert exact_oracle.spread(["a", "d"]) == 5.0  # {b,c,d,e,f}

    def test_spread_empty(self, exact_oracle):
        assert exact_oracle.spread([]) == 0.0

    def test_accumulator_flow(self, exact_oracle):
        state = exact_oracle.new_accumulator()
        exact_oracle.accumulate(state, "a")
        assert exact_oracle.value(state) == 3.0
        exact_oracle.accumulate(state, "d")
        assert exact_oracle.value(state) == 5.0

    def test_gain_is_marginal(self, exact_oracle):
        state = exact_oracle.new_accumulator()
        exact_oracle.accumulate(state, "a")
        assert exact_oracle.gain(state, "d") == 2.0  # e, f are new
        assert exact_oracle.gain(state, "b") == 0.0  # c already covered

    def test_gain_does_not_mutate(self, exact_oracle):
        state = exact_oracle.new_accumulator()
        exact_oracle.gain(state, "a")
        assert exact_oracle.value(state) == 0.0

    def test_copy_accumulator_independent(self, exact_oracle):
        state = exact_oracle.new_accumulator()
        clone = exact_oracle.copy_accumulator(state)
        exact_oracle.accumulate(clone, "a")
        assert exact_oracle.value(state) == 0.0

    def test_from_index(self, paper_log):
        index = ExactIRS.from_log(paper_log, window=3)
        oracle = ExactInfluenceOracle.from_index(index)
        assert oracle.spread(["a", "e"]) == index.spread(["a", "e"])
        assert set(oracle.nodes()) == set(index.nodes)

    def test_reachability_set_access(self, exact_oracle):
        assert exact_oracle.reachability_set("a") == frozenset({"b", "c", "d"})

    def test_rejects_non_dict(self):
        with pytest.raises(TypeError):
            ExactInfluenceOracle([("a", {"b"})])

    def test_submodularity_spot_check(self, exact_oracle):
        """gain(S, x) >= gain(T, x) whenever S ⊆ T (paper Lemma 8)."""
        small = exact_oracle.new_accumulator()
        exact_oracle.accumulate(small, "b")
        large = exact_oracle.copy_accumulator(small)
        exact_oracle.accumulate(large, "a")
        for candidate in ("a", "b", "c", "d"):
            assert exact_oracle.gain(small, candidate) >= exact_oracle.gain(
                large, candidate
            )

    def test_monotonicity_spot_check(self, exact_oracle):
        """Inf(S) <= Inf(T) whenever S ⊆ T (paper Lemma 8)."""
        assert exact_oracle.spread(["a"]) <= exact_oracle.spread(["a", "d"])
        assert exact_oracle.spread([]) <= exact_oracle.spread(["c"])


class TestApproxOracle:
    def test_from_index_matches_index_spread(self, paper_log):
        index = ApproxIRS.from_log(paper_log, window=3, precision=6)
        oracle = ApproxInfluenceOracle.from_index(index)
        for seeds in (["a"], ["a", "e"], ["c"], []):
            assert oracle.spread(seeds) == pytest.approx(index.spread(seeds))

    def test_influence_matches_estimate(self, paper_log):
        index = ApproxIRS.from_log(paper_log, window=3, precision=6)
        oracle = ApproxInfluenceOracle.from_index(index)
        for node in paper_log.nodes:
            assert oracle.influence(node) == pytest.approx(index.irs_estimate(node))

    def test_unknown_node(self, paper_log):
        index = ApproxIRS.from_log(paper_log, window=3, precision=6)
        oracle = ApproxInfluenceOracle.from_index(index)
        assert oracle.influence("zzz") == 0.0
        state = oracle.new_accumulator()
        oracle.accumulate(state, "zzz")
        assert oracle.value(state) == pytest.approx(0.0)

    def test_accumulator_equals_spread(self, paper_log):
        index = ApproxIRS.from_log(paper_log, window=3, precision=6)
        oracle = ApproxInfluenceOracle.from_index(index)
        state = oracle.new_accumulator()
        oracle.accumulate(state, "a")
        oracle.accumulate(state, "e")
        assert oracle.value(state) == pytest.approx(oracle.spread(["a", "e"]))

    def test_spread_is_exactly_the_accumulator_path(self, paper_log):
        """Regression: spread() must route through the shared accumulator,
        so the two entry points are bit-for-bit identical, not merely
        approximately equal (a private re-merge could drift)."""
        index = ApproxIRS.from_log(paper_log, window=3, precision=6)
        oracle = ApproxInfluenceOracle.from_index(index)
        nodes = sorted(paper_log.nodes)
        seed_sets = [[], nodes[:1], nodes[:3], nodes, ["zzz"], nodes[::2] + ["zzz"]]
        for seeds in seed_sets:
            state = oracle.new_accumulator()
            for seed in seeds:
                oracle.accumulate(state, seed)
            assert oracle.spread(seeds) == oracle.value(state)

    def test_registers_accessor_copies(self, paper_log):
        index = ApproxIRS.from_log(paper_log, window=3, precision=6)
        oracle = ApproxInfluenceOracle.from_index(index)
        array = oracle.registers("a")
        assert len(array) == oracle.num_cells
        array[0] += 1  # mutating the copy must not touch the oracle
        assert oracle.registers("a") != array
        assert oracle.registers("zzz") == [0] * oracle.num_cells

    def test_gain_does_not_mutate(self, paper_log):
        index = ApproxIRS.from_log(paper_log, window=3, precision=6)
        oracle = ApproxInfluenceOracle.from_index(index)
        state = oracle.new_accumulator()
        before = list(state)
        oracle.gain(state, "a")
        assert state == before

    def test_copy_accumulator_independent(self, paper_log):
        index = ApproxIRS.from_log(paper_log, window=3, precision=6)
        oracle = ApproxInfluenceOracle.from_index(index)
        state = oracle.new_accumulator()
        clone = oracle.copy_accumulator(state)
        oracle.accumulate(clone, "a")
        assert oracle.value(state) == pytest.approx(0.0)

    def test_rejects_bad_register_length(self):
        with pytest.raises(ValueError, match="length"):
            ApproxInfluenceOracle({"a": [0, 0]}, num_cells=4)

    def test_rejects_non_power_of_two_cells(self):
        with pytest.raises(ValueError, match="power of two"):
            ApproxInfluenceOracle({}, num_cells=3)

    def test_is_influence_oracle(self, paper_log):
        index = ApproxIRS.from_log(paper_log, window=3, precision=6)
        oracle = ApproxInfluenceOracle.from_index(index)
        assert isinstance(oracle, InfluenceOracle)


# ----------------------------------------------------------------------
# Packed matrix vs. a plain-list reference
# ----------------------------------------------------------------------

#: Labels the strategies below never generate: seeds that name no node.
UNKNOWN = [("unknown", 0), ("unknown", 1)]


@st.composite
def register_dicts(draw):
    """``(β, node → register list)`` with sparse, dense and all-zero rows."""
    beta = draw(st.sampled_from([16, 64, 512]))
    sparse = st.dictionaries(
        st.integers(0, beta - 1), st.integers(1, 60), max_size=24
    ).map(lambda cells: [cells.get(i, 0) for i in range(beta)])
    dense = st.binary(min_size=beta, max_size=beta).map(lambda raw: [b % 61 for b in raw])
    rows = st.one_of(st.just([0] * beta), sparse, dense)
    labels = st.one_of(st.integers(-5, 30), st.text(max_size=3))
    return beta, draw(st.dictionaries(labels, rows, max_size=8))


def _reference_union(registers, seeds, beta):
    """Register-wise ``max`` over plain lists — the oracle's definition."""
    combined = [0] * beta
    for seed in seeds:
        for i, value in enumerate(registers.get(seed, ())):
            combined[i] = max(combined[i], value)
    return combined


class TestPackedMatchesListReference:
    @given(case=register_dicts(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_query_equals_the_list_reference(self, case, data):
        beta, registers = case
        oracle = ApproxInfluenceOracle(registers, beta)
        assert list(oracle.nodes()) == list(registers)
        assert len(oracle.matrix) == len(registers) * beta
        pool = list(registers) + UNKNOWN
        for node in pool:
            expected = registers.get(node, [0] * beta)
            assert oracle.registers(node) == expected
            known = estimate_from_registers(expected, beta) if node in registers else 0.0
            assert oracle.influence(node) == known
        seeds = data.draw(st.lists(st.sampled_from(pool), max_size=10))
        union = _reference_union(registers, seeds, beta)
        assert oracle.spread(seeds) == estimate_from_registers(union, beta)
        state = oracle.new_accumulator()
        for seed in seeds:
            before = list(state)
            gain = oracle.gain(state, seed)
            assert state == before  # gain() never mutates
            if seed in registers:
                grown = _reference_union(registers, [seed], beta)
                grown = [max(a, b) for a, b in zip(before, grown)]
                assert gain == estimate_from_registers(grown, beta) - estimate_from_registers(
                    before, beta
                )
            else:
                assert gain == 0.0
            oracle.accumulate(state, seed)
        assert state == union
        assert oracle.value(state) == estimate_from_registers(union, beta)

    @given(case=register_dicts(), chunk=st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_snapshot_reload_keeps_the_matrix(self, case, chunk, tmp_path_factory):
        beta, registers = case
        oracle = ApproxInfluenceOracle(registers, beta)
        path = str(tmp_path_factory.mktemp("packed") / "o.snap")
        save_oracle(path, oracle, chunk=chunk)
        loaded = load_oracle(path)
        assert list(loaded.nodes()) == list(oracle.nodes())
        assert loaded.num_cells == beta
        assert loaded.matrix == oracle.matrix

    @given(
        records=st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 12)).filter(
                lambda r: r[0] != r[1]
            ),
            max_size=30,
        ),
        window=st.integers(0, 6),
        precision=st.sampled_from([4, 6, 9]),
    )
    @settings(max_examples=40, deadline=None)
    def test_dict_from_index_and_reloaded_oracles_are_bit_identical(
        self, records, window, precision, tmp_path_factory
    ):
        index = ApproxIRS.from_log(InteractionLog(records), window, precision=precision)
        built = ApproxInfluenceOracle.from_index(index)
        by_dict = ApproxInfluenceOracle(
            {node: index.registers(node) for node in index.nodes}, index.num_cells
        )
        path = str(tmp_path_factory.mktemp("packed") / "o.snap")
        save_oracle(path, built, chunk=3)
        reloaded = load_oracle(path)
        for other in (by_dict, reloaded):
            assert list(other.nodes()) == list(built.nodes())
            assert other.num_cells == built.num_cells
            assert other.matrix == built.matrix


class TestPackedConstruction:
    def test_rejects_register_values_above_one_byte(self):
        with pytest.raises(ValueError, match="one byte"):
            ApproxInfluenceOracle({"a": [0, 256, 0, 0]}, num_cells=4)

    def test_from_matrix_adopts_the_bytes(self):
        matrix = bytes([1, 2, 3, 4, 0, 0, 0, 0])
        oracle = ApproxInfluenceOracle.from_matrix(["a", "b"], matrix, 4)
        assert oracle.matrix is matrix
        assert oracle.registers("a") == [1, 2, 3, 4]
        assert oracle.registers("b") == [0, 0, 0, 0]

    def test_from_matrix_rejects_size_mismatch_and_duplicates(self):
        with pytest.raises(ValueError, match="expected 2 distinct nodes"):
            ApproxInfluenceOracle.from_matrix(["a", "b"], bytes(4), 4)
        with pytest.raises(ValueError, match="distinct"):
            ApproxInfluenceOracle.from_matrix(["a", "a"], bytes(8), 4)
        with pytest.raises(TypeError):
            ApproxInfluenceOracle.from_matrix(["a"], bytearray(4), 4)

    def test_from_sketches_zero_row_for_missing_sketch(self, paper_log):
        index = ApproxIRS.from_log(paper_log, window=3, precision=4)
        sketches = {"a": index.sketch("a"), "ghost": None}
        oracle = ApproxInfluenceOracle.from_sketches(sketches, index.num_cells)
        assert oracle.registers("a") == index.registers("a")
        assert oracle.registers("ghost") == [0] * 16
        assert list(oracle.nodes()) == ["a", "ghost"]
