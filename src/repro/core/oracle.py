"""Influence oracles (paper §4.1, Definition 3).

Given the per-node influence reachability sets (or their sketches), an
**influence oracle** answers: for a seed set ``S ⊆ V``, what is
``Inf(S) = |⋃_{u∈S} σω(u)|``?

Two interchangeable implementations are provided behind a common interface:

* :class:`ExactInfluenceOracle` — backed by concrete Python sets, exact
  answers, O(Σ|σ(u)|) per query;
* :class:`ApproxInfluenceOracle` — backed by one packed n×β byte matrix of
  effective HyperLogLog registers (one row per node, n·β bytes in all),
  ≈ 1.04/√β relative error, O(|S|·β) per query *independent of the network
  size* (the property paper Figure 4 demonstrates).

Both expose an *accumulator* API (``new_accumulator`` / ``accumulate`` /
``value``) so the greedy maximization in :mod:`repro.core.maximization` can
grow a covered-union incrementally instead of recomputing unions from
scratch at every marginal-gain evaluation.
"""

from __future__ import annotations

import abc
from typing import Dict, Hashable, Iterable, List, Optional, Set

import repro.obs as obs
from repro.core.approx import ApproxIRS
from repro.core.exact import ExactIRS
from repro.obs import OBS_STATE as _OBS
from repro.sketch.hll import estimate_from_registers
from repro.sketch.vhll import VersionedHLL
from repro.utils.validation import require_int, require_type

__all__ = [
    "InfluenceOracle",
    "ExactInfluenceOracle",
    "ApproxInfluenceOracle",
]

Node = Hashable

_QUERY_SECONDS = obs.histogram(
    "oracle.query_seconds",
    "Influence-oracle query latency by oracle kind and operation (Fig. 4).",
)
_QUERY_SEEDS = obs.histogram(
    "oracle.query_seeds",
    "Seed-set sizes handed to oracle spread queries.",
    buckets=obs.DEFAULT_COUNT_BUCKETS,
)


class InfluenceOracle(abc.ABC):
    """Abstract interface shared by the exact and sketch-backed oracles."""

    @abc.abstractmethod
    def nodes(self) -> Iterable[Node]:
        """Every node the oracle can answer about."""

    @abc.abstractmethod
    def influence(self, node: Node) -> float:
        """``|σω(node)|`` (or its estimate)."""

    @abc.abstractmethod
    def spread(self, seeds: Iterable[Node]) -> float:
        """``|⋃_{u∈seeds} σω(u)|`` (or its estimate)."""

    # -- incremental accumulator API ------------------------------------
    @abc.abstractmethod
    def new_accumulator(self) -> object:
        """An empty covered-union state."""

    @abc.abstractmethod
    def accumulate(self, state: object, node: Node) -> None:
        """Fold ``σω(node)`` into ``state`` in place."""

    @abc.abstractmethod
    def value(self, state: object) -> float:
        """Cardinality (estimate) of the union held in ``state``."""

    def gain(self, state: object, node: Node) -> float:
        """Marginal gain of adding ``node`` to the union in ``state``.

        Default implementation copies the state; subclasses override with a
        cheaper evaluation that does not mutate ``state``.
        """
        probe = self.copy_accumulator(state)
        self.accumulate(probe, node)
        return self.value(probe) - self.value(state)

    @abc.abstractmethod
    def copy_accumulator(self, state: object) -> object:
        """An independent copy of ``state``."""


class ExactInfluenceOracle(InfluenceOracle):
    """Exact oracle over concrete reachability sets.

    Parameters
    ----------
    sets:
        Mapping ``node → σω(node)``; typically produced by
        :meth:`from_index`, or handed in directly (tests, ablations).
    """

    def __init__(self, sets: Dict[Node, Set[Node]]) -> None:
        require_type(sets, "sets", dict)
        self._sets: Dict[Node, frozenset] = {
            node: frozenset(reached) for node, reached in sets.items()  # repro-lint: disable=R301 (one-time defensive copy at construction, not a query-path allocation)
        }
        self._obs_spread = _QUERY_SECONDS.labels(kind="exact", op="spread")
        self._obs_gain = _QUERY_SECONDS.labels(kind="exact", op="gain")

    @classmethod
    def from_index(cls, index: ExactIRS) -> "ExactInfluenceOracle":
        """Build from a fully-constructed :class:`ExactIRS`."""
        require_type(index, "index", ExactIRS)
        return cls({node: index.reachability_set(node) for node in index.nodes})

    def nodes(self) -> Iterable[Node]:
        return self._sets.keys()

    def influence(self, node: Node) -> float:
        return float(len(self._sets.get(node, frozenset())))

    def spread(self, seeds: Iterable[Node]) -> float:
        if _OBS.enabled:
            seeds = list(seeds)
            _QUERY_SEEDS.observe(len(seeds))
        with self._obs_spread.time():
            covered: Set[Node] = set()
            for seed in seeds:
                covered.update(self._sets.get(seed, frozenset()))
            return float(len(covered))

    def new_accumulator(self) -> Set[Node]:
        return set()

    def accumulate(self, state: object, node: Node) -> None:
        assert isinstance(state, set)
        state.update(self._sets.get(node, frozenset()))

    def value(self, state: object) -> float:
        assert isinstance(state, set)
        return float(len(state))

    def gain(self, state: object, node: Node) -> float:
        assert isinstance(state, set)
        with self._obs_gain.time():
            reached = self._sets.get(node, frozenset())
            return float(len(reached - state))

    def copy_accumulator(self, state: object) -> Set[Node]:
        assert isinstance(state, set)
        return set(state)

    def reachability_set(self, node: Node) -> frozenset:
        """The stored ``σω(node)``."""
        return self._sets.get(node, frozenset())

    def targeted_spread(
        self, seeds: Iterable[Node], targets: Iterable[Node]
    ) -> float:
        """``|(⋃ σω(seed)) ∩ targets|`` — influence restricted to an
        audience of interest (e.g. one community, paying customers).

        Only the exact oracle supports this: the sketch union cannot be
        intersected with an arbitrary node set.
        """
        wanted = set(targets)
        covered: Set[Node] = set()
        for seed in seeds:
            covered.update(self._sets.get(seed, frozenset()) & wanted)
        return float(len(covered))

    def most_influential_towards(
        self, targets: Iterable[Node], k: int
    ) -> List[Node]:
        """Greedy top-``k`` seeds for covering ``targets`` specifically."""
        require_int(k, "k")
        if k <= 0:
            raise ValueError(f"k must be > 0, got {k}")
        wanted = set(targets)
        restricted = ExactInfluenceOracle(
            {node: reached & wanted for node, reached in self._sets.items()}
        )
        # Local import: maximization imports this module.
        from repro.core.maximization import greedy_top_k

        return greedy_top_k(restricted, k)


class ApproxInfluenceOracle(InfluenceOracle):
    """Sketch-backed oracle over one packed n×β register matrix.

    Per node only the β effective HLL registers are kept (the version lists
    are not needed once the reverse pass is finished), one byte each, in a
    single immutable ``bytes`` matrix: row ``i`` holds the registers of the
    ``i``-th node of :meth:`nodes`, and a ``node → row`` dict indexes it.
    That is n·β bytes plus the label index, and it is byte for byte the
    payload of an ``approx`` snapshot, which loads straight into it.  A
    query unions seed rows cell-wise and runs one HLL estimation — a few
    microseconds, independent of how large the reachability sets are.
    """

    def __init__(self, registers: Dict[Node, List[int]], num_cells: int) -> None:
        require_type(registers, "registers", dict)
        _check_num_cells(num_cells)
        matrix = bytearray(len(registers) * num_cells)
        for row, (node, array) in enumerate(registers.items()):
            if len(array) != num_cells:
                raise ValueError(
                    f"register array of node {node!r} has length {len(array)}, "
                    f"expected {num_cells}"
                )
            start = row * num_cells
            try:
                matrix[start : start + num_cells] = array
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"register array of node {node!r} does not fit one byte per "
                    f"register: {exc}"
                ) from None
        self._adopt(registers.keys(), bytes(matrix), num_cells)

    def _adopt(self, nodes: Iterable[Node], matrix: bytes, num_cells: int) -> None:
        rows = {node: row for row, node in enumerate(nodes)}
        if len(rows) * num_cells != len(matrix):
            raise ValueError(
                f"register matrix holds {len(matrix)} bytes, expected "
                f"{len(rows)} distinct nodes × {num_cells} registers"
            )
        self._rows: Dict[Node, int] = rows
        self._matrix = matrix
        self._m = num_cells
        self._obs_spread = _QUERY_SECONDS.labels(kind="sketch", op="spread")
        self._obs_gain = _QUERY_SECONDS.labels(kind="sketch", op="gain")

    @classmethod
    def from_matrix(
        cls, nodes: Iterable[Node], matrix: bytes, num_cells: int
    ) -> "ApproxInfluenceOracle":
        """Adopt an already packed matrix: row ``i`` holds the ``i``-th node's registers.

        ``matrix`` is kept as is (``bytes`` are immutable, so nothing is
        copied); ``nodes`` must be distinct and ``len(matrix)`` must equal
        ``len(nodes) · num_cells``.
        """
        require_type(matrix, "matrix", bytes)
        _check_num_cells(num_cells)
        oracle = cls.__new__(cls)
        oracle._adopt(nodes, matrix, num_cells)
        return oracle

    @classmethod
    def from_sketches(
        cls,
        sketches: Dict[Node, Optional[VersionedHLL]],
        num_cells: int,
        max_time: Optional[int] = None,
    ) -> "ApproxInfluenceOracle":
        """Pack each sketch's effective registers at ``max_time`` into one row.

        A ``None`` sketch gives an all-zero row.  Registers are written
        straight into a preallocated matrix; no per-node list is built.
        """
        require_type(sketches, "sketches", dict)
        _check_num_cells(num_cells)
        matrix = bytearray(len(sketches) * num_cells)
        with memoryview(matrix) as view:
            for row, sketch in enumerate(sketches.values()):  # repro-lint: budget=O(n·β)
                if sketch is not None:
                    start = row * num_cells
                    sketch.max_registers_into(view[start : start + num_cells], max_time)
        return cls.from_matrix(sketches.keys(), bytes(matrix), num_cells)

    @classmethod
    def from_index(cls, index: ApproxIRS) -> "ApproxInfluenceOracle":
        """Build from a fully-constructed :class:`ApproxIRS`."""
        require_type(index, "index", ApproxIRS)
        return cls.from_sketches(
            {node: index.sketch(node) for node in index.nodes}, index.num_cells
        )

    @property
    def num_cells(self) -> int:
        """β — registers per node."""
        return self._m

    @property
    def matrix(self) -> bytes:
        """The packed registers: row ``i`` belongs to the ``i``-th node of :meth:`nodes`."""
        return self._matrix

    def nodes(self) -> Iterable[Node]:
        return self._rows.keys()

    def _row(self, node: Node) -> Optional[bytes]:
        row = self._rows.get(node)
        if row is None:
            return None
        start = row * self._m
        return self._matrix[start : start + self._m]

    def registers(self, node: Node) -> List[int]:
        """A copy of ``node``'s row of effective registers (zeros if unknown).

        A snapshot stores exactly these rows, so a reloaded oracle compares
        bit-identical to the original through this accessor.
        """
        array = self._row(node)
        if array is None:
            return [0] * self._m
        return list(array)

    def influence(self, node: Node) -> float:
        array = self._row(node)
        if array is None:
            return 0.0
        return estimate_from_registers(array, self._m)

    def spread(self, seeds: Iterable[Node]) -> float:
        if _OBS.enabled:
            seeds = list(seeds)
            _QUERY_SEEDS.observe(len(seeds))
        # One code path for unions: spread == value(accumulate(seeds)).
        # A private re-merge here could drift from the accumulator the
        # greedy maximization grows, and then cached spreads would not be
        # comparable across the two entry points.
        with self._obs_spread.time():
            combined = self.new_accumulator()
            for seed in seeds:
                self.accumulate(combined, seed)
            return self.value(combined)

    def new_accumulator(self) -> List[int]:
        return [0] * self._m

    def accumulate(self, state: object, node: Node) -> None:
        assert isinstance(state, list)
        array = self._row(node)
        if array is None:
            return
        for i, value in enumerate(array):
            if value > state[i]:
                state[i] = value

    def value(self, state: object) -> float:
        assert isinstance(state, list)
        return estimate_from_registers(state, self._m)

    def gain(self, state: object, node: Node) -> float:
        assert isinstance(state, list)
        with self._obs_gain.time():
            array = self._row(node)
            if array is None:
                return 0.0
            merged = [max(a, b) for a, b in zip(state, array)]
            return estimate_from_registers(merged, self._m) - estimate_from_registers(
                state, self._m
            )

    def copy_accumulator(self, state: object) -> List[int]:
        assert isinstance(state, list)
        return list(state)


def _check_num_cells(num_cells: int) -> None:
    require_int(num_cells, "num_cells")
    if num_cells <= 0 or num_cells & (num_cells - 1) != 0:
        raise ValueError(f"num_cells must be a power of two, got {num_cells}")
