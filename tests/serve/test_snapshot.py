"""repro-snap/1 snapshot store: round trips, laziness, corruption handling."""

from __future__ import annotations

import json
import os
import random
import struct
import subprocess
import sys
import tracemalloc
import zlib

import pytest
from hypothesis import given, settings, strategies as st

import repro
import repro.serve as serve
from repro.core.approx import ApproxIRS
from repro.core.exact import ExactIRS
from repro.core.oracle import ApproxInfluenceOracle, ExactInfluenceOracle
from repro.datasets.generators import (
    cascade_network,
    email_network,
    forum_network,
    uniform_network,
)
from repro.serve.snapshot import (
    SNAPSHOT_MAGIC,
    SnapshotReader,
    load_oracle,
    load_sketches,
    save_oracle,
    save_sketches,
    snapshot_info,
)
from repro.sketch.vhll import VersionedHLL

GENERATORS = [email_network, cascade_network, forum_network, uniform_network]


def _sample_seed_sets(nodes):
    ordered = sorted(nodes, key=repr)
    return [
        ordered[:1],
        ordered[:5],
        ordered[::3],
        ordered,
    ]


class TestOracleRoundTrip:
    @pytest.mark.parametrize("generator", GENERATORS, ids=lambda g: g.__name__)
    def test_exact_round_trip_lossless(self, generator, tmp_path):
        """Acceptance: reloaded exact oracles answer identically."""
        log = generator(25, 250, 500, rng=5)
        oracle = ExactInfluenceOracle.from_index(ExactIRS.from_log(log, 10**9))
        path = str(tmp_path / "exact.snap")
        info = save_oracle(path, oracle)
        assert info["kind"] == "exact"
        loaded = load_oracle(path)
        assert isinstance(loaded, ExactInfluenceOracle)
        assert set(loaded.nodes()) == set(oracle.nodes())
        for node in oracle.nodes():
            assert loaded.reachability_set(node) == oracle.reachability_set(node)
        for seeds in _sample_seed_sets(oracle.nodes()):
            assert loaded.spread(seeds) == oracle.spread(seeds)

    @pytest.mark.parametrize("generator", GENERATORS, ids=lambda g: g.__name__)
    def test_approx_round_trip_bit_identical(self, generator, tmp_path):
        """Acceptance: reloaded sketch registers are bit-identical."""
        log = generator(25, 250, 500, rng=5)
        oracle = ApproxInfluenceOracle.from_index(
            ApproxIRS.from_log(log, 10**9, precision=5)
        )
        path = str(tmp_path / "approx.snap")
        info = save_oracle(path, oracle)
        assert info["kind"] == "approx"
        loaded = load_oracle(path)
        assert isinstance(loaded, ApproxInfluenceOracle)
        assert loaded.num_cells == oracle.num_cells
        assert set(loaded.nodes()) == set(oracle.nodes())
        for node in oracle.nodes():
            assert loaded.registers(node) == oracle.registers(node)
        for seeds in _sample_seed_sets(oracle.nodes()):
            assert loaded.spread(seeds) == oracle.spread(seeds)

    def test_empty_oracle(self, tmp_path):
        path = str(tmp_path / "empty.snap")
        save_oracle(path, ExactInfluenceOracle({}))
        loaded = load_oracle(path)
        assert list(loaded.nodes()) == []
        assert loaded.spread([]) == 0.0

    def test_single_node(self, tmp_path):
        path = str(tmp_path / "one.snap")
        save_oracle(path, ExactInfluenceOracle({"only": {"only", "other"}}))
        loaded = load_oracle(path)
        assert loaded.reachability_set("only") == frozenset({"only", "other"})

    def test_unicode_labels(self, tmp_path):
        sets = {"séed-Ω": {"ターゲット", "séed-Ω"}, "ターゲット": set()}
        path = str(tmp_path / "uni.snap")
        save_oracle(path, ExactInfluenceOracle(sets))
        loaded = load_oracle(path)
        assert loaded.reachability_set("séed-Ω") == frozenset({"ターゲット", "séed-Ω"})

    def test_mixed_label_types_survive(self, tmp_path):
        sets = {0: {1, "x"}, 1: set(), "x": {0}}
        path = str(tmp_path / "mixed.snap")
        save_oracle(path, ExactInfluenceOracle(sets))
        loaded = load_oracle(path)
        assert set(loaded.nodes()) == {0, 1, "x"}
        assert loaded.reachability_set(0) == frozenset({1, "x"})

    def test_chunked_snapshot_round_trips(self, tmp_path):
        """chunk smaller than the node count exercises multi-section paths."""
        sets = {f"n{i}": {f"n{j}" for j in range(i)} for i in range(10)}
        oracle = ExactInfluenceOracle(sets)
        path = str(tmp_path / "chunky.snap")
        save_oracle(path, oracle, chunk=3)
        loaded = load_oracle(path)
        for node in sets:
            assert loaded.reachability_set(node) == oracle.reachability_set(node)

    def test_rejects_unhashable_oracle_kind(self, tmp_path):
        with pytest.raises(TypeError):
            save_oracle(str(tmp_path / "x.snap"), object())  # type: ignore[arg-type]

    def test_rejects_non_json_label(self, tmp_path):
        oracle = ExactInfluenceOracle({("tuple", "label"): set()})
        with pytest.raises(ValueError, match="unsupported node label"):
            save_oracle(str(tmp_path / "x.snap"), oracle)
        assert not (tmp_path / "x.snap.tmp").exists()


class TestSketchRoundTrip:
    def test_vhll_snapshot_round_trips(self, tmp_path):
        sketches = {}
        for index in range(5):
            sketch = VersionedHLL(precision=4, salt=3)
            for item in range(index * 7):
                sketch.add(f"item-{item}", timestamp=item + 1)
            sketches[f"node-{index}"] = sketch
        path = str(tmp_path / "sketches.snap")
        info = save_sketches(path, sketches)
        assert info["kind"] == "vhll"
        loaded = load_sketches(path)
        assert set(loaded) == set(sketches)
        for node, sketch in sketches.items():
            assert loaded[node].to_dict() == sketch.to_dict()

    def test_mixed_configs_rejected(self, tmp_path):
        sketches = {"a": VersionedHLL(precision=4), "b": VersionedHLL(precision=5)}
        with pytest.raises(ValueError, match="mixed configs"):
            save_sketches(str(tmp_path / "x.snap"), sketches)

    def test_load_oracle_refuses_vhll_kind(self, tmp_path):
        path = str(tmp_path / "v.snap")
        save_sketches(path, {"a": VersionedHLL(precision=4)})
        with pytest.raises(ValueError, match="use load_sketches"):
            load_oracle(path)

    def test_load_sketches_refuses_oracle_kind(self, tmp_path):
        path = str(tmp_path / "e.snap")
        save_oracle(path, ExactInfluenceOracle({}))
        with pytest.raises(ValueError, match="use load_oracle"):
            load_sketches(path)


class TestCorruption:
    def _write_valid(self, tmp_path):
        path = str(tmp_path / "ok.snap")
        save_oracle(path, ExactInfluenceOracle({"a": {"b"}, "b": set()}))
        return path

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "bad.snap")
        with open(path, "wb") as handle:
            handle.write(b"not-a-snapshot\n" + b"x" * 64)
        with pytest.raises(ValueError, match="bad magic"):
            load_oracle(path)

    def test_foreign_version(self, tmp_path):
        path = str(tmp_path / "v9.snap")
        with open(path, "wb") as handle:
            handle.write(b"repro-snap/9\n")
        with pytest.raises(ValueError, match="unsupported snapshot version"):
            load_oracle(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read snapshot"):
            load_oracle(str(tmp_path / "absent.snap"))

    def test_truncated_file(self, tmp_path):
        path = self._write_valid(tmp_path)
        data = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(data[: len(data) - 7])
        with pytest.raises(ValueError, match="truncated snapshot"):
            load_oracle(path)

    def test_truncation_at_every_prefix_is_detected(self, tmp_path):
        """No prefix of a valid snapshot may load as a (wrong) oracle."""
        path = self._write_valid(tmp_path)
        data = open(path, "rb").read()
        for cut in range(len(data) - 1, 0, -4):
            with open(path, "wb") as handle:
                handle.write(data[:cut])
            with pytest.raises(ValueError):
                load_oracle(path)

    def test_crc_mismatch(self, tmp_path):
        path = self._write_valid(tmp_path)
        data = bytearray(open(path, "rb").read())
        data[-1] ^= 0xFF  # flip a payload byte in the last section
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        with pytest.raises(ValueError, match="CRC mismatch"):
            load_oracle(path)

    def test_missing_declared_section(self, tmp_path):
        """A header declaring sections the file lacks must not load."""
        path = str(tmp_path / "short.snap")
        header = json.dumps(
            {"kind": "exact", "meta": {"node_count": 1, "label_count": 1},
             "sections": ["labels/0", "sets/0"]}
        ).encode()
        with open(path, "wb") as handle:
            handle.write(SNAPSHOT_MAGIC)
            name = b"header"
            handle.write(struct.pack(">H", len(name)) + name)
            handle.write(struct.pack(">QI", len(header), zlib.crc32(header)))
            handle.write(header)
        with pytest.raises(ValueError, match="missing from the file"):
            load_oracle(path)

    def test_error_messages_name_the_file(self, tmp_path):
        path = str(tmp_path / "named.snap")
        with open(path, "wb") as handle:
            handle.write(b"garbage")
        with pytest.raises(ValueError) as excinfo:
            load_oracle(path)
        message = str(excinfo.value)
        assert path in message
        assert "\n" not in message


def _write_raw_snapshot(path, kind, meta, sections):
    """Frame ``sections`` (name → payload bytes) by hand, bypassing the writer."""
    header = json.dumps({"kind": kind, "meta": meta, "sections": list(sections)}).encode()
    with open(path, "wb") as handle:
        handle.write(SNAPSHOT_MAGIC)
        for name, payload in [("header", header), *sections.items()]:
            encoded = name.encode("ascii")
            handle.write(struct.pack(">H", len(encoded)) + encoded)
            handle.write(struct.pack(">QI", len(payload), zlib.crc32(payload)))
            handle.write(payload)


class TestDuplicateLabels:
    """A label repeated across label sections would let a later row silently
    overwrite an earlier one, so ``nodes()`` would disagree with the meta."""

    def test_approx_snapshot_with_repeated_label_is_rejected(self, tmp_path):
        path = str(tmp_path / "dup-approx.snap")
        _write_raw_snapshot(
            path,
            "approx",
            {"node_count": 3, "num_cells": 4, "chunk": 2},
            {
                "labels/0": b'["a","b"]',
                "labels/1": b'["a"]',
                "registers/0": bytes(range(8)),
                "registers/1": bytes(4),
            },
        )
        with pytest.raises(ValueError) as excinfo:
            load_oracle(path)
        message = str(excinfo.value)
        assert path in message and "'a' appears more than once" in message
        assert "\n" not in message

    def test_exact_snapshot_with_repeated_label_is_rejected(self, tmp_path):
        path = str(tmp_path / "dup-exact.snap")
        _write_raw_snapshot(
            path,
            "exact",
            {"node_count": 2, "label_count": 2, "chunk": 4},
            {"labels/0": b"[7,7]", "sets/0": b"[[1],[]]"},
        )
        with pytest.raises(ValueError, match=r"dup-exact\.snap: label 7 appears more than once"):
            load_oracle(path)

    def test_unhashable_label_is_rejected(self, tmp_path):
        path = str(tmp_path / "list-label.snap")
        _write_raw_snapshot(
            path,
            "approx",
            {"node_count": 1, "num_cells": 4, "chunk": 4},
            {"labels/0": b"[[1]]", "registers/0": bytes(4)},
        )
        with pytest.raises(ValueError, match="unhashable label"):
            load_oracle(path)

    def test_approx_loader_rejects_non_power_of_two_cells_naming_the_file(self, tmp_path):
        path = str(tmp_path / "cells.snap")
        _write_raw_snapshot(
            path,
            "approx",
            {"node_count": 1, "num_cells": 3, "chunk": 4},
            {"labels/0": b'["a"]', "registers/0": bytes(3)},
        )
        with pytest.raises(ValueError, match=r"cells\.snap: num_cells must be a power of two"):
            load_oracle(path)


class TestMemory:
    NODES, CELLS = 2000, 512

    def test_load_oracle_peak_is_at_most_three_bytes_per_register(self, tmp_path):
        """The registers load into one packed matrix, not per-node lists
        (a list costs 8 bytes per register before the int objects)."""
        rng = random.Random(15)
        registers = {
            f"node-{i}": [rng.randrange(0, 24) for _ in range(self.CELLS)]
            for i in range(self.NODES)
        }
        path = str(tmp_path / "big.snap")
        save_oracle(path, ApproxInfluenceOracle(registers, self.CELLS))
        del registers
        tracemalloc.start()
        try:
            loaded = load_oracle(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(list(loaded.nodes())) == self.NODES
        assert peak <= 3 * self.NODES * self.CELLS, f"peak {peak} B"


def test_importing_the_http_server_does_not_import_numpy():
    """The packed oracle is stdlib only: numpy would cost every server
    process its import time and resident size."""
    code = "import sys, repro.serve.http; print('numpy' in sys.modules)"
    src = os.path.dirname(os.path.dirname(repro.__file__))
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    assert result.stdout.strip() == "False"


class TestReaderAndInfo:
    def test_reader_is_lazy_and_verifies_on_demand(self, tmp_path):
        path = str(tmp_path / "lazy.snap")
        save_oracle(path, ExactInfluenceOracle({"a": {"b"}, "b": set()}))
        with SnapshotReader(path) as reader:
            assert reader.kind == "exact"
            assert reader.path == path
            assert reader.verify() == len(reader.section_names)
            labels = reader.read_json("labels/0")
            assert isinstance(labels, list)
            raw = reader.read_section("labels/0")
            assert json.loads(raw) == labels
        with pytest.raises(ValueError, match="closed"):
            reader.read_section("labels/0")

    def test_snapshot_info_reads_header_only(self, tmp_path):
        path = str(tmp_path / "i.snap")
        save_oracle(path, ExactInfluenceOracle({"a": set()}))
        info = snapshot_info(path)
        assert info["kind"] == "exact"
        assert info["meta"]["node_count"] == 1
        assert info["bytes"] > len(SNAPSHOT_MAGIC)
        assert "labels/0" in info["sections"]

    def test_package_reexports(self):
        assert serve.SNAPSHOT_MAGIC == SNAPSHOT_MAGIC
        assert serve.save_oracle is save_oracle
        assert serve.load_oracle is load_oracle
        assert serve.save_sketches is save_sketches
        assert serve.load_sketches is load_sketches
        assert serve.snapshot_info is snapshot_info
        assert serve.SnapshotReader is SnapshotReader

    def test_atomic_write_leaves_no_tmp_file(self, tmp_path):
        path = str(tmp_path / "atomic.snap")
        save_oracle(path, ExactInfluenceOracle({"a": set()}))
        assert not (tmp_path / "atomic.snap.tmp").exists()


label_strategy = st.one_of(
    st.text(max_size=8),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.booleans(),
    st.none(),
)


class TestPropertyRoundTrips:
    @given(
        sets=st.dictionaries(
            label_strategy,
            st.frozensets(label_strategy, max_size=6),
            max_size=8,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_exact_snapshot_round_trips(self, sets, tmp_path_factory):
        oracle = ExactInfluenceOracle(dict(sets))
        path = str(tmp_path_factory.mktemp("snap") / "p.snap")
        save_oracle(path, oracle, chunk=3)
        loaded = load_oracle(path)
        assert set(loaded.nodes()) == set(oracle.nodes())
        for node in oracle.nodes():
            assert loaded.reachability_set(node) == oracle.reachability_set(node)

    @given(
        arrays=st.dictionaries(
            st.text(max_size=6),
            st.lists(st.integers(min_value=0, max_value=40), min_size=8, max_size=8),
            max_size=6,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_approx_snapshot_round_trips(self, arrays, tmp_path_factory):
        oracle = ApproxInfluenceOracle(dict(arrays), num_cells=8)
        path = str(tmp_path_factory.mktemp("snap") / "p.snap")
        save_oracle(path, oracle, chunk=2)
        loaded = load_oracle(path)
        assert set(loaded.nodes()) == set(oracle.nodes())
        for node in oracle.nodes():
            assert loaded.registers(node) == oracle.registers(node)
