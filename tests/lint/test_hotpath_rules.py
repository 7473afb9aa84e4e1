"""Positive/negative fixtures for the hot-path performance rules R301–R303."""

from __future__ import annotations

from pathlib import Path

import repro
from repro.lint.engine import lint_project_sources
from repro.lint.hotpath import (
    HotLoopAllocation,
    HotLoopInvariantLookup,
    HotLoopRepeatedLookup,
)
from repro.lint.rules import get_rule

SRC_ROOT = Path(repro.__file__).resolve().parent

HOT_IMPORT = "from repro.lint.alloctrace import hotpath\n\n\n"


def violations_for(sources, rule_id):
    return lint_project_sources(sources, rules=[get_rule(rule_id)])


def hot_module(body):
    """Wrap a fixture body in a hot-scoped module path."""
    return {"src/repro/core/fixture.py": HOT_IMPORT + body}


def test_rule_classes_registered_under_expected_ids():
    assert isinstance(get_rule("R301"), HotLoopAllocation)
    assert isinstance(get_rule("R302"), HotLoopInvariantLookup)
    assert isinstance(get_rule("R303"), HotLoopRepeatedLookup)
    for rule_id in ("R301", "R302", "R303"):
        assert get_rule(rule_id).project_scope


# ----------------------------------------------------------------------
# R301 — per-iteration allocation
# ----------------------------------------------------------------------


class TestR301:
    def test_container_copy_in_hot_loop_flagged(self):
        body = (
            "@hotpath\n"
            "def run(mapping, items):\n"
            "    for item in items:\n"
            "        snapshot = dict(mapping)\n"
            "        snapshot[item] = 1\n"
        )
        found = violations_for(hot_module(body), "R301")
        assert len(found) == 1
        assert "dict(mapping)" in found[0].message

    def test_same_copy_outside_any_loop_not_flagged(self):
        body = (
            "@hotpath\n"
            "def run(mapping, item):\n"
            "    snapshot = dict(mapping)\n"
            "    snapshot[item] = 1\n"
        )
        assert violations_for(hot_module(body), "R301") == []

    def test_cold_function_with_loop_copy_not_flagged(self):
        body = (
            "def run(mapping, items):\n"
            "    for item in items:\n"
            "        snapshot = dict(mapping)\n"
            "        snapshot[item] = 1\n"
        )
        assert violations_for(hot_module(body), "R301") == []

    def test_aggregation_over_list_comprehension_flagged(self):
        body = (
            "@hotpath\n"
            "def run(values):\n"
            "    return sum([v * v for v in values])\n"
        )
        found = violations_for(hot_module(body), "R301")
        assert len(found) == 1
        assert "generator" in found[0].message

    def test_aggregation_over_generator_not_flagged(self):
        body = (
            "@hotpath\n"
            "def run(values):\n"
            "    return sum(v * v for v in values)\n"
        )
        assert violations_for(hot_module(body), "R301") == []

    def test_fresh_container_callee_in_nested_loop_flagged(self):
        # Receiver typing comes from the annotated mapping attribute —
        # the shape of ``ApproxIRS.spread`` before its fix.
        body = (
            "from typing import Dict\n"
            "\n"
            "\n"
            "class Sketch:\n"
            "    def registers(self):\n"
            "        out = []\n"
            "        return out\n"
            "\n"
            "\n"
            "class Index:\n"
            "    def __init__(self):\n"
            "        self._sketches: Dict[str, Sketch] = {}\n"
            "\n"
            "    @hotpath\n"
            "    def spread(self, seeds):\n"
            "        total = 0\n"
            "        for seed in seeds:\n"
            "            sketch = self._sketches.get(seed)\n"
            "            for value in sketch.registers():\n"
            "                total += value\n"
            "        return total\n"
        )
        found = violations_for(hot_module(body), "R301")
        assert len(found) == 1
        assert "_into" in found[0].message


# ----------------------------------------------------------------------
# R302 — loop-invariant lookups
# ----------------------------------------------------------------------


class TestR302:
    def test_repeated_invariant_chain_flagged(self):
        body = (
            "@hotpath\n"
            "def run(oracle, items):\n"
            "    best = 0\n"
            "    for item in items:\n"
            "        if oracle.gain(item) > best:\n"
            "            best = oracle.gain(item)\n"
            "    return best\n"
        )
        found = violations_for(hot_module(body), "R302")
        assert len(found) == 1
        assert "oracle.gain" in found[0].message

    def test_hoisted_lookup_not_flagged(self):
        body = (
            "@hotpath\n"
            "def run(oracle, items):\n"
            "    best = 0\n"
            "    gain = oracle.gain\n"
            "    for item in items:\n"
            "        if gain(item) > best:\n"
            "            best = gain(item)\n"
            "    return best\n"
        )
        assert violations_for(hot_module(body), "R302") == []

    def test_single_use_in_nested_loop_flagged(self):
        body = (
            "@hotpath\n"
            "def run(metric, rows):\n"
            "    for row in rows:\n"
            "        for cell in row:\n"
            "            metric.observe(cell)\n"
        )
        found = violations_for(hot_module(body), "R302")
        assert len(found) == 1
        assert "nested loop" in found[0].message

    def test_rebound_chain_base_not_flagged(self):
        body = (
            "@hotpath\n"
            "def run(pool, items):\n"
            "    for item in items:\n"
            "        cursor = pool.next()\n"
            "        pool = cursor.pool\n"
        )
        assert violations_for(hot_module(body), "R302") == []


# ----------------------------------------------------------------------
# R303 — repeated identical lookups
# ----------------------------------------------------------------------


class TestR303:
    def test_repeated_subscript_flagged(self):
        body = (
            "@hotpath\n"
            "def run(table, keys, out):\n"
            "    for key in keys:\n"
            "        if table[key] > 0:\n"
            "            out.append(table[key])\n"
        )
        found = violations_for(hot_module(body), "R303")
        assert len(found) == 1
        assert "table[key]" in found[0].message

    def test_suppression_comment_silences_the_line(self):
        body = (
            "@hotpath\n"
            "def run(table, keys, out):\n"
            "    for key in keys:\n"
            "        if table[key] > 0:\n"
            "            out.append(table[key])  # repro-lint: disable=R303 (reviewed)\n"
        )
        assert violations_for(hot_module(body), "R303") == []

    def test_rebind_between_lookups_not_flagged(self):
        body = (
            "@hotpath\n"
            "def run(table, keys, out):\n"
            "    for key in keys:\n"
            "        first = table[key]\n"
            "        table = dict(out)\n"
            "        out.append(table[key])\n"
        )
        assert violations_for(hot_module(body), "R303") == []

    def test_repeated_len_flagged(self):
        body = (
            "@hotpath\n"
            "def run(rows, out):\n"
            "    for row in rows:\n"
            "        if len(row) > 2:\n"
            "            out.append(len(row))\n"
        )
        found = violations_for(hot_module(body), "R303")
        assert len(found) == 1
        assert "len(row)" in found[0].message

    def test_repeated_loop_target_attribute_flagged(self):
        body = (
            "@hotpath\n"
            "def run(records, sink):\n"
            "    for record in records:\n"
            "        sink[record.target] = record.target\n"
        )
        found = violations_for(hot_module(body), "R303")
        assert len(found) == 1
        assert "record.target" in found[0].message


# ----------------------------------------------------------------------
# Scope boundaries
# ----------------------------------------------------------------------


def test_hot_findings_only_reported_in_hot_scopes():
    body = (
        "@hotpath\n"
        "def run(mapping, items):\n"
        "    for item in items:\n"
        "        snapshot = dict(mapping)\n"
        "        snapshot[item] = 1\n"
    )
    # Same hot function in the serve subpackage: traversed but not reported.
    sources = {"src/repro/serve/fixture.py": HOT_IMPORT + body}
    assert violations_for(sources, "R301") == []


# ----------------------------------------------------------------------
# Canary: the fixed real finding re-triggers when un-fixed
# ----------------------------------------------------------------------

VHLL_PATH = SRC_ROOT / "sketch" / "vhll.py"


def test_vhll_as_committed_is_r302_clean():
    sources = {"src/repro/sketch/vhll.py": VHLL_PATH.read_text(encoding="utf-8")}
    assert violations_for(sources, "R302") == []


def test_unhoisting_the_vhll_merge_fix_retriggers_r302():
    source = VHLL_PATH.read_text(encoding="utf-8")
    # Revert the committed fix: call the bound method through ``self``
    # again inside the nested merge loops and drop the hoists.
    reverted = source.replace(
        "        insert_pair = self._insert_pair\n", ""
    ).replace("insert_pair(cell_index, r, t)", "self._insert_pair(cell_index, r, t)")
    assert reverted != source, "expected the committed hoist to be present"
    found = violations_for({"src/repro/sketch/vhll.py": reverted}, "R302")
    assert found, "un-hoisting self._insert_pair must re-trigger R302"
    assert all(v.rule_id == "R302" for v in found)
    assert any("self._insert_pair" in v.message for v in found)
