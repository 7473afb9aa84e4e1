"""Per-rule positive/negative fixtures plus the whole-tree gate."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro
from repro.lint.engine import FileContext, LintEngine, lint_project_sources, lint_source
from repro.lint.cli import main
from repro.lint.rules import (
    NoDirectTimingCalls,
    NoWallClockOrUnseededRandom,
    PublicApiFullyAnnotated,
    all_rules,
    get_rule,
    select_rules,
)

SRC_ROOT = Path(repro.__file__).resolve().parent


def ids_of(violations):
    return sorted({violation.rule_id for violation in violations})


def lint_with(rule_id, source, subpackage=None):
    return lint_source(source, subpackage=subpackage, rules=[get_rule(rule_id)])


# ----------------------------------------------------------------------
# R001 — no wall clock / unseeded randomness
# ----------------------------------------------------------------------


R001_POSITIVE = """
import random
import time


def simulate(cascades):
    started = time.time()
    coin = random.random()
    generator = random.Random()
    noise = np.random.rand(3)
    return started, coin, generator, noise
"""

R001_NEGATIVE = """
import time

from repro.utils.rng import resolve_rng, spawn_rng


def simulate(cascades, rng=None):
    generator = resolve_rng(rng)
    child = spawn_rng(generator, 1)
    seeded = np.random.default_rng(42)
    elapsed = time.perf_counter()
    return generator.random(), child, seeded, elapsed
"""


def test_r001_flags_wall_clock_and_unseeded_randomness():
    violations = lint_with("R001", R001_POSITIVE)
    assert ids_of(violations) == ["R001"]
    messages = " ".join(violation.message for violation in violations)
    assert "time.time" in messages
    assert len(violations) == 4  # time.time, random.random, random.Random, np.random.rand


def test_r001_accepts_seeded_rng_helpers():
    assert lint_with("R001", R001_NEGATIVE) == []


def test_r001_is_scoped_to_algorithm_packages():
    assert lint_with("R001", R001_POSITIVE, subpackage="core")
    assert lint_with("R001", R001_POSITIVE, subpackage="analysis") == []
    assert lint_with("R001", R001_POSITIVE, subpackage="utils") == []


# ----------------------------------------------------------------------
# R004 — public API fully annotated
# ----------------------------------------------------------------------


R004_POSITIVE = """
class Sketch:
    def __init__(self, precision):
        self.precision = precision

    def add(self, item, timestamp: int):
        pass
"""

R004_NEGATIVE = """
class Sketch:
    def __init__(self, precision: int) -> None:
        self.precision = precision

    def add(self, item: object, timestamp: int) -> None:
        pass

    def _internal(self, anything):
        pass
"""


def test_r004_flags_missing_annotations():
    violations = lint_with("R004", R004_POSITIVE)
    assert len(violations) == 2
    assert "precision" in violations[0].message and "return" in violations[0].message
    assert "item" in violations[1].message


def test_r004_accepts_annotated_public_api_and_ignores_private():
    assert lint_with("R004", R004_NEGATIVE) == []


def test_r004_is_scoped_to_core_and_sketch():
    assert lint_with("R004", R004_POSITIVE, subpackage="sketch")
    assert lint_with("R004", R004_POSITIVE, subpackage="simulation") == []


# ----------------------------------------------------------------------
# R006 — timing goes through utils.timer / obs
# ----------------------------------------------------------------------


R006_POSITIVE = """
import time
from time import perf_counter as tick


def measure(func):
    start = time.perf_counter()
    func()
    wall = time.time()
    mono = time.monotonic_ns()
    bare = tick()
    return start, wall, mono, bare
"""

R006_NEGATIVE = """
import time

from repro.utils.timer import Timer, time_call


def measure(func):
    with Timer() as timer:
        func()
    _, elapsed = time_call(func)
    time.sleep(0.01)  # sleeping is not measuring
    return timer.elapsed, elapsed
"""


def test_r006_flags_direct_and_imported_timing_calls():
    violations = lint_with("R006", R006_POSITIVE)
    assert ids_of(violations) == ["R006"]
    messages = " ".join(violation.message for violation in violations)
    assert len(violations) == 4
    assert "time.perf_counter" in messages
    assert "time.time" in messages
    assert "time.monotonic_ns" in messages


def test_r006_accepts_timer_routed_code_and_sleep():
    assert lint_with("R006", R006_NEGATIVE) == []


def test_r006_exempts_the_instrumented_layer():
    rule = get_rule("R006")
    assert isinstance(rule, NoDirectTimingCalls)
    exempt = lint_source(
        R006_POSITIVE, path="src/repro/utils/timer.py", rules=[rule]
    )
    assert exempt == []
    in_obs = lint_source(
        R006_POSITIVE, path="src/repro/obs/registry.py", subpackage="obs", rules=[rule]
    )
    assert in_obs == []


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------


def test_file_level_suppression_silences_the_whole_file():
    source = "# repro-lint: disable=R006\n" + R006_POSITIVE
    assert lint_with("R006", source) == []


def test_line_level_suppression_silences_one_line_only():
    marked = "    start = time.perf_counter()  # repro-lint: disable=R006"
    source = R006_POSITIVE.replace("    start = time.perf_counter()", marked)
    suppressed_line = source.splitlines().index(marked) + 1
    violations = lint_with("R006", source)
    assert len(violations) == 3
    assert suppressed_line not in {violation.line for violation in violations}


def test_disable_all_suppresses_every_rule():
    source = "# repro-lint: disable=all\n" + R001_POSITIVE + R006_POSITIVE
    assert lint_source(source) == []


@pytest.mark.parametrize("root", ["src/repro", "benchmarks", "examples"])
def test_every_suppression_names_a_registered_rule(root):
    """A ``disable=`` id that names no rule silences nothing, so a typo
    (or a rule deleted from the registry) leaves a dead comment behind."""
    known = {rule.rule_id for rule in all_rules()} | {"all"}
    directory = SRC_ROOT.parents[1] / root
    assert directory.is_dir()
    unknown = []
    for path in sorted(directory.rglob("*.py")):
        ctx = FileContext.from_source(path.read_text(encoding="utf-8"), path=str(path))
        ids = set(ctx.file_suppressions)
        for on_line in ctx.line_suppressions.values():
            ids |= on_line
        unknown.extend(f"{path}: {rule_id!r}" for rule_id in sorted(ids - known))
    assert unknown == []


# ----------------------------------------------------------------------
# Whole-tree gate and CLI
# ----------------------------------------------------------------------


def test_full_repro_tree_is_lint_clean():
    violations, files_checked = LintEngine().lint_paths([SRC_ROOT])
    assert violations == []
    assert files_checked >= 40  # every module of the package was visited


def test_r002_ignores_private_helpers():
    """The private-helper exemption of the retired R002 lives on in R101."""
    rules = [get_rule("R101")]
    private = {"pkg/algo.py": "def _helper(window):\n    return window + 1\n"}
    assert lint_project_sources(private, rules=rules) == []
    public = {"pkg/algo.py": "def helper(window):\n    return window + 1\n"}
    assert ids_of(lint_project_sources(public, rules=rules)) == ["R101"]


def test_r101_catches_a_deleted_core_validation_call(tmp_path):
    """Removing one validator from a public core entry point must fail R101."""
    import shutil

    mirror = tmp_path / "src" / "repro"
    shutil.copytree(SRC_ROOT, mirror)
    summary = mirror / "core" / "summary.py"
    patched = summary.read_text(encoding="utf-8").replace(
        '        require_int(end_time, "end_time")\n', ""
    )
    assert patched != summary.read_text(encoding="utf-8")
    summary.write_text(patched, encoding="utf-8")

    engine = LintEngine([get_rule("R101")], reference_roots=[])
    violations, _ = engine.lint_paths([mirror])
    assert any(
        v.rule_id == "R101" and "'end_time'" in v.message and "summary.py" in v.path
        for v in violations
    )


def test_rule_registry_is_complete():
    assert [rule.rule_id for rule in all_rules()] == [
        "R001",
        "R004",
        "R006",
        "R101",
        "R103",
        "R104",
        "R106",
        "R201",
        "R202",
        "R203",
        "R204",
        "R205",
        "R301",
        "R302",
        "R303",
    ]
    assert isinstance(get_rule("R001"), NoWallClockOrUnseededRandom)
    assert isinstance(get_rule("R004"), PublicApiFullyAnnotated)
    assert isinstance(get_rule("R006"), NoDirectTimingCalls)
    with pytest.raises(KeyError, match="unknown rule"):
        get_rule("R999")
    assert [rule.rule_id for rule in select_rules(["R006", "R001"])] == ["R001", "R006"]


def test_cli_reports_violations_and_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(R001_POSITIVE, encoding="utf-8")

    assert main([str(bad), "--select", "R001"]) == 1
    out = capsys.readouterr().out
    assert "R001" in out and "bad.py" in out and "4 violations" in out

    assert main([str(bad), "--select", "R103"]) == 0
    assert "0 violations" in capsys.readouterr().out

    assert main([str(bad), "--select", "R001", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 4
    assert payload["violations"][0]["rule"] == "R001"

    assert main([str(tmp_path / "missing.py")]) == 2
    assert main(["--select", "R999", str(bad)]) == 2
    assert main(["--list-rules"]) == 0
    assert "R001" in capsys.readouterr().out
