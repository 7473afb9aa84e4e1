"""Lint engine throughput over the real ``src/repro`` tree.

Not a paper table — this tracks the cost of the static-analysis gate
itself so the whole-program rules (project index + call graph) stay
cheap enough to run on every commit.  Timings: the full run, the
per-file rules alone (the difference to the full run is the price of the
cross-module analysis), and the hot-path family with and without.
"""

from pathlib import Path

from conftest import register_table

import repro
from repro.lint.engine import LintEngine
from repro.lint.rules import all_rules, expand_rule_selectors, select_rules

SRC_ROOT = Path(repro.__file__).resolve().parent

FILE_RULE_IDS = [rule.rule_id for rule in all_rules() if not rule.project_scope]
HOTPATH_RULE_IDS = expand_rule_selectors(["R3"])
NON_HOTPATH_RULE_IDS = [
    rule.rule_id for rule in all_rules() if rule.rule_id not in HOTPATH_RULE_IDS
]


def test_lint_whole_tree(benchmark):
    engine = LintEngine()
    violations, files_checked = benchmark(engine.lint_paths, [SRC_ROOT])
    assert violations == []
    register_table(
        "Lint engine over src/repro",
        [
            {
                "files": files_checked,
                "rules": len(all_rules()),
                "file_rules": len(FILE_RULE_IDS),
                "project_rules": len(all_rules()) - len(FILE_RULE_IDS),
                "violations": len(violations),
            }
        ],
        note="timings in the pytest-benchmark table above (full/file-only/hot-path)",
    )


def test_lint_file_rules_only(benchmark):
    engine = LintEngine(select_rules(FILE_RULE_IDS))
    violations, _ = benchmark(engine.lint_paths, [SRC_ROOT])
    assert violations == []


def test_lint_hotpath_rules_only(benchmark):
    """Cost of the R301–R303 hot-region analysis alone.

    The hot-region closure (benchmark-root seeding + call-graph BFS +
    the three checkers) runs once per index and is cached, so this case
    prices the whole hot-path family; comparing against the run below
    (everything *except* R3xx) isolates its share of the full gate.
    """
    engine = LintEngine(select_rules(HOTPATH_RULE_IDS))
    violations, _ = benchmark(engine.lint_paths, [SRC_ROOT])
    assert violations == []


def test_lint_without_hotpath_rules(benchmark):
    engine = LintEngine(select_rules(NON_HOTPATH_RULE_IDS))
    violations, _ = benchmark(engine.lint_paths, [SRC_ROOT])
    assert violations == []
