"""Baseline ratchet semantics: suppression, staleness, CLI wiring."""

from __future__ import annotations

import json

import pytest

from repro.lint.baseline import Baseline, BaselineError, normalize_path
from repro.lint.cli import main
from repro.lint.engine import Violation
from repro.lint.rules import expand_rule_selectors


def make(path="src/a.py", line=1, rule="R001", message="boom"):
    return Violation(path=path, line=line, col=0, rule_id=rule, message=message)


class TestRoundTrip:
    def test_save_then_load_preserves_entries(self, tmp_path):
        baseline = Baseline.from_violations([make(), make(), make(rule="R006")])
        target = tmp_path / "baseline.json"
        baseline.save(target)
        loaded = Baseline.load(target)
        assert loaded.entries == {
            ("src/a.py", "R001", "boom"): 2,
            ("src/a.py", "R006", "boom"): 1,
        }

    def test_saved_file_is_versioned_and_sorted(self, tmp_path):
        target = tmp_path / "baseline.json"
        Baseline.from_violations([make(rule="R006"), make(rule="R001")]).save(target)
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert payload["version"] == 1
        assert [record["rule"] for record in payload["violations"]] == ["R001", "R006"]


class TestApply:
    def test_known_violations_suppressed(self):
        baseline = Baseline.from_violations([make()])
        new, suppressed, stale = baseline.apply([make()])
        assert new == [] and suppressed == 1 and stale == []

    def test_second_identical_violation_is_new(self):
        baseline = Baseline.from_violations([make(line=3)])
        first, second = make(line=3), make(line=9)
        new, suppressed, stale = baseline.apply([second, first])
        # The budget of one covers the earliest occurrence by line.
        assert new == [second] and suppressed == 1 and stale == []

    def test_fixed_debt_reported_stale(self):
        baseline = Baseline.from_violations([make(), make(rule="R006")])
        new, suppressed, stale = baseline.apply([make()])
        assert new == [] and suppressed == 1
        assert stale == [("src/a.py", "R006", "boom")]

    def test_unrelated_violation_is_new(self):
        baseline = Baseline.from_violations([make()])
        other = make(path="src/b.py")
        new, _, _ = baseline.apply([other])
        assert new == [other]


class TestLoadValidation:
    def test_malformed_json_rejected(self, tmp_path):
        target = tmp_path / "baseline.json"
        target.write_text("{nope", encoding="utf-8")
        with pytest.raises(BaselineError):
            Baseline.load(target)

    def test_missing_violations_key_rejected(self, tmp_path):
        target = tmp_path / "baseline.json"
        target.write_text('{"version": 1}', encoding="utf-8")
        with pytest.raises(BaselineError):
            Baseline.load(target)

    def test_non_positive_count_rejected(self, tmp_path):
        target = tmp_path / "baseline.json"
        target.write_text(
            json.dumps(
                {
                    "version": 1,
                    "violations": [
                        {"path": "a.py", "rule": "R001", "message": "m", "count": 0}
                    ],
                }
            ),
            encoding="utf-8",
        )
        with pytest.raises(BaselineError):
            Baseline.load(target)


class TestNormalizePath:
    def test_relative_paths_become_posix(self):
        assert normalize_path("src/repro/core/exact.py") == "src/repro/core/exact.py"

    def test_cwd_prefix_stripped(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert normalize_path(str(tmp_path / "src" / "a.py")) == "src/a.py"


BAD_SOURCE = """
import time


def feed(events):
    started = time.perf_counter()
    return sorted(events), started
"""


class TestCliRatchet:
    def test_update_then_clean_then_regression(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_SOURCE, encoding="utf-8")
        baseline = tmp_path / "baseline.json"

        # Without a baseline the violation fails the run.
        assert main([str(bad), "--select", "R006"]) == 1
        capsys.readouterr()

        # Record the debt, then the same tree passes.
        assert main([str(bad), "--select", "R006", "--baseline", str(baseline), "--update-baseline"]) == 0
        capsys.readouterr()
        assert main([str(bad), "--select", "R006", "--baseline", str(baseline)]) == 0
        assert "suppressed 1" in capsys.readouterr().out

        # A second violation of the same kind is new debt: the run fails.
        bad.write_text(BAD_SOURCE + "\n\n" + BAD_SOURCE.replace("feed", "feed2"), encoding="utf-8")
        assert main([str(bad), "--select", "R006", "--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "feed2" in out or "R006" in out

    def test_stale_entries_are_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_SOURCE, encoding="utf-8")
        baseline = tmp_path / "baseline.json"
        assert main([str(bad), "--select", "R006", "--baseline", str(baseline), "--update-baseline"]) == 0
        capsys.readouterr()

        bad.write_text("def feed(events):\n    return sorted(events)\n", encoding="utf-8")
        assert main([str(bad), "--select", "R006", "--baseline", str(baseline)]) == 0
        assert "stale baseline entry" in capsys.readouterr().out

    def test_missing_baseline_file_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("x = 1\n", encoding="utf-8")
        assert main([str(bad), "--baseline", str(tmp_path / "nope.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_update_baseline_requires_baseline_flag(self, capsys):
        assert main(["--update-baseline"]) == 2
        assert "--update-baseline requires" in capsys.readouterr().err


class TestRuleSelection:
    def test_prefix_expands_to_the_rule_family(self):
        assert expand_rule_selectors(["R2"]) == [
            "R201",
            "R202",
            "R203",
            "R204",
            "R205",
        ]

    def test_exact_ids_and_prefixes_mix_and_dedupe(self):
        assert expand_rule_selectors(["R006", "R20", "R201"]) == [
            "R006",
            "R201",
            "R202",
            "R203",
            "R204",
            "R205",
        ]

    def test_unknown_selector_raises(self):
        with pytest.raises(KeyError, match="matches no rule"):
            expand_rule_selectors(["R9"])

    def test_empty_selectors_are_skipped(self):
        assert expand_rule_selectors(["", " "]) == []

    def test_cli_select_prefix_runs_the_family(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_SOURCE, encoding="utf-8")
        # R006 fires on this source but no R2xx rule does.
        assert main([str(bad), "--select", "R2"]) == 0
        capsys.readouterr()
        assert main([str(bad), "--select", "R0"]) == 1
        capsys.readouterr()

    def test_cli_ignore_subtracts_from_selection(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_SOURCE, encoding="utf-8")
        assert main([str(bad), "--select", "R006", "--ignore", "R006"]) == 2
        assert "left no rules" in capsys.readouterr().err
        # BAD_SOURCE violates R006 and R004; ignoring both leaves the
        # remaining R0xx rules, which are clean here.
        assert main([str(bad), "--select", "R0", "--ignore", "R006,R004"]) == 0
        capsys.readouterr()

    def test_cli_unknown_selector_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("x = 1\n", encoding="utf-8")
        assert main([str(bad), "--select", "R9"]) == 2
        assert "matches no rule" in capsys.readouterr().err


class TestApplyActiveRules:
    def test_entries_outside_active_set_not_spent_or_stale(self):
        baseline = Baseline.from_violations([make(), make(rule="R006")])
        # Linting with only R006 active: the R001 entry is neither
        # consumed nor reported stale.
        new, suppressed, stale = baseline.apply(
            [make(rule="R006")], active_rules={"R006"}
        )
        assert new == [] and suppressed == 1 and stale == []

    def test_active_rule_debt_still_goes_stale(self):
        baseline = Baseline.from_violations([make(), make(rule="R006")])
        new, suppressed, stale = baseline.apply([], active_rules={"R006"})
        assert new == [] and suppressed == 0
        assert stale == [("src/a.py", "R006", "boom")]

    def test_none_means_every_entry_participates(self):
        baseline = Baseline.from_violations([make(), make(rule="R006")])
        new, suppressed, stale = baseline.apply([make(rule="R006")])
        assert suppressed == 1
        assert stale == [("src/a.py", "R001", "boom")]

    def test_cli_partial_select_does_not_invalidate_other_debt(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_SOURCE, encoding="utf-8")
        baseline = tmp_path / "baseline.json"
        assert main([str(bad), "--select", "R006", "--baseline", str(baseline), "--update-baseline"]) == 0
        capsys.readouterr()

        # A run restricted to the concurrency family must not report the
        # recorded R006 debt as stale (those rules never ran).
        assert main([str(bad), "--select", "R2", "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "stale baseline entry" not in out
