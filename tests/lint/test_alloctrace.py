"""Runtime allocation sanitizer: gating, measurement, budgets, and the
static↔dynamic correspondence for the hot-path findings."""

from __future__ import annotations

import json
import tracemalloc

import pytest

from repro.lint import alloctrace
from repro.lint.alloctrace import (
    ALLOC_ENV,
    FILTER_ENV,
    REPORT_ENV,
    allocs_enabled,
    check_budget,
    coldpath,
    dump_report,
    hotpath,
    install_from_env,
    is_enabled,
    note_call,
    report,
    watch,
)
from repro.sketch.vhll import VersionedHLL


@pytest.fixture
def sanitizer(monkeypatch):
    """Enable tracing with clean per-test state; restore on exit."""
    monkeypatch.delenv(FILTER_ENV, raising=False)
    was_enabled = is_enabled()
    alloctrace.reset()
    alloctrace.enable()
    yield alloctrace
    if not was_enabled:
        alloctrace.disable()
    alloctrace.reset()


# ----------------------------------------------------------------------
# enablement and zero-cost-off guarantees
# ----------------------------------------------------------------------


def test_allocs_enabled_reads_the_env_flag(monkeypatch):
    monkeypatch.delenv(ALLOC_ENV, raising=False)
    assert not allocs_enabled()
    monkeypatch.setenv(ALLOC_ENV, "0")
    assert not allocs_enabled()
    monkeypatch.setenv(ALLOC_ENV, "1")
    assert allocs_enabled()


def test_install_from_env_is_a_no_op_when_unset(monkeypatch):
    monkeypatch.delenv(ALLOC_ENV, raising=False)
    if is_enabled():
        pytest.skip("sanitizer enabled process-wide in this run")
    assert not install_from_env()
    assert not is_enabled()


def test_hotpath_is_identity_when_disabled(monkeypatch):
    monkeypatch.delenv(ALLOC_ENV, raising=False)
    if is_enabled():
        pytest.skip("sanitizer enabled process-wide in this run")

    def probe():
        return 1

    assert hotpath(probe) is probe


def test_coldpath_is_always_identity():
    def probe():
        return 1

    assert coldpath(probe) is probe


def test_watch_is_a_no_op_when_disabled(monkeypatch):
    monkeypatch.delenv(ALLOC_ENV, raising=False)
    if is_enabled():
        pytest.skip("sanitizer enabled process-wide in this run")
    with watch("noop"):
        pass
    assert report()["scopes"] == {}


def test_enable_disable_round_trip(sanitizer):
    assert is_enabled()
    assert tracemalloc.is_tracing()


# ----------------------------------------------------------------------
# per-function and per-scope accounting
# ----------------------------------------------------------------------


def test_hotpath_wrapper_records_per_call_retention(sanitizer):
    holder = []

    @hotpath
    def grow():
        holder.append(bytearray(64 * 1024))

    grow()
    grow()
    functions = report()["functions"]
    label = next(key for key in functions if key.endswith("grow"))
    entry = functions[label]
    assert entry["calls"] == 2
    assert entry["net_bytes"] >= 2 * 64 * 1024
    assert entry["max_call_net_bytes"] >= 64 * 1024


def test_note_call_tracks_the_max_single_call(sanitizer):
    note_call("probe", 100)
    note_call("probe", 50)
    entry = report()["functions"]["probe"]
    assert entry == {"calls": 2, "net_bytes": 150, "max_call_net_bytes": 100}


def test_watch_records_net_and_peak_bytes(sanitizer):
    retained = []
    with watch("scope", sites=False):
        throwaway = bytearray(256 * 1024)
        del throwaway
        retained.append(bytearray(32 * 1024))
    scope = report()["scopes"]["scope"]
    assert scope["entries"] == 1
    assert scope["net_bytes"] >= 32 * 1024
    # The freed 256 KiB never shows in net, but peak saw it.
    assert scope["peak_bytes"] >= 256 * 1024
    assert retained


def test_watch_site_accounting_honours_the_filter(sanitizer, monkeypatch):
    monkeypatch.setenv(FILTER_ENV, "never/matches/anything")
    alloctrace.reset()
    retained = []
    with watch("filtered"):
        retained.append(bytearray(32 * 1024))
    assert report()["sites"] == {}
    assert retained


# ----------------------------------------------------------------------
# static↔dynamic correspondence on the real hot code
# ----------------------------------------------------------------------


def test_vhll_insert_sites_show_up_in_the_watch_report(sanitizer):
    """The vhll insert lines allocate for real.

    ``VersionedHLL._insert_pair`` packs one ``(t, rho)`` tuple per stored
    pair; under the sanitizer those exact ``sketch/vhll.py`` sites retain
    measurable blocks — the per-pair cost a packed layout would remove.
    """
    sketch = VersionedHLL(precision=4)
    with watch("vhll-inserts"):
        for step in range(256):
            sketch.add(f"item-{step}", timestamp=step)
    sites = report()["sites"]
    vhll_sites = {site: entry for site, entry in sites.items() if "vhll.py" in site}
    assert vhll_sites, f"expected sketch/vhll.py sites, got {sorted(sites)}"
    assert sum(entry["blocks"] for entry in vhll_sites.values()) > 0


def test_max_registers_into_allocates_less_than_the_old_spread_shape(sanitizer):
    """The R301 fix measurably drops per-query allocation.

    ``ApproxIRS.spread`` used to materialise ``effective_registers()``
    (a fresh β-length list) per seed; ``max_registers_into`` folds into
    one accumulator.  Peak bytes inside the query scope must drop.
    """
    sketches = []
    for salt_free_index in range(8):
        sketch = VersionedHLL(precision=9)
        for step in range(64):
            sketch.add((salt_free_index, step), timestamp=step)
        sketches.append(sketch)

    def old_shape():
        combined = [0] * sketches[0].num_cells
        for sketch in sketches:
            for i, value in enumerate(sketch.effective_registers()):
                if value > combined[i]:
                    combined[i] = value
        return combined

    def new_shape():
        combined = [0] * sketches[0].num_cells
        for sketch in sketches:
            sketch.max_registers_into(combined)
        return combined

    assert old_shape() == new_shape()
    with watch("spread-old", sites=False):
        old_shape()
    with watch("spread-new", sites=False):
        new_shape()
    scopes = report()["scopes"]
    assert scopes["spread-new"]["peak_bytes"] < scopes["spread-old"]["peak_bytes"]


def test_max_registers_into_validates_the_accumulator_length():
    sketch = VersionedHLL(precision=4)
    with pytest.raises(ValueError, match="registers has length"):
        sketch.max_registers_into([0] * 3)


def test_max_registers_into_respects_time_bounds():
    sketch = VersionedHLL(precision=4)
    for step in range(32):
        sketch.add(f"item-{step}", timestamp=step)
    full = [0] * sketch.num_cells
    sketch.max_registers_into(full)
    assert full == sketch.effective_registers()
    bounded = [0] * sketch.num_cells
    sketch.max_registers_into(bounded, max_time=16)
    assert bounded == sketch.effective_registers(max_time=16)


# ----------------------------------------------------------------------
# reports and the budget gate
# ----------------------------------------------------------------------


def test_dump_report_writes_json(sanitizer, tmp_path):
    note_call("probe", 10)
    target = tmp_path / "alloc.json"
    snapshot = dump_report(str(target))
    on_disk = json.loads(target.read_text())
    assert on_disk == json.loads(json.dumps(snapshot))
    assert set(on_disk) >= {"functions", "sites", "scopes", "filter", "enabled"}


def test_dump_report_honours_the_env_path(sanitizer, tmp_path, monkeypatch):
    target = tmp_path / "from_env.json"
    monkeypatch.setenv(REPORT_ENV, str(target))
    note_call("probe", 10)
    dump_report()
    assert json.loads(target.read_text())["functions"]["probe"]["calls"] == 1


def test_check_budget_flags_breaches_only():
    report_data = {
        "functions": {
            "repro.sketch.vhll.VersionedHLL.merge_within": {
                "calls": 10,
                "net_bytes": 1000,
                "max_call_net_bytes": 4096,
            }
        }
    }
    budget = {"functions": {"VersionedHLL.merge_within": {"max_call_net_bytes": 8192}}}
    assert check_budget(report_data, budget) == []
    tight = {"functions": {"VersionedHLL.merge_within": {"max_call_net_bytes": 1024}}}
    breaches = check_budget(report_data, tight)
    assert len(breaches) == 1
    assert "4096" in breaches[0] and "1024" in breaches[0]


def test_check_budget_ignores_functions_missing_from_the_report():
    budget = {"functions": {"VersionedHLL.never_driven": {"max_call_net_bytes": 1}}}
    assert check_budget({"functions": {}}, budget) == []


def test_cli_check_exit_codes(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    budget_path = tmp_path / "budget.json"
    report_path.write_text(
        json.dumps(
            {"functions": {"pkg.fn": {"calls": 1, "max_call_net_bytes": 100}}}
        )
    )
    budget_path.write_text(
        json.dumps({"functions": {"pkg.fn": {"max_call_net_bytes": 200}}})
    )
    assert alloctrace.main(["--check", str(report_path), str(budget_path)]) == 0
    budget_path.write_text(
        json.dumps({"functions": {"pkg.fn": {"max_call_net_bytes": 10}}})
    )
    assert alloctrace.main(["--check", str(report_path), str(budget_path)]) == 1
    assert "breached" in capsys.readouterr().err
    assert alloctrace.main(["--bogus"]) == 2
