"""Hot-region model: seeding, call-graph closure, and cold boundaries.

The R301–R303 checks only fire inside the *hot region* — the call-graph
closure of ``@hotpath``-marked functions and benchmark roots, cut at
``@coldpath`` boundaries.  These tests pin the region itself down via
:func:`repro.lint.hotpath.hot_region`; rule behaviour is covered in
``test_hotpath_rules.py``.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint.engine import FileContext, _infer_subpackage
from repro.lint.hotpath import collect_benchmark_roots, hot_region
from repro.lint.project import ProjectIndex


def build_index(sources):
    contexts = [
        FileContext.from_source(
            source, path=path, subpackage=_infer_subpackage(Path(path))
        )
        for path, source in sources.items()
    ]
    return ProjectIndex.from_contexts(contexts, set())


def short_names(qualnames):
    """Qualnames with their module prefix stripped (``Cls.meth`` / ``fn``)."""
    out = set()
    for qualname in qualnames:
        parts = qualname.split(".")
        for size in (2, 1):
            if len(parts) >= size:
                out.add(".".join(parts[-size:]))
    return out


CHAIN = """
from repro.lint.alloctrace import hotpath


@hotpath
def entry(items):
    return step(items)


def step(items):
    return finish(items)


def finish(items):
    return len(items)


def unrelated(items):
    return finish(items)
"""


def test_annotation_seed_closes_over_the_call_graph():
    region = short_names(hot_region(build_index({"src/repro/core/chain.py": CHAIN})))
    assert {"entry", "step", "finish"} <= region
    # ``unrelated`` calls into the region but nothing hot calls *it*.
    assert "unrelated" not in region


def test_comment_mark_seeds_like_the_decorator():
    source = (
        "# repro-lint: hotpath\n"
        "def entry(items):\n"
        "    return helper(items)\n"
        "\n"
        "\n"
        "def helper(items):\n"
        "    return len(items)\n"
    )
    region = short_names(hot_region(build_index({"src/repro/core/marked.py": source})))
    assert {"entry", "helper"} <= region


COLD_BOUNDARY = """
from repro.lint.alloctrace import coldpath, hotpath


@hotpath
def entry(items):
    setup(items)
    return crunch(items)


@coldpath
def setup(items):
    validate(items)


def validate(items):
    assert items


def crunch(items):
    return len(items)
"""


def test_coldpath_stops_the_closure():
    region = short_names(hot_region(build_index({"src/repro/core/cold.py": COLD_BOUNDARY})))
    assert {"entry", "crunch"} <= region
    # The boundary itself and everything only reachable through it stay cold.
    assert "setup" not in region
    assert "validate" not in region


def test_coldpath_beats_hotpath_on_the_same_function():
    source = (
        "from repro.lint.alloctrace import coldpath, hotpath\n"
        "\n"
        "\n"
        "@coldpath\n"
        "@hotpath\n"
        "def entry(items):\n"
        "    return len(items)\n"
    )
    region = short_names(hot_region(build_index({"src/repro/core/both.py": source})))
    assert "entry" not in region


BENCH_TARGET = """
class Index:
    def build(self, log):
        return self._ingest(log)

    def _ingest(self, log):
        return len(log)

    def export(self):
        return []
"""

BENCH_DRIVER = """
from repro.core.target import Index


def run():
    index = Index()
    index.build([1, 2, 3])
"""


def test_benchmark_module_calls_seed_the_region():
    region = short_names(hot_region(
        build_index(
            {
                "src/repro/core/target.py": BENCH_TARGET,
                "bench_target.py": BENCH_DRIVER,
            }
        )
    ))
    # ``Index()`` in the benchmark seeds the class's public methods, and
    # the closure pulls in the private helper ``build`` calls.
    assert {"Index.build", "Index.export", "Index._ingest"} <= region


def test_collect_benchmark_roots_reads_bench_files_on_disk(tmp_path):
    bench_dir = tmp_path / "benchmarks"
    bench_dir.mkdir()
    (bench_dir / "bench_target.py").write_text(BENCH_DRIVER, encoding="utf-8")
    (bench_dir / "not_a_bench.py").write_text(
        "from repro.core.target import Index\nIndex().export()\n", encoding="utf-8"
    )
    index = build_index({"src/repro/core/target.py": BENCH_TARGET})
    roots = short_names(collect_benchmark_roots(index, [bench_dir]))
    assert "Index.build" in roots


def test_collect_benchmark_roots_skips_unparsable_files(tmp_path):
    bench_dir = tmp_path / "benchmarks"
    bench_dir.mkdir()
    (bench_dir / "bench_broken.py").write_text("def (syntax error", encoding="utf-8")
    index = build_index({"src/repro/core/target.py": BENCH_TARGET})
    assert collect_benchmark_roots(index, [bench_dir]) == set()


ALIAS = """
from repro.lint.alloctrace import hotpath


class Sketch:
    @hotpath
    def merge(self, other):
        insert = self._insert
        for item in other:
            insert(item)

    def _insert(self, item):
        self.store(item)

    def store(self, item):
        pass
"""


def test_bound_method_alias_keeps_the_callee_hot():
    # The hoist R302 recommends (``insert = self._insert``) must not
    # drop the aliased method out of the region.
    region = short_names(hot_region(build_index({"src/repro/sketch/alias.py": ALIAS})))
    assert {"Sketch.merge", "Sketch._insert", "Sketch.store"} <= region
