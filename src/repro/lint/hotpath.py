"""Hot-path performance lint: the hot-region model and rules R301–R303.

ROADMAP item 2 names the sketch hot path — dict-of-lists of ``(t, ρ)``
pairs in ``VersionedHLL``/``IRSSummary`` — as the dominant cost of an
approx build (~414k pair inserts per run), and the planned packed-array
rewrite needs a machine-checked map of where allocation and
pointer-chasing happen before anyone touches the layout.  This module
provides that map as lint rules, so hot-path regressions are caught the
same way lock-discipline regressions already are (R201–R205).

Hot-region model
----------------
A function is **hot** when it is reachable, over the project call graph,
from a hot *seed* without passing through a *cold boundary*:

* seeds — functions decorated ``@hotpath`` (re-exported here from
  :mod:`repro.lint.alloctrace`), functions carrying a
  ``# repro-lint: hotpath`` comment on or directly above their ``def``,
  and the call roots of ``benchmarks/bench_*.py`` (what the benchmark
  harness actually drives: a benchmarked classmethod constructor seeds
  its class's public methods, a constructed class seeds the same);
* boundaries — ``@coldpath`` / ``# repro-lint: coldpath`` marks, which
  closure neither enters nor traverses.

Closure uses :meth:`~repro.lint.project.ProjectIndex.call_graph` plus
two local extensions: bound-method aliases (``insert = self._insert``
keeps ``_insert`` hot after the R302 hoist fix) and receiver-typed calls
(``sketch.add_pair(...)`` where ``sketch``'s class is inferable from a
constructor call, an annotated ``self._attr``, or ``.values()`` of an
annotated mapping attribute).

Findings are only *reported* for the hot subsystems the paper's
efficiency claims rest on — ``repro/core`` and ``repro/sketch`` (plus
out-of-package lint fixtures) — though closure traverses everything.

The rules
---------
* **R301** ``hot-loop-allocation`` — per-iteration container allocation:
  ``list(x)``/``.copy()`` copies in loop bodies, aggregation builtins fed
  a throwaway list/set comprehension, and loops over a callee that
  builds and returns a fresh container on every call of an enclosing
  hot loop.
* **R302** ``hot-loop-invariant-lookup`` — an attribute/global lookup
  chain that cannot change during the loop (base never rebound, no
  attribute store on a prefix) evaluated twice per iteration or inside
  a nested loop: hoist it to a local.
* **R303** ``hot-loop-repeated-lookup`` — the same subscript, ``len()``
  or loop-variant attribute computed twice in a loop body with no
  intervening rebind: compute once, reuse.

All three are project-scope rules (they need the call graph), thread
through the baseline ratchet and ``--select``/``--ignore`` prefix
machinery (``R3`` selects the family), and honour the standard
suppression comments (``# repro-lint: disable=R302`` on a line).  The
runtime cross-check — confirming a static finding corresponds to
measured allocations — lives in :mod:`repro.lint.alloctrace`.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple
from weakref import WeakKeyDictionary

from repro.lint.alloctrace import coldpath, hotpath  # noqa: F401 — re-export
from repro.lint.project import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    ProjectIndex,
    _call_dotted_name,
    annotation_class_name,
    mapping_value_class,
    module_name_for_path,
)
from repro.lint.rules import Rule, register

__all__ = [
    "hotpath",
    "coldpath",
    "collect_benchmark_roots",
    "hot_region",
    "HotLoopAllocation",
    "HotLoopInvariantLookup",
    "HotLoopRepeatedLookup",
]

#: Sub-packages whose hot functions are *reported* on (closure still
#: traverses the whole project).  ``None`` (out-of-package fixtures) is
#: always eligible.
HOT_SCOPES = frozenset({"core", "sketch"})

_MARK_RE = re.compile(r"#\s*repro-lint:\s*(hotpath|coldpath)\b")

_COPY_BUILTINS = frozenset({"list", "dict", "set", "tuple", "frozenset"})
_AGG_BUILTINS = frozenset({"sum", "min", "max", "any", "all", "sorted"})
_ITER_WRAPPERS = frozenset({"enumerate", "zip", "reversed"})
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_SCOPE_STMTS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# ----------------------------------------------------------------------
# Small AST helpers
# ----------------------------------------------------------------------


def _attr_chain(node: ast.AST) -> Optional[str]:
    """``a.b.c`` as a dotted string when the chain bottoms out in a Name."""
    parts: List[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name) and parts:
        parts.append(cur.id)
        return ".".join(reversed(parts))
    return None


def _is_name_or_chain(node: ast.AST) -> bool:
    """Name, attribute chain, or a subscript of one — a cheap re-read."""
    if isinstance(node, ast.Name):
        return True
    if isinstance(node, ast.Attribute):
        return _attr_chain(node) is not None
    if isinstance(node, ast.Subscript):
        return _is_name_or_chain(node.value)
    return False


def _expr_label(node: ast.AST) -> str:
    """A short printable form of an expression for messages."""
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on our input
        return "<expr>"
    return text if len(text) <= 60 else text[:57] + "..."


def _target_names(target: ast.AST) -> Set[str]:
    """Names bound by a ``for`` target (handles tuple nesting)."""
    names: Set[str] = set()
    for node in ast.walk(target):
        if isinstance(node, ast.Name):
            names.add(node.id)
    return names


def _is_fresh_container_expr(node: ast.AST) -> bool:
    """An expression that always evaluates to a newly built container."""
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in _COPY_BUILTINS:
            return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return isinstance(node.left, ast.List) or isinstance(node.right, ast.List)
    return False


def _copy_call_label(node: ast.AST) -> Optional[str]:
    """Label when ``node`` copies an existing container, else ``None``."""
    if not isinstance(node, ast.Call) or node.keywords:
        return None
    func = node.func
    if (
        isinstance(func, ast.Name)
        and func.id in _COPY_BUILTINS
        and len(node.args) == 1
        and _is_name_or_chain(node.args[0])
    ):
        return f"{func.id}({_expr_label(node.args[0])})"
    if (
        isinstance(func, ast.Attribute)
        and func.attr == "copy"
        and not node.args
        and _is_name_or_chain(func.value)
    ):
        return f"{_expr_label(func.value)}.copy()"
    return None


def _kills_in(tree: ast.AST) -> Set[str]:
    """Names (re)bound, deleted, or possibly mutated anywhere in ``tree``."""
    kills: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            kills.add(node.id)
        elif isinstance(node, (ast.Subscript, ast.Attribute)) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            base: ast.AST = node
            while isinstance(base, (ast.Subscript, ast.Attribute)):
                base = base.value
            if isinstance(base, ast.Name):
                kills.add(base.id)
        elif isinstance(node, ast.Call):
            if isinstance(node.func, ast.Attribute) and isinstance(
                node.func.value, ast.Name
            ):
                kills.add(node.func.value.id)
            for arg in node.args:
                if isinstance(arg, ast.Name):
                    kills.add(arg.id)
    return kills


def _child_loops(stmts: Sequence[ast.stmt]) -> List[ast.stmt]:
    """Loops in ``stmts`` whose nearest enclosing loop is the caller's."""
    found: List[ast.stmt] = []
    for stmt in stmts:
        if isinstance(stmt, (ast.For, ast.While)):
            found.append(stmt)
        elif isinstance(stmt, ast.If):
            found.extend(_child_loops(stmt.body))
            found.extend(_child_loops(stmt.orelse))
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            found.extend(_child_loops(stmt.body))
        elif isinstance(stmt, ast.Try):
            found.extend(_child_loops(stmt.body))
            for handler in stmt.handlers:
                found.extend(_child_loops(handler.body))
            found.extend(_child_loops(stmt.orelse))
            found.extend(_child_loops(stmt.finalbody))
    return found


class _ChainLoads(ast.NodeVisitor):
    """Collect *maximal* attribute chains read (Load) in an expression.

    Comprehensions, lambdas and nested scopes are not entered — their
    iteration structure is separate from the loop under analysis.
    """

    def __init__(self) -> None:
        self.chains: List[Tuple[str, ast.Attribute]] = []

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            chain = _attr_chain(node)
            if chain is not None:
                self.chains.append((chain, node))
                return  # don't record sub-chains of this chain
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        return None

    def visit_ListComp(self, node: ast.ListComp) -> None:
        return None

    def visit_SetComp(self, node: ast.SetComp) -> None:
        return None

    def visit_DictComp(self, node: ast.DictComp) -> None:
        return None

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        return None


def _chain_loads(node: ast.AST) -> List[Tuple[str, ast.Attribute]]:
    visitor = _ChainLoads()
    visitor.visit(node)
    return visitor.chains


# ----------------------------------------------------------------------
# Benchmark-root seeding
# ----------------------------------------------------------------------


def _seed_function(fn: FunctionInfo, seeds: Set[str]) -> None:
    seeds.add(fn.qualname)
    owner = fn.owner
    if owner is not None and (fn.is_classmethod or fn.is_staticmethod):
        # A benchmarked constructor classmethod (``ApproxIRS.from_log``)
        # returns an instance the harness keeps driving — its public
        # methods are benchmark roots too.
        _seed_class(owner, seeds)


def _seed_class(cls_info: ClassInfo, seeds: Set[str]) -> None:
    for method in cls_info.methods.values():
        if method.is_public:
            seeds.add(method.qualname)


def _roots_from_bench_module(index: ProjectIndex, info: ModuleInfo) -> Set[str]:
    """Hot seeds a single benchmark module's calls resolve to."""
    seeds: Set[str] = set()
    for node in ast.walk(info.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _call_dotted_name(node)
        if dotted is None:
            continue
        resolved = index.resolve_call(info, dotted, None)
        if resolved is None:
            continue
        kind, target = resolved
        if kind == "function":
            _seed_function(target, seeds)  # type: ignore[arg-type]
        elif kind == "class":
            _seed_class(target, seeds)  # type: ignore[arg-type]
    return seeds


def collect_benchmark_roots(
    index: ProjectIndex, reference_roots: Iterable
) -> Set[str]:
    """Hot-seed qualnames from ``benchmarks/bench_*.py`` next to ``src``.

    The engine calls this after building the project index and stores
    the result on ``index.benchmark_roots``; benchmark files are parsed
    standalone (they are never part of the linted tree) and their calls
    resolved against the index.  Unparsable files are skipped — a broken
    benchmark must not turn linting into a hard failure.
    """
    seeds: Set[str] = set()
    for root in reference_roots:
        root = Path(root)
        if root.name != "benchmarks" or not root.is_dir():
            continue
        for path in sorted(root.glob("bench_*.py")):
            try:
                tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            except (SyntaxError, UnicodeDecodeError, OSError):
                continue
            info = ModuleInfo(
                name=module_name_for_path(str(path)),
                path=str(path),
                tree=tree,
                subpackage=None,
            )
            index._collect_imports(info)
            seeds |= _roots_from_bench_module(index, info)
    return seeds


# ----------------------------------------------------------------------
# The analysis
# ----------------------------------------------------------------------

#: rule_id, anchoring path, anchoring node, message
_Finding = Tuple[str, str, ast.AST, str]


class _Anchor:
    """The minimal ``ctx`` shim :meth:`Rule.violation` needs."""

    __slots__ = ("path",)

    def __init__(self, path: str) -> None:
        self.path = path


class _HotAnalysis:
    """Hot-region closure plus all R301–R303 findings for one index."""

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        self._fns: Dict[str, FunctionInfo] = {
            fn.qualname: fn for fn in index.all_functions()
        }
        self._marker_cache: Dict[str, Dict[int, str]] = {}
        self.seeds, self.cold = self._collect_marks()
        self.seeds |= set(getattr(index, "benchmark_roots", ())) & set(self._fns)
        self.seeds |= self._bench_module_seeds()
        self.hot = self._closure()
        self.findings: List[_Finding] = self._compute()

    # -- seeding -------------------------------------------------------
    def _module_markers(self, module: ModuleInfo) -> Dict[int, str]:
        marks = self._marker_cache.get(module.path)
        if marks is None:
            marks = {}
            for lineno, line in enumerate(module.source.splitlines(), start=1):
                match = _MARK_RE.search(line)
                if match:
                    marks[lineno] = match.group(1)
            self._marker_cache[module.path] = marks
        return marks

    def _comment_mark(self, fn: FunctionInfo) -> Optional[str]:
        marks = self._module_markers(fn.module)
        if not marks:
            return None
        node = fn.node
        start = min(
            [dec.lineno for dec in node.decorator_list] + [node.lineno]  # type: ignore[attr-defined]
        )
        for lineno in range(start - 1, node.lineno + 1):  # type: ignore[attr-defined]
            mark = marks.get(lineno)
            if mark is not None:
                return mark
        return None

    def _collect_marks(self) -> Tuple[Set[str], Set[str]]:
        seeds: Set[str] = set()
        cold: Set[str] = set()
        for qualname, fn in self._fns.items():
            decorators = fn.decorators
            mark: Optional[str] = None
            if "coldpath" in decorators:
                mark = "coldpath"
            elif "hotpath" in decorators:
                mark = "hotpath"
            else:
                mark = self._comment_mark(fn)
            if mark == "hotpath":
                seeds.add(qualname)
            elif mark == "coldpath":
                cold.add(qualname)
        return seeds, cold

    def _bench_module_seeds(self) -> Set[str]:
        seeds: Set[str] = set()
        for module in self.index.modules.values():
            if Path(module.path).name.startswith("bench_"):
                seeds |= _roots_from_bench_module(self.index, module)
        return seeds

    # -- type inference ------------------------------------------------
    def _class_named(
        self, module: ModuleInfo, name: Optional[str], owner: Optional[ClassInfo]
    ) -> Optional[ClassInfo]:
        if name is None:
            return None
        resolved = self.index.resolve_call(module, name, owner)
        if resolved is not None and resolved[0] == "class":
            return resolved[1]  # type: ignore[return-value]
        return None

    def _attr_class(
        self, module: ModuleInfo, owner: Optional[ClassInfo], attr: str
    ) -> Optional[ClassInfo]:
        if owner is None:
            return None
        ann = owner.attr_annotations.get(attr)
        if ann is None:
            return None
        return self._class_named(module, annotation_class_name(ann), owner)

    def _attr_value_class(
        self, module: ModuleInfo, owner: Optional[ClassInfo], attr: str
    ) -> Optional[ClassInfo]:
        """Value class of an annotated mapping attribute (``Dict[K, V]``)."""
        if owner is None:
            return None
        ann = owner.attr_annotations.get(attr)
        if ann is None:
            return None
        return self._class_named(module, mapping_value_class(ann), owner)

    @staticmethod
    def _self_attr(node: ast.AST) -> Optional[str]:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("self", "cls")
        ):
            return node.attr
        return None

    def _value_class(
        self, fn: FunctionInfo, value: ast.AST
    ) -> Optional[ClassInfo]:
        module, owner = fn.module, fn.owner
        if isinstance(value, ast.Call):
            func = value.func
            # ``x = self._attr.get(...)`` on an annotated mapping attr.
            if isinstance(func, ast.Attribute) and func.attr == "get":
                attr = self._self_attr(func.value)
                if attr is not None:
                    return self._attr_value_class(module, owner, attr)
            dotted = _call_dotted_name(value)
            if dotted is not None:
                resolved = self.index.resolve_call(module, dotted, owner)
                if resolved is not None and resolved[0] == "class":
                    return resolved[1]  # type: ignore[return-value]
                if resolved is not None and resolved[0] == "function":
                    # ``sketch = self._sketch_for(node)`` — follow the
                    # callee's return annotation to type the local.
                    callee: FunctionInfo = resolved[1]  # type: ignore[assignment]
                    returns = getattr(callee.node, "returns", None)
                    return self._class_named(
                        callee.module, annotation_class_name(returns), callee.owner
                    )
            return None
        if isinstance(value, ast.Subscript):
            attr = self._self_attr(value.value)
            if attr is not None:
                return self._attr_value_class(module, owner, attr)
            return None
        attr = self._self_attr(value)
        if attr is not None:
            return self._attr_class(module, owner, attr)
        return None

    def _local_classes(self, fn: FunctionInfo) -> Dict[str, ClassInfo]:
        """Local name → class, from the cheap dataflow facts we trust."""
        result: Dict[str, ClassInfo] = {}
        module, owner = fn.module, fn.owner
        for node in ast.walk(fn.node):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                inferred = self._value_class(fn, node.value)
                if inferred is not None:
                    result[node.targets[0].id] = inferred
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                inferred = self._class_named(
                    module, annotation_class_name(node.annotation), owner
                )
                if inferred is not None:
                    result[node.target.id] = inferred
            elif isinstance(node, ast.For) and isinstance(node.target, ast.Name):
                it = node.iter
                if (
                    isinstance(it, ast.Call)
                    and isinstance(it.func, ast.Attribute)
                    and it.func.attr == "values"
                ):
                    attr = self._self_attr(it.func.value)
                    if attr is not None:
                        inferred = self._attr_value_class(module, owner, attr)
                        if inferred is not None:
                            result[node.target.id] = inferred
        return result

    def _resolve_call_target(
        self,
        fn: FunctionInfo,
        locals_map: Dict[str, ClassInfo],
        call: ast.Call,
    ) -> Optional[FunctionInfo]:
        """Resolve a call to an indexed function, using receiver types."""
        func = call.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            receiver = func.value.id
            cls_info = locals_map.get(receiver)
            if cls_info is not None:
                return cls_info.methods.get(func.attr)
        if isinstance(func, ast.Attribute):
            attr = self._self_attr(func.value)
            if attr is not None:
                cls_info = self._attr_class(fn.module, fn.owner, attr)
                if cls_info is not None:
                    return cls_info.methods.get(func.attr)
        dotted = _call_dotted_name(call)
        if dotted is not None:
            resolved = self.index.resolve_call(fn.module, dotted, fn.owner)
            if resolved is not None and resolved[0] == "function":
                return resolved[1]  # type: ignore[return-value]
        return None

    # -- closure -------------------------------------------------------
    def _extra_edges(self, fn: FunctionInfo) -> Set[str]:
        """Call edges the base graph misses: aliases + typed receivers."""
        edges: Set[str] = set()
        locals_map = self._local_classes(fn)
        owner = fn.owner
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                target = self._resolve_call_target(fn, locals_map, node)
                if target is not None:
                    edges.add(target.qualname)
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Attribute):
                # Bound-method alias (``insert = self._insert_pair``) —
                # the hoist R302 recommends must keep its callee hot.
                attr = node.value
                if isinstance(attr.value, ast.Name):
                    receiver = attr.value.id
                    cls_info: Optional[ClassInfo]
                    if receiver in ("self", "cls"):
                        cls_info = owner
                    else:
                        cls_info = locals_map.get(receiver)
                    if cls_info is not None:
                        method = cls_info.methods.get(attr.attr)
                        if method is not None:
                            edges.add(method.qualname)
        return edges

    def _closure(self) -> Set[str]:
        graph = self.index.call_graph()
        for fn in self._fns.values():
            extra = self._extra_edges(fn)
            if extra:
                graph.setdefault(fn.qualname, set()).update(extra)
        hot: Set[str] = set()
        stack = [seed for seed in self.seeds if seed not in self.cold]
        while stack:
            qualname = stack.pop()
            if qualname in hot or qualname in self.cold:
                continue
            if qualname not in self._fns:
                continue
            hot.add(qualname)
            stack.extend(graph.get(qualname, ()))
        return hot

    # -- findings ------------------------------------------------------
    @staticmethod
    def _eligible(module: ModuleInfo) -> bool:
        if Path(module.path).name.startswith("bench_"):
            return False
        if module.subpackage is None:
            return True
        return module.subpackage in HOT_SCOPES

    def _compute(self) -> List[_Finding]:
        findings: List[_Finding] = []
        for qualname in sorted(self.hot):
            fn = self._fns[qualname]
            if not self._eligible(fn.module):
                continue
            locals_map = self._local_classes(fn)
            self._check_r301(fn, locals_map, findings)
            self._check_r302(fn, findings)
            self._check_r303(fn, findings)
        return findings

    def violations(self, rule: Rule) -> list:
        out = []
        for rule_id, path, node, message in self.findings:
            if rule_id != rule.rule_id:
                continue
            out.append(rule.violation(_Anchor(path), node, message))
        return sorted(out, key=lambda v: (v.path, v.line, v.col))

    # -- R301: per-iteration allocation --------------------------------
    def _per_iteration_trees(self, fn: FunctionInfo) -> Iterator[ast.AST]:
        """Subtrees that execute once per iteration of some loop."""
        for node in ast.walk(fn.node):
            if isinstance(node, (ast.For, ast.While)):
                yield from node.body
            elif isinstance(node, _COMPREHENSIONS):
                if isinstance(node, ast.DictComp):
                    yield node.key
                    yield node.value
                else:
                    yield node.elt
                for gen in node.generators:
                    yield from gen.ifs
                for gen in node.generators[1:]:
                    yield gen.iter

    def _check_r301(
        self,
        fn: FunctionInfo,
        locals_map: Dict[str, ClassInfo],
        findings: List[_Finding],
    ) -> None:
        path = fn.module.path
        seen: Set[Tuple[int, int]] = set()
        # (a) container copies in per-iteration position.
        for tree in self._per_iteration_trees(fn):
            for node in ast.walk(tree):
                label = _copy_call_label(node)
                if label is None:
                    continue
                key = (node.lineno, node.col_offset)  # type: ignore[attr-defined]
                if key in seen:
                    continue
                seen.add(key)
                findings.append(
                    (
                        "R301",
                        path,
                        node,
                        f"hot loop copies a container every iteration: `{label}` "
                        "allocates per pass — hoist the copy or restructure to "
                        "avoid it",
                    )
                )
        # (b) aggregation builtins fed a throwaway comprehension.
        for node in ast.walk(fn.node):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _AGG_BUILTINS
                and node.args
                and isinstance(node.args[0], (ast.ListComp, ast.SetComp))
            ):
                kind = "list" if isinstance(node.args[0], ast.ListComp) else "set"
                findings.append(
                    (
                        "R301",
                        path,
                        node.args[0],
                        f"`{node.func.id}(...)` in a hot region materialises a "
                        f"throwaway {kind} comprehension — use a generator "
                        "expression",
                    )
                )
        # (c) loop over a fresh-container callee inside an enclosing loop.
        loops = [n for n in ast.walk(fn.node) if isinstance(n, (ast.For, ast.While))]
        nested: Set[int] = set()
        for loop in loops:
            for sub in ast.walk(loop):
                if sub is not loop and isinstance(sub, (ast.For, ast.While)):
                    nested.add(id(sub))
        for loop in loops:
            if id(loop) not in nested or not isinstance(loop, ast.For):
                continue
            for call in self._iter_calls(loop.iter):
                callee = self._resolve_call_target(fn, locals_map, call)
                if callee is not None and self._returns_fresh_container(callee):
                    findings.append(
                        (
                            "R301",
                            path,
                            loop,
                            f"`{_expr_label(call)}` builds and returns a fresh "
                            "container on every call, and this loop runs it once "
                            "per iteration of an enclosing hot loop — reuse a "
                            "preallocated buffer (an `*_into(...)` variant) or "
                            "hoist the call",
                        )
                    )

    @staticmethod
    def _iter_calls(iter_node: ast.AST) -> List[ast.Call]:
        """Candidate callee calls in a ``for`` iterable, unwrapping
        ``enumerate``/``zip``/``reversed``."""
        if not isinstance(iter_node, ast.Call):
            return []
        func = iter_node.func
        if isinstance(func, ast.Name) and func.id in _ITER_WRAPPERS:
            return [arg for arg in iter_node.args if isinstance(arg, ast.Call)]
        return [iter_node]

    def _returns_fresh_container(self, fn_info: FunctionInfo) -> bool:
        """Every return path hands back a container built in this call."""
        fresh_names: Set[str] = set()
        for node in ast.walk(fn_info.node):
            targets: List[ast.AST] = []
            value: Optional[ast.AST] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                targets, value = list(node.targets), node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if len(targets) == 1 and isinstance(targets[0], ast.Name) and value is not None:
                if _is_fresh_container_expr(value):
                    fresh_names.add(targets[0].id)
                else:
                    fresh_names.discard(targets[0].id)
        returns = [n for n in ast.walk(fn_info.node) if isinstance(n, ast.Return)]
        if not returns:
            return False
        for ret in returns:
            if ret.value is None:
                return False
            if _is_fresh_container_expr(ret.value):
                continue
            if isinstance(ret.value, ast.Name) and ret.value.id in fresh_names:
                continue
            return False
        return True

    # -- R302: loop-invariant lookups ----------------------------------
    def _check_r302(self, fn: FunctionInfo, findings: List[_Finding]) -> None:
        for loop in _child_loops(fn.node.body):  # type: ignore[attr-defined]
            self._r302_loop(fn, loop, set(), findings)

    def _r302_loop(
        self,
        fn: FunctionInfo,
        loop: ast.stmt,
        inherited: Set[str],
        findings: List[_Finding],
    ) -> None:
        body = loop.body  # type: ignore[attr-defined]
        rebound: Set[str] = set()
        attr_stores: Set[str] = set()
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(
                    node.ctx, (ast.Store, ast.Del)
                ):
                    rebound.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, (ast.Store, ast.Del)
                ):
                    chain = _attr_chain(node)
                    if chain is not None:
                        attr_stores.add(chain)
        loop_targets = (
            _target_names(loop.target) if isinstance(loop, ast.For) else set()
        )

        occurrences: Dict[str, List[Tuple[ast.Attribute, bool]]] = {}

        def record(node: ast.AST, in_nested: bool) -> None:
            for chain, attr_node in _chain_loads(node):
                occurrences.setdefault(chain, []).append((attr_node, in_nested))

        def scan(stmts: Sequence[ast.stmt], in_nested: bool) -> None:
            for stmt in stmts:
                if isinstance(stmt, (ast.Raise, ast.Assert)) or isinstance(
                    stmt, _SCOPE_STMTS
                ):
                    continue
                if isinstance(stmt, ast.For):
                    record(stmt.iter, in_nested)
                    scan(stmt.body, True)
                    scan(stmt.orelse, True)
                elif isinstance(stmt, ast.While):
                    record(stmt.test, True)
                    scan(stmt.body, True)
                    scan(stmt.orelse, True)
                elif isinstance(stmt, ast.If):
                    record(stmt.test, in_nested)
                    scan(stmt.body, in_nested)
                    scan(stmt.orelse, in_nested)
                elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                    for item in stmt.items:
                        record(item.context_expr, in_nested)
                    scan(stmt.body, in_nested)
                elif isinstance(stmt, ast.Try):
                    scan(stmt.body, in_nested)
                    for handler in stmt.handlers:
                        scan(handler.body, in_nested)
                    scan(stmt.orelse, in_nested)
                    scan(stmt.finalbody, in_nested)
                else:
                    record(stmt, in_nested)

        scan(body, False)

        flagged: Set[str] = set()
        for chain, occs in sorted(occurrences.items()):
            if chain in inherited:
                continue
            base = chain.split(".", 1)[0]
            if base in rebound or base in loop_targets:
                continue
            if any(
                chain == store
                or chain.startswith(store + ".")
                or store.startswith(chain + ".")
                for store in attr_stores
            ):
                continue
            count = len(occs)
            in_nested_any = any(flag for _, flag in occs)
            if count < 2 and not in_nested_any:
                continue
            if count >= 2:
                anchor = occs[1][0]
                detail = f"evaluated {count}x per iteration"
            else:
                anchor = occs[0][0]
                detail = "re-evaluated on every iteration of a nested loop"
            flagged.add(chain)
            findings.append(
                (
                    "R302",
                    fn.module.path,
                    anchor,
                    f"loop-invariant lookup `{chain}` is {detail} — hoist it "
                    "to a local before the loop",
                )
            )
        passed_down = inherited | flagged
        for child in _child_loops(body):
            self._r302_loop(fn, child, passed_down, findings)

    # -- R303: repeated identical computations -------------------------
    def _check_r303(self, fn: FunctionInfo, findings: List[_Finding]) -> None:
        seen: Set[str] = set()
        for loop in _child_loops(fn.node.body):  # type: ignore[attr-defined]
            targets = (
                _target_names(loop.target) if isinstance(loop, ast.For) else set()
            )
            self._scan303(fn, loop.body, {}, targets, seen, findings)  # type: ignore[attr-defined]

    class _R303Recorder(ast.NodeVisitor):
        """Collect repeat-lookup candidate keys from one expression."""

        def __init__(self, loop_targets: Set[str]) -> None:
            self.loop_targets = loop_targets
            #: (display, mentioned names, anchoring node)
            self.keys: List[Tuple[str, Set[str], ast.AST]] = []

        def visit_Subscript(self, node: ast.Subscript) -> None:
            if (
                isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and isinstance(node.slice, (ast.Name, ast.Constant))
            ):
                mentions = {node.value.id}
                if isinstance(node.slice, ast.Name):
                    mentions.add(node.slice.id)
                self.keys.append((_expr_label(node), mentions, node))
            self.generic_visit(node)

        def visit_Call(self, node: ast.Call) -> None:
            if (
                isinstance(node.func, ast.Name)
                and node.func.id == "len"
                and len(node.args) == 1
                and isinstance(node.args[0], ast.Name)
            ):
                name = node.args[0].id
                self.keys.append((f"len({name})", {name}, node))
            self.generic_visit(node)

        def visit_Attribute(self, node: ast.Attribute) -> None:
            if isinstance(node.ctx, ast.Load):
                chain = _attr_chain(node)
                if chain is not None:
                    base = chain.split(".", 1)[0]
                    if base in self.loop_targets:
                        self.keys.append((chain, {base}, node))
                    return
            self.generic_visit(node)

        def visit_Lambda(self, node: ast.Lambda) -> None:
            return None

        def visit_ListComp(self, node: ast.ListComp) -> None:
            return None

        def visit_SetComp(self, node: ast.SetComp) -> None:
            return None

        def visit_DictComp(self, node: ast.DictComp) -> None:
            return None

        def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
            return None

    def _record303(
        self,
        fn: FunctionInfo,
        expr: ast.AST,
        counts: Dict[str, Tuple[int, Set[str]]],
        loop_targets: Set[str],
        seen: Set[str],
        findings: List[_Finding],
    ) -> None:
        recorder = self._R303Recorder(loop_targets)
        recorder.visit(expr)
        for display, mentions, node in recorder.keys:
            count, known = counts.get(display, (0, mentions))
            count += 1
            counts[display] = (count, known | mentions)
            if count == 2 and display not in seen:
                seen.add(display)
                findings.append(
                    (
                        "R303",
                        fn.module.path,
                        node,
                        f"`{display}` is computed repeatedly in this hot loop "
                        "body with no intervening rebind — compute it once and "
                        "reuse the local",
                    )
                )

    @staticmethod
    def _apply_kills(
        counts: Dict[str, Tuple[int, Set[str]]], killed: Set[str]
    ) -> None:
        if not killed:
            return
        for display in [
            key for key, (_, mentions) in counts.items() if mentions & killed
        ]:
            del counts[display]

    def _scan303(
        self,
        fn: FunctionInfo,
        stmts: Sequence[ast.stmt],
        counts: Dict[str, Tuple[int, Set[str]]],
        loop_targets: Set[str],
        seen: Set[str],
        findings: List[_Finding],
    ) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.Raise, ast.Assert)) or isinstance(
                stmt, _SCOPE_STMTS
            ):
                continue
            if isinstance(stmt, (ast.For, ast.While)):
                inner_targets = set(loop_targets)
                if isinstance(stmt, ast.For):
                    self._record303(
                        fn, stmt.iter, counts, loop_targets, seen, findings
                    )
                    inner_targets |= _target_names(stmt.target)
                self._scan303(fn, stmt.body, {}, inner_targets, seen, findings)
                self._scan303(fn, stmt.orelse, {}, inner_targets, seen, findings)
                self._apply_kills(counts, _kills_in(stmt))
            elif isinstance(stmt, ast.If):
                self._record303(fn, stmt.test, counts, loop_targets, seen, findings)
                self._scan303(fn, stmt.body, dict(counts), loop_targets, seen, findings)
                self._scan303(
                    fn, stmt.orelse, dict(counts), loop_targets, seen, findings
                )
                self._apply_kills(counts, _kills_in(stmt))
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    self._record303(
                        fn, item.context_expr, counts, loop_targets, seen, findings
                    )
                self._scan303(fn, stmt.body, counts, loop_targets, seen, findings)
            elif isinstance(stmt, ast.Try):
                self._scan303(fn, stmt.body, counts, loop_targets, seen, findings)
                for handler in stmt.handlers:
                    self._scan303(
                        fn, handler.body, dict(counts), loop_targets, seen, findings
                    )
                self._scan303(
                    fn, stmt.orelse, dict(counts), loop_targets, seen, findings
                )
                self._scan303(fn, stmt.finalbody, counts, loop_targets, seen, findings)
                self._apply_kills(counts, _kills_in(stmt))
            else:
                self._record303(fn, stmt, counts, loop_targets, seen, findings)
                self._apply_kills(counts, _kills_in(stmt))


_ANALYSIS_CACHE: "WeakKeyDictionary[ProjectIndex, _HotAnalysis]" = WeakKeyDictionary()


def _analysis_for(index: ProjectIndex) -> _HotAnalysis:
    analysis = _ANALYSIS_CACHE.get(index)
    if analysis is None:
        analysis = _HotAnalysis(index)
        _ANALYSIS_CACHE[index] = analysis
    return analysis


def hot_region(index: ProjectIndex) -> Set[str]:
    """Qualnames of the hot region for ``index`` — the test/debug view."""
    return set(_analysis_for(index).hot)


# ----------------------------------------------------------------------
# The registered rules
# ----------------------------------------------------------------------


class _HotPathRule(Rule):
    """Shared dispatch: all R30x findings come from one cached analysis."""

    scopes = None
    project_scope = True

    def check(self, ctx) -> list:
        return []

    def check_project(self, index: ProjectIndex) -> list:
        return _analysis_for(index).violations(self)


@register
class HotLoopAllocation(_HotPathRule):
    rule_id = "R301"
    name = "hot-loop-allocation"
    description = (
        "Per-iteration container allocation in a hot loop: copies, throwaway "
        "comprehension intermediates, or loops over callees that build a "
        "fresh container per call."
    )


@register
class HotLoopInvariantLookup(_HotPathRule):
    rule_id = "R302"
    name = "hot-loop-invariant-lookup"
    description = (
        "Loop-invariant attribute/global lookup re-evaluated on every "
        "iteration of a hot loop (base never rebound inside the loop) — "
        "hoist it to a local."
    )


@register
class HotLoopRepeatedLookup(_HotPathRule):
    rule_id = "R303"
    name = "hot-loop-repeated-lookup"
    description = (
        "Identical subscript, len(), or loop-variant attribute computed "
        "repeatedly in a hot loop body with no intervening rebind."
    )
