"""Whole-program analysis engine: import graph, call graph, constants.

One :class:`ProjectContext` is built per lint run over the parsed
:class:`~repro.devtools.registry.FileContext` set and shared by every
project rule, so each structure — the runtime import graph (REP006), the
function index and conservative call graph (REP011), and module-level
constant folding — is computed at most once however many rules consume
it.

Everything here is deliberately *conservative*: a name or call that
cannot be resolved syntactically resolves to ``None`` and the consuming
rule stays silent, so the analyses never guess.  The call graph is
intra-project only — edges exist for plain-name calls, ``self.method``
calls, imported functions, and ``module.function`` attribute calls; a
dynamic dispatch the resolver cannot see simply contributes no edge.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.devtools.registry import FileContext

#: Sentinel distinguishing "resolved to None" from "could not resolve".
_UNRESOLVED = object()


def _is_type_checking_test(test: ast.AST) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    return isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"


def iter_imports(tree: ast.Module, module: str) -> Iterator[Tuple[str, int]]:
    """Yield ``(imported_module_candidate, lineno)`` for a module's imports.

    Walks only statements that execute at import time — class bodies and
    plain ``if``/``try``/``with`` blocks, but not function bodies or
    ``if TYPE_CHECKING:`` guards — which is what the layering rule
    (REP006) wants.

    ``from pkg import name`` yields both ``pkg`` and ``pkg.name`` — the
    name may bind a submodule or an attribute; the graph builders keep
    whichever actually exists in the scanned set.  Relative imports are
    resolved against ``module``.
    """
    package_parts = module.split(".")[:-1]

    def resolve_from(node: ast.ImportFrom) -> List[Tuple[str, int]]:
        if node.level == 0:
            base = node.module or ""
        else:
            anchor = package_parts[: len(package_parts) - (node.level - 1)]
            base = ".".join(anchor)
            if node.module:
                base = f"{base}.{node.module}" if base else node.module
        if not base:
            return []
        out = [(base, node.lineno)]
        out.extend((f"{base}.{alias.name}", node.lineno) for alias in node.names)
        return out

    def walk(body: Sequence[ast.stmt]) -> Iterator[Tuple[str, int]]:
        for stmt in body:
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    yield alias.name, stmt.lineno
            elif isinstance(stmt, ast.ImportFrom):
                yield from resolve_from(stmt)
            elif isinstance(stmt, ast.If):
                if not _is_type_checking_test(stmt.test):
                    yield from walk(stmt.body)
                yield from walk(stmt.orelse)
            elif isinstance(stmt, ast.Try):
                yield from walk(stmt.body)
                for handler in stmt.handlers:
                    yield from walk(handler.body)
                yield from walk(stmt.orelse)
                yield from walk(stmt.finalbody)
            elif isinstance(stmt, ast.ClassDef):
                yield from walk(stmt.body)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                yield from walk(stmt.body)

    yield from walk(tree.body)


@dataclass(frozen=True)
class FunctionInfo:
    """One indexed function or method.

    ``qualname`` is ``module:name`` for top-level functions and
    ``module:Class.name`` for methods; nested (function-local) defs are
    deliberately not indexed — the call graph stays conservative.
    """

    qualname: str
    module: str
    name: str
    class_name: Optional[str]
    node: ast.AST
    ctx: FileContext

    @property
    def is_method(self) -> bool:
        return self.class_name is not None


@dataclass(frozen=True)
class CallSite:
    """One call expression, with enough context to map arguments back.

    ``param_offset`` is 1 when the call implicitly binds ``self`` (a
    ``self.method(...)`` call or a class instantiation), so positional
    argument *i* feeds parameter ``i + param_offset`` of the callee.
    """

    ctx: FileContext
    node: ast.Call
    caller: Optional[str]
    param_offset: int = 0


@dataclass(frozen=True)
class CallRecord:
    """Every call in the project, annotated with what could be resolved.

    ``callee`` is the project-internal qualname when the call graph
    resolved the target; ``target`` is the fully dotted import-level name
    of the called object when the *binding* resolved (e.g. a call through
    ``from repro.sim.rng import derive_rng`` has target
    ``repro.sim.rng.derive_rng`` whether or not that module was scanned).
    """

    ctx: FileContext
    node: ast.Call
    caller: Optional[str]
    callee: Optional[str]
    target: Optional[str]


class ProjectContext:
    """All whole-program structures for one lint run, built lazily."""

    def __init__(self, files: Sequence[FileContext]) -> None:
        self.files: List[FileContext] = list(files)
        self.by_module: Dict[str, FileContext] = {
            ctx.module: ctx for ctx in self.files
        }
        self.by_path: Dict[str, FileContext] = {ctx.path: ctx for ctx in self.files}
        self._runtime_graph: Optional[
            Tuple[Dict[str, Set[str]], Dict[Tuple[str, str], int]]
        ] = None
        self._functions: Optional[Dict[str, FunctionInfo]] = None
        self._calls_to: Optional[Dict[str, List[CallSite]]] = None
        self._call_records: Optional[List[CallRecord]] = None
        self._bindings: Dict[str, Dict[str, Tuple[str, ...]]] = {}
        self._const_cache: Dict[Tuple[str, str], Any] = {}

    # -- import graphs ----------------------------------------------------- #

    def runtime_import_graph(
        self,
    ) -> Tuple[Dict[str, Set[str]], Dict[Tuple[str, str], int]]:
        """Module → imported project modules, import-time edges only.

        Resolution matches Python's runtime behaviour for layering
        purposes: ``from pkg import name`` edges to both ``pkg`` and
        ``pkg.name`` when both are scanned, ``import pkg.sub`` walks up
        to the deepest scanned prefix, and importing one's own ancestor
        package is not an edge.
        """
        if self._runtime_graph is None:
            graph: Dict[str, Set[str]] = {module: set() for module in self.by_module}
            edge_lines: Dict[Tuple[str, str], int] = {}
            for ctx in self.files:
                for target, lineno in iter_imports(ctx.tree, ctx.module):
                    resolved = target
                    if resolved not in self.by_module:
                        while "." in resolved and resolved not in self.by_module:
                            resolved = resolved.rsplit(".", 1)[0]
                    if resolved not in self.by_module or resolved == ctx.module:
                        continue
                    if ctx.module.startswith(resolved + "."):
                        continue
                    graph[ctx.module].add(resolved)
                    edge_lines.setdefault((ctx.module, resolved), lineno)
            self._runtime_graph = (graph, edge_lines)
        return self._runtime_graph

    # -- name bindings ----------------------------------------------------- #

    def _module_bindings(self, ctx: FileContext) -> Dict[str, Tuple[str, ...]]:
        """Local name → binding tuple for one module's top-level scope.

        Binding shapes: ``("def", qualname)`` for a top-level function,
        ``("class", "module:Class")``, ``("module", dotted)`` for an
        imported module, and ``("name", base_module, attr)`` for a name
        imported from elsewhere (function, class, or constant — resolved
        on demand).
        """
        if ctx.module in self._bindings:
            return self._bindings[ctx.module]
        bindings: Dict[str, Tuple[str, ...]] = {}
        package_parts = ctx.module.split(".")[:-1]
        for stmt in ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bindings[stmt.name] = ("def", f"{ctx.module}:{stmt.name}")
            elif isinstance(stmt, ast.ClassDef):
                bindings[stmt.name] = ("class", f"{ctx.module}:{stmt.name}")
            elif isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    if alias.asname:
                        bindings[alias.asname] = ("module", alias.name)
                    elif "." not in alias.name:
                        bindings[alias.name] = ("module", alias.name)
            elif isinstance(stmt, ast.ImportFrom):
                if stmt.level == 0:
                    base = stmt.module or ""
                else:
                    anchor = package_parts[: len(package_parts) - (stmt.level - 1)]
                    base = ".".join(anchor)
                    if stmt.module:
                        base = f"{base}.{stmt.module}" if base else stmt.module
                if not base:
                    continue
                for alias in stmt.names:
                    local = alias.asname or alias.name
                    submodule = f"{base}.{alias.name}"
                    if submodule in self.by_module:
                        bindings[local] = ("module", submodule)
                    else:
                        bindings[local] = ("name", base, alias.name)
        self._bindings[ctx.module] = bindings
        return bindings

    def dotted_target(self, ctx: FileContext, func: ast.AST) -> Optional[str]:
        """The fully dotted name a call expression resolves to, if any.

        ``derive_rng(...)`` under ``from repro.sim.rng import derive_rng``
        resolves to ``"repro.sim.rng.derive_rng"``; ``rng.derive_rng(...)``
        under ``from repro.sim import rng`` resolves the same.  Names the
        binding map cannot see resolve to ``None``.
        """
        if isinstance(func, ast.Name):
            binding = self._module_bindings(ctx).get(func.id)
            if binding is None:
                return None
            if binding[0] == "name":
                return f"{binding[1]}.{binding[2]}"
            if binding[0] in ("def", "class"):
                return binding[1].replace(":", ".")
            if binding[0] == "module":
                return binding[1]
            return None
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            binding = self._module_bindings(ctx).get(func.value.id)
            if binding is not None and binding[0] == "module":
                return f"{binding[1]}.{func.attr}"
            return None
        return None

    # -- function index and call graph ------------------------------------- #

    @property
    def functions(self) -> Dict[str, FunctionInfo]:
        """Qualname → info for every top-level function and method."""
        if self._functions is None:
            self._build_call_index()
        return self._functions  # type: ignore[return-value]

    @property
    def calls_to(self) -> Dict[str, List[CallSite]]:
        """Callee qualname → every resolved call site, in scan order."""
        if self._calls_to is None:
            self._build_call_index()
        return self._calls_to  # type: ignore[return-value]

    @property
    def call_records(self) -> List[CallRecord]:
        """Every call expression in the project, annotated."""
        if self._call_records is None:
            self._build_call_index()
        return self._call_records  # type: ignore[return-value]

    def _index_functions(self) -> None:
        functions: Dict[str, FunctionInfo] = {}
        for ctx in self.files:
            for stmt in ctx.tree.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{ctx.module}:{stmt.name}"
                    functions[qualname] = FunctionInfo(
                        qualname, ctx.module, stmt.name, None, stmt, ctx
                    )
                elif isinstance(stmt, ast.ClassDef):
                    for sub in stmt.body:
                        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                            qualname = f"{ctx.module}:{stmt.name}.{sub.name}"
                            functions[qualname] = FunctionInfo(
                                qualname, ctx.module, sub.name, stmt.name, sub, ctx
                            )
        self._functions = functions

    def _build_call_index(self) -> None:
        self._index_functions()
        functions = self._functions or {}
        calls_to: Dict[str, List[CallSite]] = {}
        records: List[CallRecord] = []

        def resolve_call(
            ctx: FileContext, node: ast.Call, class_name: Optional[str]
        ) -> Tuple[Optional[str], int]:
            func = node.func
            if isinstance(func, ast.Name):
                binding = self._module_bindings(ctx).get(func.id)
                if binding is None:
                    return None, 0
                if binding[0] == "def":
                    return binding[1], 0
                if binding[0] == "class":
                    init = binding[1] + ".__init__"
                    return (init, 1) if init in functions else (None, 0)
                if binding[0] == "name":
                    candidate = f"{binding[1]}:{binding[2]}"
                    if candidate in functions:
                        return candidate, 0
                    init = candidate + ".__init__"
                    if init in functions:
                        return init, 1
                return None, 0
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                if func.value.id == "self" and class_name is not None:
                    candidate = f"{ctx.module}:{class_name}.{func.attr}"
                    if candidate in functions:
                        return candidate, 1
                    return None, 0
                binding = self._module_bindings(ctx).get(func.value.id)
                if binding is not None and binding[0] == "module":
                    candidate = f"{binding[1]}:{func.attr}"
                    if candidate in functions:
                        return candidate, 0
            return None, 0

        def visit(
            node: ast.AST,
            ctx: FileContext,
            caller: Optional[str],
            class_name: Optional[str],
        ) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if caller is None:
                    name = (
                        f"{ctx.module}:{class_name}.{node.name}"
                        if class_name
                        else f"{ctx.module}:{node.name}"
                    )
                else:
                    name = caller  # nested defs attribute to the enclosing
                for child in ast.iter_child_nodes(node):
                    visit(child, ctx, name, class_name)
                return
            if isinstance(node, ast.ClassDef):
                inner_class = node.name if caller is None else class_name
                for child in ast.iter_child_nodes(node):
                    visit(child, ctx, caller, inner_class)
                return
            if isinstance(node, ast.Call):
                callee, offset = resolve_call(ctx, node, class_name)
                if callee is not None:
                    calls_to.setdefault(callee, []).append(
                        CallSite(ctx, node, caller, offset)
                    )
                records.append(
                    CallRecord(
                        ctx,
                        node,
                        caller,
                        callee,
                        self.dotted_target(ctx, node.func),
                    )
                )
            for child in ast.iter_child_nodes(node):
                visit(child, ctx, caller, class_name)

        for ctx in self.files:
            visit(ctx.tree, ctx, None, None)
        self._calls_to = calls_to
        self._call_records = records

    # -- constant folding --------------------------------------------------- #

    def resolve_constant(self, ctx: FileContext, expr: ast.AST) -> Tuple[bool, Any]:
        """Fold ``expr`` to a constant using module-level assignments.

        Returns ``(True, value)`` when the expression reduces to a
        constant — literals, tuples of constants, ``+`` concatenation,
        names bound exactly once at module level to a foldable value
        (including names imported from another scanned module).  Anything
        else returns ``(False, None)`` and the caller stays silent.
        """
        value = self._fold(ctx, expr, depth=0)
        if value is _UNRESOLVED:
            return False, None
        return True, value

    def _fold(self, ctx: FileContext, expr: ast.AST, depth: int) -> Any:
        if depth > 12:
            return _UNRESOLVED
        if isinstance(expr, ast.Constant):
            return expr.value
        if isinstance(expr, (ast.Tuple, ast.List)):
            items = [self._fold(ctx, item, depth + 1) for item in expr.elts]
            if any(item is _UNRESOLVED for item in items):
                return _UNRESOLVED
            return tuple(items)
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add):
            left = self._fold(ctx, expr.left, depth + 1)
            right = self._fold(ctx, expr.right, depth + 1)
            if left is _UNRESOLVED or right is _UNRESOLVED:
                return _UNRESOLVED
            if isinstance(left, tuple) and isinstance(right, tuple):
                return left + right
            if isinstance(left, str) and isinstance(right, str):
                return left + right
            return _UNRESOLVED
        if isinstance(expr, ast.Name):
            return self._fold_name(ctx, expr.id, depth)
        return _UNRESOLVED

    def _fold_name(self, ctx: FileContext, name: str, depth: int) -> Any:
        cache_key = (ctx.module, name)
        if cache_key in self._const_cache:
            return self._const_cache[cache_key]
        self._const_cache[cache_key] = _UNRESOLVED  # cycle guard
        value: Any = _UNRESOLVED
        assignments = [
            stmt.value
            for stmt in ctx.tree.body
            if isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id == name
        ] + [
            stmt.value
            for stmt in ctx.tree.body
            if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and stmt.target.id == name
            and stmt.value is not None
        ]
        if len(assignments) == 1:
            value = self._fold(ctx, assignments[0], depth + 1)
        elif not assignments:
            binding = self._module_bindings(ctx).get(name)
            if binding is not None and binding[0] == "name":
                other = self.by_module.get(binding[1])
                if other is not None:
                    value = self._fold_name(other, binding[2], depth + 1)
        self._const_cache[cache_key] = value
        return value

    # -- parameter bindings -------------------------------------------------- #

    def param_bindings(
        self, qualname: str, param: str
    ) -> Optional[List[Tuple[CallSite, Any]]]:
        """Constant values bound to ``param`` at every known call site.

        Returns one ``(call_site, value)`` per call site when *every* call
        site of ``qualname`` binds the parameter to a foldable constant
        (explicitly or through the declared default); returns ``None`` as
        soon as any site is unresolvable or no call site is known — the
        consuming rule must then stay silent.
        """
        info = self.functions.get(qualname)
        if info is None:
            return None
        args = info.node.args
        positional = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
        try:
            index = positional.index(param)
        except ValueError:
            if param not in [a.arg for a in args.kwonlyargs]:
                return None
            index = -1
        default = self._param_default(info, param)
        sites = self.calls_to.get(qualname, [])
        if not sites:
            return None
        out: List[Tuple[CallSite, Any]] = []
        for site in sites:
            expr = self.argument_expr(site, index, param)
            if expr is None:
                if default is None:
                    return None
                folded = self._fold(info.ctx, default, depth=0)
            else:
                if isinstance(expr, ast.Starred):
                    return None
                folded = self._fold(site.ctx, expr, depth=0)
            if folded is _UNRESOLVED:
                return None
            out.append((site, folded))
        return out

    def _param_default(self, info: FunctionInfo, param: str) -> Optional[ast.AST]:
        args = info.node.args
        positional = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
        if param in positional:
            index = positional.index(param)
            offset = len(positional) - len(args.defaults)
            if index >= offset:
                return args.defaults[index - offset]
            return None
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if arg.arg == param and default is not None:
                return default
        return None

    def argument_expr(
        self, site: CallSite, index: int, param: str
    ) -> Optional[ast.AST]:
        for keyword in site.node.keywords:
            if keyword.arg == param:
                return keyword.value
            if keyword.arg is None:
                # A **kwargs splat can bind anything; treat the call as
                # unresolvable rather than guessing.
                return ast.Starred(value=keyword.value)
        if index < 0:
            return None
        call_index = index - site.param_offset
        if 0 <= call_index < len(site.node.args):
            expr = site.node.args[call_index]
            if isinstance(expr, ast.Starred):
                return expr
            if any(isinstance(arg, ast.Starred) for arg in site.node.args[:call_index]):
                return ast.Starred(value=expr)
            return expr
        return None

