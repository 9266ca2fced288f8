"""Per-file AST rules REP001–REP005, REP007–REP010, REP014 and REP015.

Each rule walks the file's AST and yields :class:`Finding` objects.  The
rules are deliberately syntactic — no type inference — so every pattern
they flag has a sanctioned rewrite documented in the finding message.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

from repro.devtools.findings import Finding, Fix
from repro.devtools.registry import AstRule, FileContext, register

#: The one module allowed to construct random.Random / reseed streams raw:
#: it *implements* derive_rng and split_rng.
RNG_MODULE_SUFFIXES = ("sim/rng.py",)


def _finding(
    rule: "AstRule",
    ctx: FileContext,
    node: ast.AST,
    message: str,
    fix: Optional[Fix] = None,
) -> Finding:
    line = getattr(node, "lineno", 1)
    return Finding(
        rule=rule.id,
        file=ctx.path,
        line=line,
        message=message,
        snippet=ctx.line_text(line),
        fix=fix,
    )


def _source_segment(ctx: FileContext, node: ast.AST) -> Optional[str]:
    """The exact source text a node spans, or None without end positions."""
    end_line = getattr(node, "end_lineno", None)
    end_col = getattr(node, "end_col_offset", None)
    if end_line is None or end_col is None:
        return None
    if end_line == node.lineno:
        return ctx.lines[node.lineno - 1][node.col_offset : end_col]
    parts = [ctx.lines[node.lineno - 1][node.col_offset :]]
    parts.extend(ctx.lines[node.lineno : end_line - 1])
    parts.append(ctx.lines[end_line - 1][:end_col])
    return "\n".join(parts)


def _replace_with(ctx: FileContext, node: ast.AST, replacement: str) -> Optional[Fix]:
    """A fix replacing exactly the node's span, when the span is known."""
    end_line = getattr(node, "end_lineno", None)
    end_col = getattr(node, "end_col_offset", None)
    if end_line is None or end_col is None:
        return None
    return Fix(
        file=ctx.path,
        start_line=node.lineno,
        start_col=node.col_offset,
        end_line=end_line,
        end_col=end_col,
        replacement=replacement,
    )


def _wrap_sorted(ctx: FileContext, node: ast.AST) -> Optional[Fix]:
    """A fix wrapping the node's source in ``sorted(...)``."""
    segment = _source_segment(ctx, node)
    if segment is None:
        return None
    return _replace_with(ctx, node, f"sorted({segment})")


def _is_random_random(func: ast.AST, ctx: FileContext) -> bool:
    """Whether a call's ``func`` resolves to :class:`random.Random`."""
    if isinstance(func, ast.Attribute) and func.attr == "Random":
        return isinstance(func.value, ast.Name) and func.value.id == "random"
    if isinstance(func, ast.Name):
        return func.id in ctx.random_aliases
    return False


def _is_getrandbits_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "getrandbits"
    )


@register
class RawSeedRule(AstRule):
    """REP001: raw ``random.Random(...)`` construction outside sim/rng.py.

    Every stream must come from ``derive_rng(seed, *path)`` (or
    ``split_rng`` for mid-flight forks) so that the (seed, path) → stream
    mapping is stable across processes and code growth.
    """

    id = "REP001"
    summary = "raw random.Random construction (use derive_rng(seed, *path))"
    allowed_path_suffixes = RNG_MODULE_SUFFIXES

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            if not _is_random_random(node.func, ctx):
                continue
            if any(_is_getrandbits_call(arg) for arg in node.args):
                continue  # that shape is REP002's to report
            yield _finding(
                self,
                ctx,
                node,
                "raw RNG construction; derive streams with "
                "repro.sim.rng.derive_rng(seed, *path)",
            )


@register
class AdHocSplitRule(AstRule):
    """REP002: stream splitting via ``random.Random(rng.getrandbits(n))``.

    Re-seeding from raw draws couples the child stream to the parent's
    draw position without any path separation; ``split_rng(rng, *path)``
    hashes in an explicit path so sibling splits stay uncorrelated.
    """

    id = "REP002"
    summary = "ad-hoc getrandbits re-seeding (use split_rng(rng, *path))"
    allowed_path_suffixes = RNG_MODULE_SUFFIXES

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            if not _is_random_random(node.func, ctx):
                continue
            if any(_is_getrandbits_call(arg) for arg in node.args):
                yield _finding(
                    self,
                    ctx,
                    node,
                    "ad-hoc stream split via getrandbits re-seeding; use "
                    "repro.sim.rng.split_rng(rng, *path)",
                )


#: (object name, attribute) pairs whose call reads the wall clock.
_WALL_CLOCK_ATTRS = {
    ("time", "time"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
}


@register
class WallClockRule(AstRule):
    """REP003: wall-clock reads in library code.

    Simulated time comes from ``repro.sim.clock.SimClock``; elapsed-runtime
    measurement (benchmarks, progress lines) should use the monotonic
    ``time.perf_counter()``, which this rule deliberately does not flag.
    """

    id = "REP003"
    summary = "wall-clock call (use the sim clock, or time.perf_counter())"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        from_time_aliases = {
            name.asname or name.name
            for node in ctx.nodes
            if isinstance(node, ast.ImportFrom) and node.module == "time"
            for name in node.names
            if name.name == "time"
        }
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            matched = None
            if isinstance(func, ast.Attribute):
                base = func.value
                if isinstance(base, ast.Name):
                    if (base.id, func.attr) in _WALL_CLOCK_ATTRS:
                        matched = f"{base.id}.{func.attr}()"
                elif (
                    isinstance(base, ast.Attribute)
                    and isinstance(base.value, ast.Name)
                    and base.value.id == "datetime"
                    and (base.attr, func.attr) in _WALL_CLOCK_ATTRS
                ):
                    matched = f"datetime.{base.attr}.{func.attr}()"
            elif isinstance(func, ast.Name) and func.id in from_time_aliases:
                matched = f"{func.id}()"
            if matched:
                yield _finding(
                    self,
                    ctx,
                    node,
                    f"wall-clock read {matched}; simulated time must come from "
                    "repro.sim.clock (use time.perf_counter() for elapsed "
                    "runtime)",
                )


#: Builtin exception types that must not be raised from library code.
_FORBIDDEN_RAISES = {"ValueError", "RuntimeError", "TypeError", "KeyError"}


@register
class BuiltinRaiseRule(AstRule):
    """REP004: builtin exceptions raised where a repro.errors subclass fits.

    Callers catch :class:`repro.errors.ReproError` to distinguish library
    failures from genuine bugs; builtin raises silently escape that net.
    """

    id = "REP004"
    summary = "builtin exception raised (use the repro.errors hierarchy)"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            name = None
            if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
                name = exc.func.id
            elif isinstance(exc, ast.Name):
                name = exc.id
            if name in _FORBIDDEN_RAISES:
                yield _finding(
                    self,
                    ctx,
                    node,
                    f"raise {name} bypasses the repro.errors hierarchy; raise "
                    "a ReproError subclass",
                )


def _is_set_expr(node: ast.AST) -> bool:
    """A set literal, set comprehension, or set()/frozenset() call."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


@register
class SetOrderingRule(AstRule):
    """REP005: order-sensitive consumption of an unordered set.

    ``list(set(x))`` and ``for item in set(x)`` iterate in hash order,
    which PYTHONHASHSEED perturbs for str/bytes elements; wrap the set in
    ``sorted(...)`` before anything order-sensitive consumes it.
    """

    id = "REP005"
    summary = "nondeterministic set ordering (wrap in sorted(...))"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("list", "tuple")
                and len(node.args) == 1
                and _is_set_expr(node.args[0])
            ):
                # list(set(x)) → sorted(set(x)) keeps the dedup and returns
                # a list; tuple(...) keeps its wrapper, sorting the inner.
                if node.func.id == "list":
                    segment = _source_segment(ctx, node.args[0])
                    fix = (
                        _replace_with(ctx, node, f"sorted({segment})")
                        if segment is not None
                        else None
                    )
                else:
                    fix = _wrap_sorted(ctx, node.args[0])
                yield _finding(
                    self,
                    ctx,
                    node,
                    f"{node.func.id}(set(...)) materialises hash order; use "
                    "sorted(...) for a stable ordering",
                    fix=fix,
                )
            elif isinstance(node, (ast.For, ast.AsyncFor)) and _is_set_expr(
                node.iter
            ):
                yield _finding(
                    self,
                    ctx,
                    node,
                    "iterating a set expression in hash order; wrap it in "
                    "sorted(...)",
                    fix=_wrap_sorted(ctx, node.iter),
                )
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                # SetComp is exempt: its result is unordered regardless.
                for comp in node.generators:
                    if _is_set_expr(comp.iter):
                        yield _finding(
                            self,
                            ctx,
                            comp.iter,
                            "comprehension over a set expression iterates in "
                            "hash order; wrap it in sorted(...)",
                            fix=_wrap_sorted(ctx, comp.iter),
                        )


def _imports_rooted_in(
    ctx: FileContext, roots: Tuple[str, ...]
) -> Iterator[Tuple[ast.AST, str]]:
    """``(import node, imported name)`` for absolute imports under ``roots``.

    ``import a.b`` and ``from a.b import c`` both match root ``a``; an
    ``import`` statement naming several modules reports the first match.
    """
    for node in ctx.nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in roots:
                    yield node, alias.name
                    break
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            if module.split(".")[0] in roots:
                yield node, module


#: Top-level modules whose direct use is concurrency outside the
#: deterministic executor.
_CONCURRENCY_MODULES = ("multiprocessing", "concurrent")

#: The one package allowed to touch process pools raw: it *implements*
#: the deterministic shard-map executor.
PARALLEL_PACKAGE_FRAGMENT = "repro/parallel/"


@register
class RawConcurrencyRule(AstRule):
    """REP007: raw ``multiprocessing``/``concurrent.futures`` outside repro/parallel.

    Ad-hoc pools reintroduce completion-order nondeterminism and unshared
    RNG discipline; all fan-out goes through ``repro.parallel.pmap``,
    whose sharding, per-item RNG derivation, and merge order are
    worker-count-invariant.
    """

    id = "REP007"
    summary = "raw concurrency primitive (use repro.parallel.pmap)"

    def applies_to(self, ctx: FileContext) -> bool:
        # Directory allowlist, not a suffix: every module of the executor
        # package may use the primitives it wraps.
        return PARALLEL_PACKAGE_FRAGMENT not in ctx.path

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node, flagged in _imports_rooted_in(ctx, _CONCURRENCY_MODULES):
            yield _finding(
                self,
                ctx,
                node,
                f"raw concurrency import {flagged!r}; fan work out "
                "through repro.parallel.pmap so shard order, RNG "
                "streams, and merges stay worker-count-invariant",
            )


#: Packages whose job is absorbing failure: the fault/retry plane and the
#: executor may catch broadly by design.
_SWALLOW_EXEMPT_FRAGMENTS = ("repro/faults/", "repro/parallel/")

#: Catch-all exception names a handler must not use outside exempt packages.
_CATCH_ALL_NAMES = {"Exception", "BaseException"}


def _caught_names(handler: ast.ExceptHandler) -> Iterator[str]:
    """The exception type names a handler catches (tuples flattened)."""
    node = handler.type
    if node is None:
        return
    elements = node.elts if isinstance(node, ast.Tuple) else [node]
    for element in elements:
        if isinstance(element, ast.Name):
            yield element.id
        elif isinstance(element, ast.Attribute):
            yield element.attr


def _swallows_silently(handler: ast.ExceptHandler) -> bool:
    """Whether the handler body discards the exception without acting.

    A body that is nothing but ``pass`` / ``...`` statements neither
    re-raises, nor logs, nor substitutes a value — the failure vanishes.
    """
    for stmt in handler.body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            if stmt.value.value is Ellipsis:
                continue
        return False
    return True


@register
class ExceptionSwallowRule(AstRule):
    """REP008: catch-all handlers / silent swallowing outside the fault plane.

    A bare ``except``, ``except Exception`` or ``except BaseException``
    erases the distinction the fault taxonomy exists to draw — transient vs
    permanent failure — and a handler whose body is only ``pass`` erases
    the failure entirely.  Catch a specific :class:`repro.errors.ReproError`
    subclass and account the failure, or let it propagate.
    """

    id = "REP008"
    summary = "catch-all or silently swallowed exception"

    def applies_to(self, ctx: FileContext) -> bool:
        return not any(
            fragment in ctx.path for fragment in _SWALLOW_EXEMPT_FRAGMENTS
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield _finding(
                    self,
                    ctx,
                    node,
                    "bare except catches everything, including "
                    "KeyboardInterrupt; name the exception type",
                )
                continue
            caught = set(_caught_names(node))
            if caught & _CATCH_ALL_NAMES:
                wide = ", ".join(sorted(caught & _CATCH_ALL_NAMES))
                yield _finding(
                    self,
                    ctx,
                    node,
                    f"except {wide} hides which failure occurred; catch a "
                    "specific repro.errors subclass",
                )
            elif _swallows_silently(node):
                yield _finding(
                    self,
                    ctx,
                    node,
                    "exception swallowed without action; account the "
                    "failure (e.g. in a FailureTaxonomy) or let it "
                    "propagate",
                )


#: Places allowed ad-hoc output/timing: the observability plane itself,
#: the bench plane (wall-clock timing is its product), benchmarks (whose
#: job is timing), the test tree, and runnable examples (whose job is
#: showing output).
_INSTRUMENTATION_EXEMPT_FRAGMENTS = (
    "repro/obs/",
    "repro/bench/",
    "benchmarks/",
    "tests/",
    "examples/",
)

#: File-level exemptions: the CLI is the user-facing surface — printing
#: reports and elapsed runtimes is its job.
_INSTRUMENTATION_EXEMPT_SUFFIXES = ("repro/cli.py",)


@register
class AdHocInstrumentationRule(AstRule):
    """REP009: ad-hoc ``print`` / ``time.perf_counter`` instrumentation.

    Scattered prints and timers are write-only telemetry: they bypass the
    deterministic snapshot (so CI can't diff them) and tempt wall-clock
    reasoning into library code.  Record counters, gauges and histograms on
    an explicit :class:`repro.obs.scope.Observer` and time stages with its
    sim-clock ``span``; only the obs plane itself, the CLI, benchmarks,
    tests and examples may emit raw output.
    """

    id = "REP009"
    summary = "ad-hoc print/perf_counter instrumentation (use repro.obs)"

    def applies_to(self, ctx: FileContext) -> bool:
        if any(
            fragment in ctx.path
            for fragment in _INSTRUMENTATION_EXEMPT_FRAGMENTS
        ):
            return False
        return not ctx.path_endswith(*_INSTRUMENTATION_EXEMPT_SUFFIXES)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        perf_counter_aliases = {
            name.asname or name.name
            for node in ctx.nodes
            if isinstance(node, ast.ImportFrom) and node.module == "time"
            for name in node.names
            if name.name == "perf_counter"
        }
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "print":
                yield _finding(
                    self,
                    ctx,
                    node,
                    "print() in library code is write-only telemetry; record "
                    "the fact on a repro.obs Observer (counter, gauge, or "
                    "event) so it lands in the deterministic snapshot",
                )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "perf_counter"
                and isinstance(func.value, ast.Name)
                and func.value.id == "time"
            ) or (
                isinstance(func, ast.Name) and func.id in perf_counter_aliases
            ):
                yield _finding(
                    self,
                    ctx,
                    node,
                    "ad-hoc perf_counter timing in library code; wrap the "
                    "stage in Observer.span(...) so the duration lands in "
                    "the deterministic snapshot",
                )


#: Places allowed to write files directly: the serialisation layer, the
#: artifact store (atomic writes are its job), the metrics exporter, the
#: lint tooling (baselines), the bench plane (BENCH_*.json trajectories
#: and report views are its artifacts), benchmarks, tests and examples.
_ARTIFACT_WRITE_EXEMPT_FRAGMENTS = (
    "repro/io",
    "repro/store/",
    "repro/obs/export",
    "repro/devtools/",
    "repro/bench/",
    "benchmarks/",
    "tests/",
    "examples/",
)

#: The CLI prints and archives reports on request — writing is its job.
_ARTIFACT_WRITE_EXEMPT_SUFFIXES = ("repro/cli.py",)

#: Characters in an ``open`` mode string that imply writing.
_WRITE_MODE_CHARS = set("wax+")


def _write_mode(node: ast.Call, position: int = 1) -> str:
    """The call's constant mode string when it implies writing, else ''.

    ``position`` is where the positional mode argument sits: 1 for the
    ``open(path, mode)`` builtin, 0 for the ``path.open(mode)`` method.
    """
    mode = None
    if len(node.args) > position:
        mode = node.args[position]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if (
        isinstance(mode, ast.Constant)
        and isinstance(mode.value, str)
        and _WRITE_MODE_CHARS & set(mode.value)
    ):
        return mode.value
    return ""


@register
class ArtifactWriteRule(AstRule):
    """REP010: direct artifact writes outside the sanctioned layers.

    Ad-hoc ``open(path, "w")`` / ``json.dump`` / ``.write_text`` calls
    scatter artifact formats across the tree, skip schema versioning, and
    are not atomic — a killed process leaves a torn file the next run
    trusts.  Serialise through :mod:`repro.io` (schema-checked loaders,
    one format per artifact) or checkpoint through :mod:`repro.store`
    (content-addressed, write-then-rename); only the io/store/obs-export
    planes, devtools, the CLI, benchmarks, tests and examples write raw.
    """

    id = "REP010"
    summary = "direct artifact write (use repro.io or repro.store)"

    def applies_to(self, ctx: FileContext) -> bool:
        if any(
            fragment in ctx.path
            for fragment in _ARTIFACT_WRITE_EXEMPT_FRAGMENTS
        ):
            return False
        return not ctx.path_endswith(*_ARTIFACT_WRITE_EXEMPT_SUFFIXES)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                mode = _write_mode(node)
                if mode:
                    yield _finding(
                        self,
                        ctx,
                        node,
                        f"open(..., {mode!r}) writes an artifact ad hoc; "
                        "serialise through repro.io or checkpoint through "
                        "repro.store",
                    )
            elif isinstance(func, ast.Attribute):
                if func.attr in ("write_text", "write_bytes"):
                    yield _finding(
                        self,
                        ctx,
                        node,
                        f".{func.attr}(...) writes an artifact ad hoc; "
                        "serialise through repro.io or checkpoint through "
                        "repro.store",
                    )
                elif func.attr == "open" and _write_mode(node, position=0):
                    yield _finding(
                        self,
                        ctx,
                        node,
                        ".open(...) in write mode writes an artifact ad "
                        "hoc; serialise through repro.io or checkpoint "
                        "through repro.store",
                    )
                elif (
                    func.attr == "dump"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "json"
                ):
                    yield _finding(
                        self,
                        ctx,
                        node,
                        "json.dump(...) writes an artifact ad hoc; "
                        "serialise through repro.io (save_json) or "
                        "checkpoint through repro.store",
                    )


#: The supervision plane is the one place allowed to intercept process
#: teardown: it alone may catch SimulatedCrashError (a BaseException
#: modelling SIGKILL) so crash-resume stays a single, auditable code path.
#: Tests and examples exercise teardown on purpose.
_SUPERVISION_EXEMPT_FRAGMENTS = (
    "repro/supervise/",
    "tests/",
    "examples/",
)

#: Exception names whose interception outside the supervision plane breaks
#: crash containment: a handler catching any of these would absorb a
#: simulated (or real) process death mid-layer, so the crashtest invariant
#: — resumed run byte-identical to a clean run — could no longer be argued
#: from the supervisor alone.
_TEARDOWN_NAMES = frozenset(
    {"BaseException", "KeyboardInterrupt", "SystemExit", "SimulatedCrashError"}
)

#: ``signal`` module entry points that install process-wide handlers.
_SIGNAL_INSTALLERS = frozenset(
    {"signal", "setitimer", "siginterrupt", "set_wakeup_fd"}
)


@register
class SupervisionContainmentRule(AstRule):
    """REP014: teardown interception outside the supervision plane.

    Crash-safety rests on one invariant: process death — real or the
    simulated :class:`repro.errors.SimulatedCrashError` — propagates
    untouched from wherever it strikes up to :mod:`repro.supervise`,
    which alone restarts, budgets, and accounts for it.  A handler
    anywhere else catching ``BaseException``, ``KeyboardInterrupt``,
    ``SystemExit`` or ``SimulatedCrashError`` (or a bare ``except``, or a
    process-wide ``signal.signal(...)`` install) would absorb the death
    mid-layer and leave the run in a state no restart policy reasons
    about.  Catch :class:`repro.errors.ReproError` subclasses for real
    failures; leave teardown to the supervisor.
    """

    id = "REP014"
    summary = "teardown interception outside repro.supervise"

    def applies_to(self, ctx: FileContext) -> bool:
        return not any(
            fragment in ctx.path for fragment in _SUPERVISION_EXEMPT_FRAGMENTS
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        signal_aliases = {
            name.asname or name.name
            for node in ctx.nodes
            if isinstance(node, ast.ImportFrom) and node.module == "signal"
            for name in node.names
            if name.name in _SIGNAL_INSTALLERS
        }
        for node in ctx.nodes:
            if isinstance(node, ast.ExceptHandler):
                yield from self._check_handler(ctx, node)
            elif isinstance(node, ast.Call):
                yield from self._check_signal_install(ctx, node, signal_aliases)

    def _check_handler(
        self, ctx: FileContext, node: ast.ExceptHandler
    ) -> Iterator[Finding]:
        if node.type is None:
            yield _finding(
                self,
                ctx,
                node,
                "bare except intercepts process teardown "
                "(KeyboardInterrupt, SystemExit, SimulatedCrashError); "
                "only repro.supervise may contain a crash — name a "
                "repro.errors exception type",
            )
            return
        caught = set(_caught_names(node)) & _TEARDOWN_NAMES
        if caught:
            names = ", ".join(sorted(caught))
            yield _finding(
                self,
                ctx,
                node,
                f"except {names} intercepts process teardown outside the "
                "supervision plane; crash containment belongs to "
                "repro.supervise alone — catch a repro.errors subclass "
                "or let it propagate",
            )

    def _check_signal_install(
        self, ctx: FileContext, node: ast.Call, signal_aliases: set
    ) -> Iterator[Finding]:
        func = node.func
        installed = ""
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _SIGNAL_INSTALLERS
            and isinstance(func.value, ast.Name)
            and func.value.id == "signal"
        ):
            installed = f"signal.{func.attr}"
        elif isinstance(func, ast.Name) and func.id in signal_aliases:
            installed = func.id
        if installed:
            yield _finding(
                self,
                ctx,
                node,
                f"{installed}(...) installs a process-wide signal handler "
                "outside the supervision plane; handler installs belong "
                "to repro.supervise so teardown has a single owner",
            )


#: Top-level modules whose direct use is socket/HTTP plumbing outside the
#: service front-end.
_NETWORK_MODULES = (
    "asyncio",
    "http",
    "selectors",
    "socket",
    "socketserver",
    "wsgiref",
)

#: Where raw socket/HTTP handling is sanctioned: the service front-end
#: owns the one listener, and tests/examples may drive it as clients.
_NETWORK_EXEMPT_FRAGMENTS = ("repro/service/", "tests/", "examples/")


@register
class RawNetworkRule(AstRule):
    """REP015: raw socket/HTTP handling outside ``repro/service``.

    The HTTP front-end is the project's single network boundary — one
    place that binds ports, frames requests, and maps errors onto the
    4xx/5xx taxonomy.  A second ad-hoc listener (or a stray ``socket``
    import in a measurement layer) would fork that boundary and bypass
    the bounded handler pool, the digest-ETag caching, and the
    observer's request accounting.
    """

    id = "REP015"
    summary = "raw socket/HTTP handling (route it through repro.service)"

    def applies_to(self, ctx: FileContext) -> bool:
        return not any(
            fragment in ctx.path for fragment in _NETWORK_EXEMPT_FRAGMENTS
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node, flagged in _imports_rooted_in(ctx, _NETWORK_MODULES):
            yield _finding(
                self,
                ctx,
                node,
                f"raw network import {flagged!r}; socket/HTTP handling "
                "belongs to repro.service, which owns the project's "
                "single listener, response framing, and error taxonomy",
            )
