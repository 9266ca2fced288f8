"""Rule registry: rules self-register at import time via a decorator.

Two rule shapes exist.  :class:`AstRule` sees one file at a time (a parsed
:class:`FileContext`); :class:`ProjectRule` sees the whole scanned project
at once through a :class:`~repro.devtools.callgraph.ProjectContext`, which
is what the import-graph and RNG-lineage analyses need.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Type

from repro.errors import ConfigError


@dataclass
class FileContext:
    """One parsed source file handed to every rule.

    ``module`` is the dotted module name (``repro.net.geoip``) when the file
    sits inside a package (``__init__.py`` chain), else the bare stem.
    ``path`` is always posix-style, relative to the lint invocation's cwd
    when possible, so findings and baselines are machine-independent.
    """

    path: str
    module: str
    tree: ast.Module
    lines: List[str]
    _random_aliases: frozenset = field(default=None, repr=False)  # type: ignore[assignment]
    _nodes: Optional[List[ast.AST]] = field(default=None, repr=False)

    def path_endswith(self, *suffixes: str) -> bool:
        """Whether the file path matches any posix suffix (allowlists)."""
        return any(self.path.endswith(suffix) for suffix in suffixes)

    def line_text(self, lineno: int) -> str:
        """Stripped source text of a 1-based line (empty if out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    @property
    def nodes(self) -> List[ast.AST]:
        """Every AST node, materialised once and shared by all rules.

        Ten per-file rules each doing their own ``ast.walk`` costs more
        than the parse itself; walking once and iterating a list keeps
        whole-file rules O(nodes), not O(rules × nodes).
        """
        if self._nodes is None:
            self._nodes = list(ast.walk(self.tree))
        return self._nodes

    @property
    def random_aliases(self) -> frozenset:
        """Local names bound to ``random.Random`` via ``from random import``."""
        if self._random_aliases is None:
            aliases = set()
            for node in self.nodes:
                if isinstance(node, ast.ImportFrom) and node.module == "random":
                    for name in node.names:
                        if name.name == "Random":
                            aliases.add(name.asname or name.name)
            self._random_aliases = frozenset(aliases)
        return self._random_aliases


class Rule:
    """Base rule: an id (``REPnnn``), a one-line summary, and allowlists.

    ``allowed_path_suffixes`` names files exempt from the rule — e.g. the
    raw-RNG rules do not apply inside ``sim/rng.py``, which is the one
    module allowed to construct :class:`random.Random` directly.
    """

    id: str = ""
    summary: str = ""
    allowed_path_suffixes: Tuple[str, ...] = ()

    def applies_to(self, ctx: FileContext) -> bool:
        return not ctx.path_endswith(*self.allowed_path_suffixes)


class AstRule(Rule):
    """A rule evaluated per file over its AST."""

    def check(self, ctx: FileContext) -> Iterator:
        raise NotImplementedError


class ProjectRule(Rule):
    """A rule evaluated once over the whole project (cross-file analysis).

    ``project`` is a :class:`~repro.devtools.callgraph.ProjectContext`;
    its import graphs, call graph, and constant folder are shared across
    every project rule in the run, so each is computed at most once.
    """

    def check_project(self, project) -> Iterator:
        raise NotImplementedError


_REGISTRY: Dict[str, Rule] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate and index the rule by its id."""
    rule = rule_cls()
    if not rule.id:
        raise ConfigError(f"rule has no id: {rule_cls.__name__}")
    if rule.id in _REGISTRY:
        raise ConfigError(f"duplicate rule id: {rule.id}")
    _REGISTRY[rule.id] = rule
    return rule_cls


def all_rules() -> List[Rule]:
    """Every registered rule, ordered by id."""
    _ensure_loaded()
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    """Look up one rule; raises :class:`ConfigError` for unknown ids."""
    _ensure_loaded()
    try:
        return _REGISTRY[rule_id]
    except KeyError as exc:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigError(f"unknown rule {rule_id!r} (known: {known})") from exc


def _ensure_loaded() -> None:
    # Importing the rule modules triggers their @register decorators.
    from repro.devtools import (  # noqa: F401
        layering,
        rng_lineage,
        rules,
        shard_safety,
    )
