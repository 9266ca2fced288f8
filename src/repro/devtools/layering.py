"""REP006: import-graph layering and cycle checking.

Measurement code sits *above* the substrates it measures: the crypto, sim,
and net layers must never import the trawl/experiments/analysis layers that
drive them, and the module graph must stay acyclic (module-level imports
only — ``TYPE_CHECKING`` blocks and function-local imports are runtime
no-ops and are excluded, matching how Python actually executes the code).
The graph itself comes from the shared
:class:`~repro.devtools.callgraph.ProjectContext`, so this rule and the
whole-program determinism rules walk each file's imports once between them.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

from repro.devtools.callgraph import ProjectContext
from repro.devtools.findings import Finding
from repro.devtools.registry import ProjectRule, register

#: Measurement-side subpackages that the low substrate layers may not import.
#: ``bench`` sits above even the measurement layers (it drives their
#: kernels), so a substrate importing it would invert the graph twice over.
_MEASUREMENT_LAYERS = frozenset(
    {
        "analysis",
        "bench",
        "classify",
        "client",
        "crawl",
        "detection",
        "experiments",
        "popularity",
        # The service plane orchestrates experiments and serves their
        # views; it sits at the top of the graph like the experiments
        # layer, so every substrate below is forbidden from importing it.
        "service",
        "tracking",
        "trawl",
    }
)

#: subpackage -> subpackages it must not (transitively directly) import.
FORBIDDEN_IMPORTS: Dict[str, frozenset] = {
    "crypto": _MEASUREMENT_LAYERS,
    "sim": _MEASUREMENT_LAYERS,
    "net": _MEASUREMENT_LAYERS,
    # The executor is a substrate too: measurement layers call it, never
    # the other way around.
    "parallel": _MEASUREMENT_LAYERS,
    # The fault plane wraps net and is consumed by measurement layers; it
    # must never reach up into them.
    "faults": _MEASUREMENT_LAYERS,
    # The observability plane is threaded through every layer; if it
    # imported measurement code the dependency arrows would invert.
    "obs": _MEASUREMENT_LAYERS,
    # The artifact store checkpoints measurement stages but must stay
    # payload-agnostic: stages hand it encode/decode callables, so it
    # never needs (and must never take) a measurement-layer import.
    "store": _MEASUREMENT_LAYERS,
    # The artifact codec is payload-agnostic too: artifact classes declare
    # their format (header, field metadata) and import it, never the
    # other way around.
    "io": _MEASUREMENT_LAYERS,
    # The supervision plane restarts pipelines it is handed as opaque
    # factories; lower layers receive its crash hook as a plain callable.
    # Neither direction justifies a measurement import.
    "supervise": _MEASUREMENT_LAYERS,
}


def _subpackage_of(module: str) -> str:
    """The layer name: second dotted component (``repro.net.geoip`` → ``net``)."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else parts[0]


def _strongly_connected(graph: Dict[str, Set[str]]) -> List[List[str]]:
    """Tarjan's SCC, iterative; returns components of size > 1 plus self-loops."""
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    counter = [0]
    components: List[List[str]] = []

    for root in sorted(graph):
        if root in index:
            continue
        work: List[Tuple[str, Iterator[str]]] = [(root, iter(sorted(graph[root])))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, edges = work[-1]
            advanced = False
            for succ in edges:
                if succ not in graph:
                    continue
                if succ not in index:
                    index[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(graph[succ]))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1 or node in graph[node]:
                    components.append(sorted(component))
    return components


@register
class LayeringRule(ProjectRule):
    """REP006: layer violations and import cycles across the scanned files."""

    id = "REP006"
    summary = "import-layer violation or cycle"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        by_module = project.by_module
        graph, edge_lines = project.runtime_import_graph()

        reported: Set[Tuple[str, int, str]] = set()
        for source in sorted(graph):
            source_layer = _subpackage_of(source)
            forbidden = FORBIDDEN_IMPORTS.get(source_layer)
            if not forbidden:
                continue
            for target in sorted(graph[source]):
                target_layer = _subpackage_of(target)
                if target_layer in forbidden:
                    lineno = edge_lines[(source, target)]
                    # One ``from pkg.x import y`` line edges to both pkg.x
                    # and pkg.x.y; report the layer breach once.
                    key = (source, lineno, target_layer)
                    if key in reported:
                        continue
                    reported.add(key)
                    ctx = by_module[source]
                    yield Finding(
                        rule=self.id,
                        file=ctx.path,
                        line=lineno,
                        message=(
                            f"layer violation: {source_layer} module {source} "
                            f"imports {target} from the measurement layer "
                            f"{target_layer}"
                        ),
                        snippet=ctx.line_text(lineno),
                    )

        for component in _strongly_connected(graph):
            anchor = component[0]
            successor = next(
                (m for m in sorted(graph[anchor]) if m in component), anchor
            )
            lineno = edge_lines.get((anchor, successor), 1)
            ctx = by_module[anchor]
            cycle = " -> ".join(component + [component[0]])
            yield Finding(
                rule=self.id,
                file=ctx.path,
                line=lineno,
                message=f"import cycle: {cycle}",
                snippet=ctx.line_text(lineno),
            )
