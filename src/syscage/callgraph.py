"""Function call graph construction and adjacency.

The direct graph comes from disassembly callsites; indirect edges come from
resolved source facts.  An edge is a `CallSite` with a target, so two calls
from one function to another are one edge.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .disasm import DIRECT, INDIRECT, CallSite, DisasmUnit
from .errors import AnalysisError
from .srcfacts import SourceFacts, resolve_indirect_targets

@dataclass
class CallGraph:
    nodes: set[str] = field(default_factory=set)
    edges: set[CallSite] = field(default_factory=set)

    def successors(self, direct_only: bool = False) -> dict[str, list[str]]:
        """Each node's callees in sorted order.  Build it once per graph and
        share it between searches."""
        adj: dict[str, set[str]] = {n: set() for n in self.nodes}
        for e in self.edges:
            if direct_only and e.kind != DIRECT:
                continue
            adj[e.caller].add(e.target)
        return {n: sorted(succ) for n, succ in adj.items()}


def build_direct_fcg(unit: DisasmUnit) -> CallGraph:
    graph = CallGraph()
    graph.nodes.update(fn.canonical_name for fn in unit.functions)
    for site in unit.callsites:
        if site.kind == DIRECT:
            graph.nodes.add(site.target)
            graph.edges.add(site)
    return graph


def build_indirect_edges(facts: SourceFacts) -> set[CallSite]:
    """An edge from each indirect site's caller to each of its candidates;
    sites with the same parameter types share one resolution."""
    by_types = {site.param_types: site for site in facts.indirect_sites}
    targets = {types: resolve_indirect_targets(site, facts) for types, site in by_types.items()}
    return {
        CallSite(site.caller, target, INDIRECT)
        for site in facts.indirect_sites
        for target in targets[site.param_types]
    }


def merge(direct: CallGraph, indirect_edges: set[CallSite]) -> CallGraph:
    unknown = sorted({e.caller for e in indirect_edges} - direct.nodes)
    if unknown:
        raise AnalysisError(f"indirect calls from unknown caller(s): {', '.join(unknown)}")
    merged = CallGraph(nodes=set(direct.nodes), edges=direct.edges | indirect_edges)
    merged.nodes.update(e.target for e in indirect_edges)
    return merged


def bfs_reachable(adj: dict[str, list[str]], start: str) -> set[str]:
    seen = {start}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for nxt in adj.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen
