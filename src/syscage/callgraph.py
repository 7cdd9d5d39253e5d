"""Function call graph construction, adjacency, and secure-path search.

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

DEFAULT_MAX_PATH_LEN = 64
DEFAULT_MAX_PATHS = 4096


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


@dataclass
class PathEnumeration:
    paths: list[tuple[str, ...]]
    truncated: bool  # more simple paths exist than the budget allowed


def build_direct_fcg(unit: DisasmUnit) -> CallGraph:
    graph = CallGraph()
    graph.nodes.update(fn.canonical_name for fn in unit.functions)
    for site in unit.callsites:
        if site.kind == DIRECT:
            graph.nodes.add(site.target)
            graph.edges.add(site)
    return graph


def build_indirect_edges(facts: SourceFacts) -> set[CallSite]:
    return {
        CallSite(site.caller, target, INDIRECT)
        for site in facts.indirect_sites
        for target in resolve_indirect_targets(site, facts)
    }


def merge(direct: CallGraph, indirect_edges: set[CallSite]) -> CallGraph:
    unknown = sorted({e.caller for e in indirect_edges} - direct.nodes)
    if unknown:
        raise AnalysisError(f"indirect calls from unknown caller(s): {', '.join(unknown)}")
    merged = CallGraph(nodes=set(direct.nodes), edges=direct.edges | indirect_edges)
    merged.nodes.update(e.target for e in indirect_edges)
    return merged


def predecessors(adj: dict[str, list[str]]) -> dict[str, list[str]]:
    """The reverse of an adjacency: each node's callers."""
    pred: dict[str, list[str]] = {n: [] for n in adj}
    for node, succ in adj.items():
        for nxt in succ:
            pred[nxt].append(node)
    return pred


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


def enumerate_secure_paths(
    adj: dict[str, list[str]],
    pred: dict[str, list[str]],
    api: str,
    host: str,
    max_len: int = DEFAULT_MAX_PATH_LEN,
    max_paths: int = DEFAULT_MAX_PATHS,
) -> PathEnumeration:
    """All simple paths from `api` to `host`, lexicographic by node sequence,
    bounded by max_len nodes and max_paths paths.  `adj` is the graph's
    sorted successor adjacency and `pred` its reverse.

    The search enters only functions that can reach `host`.  The others
    emit no path, so skipping them changes neither the paths nor where the
    budget cuts them off, and a cyclic component that cannot reach `host`
    costs nothing."""
    result = PathEnumeration(paths=[], truncated=False)
    live = bfs_reachable(pred, host)
    if api not in live:
        return result
    path = [api]
    on_path = {api}

    def walk(node: str) -> bool:
        if node == host:
            if len(result.paths) >= max_paths:
                result.truncated = True
                return False
            result.paths.append(tuple(path))
            return True
        if len(path) >= max_len:
            return True
        for nxt in adj[node]:
            if nxt in on_path or nxt not in live:
                continue
            path.append(nxt)
            on_path.add(nxt)
            keep_going = walk(nxt)
            path.pop()
            on_path.discard(nxt)
            if not keep_going:
                return False
        return True

    walk(api)
    return result
