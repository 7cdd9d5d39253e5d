import random
import time

import pytest

from syscage.callgraph import CallGraph, build_direct_fcg, build_indirect_edges, merge
from syscage.disasm import (
    DIRECT,
    INDIRECT,
    CallSite,
    FunctionRecord,
    SyscallSite,
    parse_disassembly,
)
from syscage.errors import AnalysisError
from syscage.profilegen import build_mapping
from syscage.srcfacts import IndirectSite, SourceFacts
from syscage.sysnum import ResolvedSyscallSite

from oracles import (
    all_simple_paths_bruteforce,
    closure_floyd_warshall,
    enumerate_secure_paths,
    predecessors,
)


def _rsite(function, name):
    return ResolvedSyscallSite(SyscallSite(function, 0), name)


def _graph(direct=(), indirect=()):
    g = CallGraph()
    for kind, pairs in ((DIRECT, direct), (INDIRECT, indirect)):
        for a, b in pairs:
            g.nodes.update((a, b))
            g.edges.add(CallSite(a, b, kind))
    return g


def _reachable(graph, api, resolved_sites):
    """(name, tainted) for each syscall that graph node `api` reaches, in
    the record build_mapping makes for it."""
    record = build_mapping(graph, resolved_sites, {"api": api}).records["api"]
    return set(record.syscalls.items())


def _paths(graph, api, host, **limits):
    adj = graph.successors()
    return enumerate_secure_paths(adj, predecessors(adj), api, host, **limits)


def test_direct_fcg_chain():
    text = (
        "0000000000001000 <A>:\n    1000:\tcallq\t1010 <B>\n"
        "0000000000001010 <B>:\n    1010:\tcallq\t1020 <C>\n"
        "0000000000001020 <C>:\n    1020:\tretq\n"
    )
    g = build_direct_fcg(parse_disassembly(text))
    assert {(e.caller, e.target) for e in g.edges} == {("A", "B"), ("B", "C")}
    assert all(e.kind == DIRECT for e in g.edges)


def test_direct_fcg_ignores_indirect_sites():
    text = "0000000000001000 <A>:\n    1000:\tcallq\t*(%rax)\n"
    g = build_direct_fcg(parse_disassembly(text))
    assert g.edges == set()
    assert g.nodes == {"A"}


def test_two_callsites_one_edge():
    text = (
        "0000000000001000 <A>:\n"
        "    1000:\tcallq\t1010 <B>\n"
        "    1005:\tcallq\t1010 <B>\n"
        "0000000000001010 <B>:\n    1010:\tretq\n"
    )
    unit = parse_disassembly(text)
    assert len(unit.callsites) == 2
    g = build_direct_fcg(unit)
    assert g.edges == {CallSite("A", "B", DIRECT)}
    assert g.successors() == {"A": ["B"], "B": []}
    # every record of the parse and graph paths is an immutable value: a
    # field cannot be set, and two equal records are one set element
    for make, field in [
        (lambda: CallSite("A", "B", DIRECT), "target"),
        (lambda: SyscallSite("A", 0x1000), "site_address"),
        (lambda: ResolvedSyscallSite(SyscallSite("A", 0x1000), "read"), "name"),
        (lambda: IndirectSite("A", ("int",)), "param_types"),
        (lambda: FunctionRecord("A", None), "body"),
    ]:
        record = make()
        assert len({record, make()}) == 1
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert FunctionRecord("A", None).body == ""


def test_indirect_edges_per_candidate():
    facts = SourceFacts(
        address_taken={"X", "Y"},
        signatures={"X": ("int",), "Y": ("int",)},
        indirect_sites=[IndirectSite("f", ("int",))],
    )
    edges = build_indirect_edges(facts)
    assert {(e.caller, e.target) for e in edges} == {("f", "X"), ("f", "Y")}
    assert all(e.kind == INDIRECT for e in edges)


def test_callers_with_the_same_parameter_types_each_get_every_candidate():
    facts = SourceFacts(
        address_taken={"X", "Y", "Z"},
        signatures={"X": ("int",), "Y": ("int", "..."), "Z": ("char*",)},
        indirect_sites=[IndirectSite("f", ("int",)), IndirectSite("g", ("char*",)),
                        IndirectSite("h", ("int",)), IndirectSite("f", ("int",))],
    )
    edges = build_indirect_edges(facts)
    assert {(e.caller, e.target) for e in edges} == {
        ("f", "X"), ("f", "Y"), ("h", "X"), ("h", "Y"), ("g", "Z")}


def test_indirect_edges_empty_candidates():
    facts = SourceFacts(indirect_sites=[IndirectSite("f", ("int",))])
    assert build_indirect_edges(facts) == set()


def test_merge_identity_and_union():
    direct = _graph(direct=[("A", "B")])
    assert merge(direct, set()) == direct
    extra = {CallSite("A", "C", INDIRECT)}
    merged = merge(direct, extra)
    assert len(merged.edges) == 2
    assert merged.nodes == {"A", "B", "C"}


def test_merge_keeps_both_kinds_for_same_pair():
    direct = _graph(direct=[("A", "B")])
    merged = merge(direct, {CallSite("A", "B", INDIRECT)})
    kinds = {e.kind for e in merged.edges}
    assert kinds == {DIRECT, INDIRECT}


def test_merge_unknown_caller():
    with pytest.raises(AnalysisError, match="indirect calls from unknown caller\\(s\\): Z$"):
        merge(_graph(direct=[("A", "B")]), {CallSite("Z", "B", INDIRECT)})


def test_reachable_direct_untainted():
    g = _graph(direct=[("api", "f")])
    assert _reachable(g, "api", [_rsite("f", "write")]) == {("write", False)}


def test_reachable_indirect_tainted():
    g = _graph(indirect=[("api", "g")])
    assert _reachable(g, "api", [_rsite("g", "ioctl")]) == {("ioctl", True)}


def test_direct_path_overrides_indirect():
    g = _graph(direct=[("api", "f")], indirect=[("api", "f")])
    assert _reachable(g, "api", [_rsite("f", "read")]) == {("read", False)}


def test_unknown_api():
    with pytest.raises(AnalysisError, match="API nope is not a call-graph node"):
        _reachable(_graph(direct=[("A", "B")]), "nope", [])


def _random_graph(rng: random.Random, max_nodes=50):
    n = rng.randint(2, max_nodes)
    nodes = [f"n{i}" for i in range(n)]
    direct, indirect = [], []
    for a in nodes:
        for b in nodes:
            if a == b:
                continue
            r = rng.random()
            if r < 0.06:
                direct.append((a, b))
            elif r < 0.1:
                indirect.append((a, b))
    return nodes, direct, indirect


def test_reachability_matches_closure_oracle():
    rng = random.Random(2024)
    for _ in range(120):
        nodes, direct, indirect = _random_graph(rng)
        g = _graph(direct=direct, indirect=indirect)
        g.nodes.update(nodes)
        full = closure_floyd_warshall(nodes, direct + indirect)
        donly = closure_floyd_warshall(nodes, direct)
        api = rng.choice(nodes)
        sites = [
            _rsite(host, f"sys_{host}") for host in rng.sample(nodes, len(nodes) // 3)
        ]
        expected = {
            (f"sys_{host}", host not in donly[api])
            for host in (s.site.function for s in sites)
            if host in full[api]
        }
        assert _reachable(g, api, sites) == expected


def test_removing_indirect_edges_shrinks_and_untaints():
    rng = random.Random(99)
    for _ in range(30):
        nodes, direct, indirect = _random_graph(rng, max_nodes=20)
        g = _graph(direct=direct, indirect=indirect)
        g.nodes.update(nodes)
        stripped = CallGraph(
            nodes=set(g.nodes), edges={e for e in g.edges if e.kind == DIRECT}
        )
        api = rng.choice(nodes)
        sites = [_rsite(h, f"sys_{h}") for h in nodes]
        before = _reachable(g, api, sites)
        after = _reachable(stripped, api, sites)
        assert {n for n, _ in after} <= {n for n, _ in before}
        assert all(not tainted for _, tainted in after)


def test_enumerate_chain():
    g = _graph(direct=[("A", "B"), ("B", "C")])
    result = _paths(g, "A", "C")
    assert result.paths == [("A", "B", "C")]
    assert not result.truncated


def test_enumerate_diamond_lexicographic():
    g = _graph(direct=[("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")])
    result = _paths(g, "A", "D")
    assert result.paths == [("A", "B", "D"), ("A", "C", "D")]


def test_enumerate_api_is_host():
    g = _graph(direct=[("A", "B")])
    assert _paths(g, "A", "A").paths == [("A",)]


def test_enumerate_cycle_only_simple_paths():
    g = _graph(direct=[("A", "B"), ("B", "A"), ("B", "C")])
    result = _paths(g, "A", "C")
    assert result.paths == [("A", "B", "C")]


def test_enumerate_matches_bruteforce_on_small_graphs():
    rng = random.Random(5)
    for _ in range(60):
        nodes, direct, indirect = _random_graph(rng, max_nodes=8)
        g = _graph(direct=direct, indirect=indirect)
        g.nodes.update(nodes)
        start, end = rng.sample(nodes, 2)
        expected = all_simple_paths_bruteforce(nodes, direct + indirect, start, end)
        result = _paths(g, start, end)
        assert result.paths == expected
        assert not result.truncated


def test_enumerate_budget_truncation():
    # complete DAG layers give plenty of alternative paths
    direct = [("S", f"m{i}") for i in range(6)]
    direct += [(f"m{i}", "T") for i in range(6)]
    g = _graph(direct=direct)
    result = _paths(g, "S", "T", max_paths=3)
    assert len(result.paths) == 3
    assert result.truncated
    assert result.paths == sorted(result.paths)


def test_enumerate_max_len():
    g = _graph(direct=[("A", "B"), ("B", "C"), ("A", "C")])
    result = _paths(g, "A", "C", max_len=2)
    assert result.paths == [("A", "C")]


def test_enumerate_skips_cyclic_component_that_cannot_reach_host():
    # all 12! simple paths through the complete digraph c0..c11 lead nowhere;
    # a search that enters it does not finish in minutes
    cycle = [f"c{i}" for i in range(12)]
    g = _graph(direct=[("api", "helper"), ("helper", "host"), ("api", "c0")]
               + [(a, b) for a in cycle for b in cycle if a != b])
    started = time.perf_counter()
    result = _paths(g, "api", "host")
    elapsed = time.perf_counter() - started
    assert result.paths == [("api", "helper", "host")]
    assert not result.truncated
    assert elapsed < 1.0, f"took {elapsed:.1f}s"


def test_paths_are_walks_without_repeats():
    rng = random.Random(6)
    for _ in range(30):
        nodes, direct, indirect = _random_graph(rng, max_nodes=10)
        g = _graph(direct=direct, indirect=indirect)
        g.nodes.update(nodes)
        adj = g.successors()
        start, end = rng.sample(nodes, 2)
        result = _paths(g, start, end)
        assert len(set(result.paths)) == len(result.paths)
        for path in result.paths:
            assert len(set(path)) == len(path)
            assert all(b in adj[a] for a, b in zip(path, path[1:]))
