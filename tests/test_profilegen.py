import random

import pytest

from syscage.callgraph import (
    CallGraph,
    Edge,
    bfs_reachable,
    build_direct_fcg,
    build_indirect_edges,
    merge,
)
from syscage.disasm import DIRECT, INDIRECT, SyscallSite, parse_disassembly
from syscage.errors import UnknownApi, UnresolvedSites
from syscage.profilegen import (
    ApiSyscallMapping,
    build_mapping,
    generate_profile,
    load_trace,
)
from syscage.srcfacts import load_source_facts
from syscage.sysnum import ResolvedSyscallSite, load_syscall_table, resolve_sites

from oracles import closure_floyd_warshall
from test_callgraph import _graph, _rsite


@pytest.fixture(scope="module")
def minilib_mapping(minilib_unit, minilib_facts, seed_table):
    graph = merge(build_direct_fcg(minilib_unit), build_indirect_edges(minilib_facts))
    resolved = resolve_sites(
        minilib_unit.functions, minilib_unit.syscall_sites, seed_table
    )
    apis = {
        fn.api_name: fn.canonical_name
        for fn in minilib_unit.functions
        if fn.is_api_export
    }
    return build_mapping(graph, resolved, apis)


def test_mapping_direct_wrapper(minilib_mapping):
    record = minilib_mapping.records["read"]
    assert [(e.name, e.tainted) for e in record.syscalls] == [("read", False)]
    assert record.syscalls[0].hosts == ["read@@GLIBC_2.2.5"]
    assert record.unresolved_sites == 0


def test_mapping_chain_paths(minilib_mapping):
    record = minilib_mapping.records["write"]
    assert [(e.name, e.tainted) for e in record.syscalls] == [("write", False)]
    assert record.syscalls[0].hosts == ["do_write"]


def test_mapping_tainted_via_indirect(minilib_mapping):
    record = minilib_mapping.records["open"]
    entries = {e.name: e for e in record.syscalls}
    assert set(entries) == {"open", "ioctl"}
    assert entries["open"].tainted and entries["ioctl"].tainted
    assert entries["open"].hosts == ["open_handler"]
    assert entries["ioctl"].hosts == ["ioctl_handler"]


def test_mapping_call_graph_leaves_out_leaves(minilib_mapping):
    graph = minilib_mapping.call_graph
    assert graph["dispatch"] == ["ioctl_handler", "log_call", "open_handler"]
    assert graph["open@@GLIBC_2.2.5"] == ["dispatch"]
    assert "read@@GLIBC_2.2.5" not in graph and "noop" not in graph


def test_merge_from_unions_call_graphs():
    first = ApiSyscallMapping(call_graph={"a": ["b", "d"], "x": ["y"]})
    first.merge_from(ApiSyscallMapping(call_graph={"a": ["c", "d"], "p": ["q"]}))
    assert first.call_graph == {"a": ["b", "c", "d"], "x": ["y"], "p": ["q"]}


def test_mapping_document_roundtrip(minilib_mapping):
    doc = minilib_mapping.to_document()
    again = ApiSyscallMapping.from_document(doc)
    assert again.to_document() == doc


def test_mapping_matches_reachability_oracle():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(3, 25)
        nodes = [f"n{i}" for i in range(n)]
        graph = CallGraph(nodes=set(nodes))
        pairs = []
        for a in nodes:
            for b in nodes:
                if a != b and rng.random() < 0.08:
                    kind = DIRECT if rng.random() < 0.7 else INDIRECT
                    graph.edges.add(Edge(a, b, kind, f"{a}->{b}"))
                    pairs.append((a, b))
        sites = [
            ResolvedSyscallSite(SyscallSite(h, 0), i, f"sys{i}")
            for i, h in enumerate(nodes)
            if rng.random() < 0.3
        ]
        apis = {f"api_{node}": node for node in rng.sample(nodes, 3)}
        mapping = build_mapping(graph, sites, apis)
        closure = closure_floyd_warshall(nodes, pairs)
        for api, node in apis.items():
            expected = {
                s.name for s in sites if s.site.function in closure[node]
            }
            assert {e.name for e in mapping.records[api].syscalls} == expected


def test_load_trace_counts():
    summary = load_trace(["read(3, ...)=5\nread(3, ...)=2\nwrite(1,...)\n"])
    assert summary.counts == {"read": 2, "write": 1}
    assert summary.runs == 1


def test_load_trace_empty_and_skip_lines():
    summary = load_trace(["", "+++ exited +++\n--- SIGCHLD ---\n"])
    assert summary.counts == {}
    assert summary.runs == 2


def test_load_trace_merge_adds():
    summary = load_trace(["read(3)\n", "read(4)\nclose(3)\n"])
    assert summary.counts == {"read": 2, "close": 1}
    assert summary.runs == 2


def _simple_mapping(entries, unresolved=0):
    doc = {"format": 2, "apis": {}}
    for api, syscalls in entries.items():
        doc["apis"][api] = {
            "entry_function": api,
            "unresolved_sites": unresolved,
            "syscalls": [
                {"syscall": name, "tainted": tainted, "hosts": [api]}
                for name, tainted in syscalls
            ],
        }
    return ApiSyscallMapping.from_document(doc)


def test_profile_partition_sizes(seed_table):
    mapping = _simple_mapping({"read": [("read", False)], "write": [("write", False)]})
    profile = generate_profile(mapping, {"read", "write"}, set(), seed_table)
    assert len(profile.allowed) == 2
    assert len(profile.blocked) == 333
    assert set(profile.allowed) | set(profile.blocked) == seed_table.names
    assert set(profile.allowed) & set(profile.blocked) == set()


def test_profile_empty(seed_table):
    profile = generate_profile(_simple_mapping({}), set(), set(), seed_table)
    assert profile.allowed == []
    assert len(profile.blocked) == 335


def test_profile_suspicious_sets(seed_table):
    mapping = _simple_mapping(
        {"api1": [("open", True), ("close", False)]}
    )
    trace = load_trace(["close(3)\n"])
    profile = generate_profile(mapping, {"api1"}, set(), seed_table, trace=trace)
    assert profile.suspicious_indirect == {"open"}
    assert profile.suspicious_rare == {"open"}


def test_direct_vote_overrides_taint(seed_table):
    mapping = _simple_mapping(
        {"a": [("open", True)], "b": [("open", False)]}
    )
    profile = generate_profile(mapping, {"a", "b"}, set(), seed_table)
    assert profile.suspicious_indirect == set()


def test_embedded_never_suspicious(seed_table):
    mapping = _simple_mapping({"a": [("open", True)]})
    profile = generate_profile(mapping, {"a"}, {"open", "close"}, seed_table)
    assert "open" in profile.allowed and "close" in profile.allowed
    assert profile.suspicious_indirect == set()


def test_unknown_api(seed_table):
    with pytest.raises(UnknownApi):
        generate_profile(_simple_mapping({}), {"nope"}, set(), seed_table)


def test_unresolved_sites_strict_vs_fallback(seed_table):
    mapping = _simple_mapping({"a": [("read", False)]}, unresolved=1)
    with pytest.raises(UnresolvedSites):
        generate_profile(mapping, {"a"}, set(), seed_table, strict=True)
    profile = generate_profile(mapping, {"a"}, set(), seed_table, strict=False)
    assert set(profile.allowed) == seed_table.names


def test_monotone_in_imports(seed_table):
    mapping = _simple_mapping(
        {"a": [("read", False)], "b": [("write", False), ("mmap", True)]}
    )
    small = generate_profile(mapping, {"a"}, set(), seed_table)
    big = generate_profile(mapping, {"a", "b"}, set(), seed_table)
    assert set(small.allowed) <= set(big.allowed)


def test_min_count_threshold(seed_table):
    mapping = _simple_mapping({"a": [("read", False), ("write", False)]})
    trace = load_trace(["read(1)\nread(2)\nwrite(1)\n"])
    profile = generate_profile(
        mapping, {"a"}, set(), seed_table, trace=trace, min_count=2
    )
    assert profile.suspicious_rare == {"write"}


def test_unresolved_site_counted(seed_table):
    text = (
        "0000000000001000 <api@@V_1>:\n"
        "    1000:\tmov\t(%rdi),%eax\n"
        "    1005:\tsyscall\n"
    )
    unit = parse_disassembly(text)
    graph = build_direct_fcg(unit)
    resolved = resolve_sites(unit.functions, unit.syscall_sites, seed_table)
    assert resolved[0].name is None
    mapping = build_mapping(graph, resolved, {"api": "api@@V_1"})
    assert mapping.records["api"].unresolved_sites == 1
    assert mapping.records["api"].syscalls == []


def test_mapping_merges_sites_of_each_host():
    # h0 is reached only by an indirect call, h1 directly; h1 also holds
    # two sites whose numbers were not recovered
    graph = _graph(direct=[("api", "h1")], indirect=[("api", "h0")])
    sites = [_rsite("h0", "read"), _rsite("h0", "write"), _rsite("h1", "write"),
             _rsite("h1", "read"), _rsite("h1", None), _rsite("h1", None)]
    record = build_mapping(graph, sites, {"api": "api"}).records["api"]
    assert [(e.name, e.tainted, e.hosts) for e in record.syscalls] == [
        ("read", False, ["h0", "h1"]),
        ("write", False, ["h0", "h1"]),
    ]
    assert record.unresolved_sites == 2
    only_indirect = build_mapping(graph, sites[:2], {"api": "api"}).records["api"]
    assert [(e.name, e.tainted) for e in only_indirect.syscalls] == [
        ("read", True), ("write", True),
    ]
