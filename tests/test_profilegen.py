import hashlib
import json
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from syscage.callgraph import (
    CallGraph,
    bfs_reachable,
    build_direct_fcg,
    build_indirect_edges,
    merge,
)
from syscage.disasm import DIRECT, INDIRECT, CallSite, SyscallSite, parse_disassembly
from syscage.errors import AnalysisError, ParseError
from syscage.profilegen import (
    ApiRecord,
    ApiSyscallMapping,
    SeccompProfile,
    build_mapping,
    dump_json,
    generate_profile,
    load_trace,
    read_sidecar,
)
from syscage.srcfacts import load_source_facts
from syscage.sysnum import ResolvedSyscallSite, load_syscall_table, resolve_sites

from oracles import closure_floyd_warshall, load_trace_reference
from test_callgraph import _graph, _rsite
from test_cli_exit_codes import JSON, _spliced

GOLDEN = Path(__file__).parent / "data" / "golden"


@pytest.fixture(scope="module")
def minilib_mapping(minilib_unit, minilib_facts, seed_table):
    graph = merge(build_direct_fcg(minilib_unit), build_indirect_edges(minilib_facts))
    resolved = resolve_sites(minilib_unit, seed_table)
    apis = {
        fn.api_name: fn.canonical_name
        for fn in minilib_unit.functions
        if fn.api_name is not None
    }
    return build_mapping(graph, resolved, apis)


def test_mapping_direct_wrapper(minilib_mapping):
    record = minilib_mapping.records["read"]
    assert record.syscalls == {"read": False}
    assert minilib_mapping.hosts["read"] == ["read@@GLIBC_2.2.5"]
    assert record.unresolved_sites == 0


def test_mapping_chain_paths(minilib_mapping):
    record = minilib_mapping.records["write"]
    assert record.syscalls == {"write": False}
    assert minilib_mapping.hosts["write"] == ["do_write"]


def test_mapping_tainted_via_indirect(minilib_mapping):
    record = minilib_mapping.records["open"]
    assert record.syscalls == {"open": True, "ioctl": True}
    assert minilib_mapping.hosts["open"] == ["open_handler"]
    assert minilib_mapping.hosts["ioctl"] == ["ioctl_handler"]


def test_mapping_call_graph_leaves_out_leaves(minilib_mapping):
    graph = minilib_mapping.call_graph
    assert graph["dispatch"] == ["ioctl_handler", "log_call", "open_handler"]
    assert graph["open@@GLIBC_2.2.5"] == ["dispatch"]
    assert "read@@GLIBC_2.2.5" not in graph and "noop" not in graph


def test_merge_from_unions_call_graphs():
    first = ApiSyscallMapping(call_graph={"a": ["b", "d"], "x": ["y"]},
                              hosts={"read": ["h1", "h3"], "open": ["h0"]},
                              libraries={"liba": "1a", "libc": "3c"})
    first.merge_from(ApiSyscallMapping(call_graph={"a": ["c", "d"], "p": ["q"]},
                                       hosts={"read": ["h2", "h3"], "close": ["h4"]},
                                       libraries={"libb": "2b", "libc": "3c"}))
    assert first.call_graph == {"a": ["b", "c", "d"], "x": ["y"], "p": ["q"]}
    assert first.hosts == {"read": ["h1", "h2", "h3"], "open": ["h0"], "close": ["h4"]}
    assert first.libraries == {"liba": "1a", "libb": "2b", "libc": "3c"}


def test_merge_from_rejects_two_digests_of_one_library():
    first = ApiSyscallMapping(libraries={"libc": "3c"})
    with pytest.raises(AnalysisError, match="^library 'libc' has two sha256 digests: 3c, 4d$"):
        first.merge_from(ApiSyscallMapping(libraries={"libc": "4d"}))


def test_mapping_document_roundtrip(minilib_mapping):
    doc = minilib_mapping.to_document()
    again = ApiSyscallMapping.from_document(doc)
    assert again.to_document() == doc


def _mapping_doc(api, call_graph=None):
    """A mapping document of one API record `api`, with `call_graph`.  The
    fields that `api` leaves out are filled in, and one that it gives as
    `...` is left out."""
    if isinstance(api, dict):
        defaults = {"entry_function": "f", "unresolved_sites": 0,
                    "syscalls": [{"syscall": "read", "tainted": False}]}
        api = {key: value for key, value in {**defaults, **api}.items() if value is not ...}
    return {"format": 4, "libraries": {}, "call_graph": call_graph or {"f": ["g"]},
            "hosts": {"read": ["f"]}, "apis": {"a": api}}


@pytest.mark.parametrize("doc, message", [
    # a bool is not an integer, and an integer is not true or false
    (_mapping_doc({"unresolved_sites": True}), "mapping API 'a' unresolved_sites is not an integer"),
    (_mapping_doc({"unresolved_sites": 1.0}), "mapping API 'a' unresolved_sites is not an integer"),
    (_mapping_doc({"syscalls": [{"syscall": "read", "tainted": 1}]}),
     "mapping API 'a' syscalls[0] tainted is not true or false"),
    (_mapping_doc({"syscalls": [{"syscall": "read", "tainted": False},
                                {"syscall": 1, "tainted": "no"}]}),
     "mapping API 'a' syscalls[1] syscall is not a string"),
    (_mapping_doc({"syscalls": ["read"]}), "mapping API 'a' syscalls[0] is not an object"),
    (_mapping_doc({"syscalls": {}}), "mapping API 'a' syscalls is not an array"),
    (_mapping_doc([{"entry_function": "f"}]), "mapping API 'a' is not an object"),
    (_mapping_doc({"entry_function": ...}), "mapping API 'a' entry_function is missing"),
    (_mapping_doc({"entry_function": ["f"]}), "mapping API 'a' entry_function is not a string"),
    # the first bad name list in document order
    (_mapping_doc({}, {"f": ["g"], "g": "h", "h": [1]}), "mapping call_graph['g'] is not an array"),
    (_mapping_doc({}, {"f": ["g"], "g": ["h", None]}),
     "mapping call_graph['g'] is not an array of strings"),
])
def test_mapping_reader_names_each_wrong_type(doc, message):
    with pytest.raises(ParseError) as exc:
        ApiSyscallMapping.from_document(json.loads(json.dumps(doc)))
    assert str(exc.value) == message


_NAME = st.text(max_size=6)
_NAME_LISTS = st.dictionaries(_NAME, st.lists(_NAME, max_size=3), max_size=4)
_MAPPINGS = st.builds(
    ApiSyscallMapping,
    records=st.dictionaries(_NAME, st.builds(
        ApiRecord, entry_function=_NAME,
        syscalls=st.dictionaries(_NAME, st.booleans(), max_size=4),
        unresolved_sites=st.integers(min_value=0)), max_size=4),
    call_graph=_NAME_LISTS,
    hosts=_NAME_LISTS,
    libraries=st.dictionaries(_NAME, st.binary(max_size=8).map(
        lambda b: hashlib.sha256(b).hexdigest()), max_size=3),
)


@settings(max_examples=200, deadline=None)
@given(_MAPPINGS)
def test_mapping_text_roundtrips(mapping):
    text = dump_json(mapping.to_document())
    again = ApiSyscallMapping.from_document(json.loads(text))
    assert dump_json(again.to_document()) == text
    assert again == mapping


_PROFILES = st.builds(
    SeccompProfile,
    allowed=st.lists(_NAME, max_size=8).map(sorted),
    suspicious_indirect=st.sets(_NAME, max_size=3),
    suspicious_rare=st.sets(_NAME, max_size=3),
)


@settings(max_examples=200, deadline=None)
@given(_PROFILES)
def test_docker_document_allows_exactly_the_allowed_set(profile):
    doc = json.loads(dump_json(profile.to_docker_document()))
    names = set(profile.allowed) | {"other"}
    assert SeccompProfile.allowed_in_docker_document(doc, names) == set(profile.allowed)


@pytest.mark.parametrize("default", ["SCMP_ACT_ALLOW", "SCMP_ACT_LOG"])
def test_a_default_that_runs_allows_what_no_other_rule_names(default):
    names = {"ioctl", "read", "write"}
    doc = {"defaultAction": default, "syscalls": [
        {"names": ["ioctl"], "action": "SCMP_ACT_ERRNO"},
        {"names": ["write"], "action": "SCMP_ACT_LOG"}]}
    assert SeccompProfile.allowed_in_docker_document(doc, names) == {"read", "write"}
    # under a default that stops a call, only what a rule lets run
    doc["defaultAction"] = "SCMP_ACT_KILL"
    assert SeccompProfile.allowed_in_docker_document(doc, names) == {"write"}


def test_only_a_rule_without_args_stops_its_names():
    names = {"ioctl", "read", "write"}
    args = [{"index": 1, "value": 21505, "op": "SCMP_CMP_EQ"}]
    doc = {"defaultAction": "SCMP_ACT_ALLOW", "syscalls": [
        {"names": ["ioctl"], "action": "SCMP_ACT_ERRNO", "args": args},
        {"names": ["read"], "action": "SCMP_ACT_KILL", "args": []}]}
    assert SeccompProfile.allowed_in_docker_document(doc, names) == {"ioctl", "write"}
    # a rule that lets a call run counts with or without `args`
    doc["defaultAction"] = "SCMP_ACT_KILL"
    doc["syscalls"].append({"names": ["write"], "action": "SCMP_ACT_ALLOW", "args": args})
    assert SeccompProfile.allowed_in_docker_document(doc, names) == {"write"}
    doc["syscalls"][1]["args"] = "none"
    with pytest.raises(ParseError, match=r"^profile syscalls\[1\] args is not an array$"):
        SeccompProfile.allowed_in_docker_document(doc, names)


def test_a_profile_without_a_default_action_is_a_parse_error():
    with pytest.raises(ParseError, match="^profile defaultAction is missing$"):
        SeccompProfile.allowed_in_docker_document({}, {"read"})


DOCUMENT_PARSERS = {
    "mapping.json": ApiSyscallMapping.from_document,
    "sidecar.json": lambda doc: read_sidecar(doc, "suspicious_indirect"),
    "profile.json": lambda doc: SeccompProfile.allowed_in_docker_document(doc, {"read"}),
}


@pytest.mark.parametrize("name", DOCUMENT_PARSERS)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_json_document_parses_or_raises_parse_error(name, data):
    golden = json.loads((GOLDEN / name).read_text())
    doc = data.draw(JSON | _spliced(golden) | _spliced(golden).flatmap(_spliced))
    try:
        DOCUMENT_PARSERS[name](doc)
    except ParseError:
        pass


def test_mapping_matches_reachability_oracle():
    rng = random.Random(7)
    names = [f"sys{i}" for i in range(4)] + [None]  # None: a number not recovered
    for _ in range(40):
        n = rng.randint(3, 25)
        nodes = [f"n{i}" for i in range(n)]
        graph = CallGraph(nodes=set(nodes))
        pairs, direct_pairs = [], []
        for a in nodes:
            for b in nodes:
                if a != b and rng.random() < 0.08:
                    kind = DIRECT if rng.random() < 0.7 else INDIRECT
                    graph.edges.add(CallSite(a, b, kind))
                    pairs.append((a, b))
                    if kind == DIRECT:
                        direct_pairs.append((a, b))
        # a host holds one to three sites, and a name may have several hosts
        sites = [
            ResolvedSyscallSite(SyscallSite(h, 0), rng.choice(names))
            for h in nodes
            if rng.random() < 0.4
            for _ in range(rng.randint(1, 3))
        ]
        rng.shuffle(sites)
        apis = {f"api_{node}": node for node in rng.sample(nodes, 3)}
        mapping = build_mapping(graph, sites, apis)
        full = closure_floyd_warshall(nodes, pairs)
        donly = closure_floyd_warshall(nodes, direct_pairs)
        hosts = {name: sorted({s.site.function for s in sites if s.name == name})
                 for name in names[:-1]}
        assert mapping.hosts == {name: fns for name, fns in hosts.items() if fns}
        for api, node in apis.items():
            reached = [s for s in sites if s.site.function in full[node]]
            # tainted unless some host of the name is reached all-directly
            expected = {
                s.name: all(t.site.function not in donly[node]
                            for t in reached if t.name == s.name)
                for s in reached if s.name is not None
            }
            record = mapping.records[api]
            assert record.entry_function == node
            assert record.syscalls == expected
            assert record.unresolved_sites == sum(s.name is None for s in reached)


def test_load_trace_counts():
    assert load_trace(["read(3, ...)=5\nread(3, ...)=2\nwrite(1,...)\n"]) == {
        "read": 2, "write": 1}


def test_load_trace_empty_and_skip_lines():
    assert load_trace(["", "+++ exited +++\n--- SIGCHLD ---\n"]) == {}


def test_load_trace_merge_adds():
    assert load_trace(["read(3)\n", "read(4)\nclose(3)\n"]) == {"read": 2, "close": 1}


def test_trace_lines_are_split_at_newline_only():
    # \x0c, \r and \u2028 belong to their line, so no call starts after them
    assert load_trace(["read(0)\x0cwrite(1)\n", "read(0)\rclose(3)\u2028open(1)"]) == {"read": 2}


# line breaks of str.splitlines and of regex `^`, whitespace, and token characters
_TRACE_TEXTS = st.lists(st.text(alphabet="\n\r\x0c\x85\u2028 (a_0Z", max_size=30), max_size=4)


@settings(max_examples=300, deadline=None)
@example([""])
@example(["read(0)\nclose"])  # no final newline
@example(["\n\n\nread(0)\n", "\nopen(1)\n\n"])  # leading blank lines
@given(_TRACE_TEXTS)
def test_trace_counts_equal_the_line_by_line_reference(texts):
    assert load_trace(texts) == load_trace_reference(texts)


def _simple_mapping(entries, unresolved=0):
    doc = {"format": 4, "libraries": {}, "call_graph": {}, "hosts": {}, "apis": {}}
    for api, syscalls in entries.items():
        doc["apis"][api] = {
            "entry_function": api,
            "unresolved_sites": unresolved,
            "syscalls": [
                {"syscall": name, "tainted": tainted}
                for name, tainted in syscalls
            ],
        }
    return ApiSyscallMapping.from_document(doc)


def _blocked(profile, table):
    """The table entries that the profile's Docker document does not allow."""
    return table.names - SeccompProfile.allowed_in_docker_document(
        profile.to_docker_document(), table.names)


def test_profile_partition_sizes(seed_table):
    mapping = _simple_mapping({"read": [("read", False)], "write": [("write", False)]})
    profile = generate_profile(mapping, {"read", "write"}, set(), seed_table)
    assert len(profile.allowed) == 2
    assert set(profile.allowed) <= seed_table.names
    assert len(_blocked(profile, seed_table)) == 333


def test_profile_empty(seed_table):
    profile = generate_profile(_simple_mapping({}), set(), set(), seed_table)
    assert profile.allowed == []
    assert len(_blocked(profile, seed_table)) == 335


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
    with pytest.raises(AnalysisError, match=r"unknown API\(s\): nope"):
        generate_profile(_simple_mapping({}), {"nope"}, set(), seed_table)


def test_unresolved_sites_strict_vs_fallback(seed_table):
    mapping = _simple_mapping({"a": [("read", False)]}, unresolved=1)
    with pytest.raises(AnalysisError, match=r"unresolved syscall sites in API\(s\): a$"):
        generate_profile(mapping, {"a"}, set(), seed_table, strict=True)
    profile = generate_profile(mapping, {"a"}, set(), seed_table, strict=False)
    assert set(profile.allowed) == seed_table.names


def test_unresolved_target_site_strict_vs_fallback(seed_table):
    mapping = _simple_mapping({"a": [("read", True)]}, unresolved=1)
    embedded = ["close", None]  # None: a number that was not recovered
    with pytest.raises(AnalysisError, match=r"unresolved syscall sites in the target itself$"):
        generate_profile(mapping, set(), embedded, seed_table, strict=True)
    with pytest.raises(AnalysisError, match=r"in the target itself and API\(s\): a$"):
        generate_profile(mapping, {"a"}, embedded, seed_table, strict=True)
    profile = generate_profile(mapping, set(), embedded, seed_table, strict=False)
    assert set(profile.allowed) == seed_table.names
    assert profile.fallback == "unresolved syscall sites in the target itself"
    assert generate_profile(mapping, set(), ["close"], seed_table).fallback == ""


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
    resolved = resolve_sites(unit, seed_table)
    assert resolved[0].name is None
    mapping = build_mapping(graph, resolved, {"api": "api@@V_1"})
    assert mapping.records["api"].unresolved_sites == 1
    assert mapping.records["api"].syscalls == {}


def test_mapping_merges_sites_of_each_host():
    # h0 is reached only by an indirect call, h1 directly; h1 also holds
    # two sites whose numbers were not recovered
    graph = _graph(direct=[("api", "h1")], indirect=[("api", "h0")])
    sites = [_rsite("h0", "read"), _rsite("h0", "write"), _rsite("h1", "write"),
             _rsite("h1", "read"), _rsite("h1", None), _rsite("h1", None)]
    mapping = build_mapping(graph, sites, {"api": "api"})
    record = mapping.records["api"]
    assert record.syscalls == {"read": False, "write": False}
    assert mapping.hosts == {"read": ["h0", "h1"], "write": ["h0", "h1"]}
    assert record.unresolved_sites == 2
    only_indirect = build_mapping(graph, sites[:2], {"api": "api"}).records["api"]
    assert only_indirect.syscalls == {"read": True, "write": True}
