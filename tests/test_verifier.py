import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syscage.callgraph import enumerate_secure_paths, predecessors
from syscage.disasm import parse_disassembly
from syscage.errors import MalformedEvent, MalformedMapLine, RegionOverflow
from syscage.verifier import (
    ALLOW,
    CACHE_HIT,
    DENY,
    NO_PATH_MATCH,
    NOT_SUSPICIOUS,
    NOT_TARGET,
    PATH_MATCHED,
    RIP_OUT_OF_RANGE,
    RSP_OUT_OF_RANGE,
    UNKNOWN_SYSCALL,
    FunctionAddressTable,
    MemoryMap,
    Region,
    SyscallEvent,
    VerifierContext,
    format_verdict_log,
    is_subsequence,
    locate_functions,
    parse_event_line,
    parse_memory_map,
    reconstruct_path,
    run_event_trace,
    verify_event,
    walk_embeds,
)

from oracles import all_simple_paths_bruteforce, subsequence_bruteforce

BASE = 0x7F0000000000


def _memmap():
    return MemoryMap(
        libraries=[("lib", BASE, 0x10000)],
        stack=Region(0x7FFC00000000, 0x7FFC00100000),
        code_segment=Region(0x400000, 0x500000),
    )


def _table():
    memmap = _memmap()
    offsets = {
        "lib": [
            ("wrapper", 0x1000, 0x1010),
            ("B", 0x1010, 0x1020),
            ("A", 0x1020, 0x1030),
        ]
    }
    return locate_functions(memmap, offsets), memmap


def _event(name="open", tag="target", rip=BASE + 0x1005,
           rsp=0x7FFC00001000, stack=()):
    return SyscallEvent(tag, name, rip, rsp, tuple(stack))


def walk_sets(secure_paths):
    """VerifierContext's call_graph, entries and hosts from api-first secure
    paths per syscall: each path's edges, first node and last node."""
    graph, entries, hosts = {}, {}, {}
    for name, paths in secure_paths.items():
        for path in paths:
            entries.setdefault(name, set()).add(path[0])
            hosts.setdefault(name, set()).add(path[-1])
            for caller, callee in zip(path, path[1:]):
                graph.setdefault(caller, []).append(callee)
    return {"call_graph": graph, "entries": entries, "hosts": hosts}


def _ctx(table, memmap, suspicious=("open",), secure=None):
    return VerifierContext(
        target_tag="target",
        suspicious=set(suspicious),
        known_syscalls={"open", "read", "close"},
        **walk_sets(secure or {"open": [("A", "B", "wrapper")]}),
        table=table,
        memmap=memmap,
    )


def test_locate_functions_rebases():
    table, _ = _table()
    assert table.find(BASE + 0x1000) == "wrapper"
    assert table.find(BASE + 0x100F) == "wrapper"
    assert table.find(BASE + 0x1010) == "B"
    assert table.find(BASE + 0x0FFF) is None
    assert table.find(BASE + 0x1030) is None


def test_locate_functions_empty():
    table = locate_functions(_memmap(), {})
    assert table.entries == []
    assert table.find(BASE) is None


def test_locate_functions_overflow():
    with pytest.raises(RegionOverflow):
        locate_functions(_memmap(), {"lib": [("f", 0x0, 0x20000)]})


def test_reconstruct_hand_simulation():
    table, memmap = _table()
    event = _event(stack=[
        0xDEADBEEF,            # data, skipped
        BASE + 0x1015,         # return address inside B
        0x123456,              # data, skipped (below code segment)
        BASE + 0x1025,         # return address inside A
        0x400abc,              # code segment: stop
        BASE + 0x1018,         # must not be reached
    ])
    assert reconstruct_path(event, table, memmap) == ("wrapper", "B", "A")


def test_reconstruct_empty():
    table, memmap = _table()
    event = _event(rip=0x999, stack=[])
    assert reconstruct_path(event, table, memmap) == ()


def test_reconstruct_stops_at_first_code_word():
    table, memmap = _table()
    event = _event(stack=[0x400abc, BASE + 0x1015])
    assert reconstruct_path(event, table, memmap) == ("wrapper",)


def test_verify_not_target():
    table, memmap = _table()
    verdict = verify_event(_event(tag="other"), _ctx(table, memmap))
    assert (verdict.decision, verdict.reason) == (ALLOW, NOT_TARGET)


def test_verify_not_suspicious():
    table, memmap = _table()
    verdict = verify_event(_event(name="read"), _ctx(table, memmap))
    assert (verdict.decision, verdict.reason) == (ALLOW, NOT_SUSPICIOUS)


def test_verify_unknown_syscall():
    table, memmap = _table()
    for tag in ("target", "other"):
        verdict = verify_event(_event(name="frobnicate", tag=tag), _ctx(table, memmap))
        assert (verdict.decision, verdict.reason) == (DENY, UNKNOWN_SYSCALL)


def test_verify_path_match_then_cache_hit():
    table, memmap = _table()
    ctx = _ctx(table, memmap)
    event = _event(stack=[BASE + 0x1015, BASE + 0x1025, 0x400abc])
    first = verify_event(event, ctx)
    assert (first.decision, first.reason) == (ALLOW, PATH_MATCHED)
    assert first.reconstructed_path == ("wrapper", "B", "A")
    second = verify_event(event, ctx)
    assert (second.decision, second.reason) == (ALLOW, CACHE_HIT)


def test_verify_rsp_out_of_range():
    table, memmap = _table()
    verdict = verify_event(_event(rsp=0x600000000000), _ctx(table, memmap))
    assert (verdict.decision, verdict.reason) == (DENY, RSP_OUT_OF_RANGE)


def test_verify_rip_out_of_range():
    table, memmap = _table()
    verdict = verify_event(_event(rip=0x123), _ctx(table, memmap))
    assert (verdict.decision, verdict.reason) == (DENY, RIP_OUT_OF_RANGE)


def test_verify_rip_in_code_segment_is_ok():
    table, memmap = _table()
    verdict = verify_event(_event(rip=0x400abc, stack=[]), _ctx(table, memmap))
    assert (verdict.decision, verdict.reason) == (DENY, NO_PATH_MATCH)


def test_verify_no_path_match_does_not_cache():
    table, memmap = _table()
    ctx = _ctx(table, memmap)
    scrambled = _event(stack=[BASE + 0x1025, BASE + 0x1015])  # A before B
    verdict = verify_event(scrambled, ctx)
    assert (verdict.decision, verdict.reason) == (DENY, NO_PATH_MATCH)
    assert ctx.cache == set()
    again = verify_event(scrambled, ctx)
    assert again.reason == NO_PATH_MATCH


def test_subsequence_matches_interleaved_junk():
    table, memmap = _table()
    ctx = _ctx(table, memmap)
    event = _event(stack=[
        BASE + 0x1002,  # stale wrapper address interleaved
        BASE + 0x1015, BASE + 0x1012, BASE + 0x1025, 0x400abc,
    ])
    verdict = verify_event(event, ctx)
    assert verdict.reason == PATH_MATCHED


def test_subsequence_equivalence_with_bruteforce():
    rng = random.Random(11)
    alphabet = ["a", "b", "c", "d"]
    for _ in range(500):
        needle = tuple(rng.choices(alphabet, k=rng.randint(0, 4)))
        haystack = tuple(rng.choices(alphabet, k=rng.randint(0, 6)))
        assert is_subsequence(needle, haystack) == subsequence_bruteforce(
            needle, haystack
        )


def test_return_address_after_a_trailing_call_keeps_its_caller():
    # api ends in a call to host, which does not return: the return address
    # 0x100b + 5 lies past api's last instruction, at host's first byte
    unit = parse_disassembly(
        "0000000000001000 <api@@V_1>:\n"
        "    1000:\tpush\t%rbp\n"
        "    100b:\tcallq\t1010 <host>\n"
        "0000000000001010 <host>:\n"
        "    1010:\tmov\t$0x2,%eax\n"
        "    1015:\tsyscall\n"
    )
    memmap = _memmap()
    table = locate_functions(
        memmap, {"lib": [(f.canonical_name, f.start, f.end) for f in unit.functions]}
    )
    ctx = _ctx(table, memmap, secure={"open": [("api@@V_1", "host")]})
    verdict = verify_event(_event(rip=BASE + 0x1015, stack=[BASE + 0x100B + 5, 0x400abc]), ctx)
    assert (verdict.decision, verdict.reason) == (ALLOW, PATH_MATCHED)
    assert verdict.reconstructed_path == ("host", "api@@V_1")
    # the last function keeps its own end
    assert table.find(BASE + 0x1015) == "host"
    assert table.find(BASE + 0x1016) is None


def _reference_match(graph, entries, hosts, frames):
    """The matcher walk_embeds replaced: enumerate the secure paths from each
    entry to each host, then test each as a subsequence of the frames."""
    pred = predecessors(graph)
    return any(
        is_subsequence(path, frames)
        for api in entries for host in hosts
        for path in enumerate_secure_paths(graph, pred, api, host).paths
    )


@st.composite
def _walk_cases(draw):
    nodes = [f"f{i}" for i in range(draw(st.integers(1, 7)))]
    pairs = [(a, b) for a in nodes for b in nodes]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=20))
    entries = draw(st.sets(st.sampled_from(nodes), max_size=3))
    hosts = draw(st.sets(st.sampled_from(nodes), max_size=3))
    frames = draw(st.lists(st.sampled_from(nodes), max_size=9))
    return nodes, edges, entries, hosts, frames


@settings(max_examples=300, deadline=None)
@given(_walk_cases())
def test_walk_embeds_equals_bruteforce_and_path_enumeration(case):
    nodes, edges, entries, hosts, frames = case
    graph = {n: sorted(b for a, b in edges if a == n) for n in nodes}
    got = walk_embeds(frames, graph, entries, hosts)
    brute = any(
        subsequence_bruteforce(path, frames)
        for api in entries for host in hosts
        for path in all_simple_paths_bruteforce(nodes, edges, api, host)
    )
    assert got == brute
    assert got == _reference_match(graph, entries, hosts, frames)


def test_parse_memory_map_roundtrip():
    memmap = parse_memory_map(
        "lib libc 7f0000000000 10000\n"
        "stack 7ffc00000000 7ffc00100000\n"
        "code 400000 500000\n"
    )
    assert memmap.libraries == [("libc", BASE, 0x10000)]
    assert 0x400abc in memmap.code_segment


def test_parse_memory_map_errors():
    with pytest.raises(MalformedMapLine):
        parse_memory_map("stack 1 2\n")  # no code region
    with pytest.raises(MalformedMapLine):
        parse_memory_map("bogus line\nstack 1 2\ncode 3 4\n")
    with pytest.raises(MalformedMapLine):
        parse_memory_map("stack 1000 2000\ncode 1800 2800\n")  # overlap
    with pytest.raises(MalformedMapLine):
        parse_memory_map("stack 2000 1000\ncode 3000 4000\n")  # empty region


def test_parse_event_line():
    event = parse_event_line(
        "target open rip=7f0000001005 rsp=7ffc00001000 stack=1,2,3"
    )
    assert event.process_tag == "target"
    assert event.syscall_name == "open"
    assert event.stack_words == (1, 2, 3)


def test_parse_event_line_empty_stack():
    event = parse_event_line("t read rip=1 rsp=2 stack=")
    assert event.stack_words == ()


def test_parse_event_scan_limit():
    line = "t read rip=1 rsp=2 stack=" + ",".join(["1"] * 20)
    assert len(parse_event_line(line, scan_limit=5).stack_words) == 5


def test_parse_event_malformed():
    with pytest.raises(MalformedEvent):
        parse_event_line("nonsense")
    with pytest.raises(MalformedEvent):
        parse_event_line("t read rip=zz rsp=2 stack=")


def test_run_event_trace_empty():
    table, memmap = _table()
    verdicts, summary = run_event_trace("", _ctx(table, memmap))
    assert verdicts == [] and summary == {}


def test_run_event_trace_composition():
    table, memmap = _table()
    ctx = _ctx(table, memmap)
    text = (
        f"other open rip={BASE + 0x1005:x} rsp=7ffc00001000 stack=\n"
        f"target open rip={BASE + 0x1005:x} rsp=7ffc00001000 "
        f"stack={BASE + 0x1015:x},{BASE + 0x1025:x},400abc\n"
        f"target open rip={BASE + 0x1005:x} rsp=7ffc00001000 stack=\n"
    )
    verdicts, summary = run_event_trace(text, ctx)
    assert [v.reason for v in verdicts] == [NOT_TARGET, PATH_MATCHED, CACHE_HIT]
    assert summary == {NOT_TARGET: 1, PATH_MATCHED: 1, CACHE_HIT: 1}


def test_run_event_trace_malformed_line_number():
    table, memmap = _table()
    text = "t open rip=1 rsp=2 stack=\nbad hex line\n"
    with pytest.raises(MalformedEvent, match="line 2"):
        run_event_trace(text, _ctx(table, memmap))


def test_format_verdict_log():
    table, memmap = _table()
    ctx = _ctx(table, memmap)
    event = _event(stack=[BASE + 0x1015, BASE + 0x1025, 0x400abc])
    verdicts = [verify_event(event, ctx)]
    assert format_verdict_log(verdicts) == "0 Allow PathMatched path=wrapper,B,A\n"
    assert format_verdict_log([]) == ""


def test_determinism():
    table, memmap = _table()
    event = _event(stack=[BASE + 0x1015, 0xDEAD, BASE + 0x1025])
    paths = {reconstruct_path(event, table, memmap) for _ in range(5)}
    assert len(paths) == 1


def test_reason_decision_invariant():
    table, memmap = _table()
    ctx = _ctx(table, memmap)
    events = [
        _event(tag="other"),
        _event(name="read"),
        _event(rsp=0x1),
        _event(rip=0x1),
        _event(stack=[BASE + 0x1015, BASE + 0x1025]),
        _event(stack=[]),
    ]
    deny_reasons = {RSP_OUT_OF_RANGE, RIP_OUT_OF_RANGE, NO_PATH_MATCH}
    for event in events:
        verdict = verify_event(event, ctx)
        assert (verdict.decision == DENY) == (verdict.reason in deny_reasons)
