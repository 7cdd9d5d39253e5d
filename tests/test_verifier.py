import dataclasses
import json
import random
import re
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import syscage.verifier as vf
from syscage.callgraph import CallGraph
from syscage.disasm import DIRECT, INDIRECT, CallSite, SyscallSite, header_extents
from syscage.errors import AnalysisError, ParseError
from syscage.profilegen import ApiSyscallMapping, build_mapping
from syscage.sysnum import ResolvedSyscallSite
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
    SCAN_LIMIT,
    UNKNOWN_SYSCALL,
    FunctionAddressTable,
    MemoryMap,
    SyscallEvent,
    VerifierContext,
    format_verdict_log,
    locate_functions,
    parse_event_line,
    parse_memory_map,
    reconstruct_path,
    run_event_trace,
    verify_event,
    walk_embeds,
)

from oracles import (
    all_simple_paths_bruteforce,
    closure_floyd_warshall,
    enumerate_secure_paths,
    is_subsequence,
    parse_event_reference,
    predecessors,
    replay_reference,
    subsequence_bruteforce,
)

BASE = 0x7F0000000000
DATA = Path(__file__).parent / "data"


def _memmap():
    return MemoryMap(
        libraries=[("lib", range(BASE, BASE + 0x10000))],
        stack=range(0x7FFC00000000, 0x7FFC00100000),
        code_segment=range(0x400000, 0x500000),
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


def _event(name="open", rip=BASE + 0x1005, rsp=0x7FFC00001000, stack=()):
    return SyscallEvent(name, rip, rsp, tuple(stack))


def _line(name="open", tag="target", rip=BASE + 0x1005, rsp=0x7FFC00001000, stack=()):
    """The event line of `_event`'s event, from process `tag`."""
    return f"{tag} {name} rip={rip:x} rsp={rsp:x} stack={','.join(f'{w:x}' for w in stack)}"


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


def test_locate_functions_keeps_every_end():
    # the extents are rebased as they are: a gap after a function stays one
    offsets = {"lib": [("g", 0x20, 0x30), ("f", 0x10, 0x18)]}
    table = locate_functions(_memmap(), offsets)
    assert (table.names, table.ends) == (["f", "g"], [BASE + 0x18, BASE + 0x30])
    assert table.find(BASE + 0x17) == "f"
    assert table.find(BASE + 0x18) is None


def test_locate_functions_empty():
    table = locate_functions(_memmap(), {})
    assert (table.names, table.starts, table.ends) == ([], [], [])
    assert table.find(BASE) is None


def test_locate_functions_overflow():
    with pytest.raises(AnalysisError, match=r"function f \[0x0,0x20000\) exceeds the size "
                       "0x10000 that the memory map gives library lib"):
        locate_functions(_memmap(), {"lib": [("f", 0x0, 0x20000)]})


def _path(event, table, memmap):
    return reconstruct_path(event, table, memmap, table.find(event.rip))


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
    assert _path(event, table, memmap) == ("wrapper", "B", "A")


def test_reconstruct_empty():
    table, memmap = _table()
    event = _event(rip=0x999, stack=[])
    assert _path(event, table, memmap) == ()


def test_reconstruct_stops_at_first_code_word():
    table, memmap = _table()
    event = _event(stack=[0x400abc, BASE + 0x1015])
    assert _path(event, table, memmap) == ("wrapper",)


def _reconstruct_reference(event, table, memmap):
    """reconstruct_path written with FunctionAddressTable.find and `in`."""
    rip_fn = table.find(event.rip)
    path = [] if rip_fn is None else [rip_fn]
    for word in event.stack_words:
        fn = table.find(word - 1)
        if fn is not None:
            path.append(fn)
        elif word in memmap.code_segment:
            break
    return tuple(path)


def _extents(draw, library, size):
    """Up to four extents in a library of `size` bytes, in address order,
    each ending at or below the next one's start, as `header_extents` gives
    them, but maybe short of it."""
    starts = sorted(draw(st.sets(st.integers(0, size - 1), max_size=4)))
    return [(f"{library}.f{i}", start, draw(st.integers(start + 1, stop)))
            for i, (start, stop) in enumerate(zip(starts, starts[1:] + [size]))]


@st.composite
def _scan_cases(draw):
    """Two adjacent libraries of random functions that do not overlap, a
    code segment that starts right at the second library's end or lies below
    the first, and stack words drawn mostly from the boundaries: function
    starts and ends, the code segment's ends and 0."""
    base = first = draw(st.integers(1, 16)) * 0x100
    libraries, offsets = [], {}
    for name in ("liba", "libb"):
        size = draw(st.integers(1, 0x40))
        offsets[name] = _extents(draw, name, size)
        libraries.append((name, range(base, base + size)))
        base += size
    if draw(st.booleans()):
        code = range(base, base + draw(st.integers(1, 0x20)))
    else:
        code_lo = draw(st.integers(0, first - 1))
        code = range(code_lo, draw(st.integers(code_lo + 1, first)))
    memmap = MemoryMap(libraries, range(0x10000, 0x20000), code)
    table = locate_functions(memmap, offsets)
    bounds = [0, 1, code.start - 1, code.start, code.start + 1, code.stop - 1, code.stop]
    for start, end in zip(table.starts, table.ends):
        bounds += [start, start + 1, end - 1, end, end + 1]
    word = st.sampled_from(bounds) | st.integers(0, base + 0x40)
    event = _event(rip=draw(word), stack=draw(st.lists(word, max_size=10)))
    return event, table, memmap


@settings(max_examples=200, deadline=None)
@given(_scan_cases())
def test_reconstruct_equals_find_and_region_reference(case):
    event, table, memmap = case
    assert _path(event, table, memmap) == _reconstruct_reference(*case)


@st.composite
def _gapped_cases(draw):
    """Two to four libraries with gaps between them, each with up to four
    functions that do not overlap, or an empty table; a code segment
    anywhere; and stack words drawn mostly from the boundaries: each
    function's start and end, the span's ends `lo` and `hi`, and the code
    segment's."""
    base = draw(st.integers(1, 16)) * 0x100
    libraries, offsets = [], {}
    for k in range(draw(st.integers(2, 4))):
        base += draw(st.integers(1, 0x40))  # the gap before the library
        size = draw(st.integers(1, 0x40))
        offsets[f"lib{k}"] = _extents(draw, f"lib{k}", size)
        libraries.append((f"lib{k}", range(base, base + size)))
        base += size
    if draw(st.integers(0, 4)) == 0:
        offsets = {}
    code_lo = draw(st.integers(0, base + 0x40))
    code = range(code_lo, code_lo + draw(st.integers(1, 0x40)))
    memmap = MemoryMap(libraries, range(0x10000, 0x20000), code)
    table = locate_functions(memmap, offsets)
    bounds = [0, table.lo - 1, table.lo, table.lo + 1, table.hi - 1, table.hi, table.hi + 1,
              code.start, code.start + 1, code.stop - 1]
    for start, end in zip(table.starts, table.ends):
        bounds += [start, end, end + 1]
    word = st.sampled_from(bounds) | st.integers(0, base + 0x40)
    event = _event(rip=draw(word), stack=draw(st.lists(word, max_size=12)))
    return event, table, memmap, bounds


@settings(max_examples=300, deadline=None)
@given(_gapped_cases())
def test_flat_table_walk_equals_find_of_every_word(case):
    """The span test skips the bisect only for words that no function
    holds: the walk equals one that looks every word up with `find`, and
    `find` equals a scan of every extent."""
    event, table, memmap, bounds = case
    assert _path(event, table, memmap) == _reconstruct_reference(event, table, memmap)
    extents = list(zip(table.names, table.starts, table.ends))
    for addr in bounds:
        assert table.find(addr) == next(
            (name for name, start, end in extents if start <= addr < end), None)


def _replay(text, ctx):
    """The verdicts of `run_event_trace` on `text`, which the reference
    ladder gives too, with the same counts and final cache, on a copy of
    `ctx`."""
    reference = dataclasses.replace(ctx, cache=set(ctx.cache))
    verdicts, counts = run_event_trace(text, ctx)
    assert (verdicts, counts) == replay_reference(text, reference)
    assert ctx.cache == reference.cache
    return verdicts


def test_verify_not_target():
    table, memmap = _table()
    [verdict] = _replay(_line(tag="other"), _ctx(table, memmap))
    assert (verdict.decision, verdict.reason) == (ALLOW, NOT_TARGET)


def test_verify_not_suspicious():
    table, memmap = _table()
    [verdict] = _replay(_line(name="read"), _ctx(table, memmap))
    assert (verdict.decision, verdict.reason) == (ALLOW, NOT_SUSPICIOUS)


def test_verify_unknown_syscall():
    table, memmap = _table()
    for tag in ("target", "other"):
        [verdict] = _replay(_line(name="frobnicate", tag=tag), _ctx(table, memmap))
        assert (verdict.decision, verdict.reason) == (DENY, UNKNOWN_SYSCALL)


def test_verify_path_match_then_cache_hit():
    table, memmap = _table()
    line = _line(stack=[BASE + 0x1015, BASE + 0x1025, 0x400abc])
    first, second = _replay(f"{line}\n{line}\n", _ctx(table, memmap))
    assert (first.decision, first.reason) == (ALLOW, PATH_MATCHED)
    assert first.reconstructed_path == ("wrapper", "B", "A")
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
    extents = header_extents(
        "0000000000001000 <api@@V_1>:\n"
        "    1000:\tpush\t%rbp\n"
        "    100b:\tcallq\t1010 <host>\n"
        "0000000000001010 <host>:\n"
        "    1010:\tmov\t$0x2,%eax\n"
        "    1015:\tsyscall\n"
    )
    memmap = _memmap()
    table = locate_functions(memmap, {"lib": extents})
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


@st.composite
def _mapping_cases(draw):
    """A small call graph with direct and indirect edges, syscall sites
    whose names are recovered or not, some exported APIs, and frame lists."""
    nodes = [f"f{i}" for i in range(draw(st.integers(1, 7)))]
    pairs = [(a, b) for a in nodes for b in nodes]
    kinds = st.sampled_from([DIRECT, INDIRECT])
    edges = draw(st.lists(st.tuples(st.sampled_from(pairs), kinds),
                          unique_by=lambda e: e[0], max_size=15))
    sites = draw(st.lists(st.tuples(st.sampled_from(nodes),
                                    st.sampled_from(["read", "open", None])), max_size=8))
    apis = draw(st.sets(st.sampled_from(nodes), min_size=1, max_size=3))
    frames = draw(st.lists(st.lists(st.sampled_from(nodes), max_size=8), min_size=1, max_size=4))
    return nodes, edges, sites, apis, frames


def _format_2_ends(nodes, edges, sites, apis):
    """The walk ends of format 2, where each API's record listed the hosts it
    reaches: per syscall, the entry functions of the APIs that reach a host
    of it, and the union of the hosts each of them reaches."""
    closure = closure_floyd_warshall(nodes, [pair for pair, _ in edges])
    entries, hosts = {}, {}
    for api in apis:
        for host, name in sites:
            if name is not None and host in closure[api]:
                entries.setdefault(name, set()).add(api)
                hosts.setdefault(name, set()).add(host)
    return entries, hosts


@settings(max_examples=300, deadline=None)
@given(_mapping_cases())
def test_walk_ends_match_like_format_2_ends(case):
    nodes, edges, sites, apis, frame_lists = case
    graph = CallGraph(nodes=set(nodes), edges={
        CallSite(a, b, kind) for (a, b), kind in edges})
    mapping = build_mapping(graph, [ResolvedSyscallSite(SyscallSite(host, 0), name)
                                    for host, name in sites], {api: api for api in apis})
    entries, hosts = mapping.walk_ends()
    old_entries, old_hosts = _format_2_ends(nodes, edges, sites, apis)
    assert entries == old_entries
    for frames in frame_lists:
        for name in entries:
            assert walk_embeds(frames, mapping.call_graph, entries[name], hosts[name]) == \
                walk_embeds(frames, mapping.call_graph, entries[name], old_hosts[name])


def test_parse_memory_map_roundtrip():
    memmap = parse_memory_map(
        "lib libc 7f0000000000 10000\n"
        "stack 7ffc00000000 7ffc00100000\n"
        "code 400000 500000\n"
    )
    assert memmap.libraries == [("libc", range(BASE, BASE + 0x10000))]
    assert memmap.stack == range(0x7FFC00000000, 0x7FFC00100000)
    assert 0x400abc in memmap.code_segment


def test_memory_map_library_past_sys_maxsize():
    # a size of 20 hex digits: len() of its range would raise OverflowError
    memmap = parse_memory_map("lib minilib 7f0000000000 ffffffffffffffffffff\n"
                              "stack 1000 2000\ncode 3000 4000\n")
    [(name, region)] = memmap.libraries
    assert (name, region.start, region.stop - region.start) == \
        ("minilib", BASE, 0xFFFFFFFFFFFFFFFFFFFF)
    table = locate_functions(memmap, {"minilib": [("f", 0x10, 0x20)]})
    assert table.find(BASE + 0x10) == "f"
    assert table.find(BASE + 0x20) is None


def test_parse_memory_map_errors():
    with pytest.raises(ParseError, match="needs both a stack and a code region"):
        parse_memory_map("stack 1 2\n")  # no code region
    with pytest.raises(ParseError, match="line 1: bad memory map line 'bogus line'"):
        parse_memory_map("bogus line\nstack 1 2\ncode 3 4\n")
    with pytest.raises(ParseError, match=r"\[0x1000,0x2000\) and \[0x1800,0x2800\) overlap"):
        parse_memory_map("stack 1000 2000\ncode 1800 2800\n")  # overlap
    with pytest.raises(ParseError, match=r"empty region \[0x2000,0x1000\)"):
        parse_memory_map("stack 2000 1000\ncode 3000 4000\n")  # empty region
    # addresses are lowercase hex with an optional 0x, as in events
    for line in ("lib a -1000 800", "stack 1_0 2_0", "code +0X30 40"):
        with pytest.raises(ParseError, match=re.escape(f"line 2: bad memory map line '{line}'")):
            parse_memory_map(f"# layout\n{line}\nstack 0x1000 2000\ncode 3000 4000\n")
    # a repeated region is an error, not "the last one wins"; two libraries
    # of one name would place each of its functions at both bases
    layout = "lib a 7000 1000\nstack 1000 2000\ncode 3000 4000\n"
    for key in ("stack", "code", "lib a"):
        line = f"{key} 5000 1000"
        with pytest.raises(ParseError, match=re.escape(f"line 4: a second {key} line '{line}'")):
            parse_memory_map(f"{layout}{line}\n")
    memmap = parse_memory_map(f"lib b 5000 1000\n{layout}")
    assert [name for name, _ in memmap.libraries] == ["b", "a"]


def test_memory_map_lines_are_numbered_by_newline():
    # a stray \x0c or \r inside a line is whitespace that separates fields;
    # `line N` is the text's N-th `\n`-separated line
    memmap = parse_memory_map("stack\x0c1000 2000\r\ncode 3000\r4000\x0c\n")
    assert (memmap.stack, memmap.code_segment) == (range(0x1000, 0x2000), range(0x3000, 0x4000))
    with pytest.raises(ParseError, match="^line 2: bad memory map line 'bogus'$"):
        parse_memory_map("stack 1000 2000\x0c\nbogus\ncode 3000 4000\n")


# the steps of the verdict ladder that read no stack word, each with the
# reason of its verdict, and "walks" for a line whose stack walk may follow
_STEPS = {"walks": None, "unknown": UNKNOWN_SYSCALL, "not target": NOT_TARGET,
          "not suspicious": NOT_SUSPICIOUS, "cached": CACHE_HIT}


def _step_ctx(line, step):
    """A context in which the event of `line` gets past UnknownSyscall,
    NotTarget, NotSuspicious and CacheHit ("walks"), or stops at the named
    step."""
    tag, name = (line.split() + ["", ""])[:2]
    table, memmap = _table()
    ctx = _ctx(table, memmap, suspicious=() if step == "not suspicious" else (name,))
    ctx.known_syscalls = set() if step == "unknown" else {name}
    ctx.target_tag = tag + "!" if step == "not target" else tag
    if step == "cached":
        ctx.cache.add(name)
    return ctx


def _replayed(line, step):
    """What `run_event_trace` makes of `line`, stripped, under a context of
    `step`: the event that it parses and hands `verify_event`, the reason of
    its verdict when it parses none, None for a blank line, or the
    ParseError's message without its `line 1: `.  A trace splits lines at
    `\n`, so a `line` with one inside is several lines, and is reported as
    such."""
    line = line.strip()
    if "\n" in line:
        return "several lines"
    with (mock.patch.object(vf, "parse_event_line", wraps=parse_event_line) as parse,
          mock.patch.object(vf, "verify_event", wraps=verify_event) as check):
        try:
            verdicts, _ = run_event_trace(line, _step_ctx(line, step))
        except ParseError as exc:
            return str(exc).removeprefix("line 1: ")
    if not verdicts:
        return None
    (verdict,) = verdicts
    events = [call.args[0] for call in check.call_args_list]
    assert parse.call_count == len(events) <= 1
    return events[0] if events else verdict.reason


def test_parse_event_line():
    line = "target open rip=7f0000001005 rsp=7ffc00001000 stack=1,2,3"
    event = _replayed(line, "walks")
    assert event.syscall_name == "open"
    assert (event.rip, event.rsp) == (0x7F0000001005, 0x7FFC00001000)
    assert event.stack_words == (1, 2, 3)
    for step, reason in _STEPS.items():  # no event is parsed for these steps
        if reason:
            assert _replayed(line, step) == reason


def test_parse_event_line_empty_stack():
    assert _replayed("t read rip=1 rsp=2 stack=", "walks").stack_words == ()


def test_parse_event_scan_limit():
    words = range(1, SCAN_LIMIT + 2)
    line = "t read rip=1 rsp=2 stack=" + ",".join(f"{w:x}" for w in words)
    assert _replayed(line, "walks").stack_words == tuple(words[:SCAN_LIMIT])


def test_parse_event_malformed():
    for step in _STEPS:
        assert _replayed("nonsense", step) == "bad event line 'nonsense'"
        assert _replayed("t read rip=zz rsp=2 stack=", step) == \
            "bad event line 't read rip=zz rsp=2 stack='"
        # a malformed address rejects the line, wherever it stands, also
        # when no verdict would read it
        for rip, rsp in (("x", "2"), ("0x0x1", "2"), ("1", "1x"), ("1", "0x")):
            line = f"t read rip={rip} rsp={rsp} stack="
            assert _replayed(line, step) == f"bad address in event line {line!r}"
        for stack in ("1,0x0x1", "1,x", "00x1", "0x1,2,0x"):
            line = f"t read rip=1 rsp=2 stack={stack}"
            assert _replayed(line, step) == f"bad address in event line {line!r}"


def test_line_break_characters_do_not_separate_fields():
    # a line holding one between fields is rejected alone, and as the same
    # whole line in a trace, which splits lines at `\n` only
    table, memmap = _table()
    for sep in ("\x0b", "\x85", "\x0c", "\r", "\u2028"):
        line = f"target open{sep}rip=1 rsp=2 stack="
        for step in _STEPS:
            assert _replayed(line, step) == f"bad event line {line!r}"
        with pytest.raises(ParseError, match=f"^line 2: bad event line {re.escape(repr(line))}$"):
            run_event_trace(f"target read rip=1 rsp=2 stack=\n{line}\n", _ctx(table, memmap))


def test_event_lines_are_numbered_by_newline():
    # a stray \x0c or \r at either end of a line is stripped with the other
    # whitespace, so `\r\n` ends a line too; `line N` is the text's N-th line
    table, memmap = _table()
    verdicts, _ = run_event_trace("other read rip=1 rsp=2 stack=1\x0c\r\n"
                                  "\r\x0cother read rip=1 rsp=2 stack=\r\n", _ctx(table, memmap))
    assert len(verdicts) == 2
    with pytest.raises(ParseError, match="^line 2: bad event line 'bad'$"):
        run_event_trace("other read rip=1 rsp=2 stack=1\x0c\nbad\n", _ctx(table, memmap))


EVENT_LINES = (DATA / "events.txt").read_text().splitlines()
# pieces of event lines, so mutated lines often still parse
_EVENT_PIECE = st.sampled_from([
    " ", "\t", ",", "=", "0", "1", "f", "x", "0x", "X", "_", "-", "+",
    "rip=", "rsp=", "stack=", "target", "open",
]) | st.text(max_size=2)
_WORD_PIECE = st.text("0123456789abcdefx,", max_size=4) | st.sampled_from(["x", "0x", "00x"])


def _replace_run(draw, text, pieces, lo=0):
    """`text` with a run of up to three characters, at `lo` or later,
    replaced by one of `pieces`."""
    i = draw(st.integers(max(0, lo), len(text)))
    j = draw(st.integers(i, min(len(text), i + 3)))
    return text[:i] + draw(pieces) + text[j:]


@st.composite
def _mutated_event_line(draw):
    """A line of the fixture events with up to three short runs of
    characters replaced by event-line pieces, or, for half of the lines, runs
    of the stack words replaced by address characters, so that many lines
    break only in one word."""
    line = draw(st.sampled_from(EVENT_LINES))
    in_stack = draw(st.booleans())
    for _ in range(draw(st.integers(1, 3))):
        if in_stack:
            line = _replace_run(draw, line, _WORD_PIECE, line.find("stack=") + 6)
        else:
            line = _replace_run(draw, line, _EVENT_PIECE)
    return line


@settings(max_examples=400, deadline=None)
@given(line=st.text() | _mutated_event_line())
def test_parse_event_line_equals_reference(line):
    """Every context accepts or rejects the same lines, with the same
    message; only a walking one parses the event, into the reference's, and
    every other gives the verdict of its step."""
    expected = parse_event_reference(line, SCAN_LIMIT)
    got = {step: _replayed(line, step) for step in _STEPS}
    if not line.strip():  # a blank line, which a trace skips
        assert set(got.values()) == {None}
        return
    if expected is None:
        assert all(isinstance(message, str) for message in got.values())
        assert len(set(got.values())) == 1
        return
    for step, reason in _STEPS.items():
        assert got[step] == (reason or SyscallEvent(*expected[1:]))


MEMMAP_LINES = (DATA / "memmap.txt").read_text().splitlines()
_MEMMAP_PIECE = st.sampled_from([
    " ", "\t", "#", "0", "1", "f", "x", "0x", "_", "-", "lib", "stack", "code",
    "400000", "7ffc00000000",
]) | st.text(max_size=2)


@st.composite
def _mutated_memmap(draw):
    """The fixture memory map with up to three lines dropped, repeated or
    changed by a short run of characters replaced by memory-map pieces."""
    lines = list(MEMMAP_LINES)
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        k = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["drop", "repeat", "edit"]))
        if op == "drop":
            del lines[k]
        elif op == "repeat":
            lines.insert(k, lines[k])
        else:
            lines[k] = _replace_run(draw, lines[k], _MEMMAP_PIECE)
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(text=st.text() | _mutated_memmap())
def test_parse_memory_map_parses_or_raises_parse_error(text):
    try:
        memmap = parse_memory_map(text)
    except ParseError:
        return
    assert memmap.stack.start < memmap.stack.stop
    assert memmap.code_segment.start < memmap.code_segment.stop


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
    with pytest.raises(ParseError, match="line 2: bad event line 'bad hex line'"):
        run_event_trace(text, _ctx(table, memmap))
    # events that read no stack word, whose addresses are still all checked:
    # a NotTarget event with a bad stack word or a bad rip, and a CacheHit
    # event whose 600th stack word, past the SCAN_LIMIT, is bad
    for line in ("other open rip=1 rsp=2 stack=1,0x0x1", "other open rip=0x0x1 rsp=2 stack=1",
                 "target open rip=1 rsp=2 stack=" + "1," * 599 + "0x0x1"):
        ctx = _ctx(table, memmap)
        ctx.cache.add("open")
        with pytest.raises(ParseError,
                           match=f"^line 3: bad address in event line {re.escape(repr(line))}$"):
            run_event_trace(f"t open rip=1 rsp=2 stack=\n\n{line}\n", ctx)


def test_bad_lines_are_rejected_in_linear_time():
    # a pattern that backtracks over a run, or fails at a position and is
    # tried again at the next, takes time quadratic in the run
    table, memmap = _table()
    for run in (" " * 100_000, "\t" * 100_000, " \t" * 50_000):
        for line in (f"a{run}b", f"target open rip=1 rsp=2{run}stack=1,2@"):
            _assert_rejected_quickly(f"other read rip=1 rsp=2 stack=\n{line}\n",
                                     f"line 2: bad event line {line!r}", _ctx(table, memmap))
    tag = "t" * 1_000_000
    for line in (tag, f"{tag} open rip=1 rsp=2 stack=1@", f"{tag}\x0bopen rip=1 rsp=2 stack="):
        _assert_rejected_quickly(f"\n{line}", f"line 2: bad event line {line!r}",
                                 _ctx(table, memmap))
    line = "target open rip=1 rsp=2 stack=" + "," * 200_000 + "@"
    _assert_rejected_quickly(f"{line}\n", f"line 1: bad event line {line!r}", _ctx(table, memmap))


def _assert_rejected_quickly(text, message, ctx):
    started = time.perf_counter()
    with pytest.raises(ParseError) as exc:
        run_event_trace(text, ctx)
    assert time.perf_counter() - started < 0.5
    assert str(exc.value) == message


_READS_NO_WORD = {UNKNOWN_SYSCALL, NOT_TARGET, NOT_SUSPICIOUS, CACHE_HIT}


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(st.sampled_from(EVENT_LINES) | _mutated_event_line(), max_size=12),
       target=st.sampled_from(["target", "other", "t"]),
       suspicious=st.sets(st.sampled_from(["open", "read", "ioctl", "close"])),
       cached=st.sets(st.sampled_from(["open", "read", "ioctl"])))
def test_replay_parses_and_checks_only_lines_that_may_walk(seed_table, lines, target,
                                                           suspicious, cached):
    """Replaying gives the verdicts, counts and final cache of the
    reference ladder, and parses and checks with `verify_event` exactly the
    lines whose reference verdict is none of the four that read no stack
    word, handing each its reference event."""
    lines = [line for line in lines  # valid, and one line of a trace
             if parse_event_reference(line, SCAN_LIMIT) and line.splitlines() == [line]]
    memmap = parse_memory_map((DATA / "memmap.txt").read_text())
    table = locate_functions(
        memmap, {"minilib": header_extents((DATA / "minilib.sdis").read_text())})
    mapping = ApiSyscallMapping.from_document(
        json.loads((DATA / "golden" / "mapping.json").read_text()))
    entries, hosts = mapping.walk_ends()

    def context():
        return VerifierContext(target, set(suspicious), seed_table.names, mapping.call_graph,
                               entries, hosts, table, memmap, cache=set(cached))

    text = "\n".join(lines)
    reference = context()
    expected, expected_counts = replay_reference(text, reference)
    events = [SyscallEvent(*parse_event_reference(line, SCAN_LIMIT)[1:]) for line in lines]
    ctx = context()
    with (mock.patch.object(vf, "parse_event_line", wraps=parse_event_line) as parse,
          mock.patch.object(vf, "verify_event", wraps=verify_event) as check):
        verdicts, counts = run_event_trace(text, ctx)
    assert verdicts == expected
    assert counts == expected_counts
    assert ctx.cache == reference.cache
    walks = [i for i, want in enumerate(expected) if want.reason not in _READS_NO_WORD]
    fields = [line.split() for line in lines]
    assert [call.args for call in parse.call_args_list] == [
        (fields[i][1], fields[i][2][4:], fields[i][3][4:], fields[i][4][6:]) for i in walks]
    assert [call.args[0] for call in check.call_args_list] == [events[i] for i in walks]


# whitespace that str.strip removes and a `\n` split leaves inside a line
_SPACE = st.sampled_from(["", " ", "\t", "\r", "\x0b", "\x0c", "\x85", "\u2028", " \x0c\r"])


@st.composite
def _trace_line(draw):
    """A fixture, mutated, random or blank line, with whitespace around it
    or, now and then, put in its middle."""
    line = draw(st.sampled_from(EVENT_LINES) | _mutated_event_line() | _SPACE
                | st.text(max_size=8))
    if line and draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, len(line)))
        line = line[:i] + draw(_SPACE) + line[i:]
    return draw(_SPACE) + line + draw(_SPACE)


@st.composite
def _trace_text(draw):
    """Lines ended by `\n` or `\r\n`, the last one maybe by nothing."""
    lines = draw(st.lists(_trace_line(), max_size=10))
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)
    if text and draw(st.booleans()):
        text = text.rstrip("\n")
    return text


@settings(max_examples=300, deadline=None)
@given(text=_trace_text(), target=st.sampled_from(["target", "other"]),
       suspicious=st.sets(st.sampled_from(["open", "read", "ioctl", "close"])),
       cached=st.sets(st.sampled_from(["open", "read"])))
def test_run_event_trace_equals_line_by_line_replay(seed_table, text, target, suspicious,
                                                    cached):
    """The one scan of the whole text gives the verdicts, counts and final
    cache of a replay line by line, or the same ParseError at the same line."""
    memmap = parse_memory_map((DATA / "memmap.txt").read_text())
    table = locate_functions(
        memmap, {"minilib": header_extents((DATA / "minilib.sdis").read_text())})
    mapping = ApiSyscallMapping.from_document(
        json.loads((DATA / "golden" / "mapping.json").read_text()))
    entries, hosts = mapping.walk_ends()

    def context():
        return VerifierContext(target, set(suspicious), seed_table.names, mapping.call_graph,
                               entries, hosts, table, memmap, cache=set(cached))

    reference = context()
    expected = replay_reference(text, reference)
    ctx = context()
    try:
        got = run_event_trace(text, ctx)
    except ParseError as exc:
        got = str(exc)
    assert got == expected
    if not isinstance(expected, str):
        assert ctx.cache == reference.cache


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
    paths = {_path(event, table, memmap) for _ in range(5)}
    assert len(paths) == 1


def test_reason_decision_invariant():
    """A Deny has one of the four reasons that deny, an Allow one of the
    others; one trace gives all eight."""
    table, memmap = _table()
    walked = _line(stack=[BASE + 0x1015, BASE + 0x1025, 0x400abc])
    lines = [
        _line(name="frobnicate"),  # UnknownSyscall
        _line(tag="other"),  # NotTarget
        _line(name="read"),  # NotSuspicious
        _line(rsp=0x1),  # RspOutOfRange
        _line(rip=0x1),  # RipOutOfRange
        _line(),  # NoPathMatch: the frames are wrapper alone
        walked,  # PathMatched
        walked,  # CacheHit
    ]
    verdicts = _replay("\n".join(lines), _ctx(table, memmap))
    deny_reasons = {UNKNOWN_SYSCALL, RSP_OUT_OF_RANGE, RIP_OUT_OF_RANGE, NO_PATH_MATCH}
    for verdict in verdicts:
        assert (verdict.decision == DENY) == (verdict.reason in deny_reasons)
    assert {v.reason for v in verdicts} == deny_reasons | {
        NOT_TARGET, NOT_SUSPICIOUS, PATH_MATCHED, CACHE_HIT}
