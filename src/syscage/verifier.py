"""Trace-driven simulator of the runtime verification module.

Events stand in for intercepted syscalls: a process tag, the syscall name,
RIP/RSP, and the raw stack words read upward from RSP.  The verifier
reconstructs the invocation path by scanning those words against the
in-memory function layout and looks in it for a walk of the library's call
graph from an API that can issue the syscall to a function that issues it.
The layout is each library's extents as `disasm.header_extents` gives them,
rebased onto the library's `lib` line by `locate_functions`.

An event line is `<tag> <syscall> rip=<hex> rsp=<hex> stack=<hex>,...`, each
address lowercase hex with an optional `0x`.  Lines end at `\n` only; the
whitespace around a line is stripped, and a line that holds only whitespace
is blank and skipped.  `run_event_trace` reads the text in one scan, one
match of `EVENT_LINE_RE` per line, and rejects a line that is not an event
in time linear in its length, however long a run of whitespace, of tag
characters or of stack commas it holds.  Empty stack words are skipped and
only the first 512 are scanned (`SCAN_LIMIT`), but any malformed
word rejects the whole trace (`parse_event_line`).  Every word is checked,
but converted to an integer only for events of the target that issue a
suspicious syscall not yet matched: no other verdict reads them.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from operator import attrgetter
from typing import NamedTuple

from .errors import AnalysisError, ParseError, content_lines

SCAN_LIMIT = 512

ALLOW = "Allow"
DENY = "Deny"

NOT_TARGET = "NotTarget"
NOT_SUSPICIOUS = "NotSuspicious"
CACHE_HIT = "CacheHit"
PATH_MATCHED = "PathMatched"
RSP_OUT_OF_RANGE = "RspOutOfRange"
RIP_OUT_OF_RANGE = "RipOutOfRange"
NO_PATH_MATCH = "NoPathMatch"
UNKNOWN_SYSCALL = "UnknownSyscall"

# One `\n`-line of an event trace per match, with the whitespace around it
# and its `\n`: the five fields of an event (groups 1-5), a blank line (no
# group) or a bad line (group 6).  Every run is matched possessively, so
# each branch fails or matches at its first try, in time linear in the line;
# as some branch always matches, `finditer` yields the lines in turn, plus
# an empty blank match at the end of the text.
EVENT_LINE_RE = re.compile(
    r"[^\S\n]*+(?:(\S++)[ \t]++([a-z0-9_]++)[ \t]++rip=([0-9a-fx]++)[ \t]++"
    r"rsp=([0-9a-fx]++)[ \t]++stack=([0-9a-fx,]*+)[^\S\n]*+(?:\n|\Z)"
    r"|(?:\n|\Z)|([^\n]++)\n?)"
)
ADDRESS_RE = re.compile(r"(0x)?[0-9a-f]+")


# Address regions are ranges.  Never take len() of one: it raises
# OverflowError once the size passes sys.maxsize; use stop - start.
@dataclass
class MemoryMap:
    libraries: list[tuple[str, range]]
    stack: range
    code_segment: range


class FunctionAddressTable:
    """Function extents `(name, start, end)`, sorted by start, as parallel
    lists, and the span `[lo, hi)` from the first start to the last end: an
    address outside it lies in no function, with no bisect."""

    def __init__(self, entries: list[tuple[str, int, int]]):
        entries = sorted(entries, key=lambda e: e[1])
        self.names = [e[0] for e in entries]
        self.starts = [e[1] for e in entries]
        self.ends = [e[2] for e in entries]
        self.lo = self.starts[0] if entries else 0
        self.hi = max(self.ends, default=0)

    def find(self, addr: int) -> str | None:
        if self.lo <= addr < self.hi:
            i = bisect_right(self.starts, addr) - 1  # >= 0, as starts[0] <= addr
            if addr < self.ends[i]:
                return self.names[i]
        return None


class SyscallEvent(NamedTuple):
    process_tag: str
    syscall_name: str
    rip: int
    rsp: int
    stack_words: tuple[int, ...]


class Verdict(NamedTuple):
    decision: str
    reason: str
    reconstructed_path: tuple[str, ...] = ()


# the verdicts that carry no path: immutable, so every event that gets one
# shares it
_UNKNOWN_SYSCALL = Verdict(DENY, UNKNOWN_SYSCALL)
_NOT_TARGET = Verdict(ALLOW, NOT_TARGET)
_NOT_SUSPICIOUS = Verdict(ALLOW, NOT_SUSPICIOUS)
_CACHE_HIT = Verdict(ALLOW, CACHE_HIT)
_RSP_OUT_OF_RANGE = Verdict(DENY, RSP_OUT_OF_RANGE)
_RIP_OUT_OF_RANGE = Verdict(DENY, RIP_OUT_OF_RANGE)


def _address(text: str) -> int:
    """Lowercase hex with an optional `0x`, as in events: `int(text, 16)`
    alone would take a sign, underscores and `0X`."""
    if not ADDRESS_RE.fullmatch(text):
        raise ValueError(text)
    return int(text, 16)


def parse_memory_map(text: str) -> MemoryMap:
    """Lines: `lib <name> <base> <size>`, `stack <lo> <hi>`, `code <lo> <hi>`,
    at most one of each (one `lib` line per name)."""
    regions: dict[tuple[str, ...], range] = {}  # ("stack",), ("code",), ("lib", name)
    for lineno, stripped in content_lines(text):
        fields = stripped.split()
        try:
            if fields[0] == "lib" and len(fields) == 4:
                base = _address(fields[2])
                key, region = ("lib", fields[1]), range(base, base + _address(fields[3]))
            elif fields[0] in ("stack", "code") and len(fields) == 3:
                key, region = (fields[0],), range(_address(fields[1]), _address(fields[2]))
            else:
                raise ValueError(stripped)
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad memory map line {stripped!r}") from exc
        if key in regions:
            raise ParseError(f"line {lineno}: a second {' '.join(key)} line {stripped!r}")
        regions[key] = region
    stack, code = regions.pop(("stack",), None), regions.pop(("code",), None)
    if stack is None or code is None:
        raise ParseError("memory map needs both a stack and a code region")
    _check_regions([stack, code, *regions.values()])
    return MemoryMap(libraries=[(key[1], region) for key, region in regions.items()],
                     stack=stack, code_segment=code)


def _check_regions(regions: list[range]) -> None:
    for r in regions:
        if r.start >= r.stop:
            raise ParseError(f"memory map: empty region [{r.start:#x},{r.stop:#x})")
    regions = sorted(regions, key=lambda r: (r.start, r.stop))
    for a, b in zip(regions, regions[1:]):
        if b.start < a.stop:
            raise ParseError(f"memory map: regions [{a.start:#x},{a.stop:#x}) and "
                             f"[{b.start:#x},{b.stop:#x}) overlap")


def locate_functions(
    memmap: MemoryMap, offsets: dict[str, list[tuple[str, int, int]]]
) -> FunctionAddressTable:
    """Rebase per-library static offsets, each library's extents as
    `disasm.header_extents` gives them, onto the load addresses.  Only the
    libraries that have a `lib` line are read from `offsets`; a `lib` line
    needs no offsets."""
    entries = []
    for name, region in memmap.libraries:
        base, size = region.start, region.stop - region.start
        for fname, start, end in offsets.get(name, ()):
            if end > size:
                raise AnalysisError(
                    f"function {fname} [{start:#x},{end:#x}) exceeds the size "
                    f"{size:#x} that the memory map gives library {name}"
                )
            entries.append((fname, base + start, base + end))
    return FunctionAddressTable(entries)


def reconstruct_path(event: SyscallEvent, table: FunctionAddressTable,
                     memmap: MemoryMap, rip_fn: str | None) -> tuple[str, ...]:
    """Scan stack words for return addresses inside known functions; stop at
    the first word pointing into the code segment.  `rip_fn`, the function
    holding RIP (`table.find(event.rip)`), is prepended as the innermost
    frame.  A return address points just past its call, so each word is
    looked up as `word - 1`, as unwinders do.

    The loop is `table.find(word - 1)` and `word in memmap.code_segment`
    written out: `word - 1` lies in the span when `lo < word <= hi`, and
    then the function starting last at or before it holds it when
    `word - 1 < end`, that is `word <= end`.  The bounds are locals because
    `lo <= w < hi` is faster than `w in range`."""
    names, starts, ends, lo, hi = table.names, table.starts, table.ends, table.lo, table.hi
    code_lo, code_hi = memmap.code_segment.start, memmap.code_segment.stop
    path = [] if rip_fn is None else [rip_fn]
    for word in event.stack_words:
        if lo < word <= hi:
            i = bisect_right(starts, word - 1) - 1
            if word <= ends[i]:
                path.append(names[i])
                continue
        if code_lo <= word < code_hi:
            break
    return tuple(path)


# only bench/worker.py's traced run patches this name; ROADMAP item 1 deletes it
is_subsequence = None


def walk_embeds(frames, call_graph: dict[str, list[str]], entries, hosts) -> bool:
    """True when some walk of `call_graph` from a function in `entries` to
    one in `hosts` is an ordered subsequence of `frames`, outermost first.

    One pass over the frames: a frame ends such a walk when it is an entry
    or a callee of an earlier frame that ends one.  Cutting a cycle out of a
    walk keeps it a subsequence, so this is "some simple path embeds", with
    no cap on its length.  The work is the number of frames plus the callees
    of each distinct frame that ends a walk."""
    ends: set[str] = set()
    callees: set[str] = set()  # of every frame in `ends`
    for fn in frames:
        if fn in entries or fn in callees:
            if fn in hosts:
                return True
            if fn not in ends:
                ends.add(fn)
                callees.update(call_graph.get(fn, ()))
    return False


@dataclass
class VerifierContext:
    target_tag: str
    suspicious: set[str]
    known_syscalls: set[str]
    call_graph: dict[str, list[str]]  # caller -> callees
    entries: dict[str, set[str]]  # syscall -> entry functions of its APIs
    hosts: dict[str, set[str]]  # syscall -> functions that invoke it
    table: FunctionAddressTable
    memmap: MemoryMap
    cache: set[str] = field(default_factory=set)  # syscalls matched already

    def may_walk(self, tag: str, name: str) -> bool:
        """True when `verify_event` gets past NotTarget, NotSuspicious and
        CacheHit, the three steps that read no stack word."""
        return tag == self.target_tag and name in self.suspicious and name not in self.cache


def verify_event(event: SyscallEvent, ctx: VerifierContext) -> Verdict:
    if event.syscall_name not in ctx.known_syscalls:
        return _UNKNOWN_SYSCALL
    if event.process_tag != ctx.target_tag:
        return _NOT_TARGET
    if event.syscall_name not in ctx.suspicious:
        return _NOT_SUSPICIOUS
    if event.syscall_name in ctx.cache:
        return _CACHE_HIT
    if event.rsp not in ctx.memmap.stack:
        return _RSP_OUT_OF_RANGE
    rip_fn = ctx.table.find(event.rip)
    if rip_fn is None and event.rip not in ctx.memmap.code_segment:
        return _RIP_OUT_OF_RANGE
    path = reconstruct_path(event, ctx.table, ctx.memmap, rip_fn)
    name = event.syscall_name
    if walk_embeds(reversed(path), ctx.call_graph,
                   ctx.entries.get(name, ()), ctx.hosts.get(name, ())):
        ctx.cache.add(name)
        return Verdict(ALLOW, PATH_MATCHED, path)
    return Verdict(DENY, NO_PATH_MATCH, path)


def parse_event_line(m: re.Match, ctx: VerifierContext) -> SyscallEvent:
    """The event of a line, given as its `EVENT_LINE_RE` match; a bad or a
    blank line raises ParseError.  Every stack word is validated, also past
    `SCAN_LIMIT`, but words are converted only when `ctx.may_walk` holds, for
    events of the target that issue a suspicious syscall not yet matched;
    others get `stack_words == ()`.  Parse each line just before verifying
    it, so that the cache is current; a checked event then pays its
    conversion here, not in `verify_event`."""
    tag, name, rip, rsp, stack, _ = m.groups()
    if tag is None:
        raise ParseError(f"bad event line {m[0].strip()!r}")
    words = ()
    try:
        if ctx.may_walk(tag, name):
            words = tuple(map(int, filter(None, stack.split(",")), repeat(16)))[:SCAN_LIMIT]
        elif "x" in stack and not all(map(ADDRESS_RE.fullmatch, filter(None, stack.split(",")))):
            raise ValueError(stack)  # the pattern leaves only words with an `x` to check
        return SyscallEvent(tag, name, int(rip, 16), int(rsp, 16), words)
    except ValueError as exc:
        raise ParseError(f"bad address in event line {m[0].strip()!r}") from exc


def run_event_trace(text: str, ctx: VerifierContext) -> tuple[list[Verdict], Counter]:
    """One verdict per event line, in order, plus counts by reason.  The
    lines are the matches of one scan of `text`; a line's number is counted
    only when it is rejected."""
    verdicts: list[Verdict] = []
    for m in EVENT_LINE_RE.finditer(text):
        if m.lastindex is None:  # a blank line
            continue
        try:
            event = parse_event_line(m, ctx)
        except ParseError as exc:
            lineno = text.count("\n", 0, m.start()) + 1
            raise ParseError(f"line {lineno}: {exc}") from exc
        verdicts.append(verify_event(event, ctx))
    return verdicts, Counter(map(attrgetter("reason"), verdicts))


def format_verdict_log(verdicts: list[Verdict]) -> str:
    lines = [
        f"{i} {v.decision} {v.reason} path={','.join(v.reconstructed_path)}"
        for i, v in enumerate(verdicts)
    ]
    return "\n".join(lines) + ("\n" if lines else "")
