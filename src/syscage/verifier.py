"""Trace-driven simulator of the runtime verification module.

Events stand in for intercepted syscalls: a process tag, the syscall name,
RIP/RSP, and the raw stack words read upward from RSP.  The verifier
reconstructs the invocation path by scanning those words against the
in-memory function layout and matches it against the statically derived
secure paths.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field

from .errors import (
    MalformedEvent,
    MalformedMapLine,
    RegionOverflow,
    UnknownSyscallName,
)

DEFAULT_SCAN_LIMIT = 512

ALLOW = "Allow"
DENY = "Deny"

NOT_TARGET = "NotTarget"
NOT_SUSPICIOUS = "NotSuspicious"
CACHE_HIT = "CacheHit"
PATH_MATCHED = "PathMatched"
RSP_OUT_OF_RANGE = "RspOutOfRange"
RIP_OUT_OF_RANGE = "RipOutOfRange"
NO_PATH_MATCH = "NoPathMatch"

POLICY_INDIRECT = "IndirectOnly"
POLICY_RARE = "RareOnly"

EVENT_RE = re.compile(
    r"^(\S+)\s+([a-z0-9_]+)\s+rip=([0-9a-fx]+)\s+rsp=([0-9a-fx]+)\s+stack=([0-9a-fx,]*)$"
)


@dataclass(frozen=True)
class Region:
    lo: int
    hi: int

    def __contains__(self, addr: int) -> bool:
        return self.lo <= addr < self.hi


@dataclass
class MemoryMap:
    libraries: list[tuple[str, int, int]]  # (name, base, size)
    stack: Region
    code_segment: Region


@dataclass
class FunctionAddressTable:
    entries: list[tuple[str, int, int]] = field(default_factory=list)
    _starts: list[int] = field(default_factory=list)

    def freeze(self) -> None:
        self.entries.sort(key=lambda e: e[1])
        self._starts = [e[1] for e in self.entries]

    def find(self, addr: int) -> str | None:
        i = bisect_right(self._starts, addr) - 1
        if i >= 0:
            name, start, end = self.entries[i]
            if start <= addr < end:
                return name
        return None


@dataclass(frozen=True)
class SyscallEvent:
    process_tag: str
    syscall_name: str
    rip: int
    rsp: int
    stack_words: tuple[int, ...]


@dataclass(frozen=True)
class Verdict:
    decision: str
    reason: str
    reconstructed_path: tuple[str, ...] = ()


def parse_memory_map(text: str) -> MemoryMap:
    """Lines: `lib <name> <base> <size>`, `stack <lo> <hi>`, `code <lo> <hi>`."""
    libraries: list[tuple[str, int, int]] = []
    stack = code = None
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split()
        try:
            if fields[0] == "lib" and len(fields) == 4:
                libraries.append((fields[1], int(fields[2], 16), int(fields[3], 16)))
            elif fields[0] == "stack" and len(fields) == 3:
                stack = Region(int(fields[1], 16), int(fields[2], 16))
            elif fields[0] == "code" and len(fields) == 3:
                code = Region(int(fields[1], 16), int(fields[2], 16))
            else:
                raise ValueError(stripped)
        except ValueError as exc:
            raise MalformedMapLine(f"line {lineno}: {stripped!r}") from exc
    if stack is None or code is None:
        raise MalformedMapLine("memory map needs both stack and code regions")
    _check_regions(libraries, stack, code)
    return MemoryMap(libraries=libraries, stack=stack, code_segment=code)


def _check_regions(libraries, stack: Region, code: Region) -> None:
    regions = [(stack.lo, stack.hi), (code.lo, code.hi)]
    regions += [(base, base + size) for _, base, size in libraries]
    for lo, hi in regions:
        if lo >= hi:
            raise MalformedMapLine(f"empty region [{lo:#x},{hi:#x})")
    regions.sort()
    for (alo, ahi), (blo, bhi) in zip(regions, regions[1:]):
        if blo < ahi:
            raise MalformedMapLine("memory regions overlap")


def locate_functions(
    memmap: MemoryMap, offsets: dict[str, list[tuple[str, int, int]]]
) -> FunctionAddressTable:
    """Rebase per-library static offsets onto the load addresses."""
    table = FunctionAddressTable()
    for name, base, size in memmap.libraries:
        for fname, start, end in offsets.get(name, []):
            if end > size:
                raise RegionOverflow(
                    f"{fname} [{start:#x},{end:#x}) exceeds {name} size {size:#x}"
                )
            table.entries.append((fname, base + start, base + end))
    table.freeze()
    return table


def reconstruct_path(
    event: SyscallEvent, table: FunctionAddressTable, memmap: MemoryMap
) -> tuple[str, ...]:
    """Scan stack words for return addresses inside known functions; stop at
    the first word pointing into the code segment.  The function holding RIP
    is prepended as the innermost frame."""
    path: list[str] = []
    rip_fn = table.find(event.rip)
    if rip_fn is not None:
        path.append(rip_fn)
    for word in event.stack_words:
        fn = table.find(word)
        if fn is not None:
            path.append(fn)
        elif word in memmap.code_segment:
            break
    return tuple(path)


def is_subsequence(needle, haystack) -> bool:
    it = iter(haystack)
    return all(item in it for item in needle)


@dataclass
class VerifierContext:
    target_tag: str
    suspicious: set[str]
    known_syscalls: set[str]
    secure_paths: dict[str, list[tuple[str, ...]]]  # api-first order
    table: FunctionAddressTable
    memmap: MemoryMap
    cache: set[tuple[str, str]] = field(default_factory=set)


def verify_event(event: SyscallEvent, ctx: VerifierContext) -> Verdict:
    if event.syscall_name not in ctx.known_syscalls:
        raise UnknownSyscallName(event.syscall_name)
    if event.process_tag != ctx.target_tag:
        return Verdict(ALLOW, NOT_TARGET)
    if event.syscall_name not in ctx.suspicious:
        return Verdict(ALLOW, NOT_SUSPICIOUS)
    if (event.process_tag, event.syscall_name) in ctx.cache:
        return Verdict(ALLOW, CACHE_HIT)
    if event.rsp not in ctx.memmap.stack:
        return Verdict(DENY, RSP_OUT_OF_RANGE)
    if ctx.table.find(event.rip) is None and event.rip not in ctx.memmap.code_segment:
        return Verdict(DENY, RIP_OUT_OF_RANGE)
    path = reconstruct_path(event, ctx.table, ctx.memmap)
    for secure in ctx.secure_paths.get(event.syscall_name, []):
        if is_subsequence(tuple(reversed(secure)), path):
            ctx.cache.add((event.process_tag, event.syscall_name))
            return Verdict(ALLOW, PATH_MATCHED, path)
    return Verdict(DENY, NO_PATH_MATCH, path)


def parse_event_line(line: str, scan_limit: int = DEFAULT_SCAN_LIMIT) -> SyscallEvent:
    m = EVENT_RE.match(line.strip())
    if not m:
        raise MalformedEvent(line.strip())
    try:
        rip = int(m.group(3), 16)
        rsp = int(m.group(4), 16)
        words = tuple(
            int(w, 16) for w in m.group(5).split(",") if w
        )
    except ValueError as exc:
        raise MalformedEvent(line.strip()) from exc
    return SyscallEvent(
        process_tag=m.group(1),
        syscall_name=m.group(2),
        rip=rip,
        rsp=rsp,
        stack_words=words[:scan_limit],
    )


def run_event_trace(
    text: str, ctx: VerifierContext, scan_limit: int = DEFAULT_SCAN_LIMIT
) -> tuple[list[Verdict], Counter]:
    """One verdict per event line, in order, plus counts by reason."""
    verdicts: list[Verdict] = []
    summary: Counter = Counter()
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            event = parse_event_line(line, scan_limit)
        except MalformedEvent as exc:
            raise MalformedEvent(f"line {lineno}: {exc}") from exc
        verdict = verify_event(event, ctx)
        verdicts.append(verdict)
        summary[verdict.reason] += 1
    return verdicts, summary


def format_verdict_log(verdicts: list[Verdict]) -> str:
    lines = [
        f"{i} {v.decision} {v.reason} path={','.join(v.reconstructed_path)}"
        for i, v in enumerate(verdicts)
    ]
    return "\n".join(lines) + ("\n" if lines else "")
