"""Independent reference implementations used to check the real code.

These deliberately use different algorithms (Floyd-Warshall closure,
exhaustive permutation-based path enumeration, a forward interpreter,
index-mapping subsequence search) so a shared bug cannot hide.  The SDIS
reference is the line-by-line parser, over the lines between `\n`s, that
keeps every instruction, matches each line alone with `INSN_RE` and finds
callsites and syscall sites in a second loop; `syscage.disasm` must give
the same functions, sites and errors from its pattern passes over whole
function bodies, and `decode_instructions` of the body text it keeps for a
syscall host must give that host's instructions.
`resolve_numbers_reference` is the object-based syscall-number resolver
that `sysnum.resolve_numbers` replaced: it interprets decoded
`Instruction`s, their operands split at every comma, in one forward pass,
where the real one walks back from each site over the body text.  The
bounded secure-path enumerator and the iterator subsequence matcher are
the matcher that `verifier.walk_embeds` replaced, kept as a second
reference for it.  `load_trace_reference` is the per-line trace counter
that `profilegen.load_trace`'s one scan per text replaced.
`replay_reference` is the verdict ladder written from the README, line by
line over `parse_event_reference`, as a reference for `run_event_trace`'s
one scan; only an event past the ladder reaches `verify_event`.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from dataclasses import dataclass

from syscage.callgraph import bfs_reachable
from syscage.disasm import (
    CALL_MNEMONICS,
    DIRECT,
    INDIRECT,
    CallSite,
    DisasmUnit,
    SyscallSite,
)
from syscage.errors import ParseError
from syscage.verifier import (
    ALLOW,
    CACHE_HIT,
    DENY,
    NOT_SUSPICIOUS,
    NOT_TARGET,
    SCAN_LIMIT,
    UNKNOWN_SYSCALL,
    SyscallEvent,
    Verdict,
    verify_event,
)


def closure_floyd_warshall(nodes, edges):
    """Reflexive-transitive closure as a dict node -> reachable set."""
    nodes = sorted(nodes)
    idx = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    reach = [[False] * n for _ in range(n)]
    for i in range(n):
        reach[i][i] = True
    for a, b in edges:
        reach[idx[a]][idx[b]] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                row_k = reach[k]
                row_i = reach[i]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return {a: {b for b in nodes if reach[idx[a]][idx[b]]} for a in nodes}


def all_simple_paths_bruteforce(nodes, edges, start, end, max_len=None):
    """Every simple path start->end, by trying all node permutations."""
    edge_set = set(edges)
    inner = [n for n in nodes if n not in (start, end)]
    paths = set()
    if start == end:
        return [(start,)]
    for k in range(len(inner) + 1):
        if max_len is not None and k + 2 > max_len:
            break
        for mid in itertools.permutations(inner, k):
            seq = (start, *mid, end)
            if all((a, b) in edge_set for a, b in zip(seq, seq[1:])):
                paths.add(seq)
    return sorted(paths)


# forward interpreter over the supported mov/add/sub subset; registers start
# undefined and undefined inputs poison the result.  A name is a view of a
# 64-bit register: writing the register or its 32-bit view defines it,
# writing an 8- or 16-bit view undefines it, and reading one gives undefined
_VIEWS = {  # register: its 32-bit view, then its 16- and 8-bit views
    "rax": ("eax", "ax", "al", "ah"),
    "rbx": ("ebx", "bx", "bl", "bh"),
    "rcx": ("ecx", "cx", "cl", "ch"),
    "rdx": ("edx", "dx", "dl", "dh"),
    "rsi": ("esi", "si", "sil"),
    "rdi": ("edi", "di", "dil"),
    "rbp": ("ebp", "bp", "bpl"),
    "rsp": ("esp", "sp", "spl"),
    **{f"r{n}": (f"r{n}d", f"r{n}w", f"r{n}b") for n in range(8, 16)},
}
_REGISTER_OF = {view: (reg, i < 2) for reg, views in _VIEWS.items()
                for i, view in enumerate((reg, *views))}


def _reg(op):
    """(register, whether the view is 32 or 64 bits wide), or None."""
    if op.startswith("%"):
        return _REGISTER_OF[op[1:]]
    return None


# an SDIS constant: hex after `0x` or decimal, as int() also reads it
_CONST_RE = re.compile(r"\$-?(?:0x[0-9a-f]+|[0-9]+)")


def _const(op):
    """The value of an SDIS constant; None for any other operand, a `$`
    one included."""
    if _CONST_RE.fullmatch(op) is None:
        return None
    try:
        return int(op[1:], 0) & 0xFFFFFFFF
    except ValueError:  # a decimal with leading zeros or past int()'s digit limit
        return None


def interpret_accumulator(instructions):
    """Run every instruction in order; return the accumulator value at the
    end, or None when it is undefined.

    This is an independent reference for `sysnum.resolve_numbers`: it is
    separately written and runs straight-line mov/add/sub code only.  A
    `syscall` undefines the registers the kernel writes: rax (the return
    value), rcx and r11."""
    env = {}
    for mnemonic, operands in instructions:
        if mnemonic == "syscall":
            env.update(rax=None, rcx=None, r11=None)
            continue
        if mnemonic not in ("mov", "add", "sub"):
            raise AssertionError(f"oracle fed unsupported mnemonic {mnemonic}")
        src, dst = operands
        d, wide = _reg(dst)
        value = _const(src)
        if value is None and (s := _reg(src)) and s[1]:
            value = env.get(s[0])
        if not wide:
            env[d] = None
        elif mnemonic == "mov":
            env[d] = value
        elif mnemonic == "add":
            cur = env.get(d)
            env[d] = None if cur is None or value is None else (cur + value) & 0xFFFFFFFF
        else:
            cur = env.get(d)
            env[d] = None if cur is None or value is None else (cur - value) & 0xFFFFFFFF
    return env.get("rax")


_APPLY = {
    "mov": lambda old, value: value,
    "add": lambda old, value: None if old is None else (old + value) & 0xFFFFFFFF,
    "sub": lambda old, value: None if old is None else (old - value) & 0xFFFFFFFF,
}


def _cell(op):
    """(register, full width) of a register operand, where any name outside
    the views is a register of its own; None for any other operand."""
    if op.startswith("%"):
        return _REGISTER_OF.get(op[1:], (op[1:], True))
    return None


def resolve_numbers_reference(function):
    """Syscall number at each `syscall` of `function`, by address; None
    where the accumulator's value is unknown there.  The object-based
    resolver: it decodes every instruction of the body text first."""
    regs = {}
    numbers = {}
    for ins in decode_instructions(function.body):
        ops = ins.operands
        if ins.mnemonic == "syscall":  # the kernel writes rax, rcx and r11
            numbers[ins.address] = regs.pop("rax", None)
            regs.pop("rcx", None)
            regs.pop("r11", None)
        elif ins.mnemonic in CALL_MNEMONICS:
            regs.clear()
        elif ins.mnemonic in _APPLY and len(ops) == 2:
            src, dst = ops
            dreg = _cell(dst)
            if dreg is None:
                continue
            value = _const(src)
            if value is None and (sreg := _cell(src)) is not None and sreg[1]:
                value = regs.get(sreg[0])
            cell, full = dreg
            if value is not None and full:
                value = _APPLY[ins.mnemonic](regs.get(cell), value)
            if value is None or not full:
                regs.pop(cell, None)
            else:
                regs[cell] = value
        elif ops and (reg := _cell(ops[-1])) is not None:
            regs.pop(reg[0], None)  # conservative: any other write clobbers
    return numbers


def subsequence_bruteforce(needle, haystack):
    """True iff some strictly increasing index mapping embeds needle."""
    for positions in itertools.combinations(range(len(haystack)), len(needle)):
        if all(haystack[p] == item for p, item in zip(positions, needle)):
            return True
    return len(needle) == 0


DEFAULT_MAX_PATH_LEN = 64
DEFAULT_MAX_PATHS = 4096


@dataclass
class PathEnumeration:
    paths: list[tuple[str, ...]]
    truncated: bool  # more simple paths exist than the budget allowed


def predecessors(adj: dict[str, list[str]]) -> dict[str, list[str]]:
    """The reverse of an adjacency: each node's callers."""
    pred: dict[str, list[str]] = {n: [] for n in adj}
    for node, succ in adj.items():
        for nxt in succ:
            pred[nxt].append(node)
    return pred


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


def is_subsequence(needle, haystack) -> bool:
    it = iter(haystack)
    return all(item in it for item in needle)


# the events format of the README: five fields separated by spaces or tabs,
# each address lowercase hex with an optional 0x, empty stack words skipped
_EVENT_LINE = re.compile(
    r"(\S+)[ \t]+([a-z0-9_]+)[ \t]+rip=([0-9a-fx]+)[ \t]+rsp=([0-9a-fx]+)[ \t]+stack=([0-9a-fx,]*)")
_HEX_WORD = re.compile(r"(?:0x)?[0-9a-f]+")


def parse_event_reference(line, scan_limit):
    """(tag, syscall, rip, rsp, stack words) of an event line, the words cut
    to `scan_limit`, or None when the line or any of its words is malformed."""
    m = _EVENT_LINE.fullmatch(line.strip())
    if m is None:
        return None
    tag, name, rip, rsp, stack = m.groups()
    words = [w for w in stack.split(",") if w]
    if not all(_HEX_WORD.fullmatch(w) for w in [rip, rsp, *words]):
        return None
    return tag, name, int(rip, 16), int(rsp, 16), tuple(int(w, 16) for w in words)[:scan_limit]


def event_line_error(line):
    """The message, without its `line N: `, that rejects the stripped event
    line `line`, which parse_event_reference finds malformed."""
    kind = "bad event line" if _EVENT_LINE.fullmatch(line) is None else "bad address in event line"
    return f"{kind} {line!r}"


def replay_reference(text, ctx):
    """(verdicts, counts by reason) of the event trace `text` replayed line
    by line, or the message of the ParseError that rejects it.  The text is
    split at every `\n`; each line is stripped, skipped when blank and
    parsed with parse_event_reference.  An event then takes the first
    verdict in the README's order that applies to it: Deny UnknownSyscall
    for a syscall not in the table, Allow NotTarget for another process's
    event, Allow NotSuspicious for a syscall not suspicious, Allow CacheHit
    for a syscall matched already; any other is handed to `verify_event`,
    which reads its stack and caches a match in `ctx.cache`."""
    verdicts = []
    for lineno, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if not line:
            continue
        fields = parse_event_reference(line, SCAN_LIMIT)
        if fields is None:
            return f"line {lineno}: {event_line_error(line)}"
        tag, name = fields[:2]
        if name not in ctx.known_syscalls:
            verdict = Verdict(DENY, UNKNOWN_SYSCALL)
        elif tag != ctx.target_tag:
            verdict = Verdict(ALLOW, NOT_TARGET)
        elif name not in ctx.suspicious:
            verdict = Verdict(ALLOW, NOT_SUSPICIOUS)
        elif name in ctx.cache:
            verdict = Verdict(ALLOW, CACHE_HIT)
        else:
            verdict = verify_event(SyscallEvent(*fields[1:]), ctx)
        verdicts.append(verdict)
    return verdicts, Counter(v.reason for v in verdicts)


_TRACE_TOKEN = re.compile(r"[a-z0-9_]+")


def load_trace_reference(texts) -> Counter:
    """Per-syscall counts over trace texts, line by line: each text split
    at every `\n`, and the leading [a-z0-9_]+ run of each line counted."""
    counts: Counter = Counter()
    for text in texts:
        counts.update(m.group(0) for line in text.split("\n")
                      if (m := _TRACE_TOKEN.match(line)))
    return counts


HEADER_RE = re.compile(r"^([0-9a-f]{1,16}) <([^>]+)>:$")
# one operand token, then a comment (group 6) only after it
INSN_RE = re.compile(r"^\s+([0-9a-f]+):\t([a-z0-9.]+)(\s+(\S+)(\s+<([^>]+)>)?)?$")
HEX_OPERAND_RE = re.compile(r"^[0-9a-f]+$")


@dataclass(frozen=True)
class Instruction:
    address: int
    mnemonic: str
    operands: tuple[str, ...] = ()
    symbol_comment: str | None = None


@dataclass(frozen=True)
class FunctionRecord:
    canonical_name: str
    start: int
    end: int
    api_name: str | None
    instructions: tuple[Instruction, ...]


_WS = r"[^\S\n]"  # whitespace inside a line
# a line of validated body text, after its `\n`: address, mnemonic, operand
# token and comment
DECODE_RE = re.compile(
    rf"\n{_WS}+([0-9a-f]+):\t([a-z0-9.]+)(?:{_WS}+(\S+)(?:{_WS}+<([^>\n]+)>)?)?$", re.M)


def decode_instructions(body: str) -> tuple[Instruction, ...]:
    """The instructions of validated body text; commas split the operand."""
    return tuple([
        Instruction(int(address, 16), mnemonic, tuple(ops.split(",")) if ops else (),
                    comment or None)
        for address, mnemonic, ops, comment in DECODE_RE.findall(body)])


def _split_operands(text: str | None) -> tuple[str, ...]:
    if not text:
        return ()
    return tuple(text.split(","))


def _finish_function(symbol: str, start: int, insns: list[Instruction]) -> FunctionRecord:
    end = insns[-1].address + 1 if insns else start + 1
    return FunctionRecord(
        canonical_name=symbol,
        start=start,
        end=end,
        api_name=_api_name(symbol),
        instructions=tuple(insns),
    )


def _api_name(symbol: str) -> str | None:
    """The text before "@@", unless the symbol is an objdump offset label
    (`<symbol>+0x<hex>` or `-0x<hex>`)."""
    name, at, version = symbol.partition("@@")
    if not at or re.search(r"[+-]0x[0-9a-f]+$", version):
        return None
    return name


def parse_disassembly_reference(text: str) -> DisasmUnit:
    """Parse SDIS text into a DisasmUnit, keeping every instruction.

    Function boundaries come from header lines; a header symbol containing
    "@@" marks an API export whose api_name is the text before "@@", unless
    it is an offset label.  Addresses rise through the text: a header's is
    above every address before it.
    """
    functions: list[FunctionRecord] = []
    cur_symbol: str | None = None
    cur_start = 0
    cur_insns: list[Instruction] = []

    for lineno, line in enumerate(text.split("\n"), 1):
        if not line.strip():
            continue
        m = HEADER_RE.match(line)
        if m:
            if cur_symbol is not None:
                functions.append(_finish_function(cur_symbol, cur_start, cur_insns))
            cur_start = int(m.group(1), 16)
            cur_symbol = m.group(2)
            cur_insns = []
            # above the previous function's start and its every instruction
            if functions and cur_start < functions[-1].end:
                raise ParseError(f"line {lineno}: function {cur_symbol} at {cur_start:#x} "
                                 f"is not above address {functions[-1].end - 1:#x}")
            continue
        m = INSN_RE.match(line)
        if m:
            if cur_symbol is None:
                raise ParseError(f"line {lineno}: instruction outside any function")
            addr = int(m.group(1), 16)
            if addr < cur_start or (cur_insns and addr <= cur_insns[-1].address):
                raise ParseError(f"line {lineno}: address {addr:#x} does not increase")
            cur_insns.append(
                Instruction(
                    address=addr,
                    mnemonic=m.group(2),
                    operands=_split_operands(m.group(4)),
                    symbol_comment=m.group(6),
                )
            )
            continue
        if cur_symbol is None or not line[0].isspace():
            raise ParseError(f"line {lineno}: bad function header: {line!r}")
        raise ParseError(f"line {lineno}: bad instruction line: {line!r}")

    if cur_symbol is not None:
        functions.append(_finish_function(cur_symbol, cur_start, cur_insns))

    unit = DisasmUnit(functions=functions)
    for fn in functions:
        for ins in fn.instructions:
            if ins.mnemonic == "syscall":
                unit.syscall_sites.append(SyscallSite(fn.canonical_name, ins.address))
            if ins.mnemonic not in CALL_MNEMONICS or not ins.operands:
                continue
            op = ins.operands[0]
            if op.startswith("*"):
                kind, target = INDIRECT, None
            elif HEX_OPERAND_RE.match(op) and ins.symbol_comment:
                kind, target = DIRECT, ins.symbol_comment
            else:
                continue  # call through an unmodeled operand form; not a callsite
            unit.callsites.append(CallSite(fn.canonical_name, target, kind))
    return unit
