"""Parser for the SDIS textual disassembly format.

SDIS is a strict subset of common disassembler output: function headers
(`<hexaddr> <symbol>:`) followed by instruction lines
`<ws><hexaddr>:\\t<mnemonic>[<ws><operand>[<ws><<comment>>]]`, where the
operand is one token with no whitespace (`$0x1,%eax`, operands joined by
commas) and a comment needs an operand before it.  Lines are separated by
`\\n` alone, and `line N` of an error is the text's N-th such line; any
other character, `\\r` and `\\x0c` included, belongs to its line.  Lines
inside a function body that parse as neither header nor instruction are an
error rather than skipped, so broken fixtures surface immediately.

The regular-expression engine reads the lines, not a Python loop: one
possessive match takes a header and every blank or instruction line of its
body, keeping no backtracking state, one `findall` takes their addresses,
and one search finds their `call`, `callq` and `syscall` lines.
Instructions are decoded only when read, from the body text that a
function holding a `syscall` keeps.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from operator import lt
from typing import NamedTuple

from .errors import ParseError

_WS = r"[^\S\n]"  # whitespace inside a line
# what follows the mnemonic: the operand token, then the comment
_TAIL = rf"(?:{_WS}+(\S+)(?:{_WS}+<([^>\n]+)>)?)?$"
# an instruction line, without captures
_INSN = rf"{_WS}+[0-9a-f]+:\t[a-z0-9.]+(?:{_WS}+\S+(?:{_WS}+<[^>\n]+>)?)?"
INSN_RE = re.compile(rf"{_INSN}$", re.M)
# a header, then its body: blank and instruction lines, each after its `\n`
FUNCTION_RE = re.compile(
    rf"^([0-9a-f]{{1,16}}) <([^>\n]+)>:$((?:\n(?:{_INSN}|{_WS}*)$)*+)", re.M)
ADDRESS_RE = re.compile(rf"\n{_WS}+([0-9a-f]+):")
# a `call`, `callq` or `syscall` line from the `:\t` after its address:
# "syscall" or None, then the tail.  The literal `:\t` makes the search
# fast; a match must still be at the line's first `:\t`
SITE_RE = re.compile(rf":\t(?:(syscall)|callq?){_TAIL}", re.M)
DECODE_RE = re.compile(rf"\n{_WS}+([0-9a-f]+):\t([a-z0-9.]+){_TAIL}", re.M)
_FIRST_LINE = re.compile(rf"^{_WS}*\S", re.M)  # the first line that is not blank
HEX_OPERAND_RE = re.compile(r"^[0-9a-f]+$")
# `name@@VERSION`, but not objdump's label for code that no symbol covers,
# relative to the nearest symbol, such as `abort@@GLIBC_2.2.5-0x1f`
EXPORT_RE = re.compile(r"(.*?)@@(?!.*[+-]0x[0-9a-f]+$)")

CALL_MNEMONICS = {"call", "callq"}

DIRECT = "Direct"
INDIRECT = "Indirect"


class Instruction(NamedTuple):
    address: int
    mnemonic: str
    operands: tuple[str, ...] = ()
    symbol_comment: str | None = None


@dataclass(frozen=True)
class FunctionRecord:
    canonical_name: str
    start: int
    end: int
    api_name: str | None  # set exactly for an API export
    # the body lines, each after its `\n`, of a function that holds a
    # `syscall` (the only ones `sysnum.resolve_numbers` reads); "" otherwise
    body: str = ""

    @cached_property
    def instructions(self) -> tuple[Instruction, ...]:
        """Every instruction of the body, in order, decoded on first read."""
        return decode_instructions(self.body)


@dataclass(frozen=True)
class CallSite:
    caller: str
    target: str | None  # None for an indirect call
    kind: str


@dataclass(frozen=True)
class SyscallSite:
    function: str
    site_address: int


@dataclass
class DisasmUnit:
    functions: list[FunctionRecord] = field(default_factory=list)
    callsites: list[CallSite] = field(default_factory=list)
    syscall_sites: list[SyscallSite] = field(default_factory=list)


def decode_instructions(body: str) -> tuple[Instruction, ...]:
    """The instructions of validated body text; commas split the operand."""
    return tuple([
        Instruction(int(address, 16), mnemonic, tuple(ops.split(",")) if ops else (),
                    comment or None)
        for address, mnemonic, ops, comment in DECODE_RE.findall(body)])


class _Parse:
    """One parse: the text and the unit read from it so far."""

    def __init__(self, text: str):
        self.text = text
        self.unit = DisasmUnit()

    def lineno(self, pos: int) -> int:
        return self.text.count("\n", 0, pos) + 1

    def line_at(self, pos: int) -> str:
        end = self.text.find("\n", pos)
        return self.text[pos:] if end < 0 else self.text[pos:end]

    def check_addresses(self, lo: int, hi: int, last: int) -> int:
        """The last address of the instruction lines in text[lo:hi], each
        above the one before and the first above `last`."""
        addrs = ADDRESS_RE.findall(self.text, lo, hi)
        if not addrs:
            return last
        # hex digits of one length compare as their values do
        if (int(addrs[0], 16) > last and len(set(map(len, addrs))) == 1
                and all(map(lt, addrs, islice(addrs, 1, None)))):
            return int(addrs[-1], 16)
        for m in ADDRESS_RE.finditer(self.text, lo, hi):
            addr = int(m.group(1), 16)
            if addr <= last:
                raise ParseError(f"line {self.lineno(m.start() + 1)}: "
                                 f"address {addr:#x} does not increase")
            last = addr
        return last

    def function(self, m: re.Match) -> re.Match | None:
        """Read the function whose header and body `m` matched; return the
        match of the next header, or None at the end of the text."""
        text, symbol, start = self.text, m.group(2), int(m.group(1), 16)
        unit = self.unit
        sites = len(unit.syscall_sites)
        lo, hi = m.span(3)
        # one below `start`, so that the check also rejects an address below it
        last = self.check_addresses(lo, hi, start - 1)
        for s in SITE_RE.finditer(text, lo, hi):
            line = text.rfind("\n", lo, s.start()) + 1
            if text.find(":\t", line, s.start()) >= 0:
                continue  # a `:\t` inside a comment
            syscall, op, comment = s.groups()
            if syscall:
                address = int(text[line:s.start()].strip(), 16)
                unit.syscall_sites.append(SyscallSite(symbol, address))
            elif op:
                op = op.split(",", 1)[0]
                if op.startswith("*"):
                    unit.callsites.append(CallSite(symbol, None, INDIRECT))
                elif HEX_OPERAND_RE.match(op) and comment:
                    unit.callsites.append(CallSite(symbol, comment, DIRECT))
                # any other operand form is an unmodeled call; not a callsite
        unit.functions.append(FunctionRecord(
            canonical_name=symbol,
            start=start,
            end=max(last, start) + 1,
            api_name=e.group(1) if (e := EXPORT_RE.match(symbol)) else None,
            body=text[lo:hi] if len(unit.syscall_sites) > sites else "",
        ))
        if hi == len(text):
            return None
        nxt = FUNCTION_RE.match(text, hi + 1)
        if nxt is None:  # the line after the body is neither header nor instruction
            line = self.line_at(hi + 1)
            kind = "instruction line" if line[0].isspace() else "function header"
            raise ParseError(f"line {self.lineno(hi + 1)}: bad {kind}: {line!r}")
        return nxt


def parse_disassembly(text: str) -> DisasmUnit:
    """Parse SDIS text into a DisasmUnit.

    Function boundaries come from header lines; a header symbol matching
    EXPORT_RE marks an API export named by the text before "@@".  Every
    line is validated; only syscall hosts keep their body text.
    """
    parse = _Parse(text)
    first = _FIRST_LINE.search(text)
    if first is not None:
        m = FUNCTION_RE.match(text, first.start())
        if m is None:
            what = ("instruction outside any function" if INSN_RE.match(text, first.start())
                    else f"bad function header: {parse.line_at(first.start())!r}")
            raise ParseError(f"line {parse.lineno(first.start())}: {what}")
        while m is not None:
            m = parse.function(m)
    _check_disjoint(parse.unit.functions)
    return parse.unit


def _check_disjoint(functions: list[FunctionRecord]) -> None:
    ordered = sorted(functions, key=lambda f: f.start)
    for a, b in zip(ordered, ordered[1:]):
        if b.start < a.end:
            raise ParseError(
                f"function {a.canonical_name} [{a.start:#x},{a.end:#x}) overlaps "
                f"{b.canonical_name} [{b.start:#x},{b.end:#x})"
            )


def extract_plt_imports(unit: DisasmUnit) -> set[str]:
    """Base names of APIs the unit calls through PLT stubs."""
    return {
        site.target[: -len("@plt")]
        for site in unit.callsites
        if site.kind == DIRECT and site.target and site.target.endswith("@plt")
    }
