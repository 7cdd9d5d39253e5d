"""Parser for the SDIS textual disassembly format.

SDIS is a strict subset of common disassembler output: function headers
(`<hexaddr> <symbol>:`) followed by tab-separated instruction lines.  Lines
are separated by `\\n` alone, and `line N` of an error is the text's N-th
such line; any other character, `\\r` and `\\x0c` included, belongs to its
line.  Lines inside a function body that parse as neither header nor
instruction are an error rather than skipped, so broken fixtures surface
immediately.

The regular-expression engine reads the lines, not a Python loop: one match
takes a header and the lines of its body that are blank or in the common
instruction form (at most one operand token and an optional `<comment>`),
up to 1000 of them, one `findall` takes their addresses, and one search
finds their `call`, `callq` and `syscall` lines.  A line in any other form
is read by `_rest_fields`, in time linear in the line.  Instructions are
decoded only when read, from the body text that a function holding a
`syscall` keeps.
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
# an instruction line in the common form, without captures
_COMMON = rf"{_WS}+[0-9a-f]+:\t[a-z0-9.]+(?:{_WS}+\S+(?:{_WS}+<[^>\n]+>)?)?"
# at most 1000 lines a match: the engine keeps backtracking state for each
# line until the match ends (about 1 KiB a line)
_BODY = rf"(?:\n(?:{_COMMON}|{_WS}*)$){{0,1000}}"
FUNCTION_RE = re.compile(rf"^([0-9a-f]{{1,16}}) <([^>\n]+)>:$({_BODY})", re.M)
BODY_RE = re.compile(_BODY, re.M)
ADDRESS_RE = re.compile(rf"\n{_WS}+([0-9a-f]+):")
# what follows the mnemonic in the common form: operand token, comment
_TAIL = rf"(?:{_WS}+(\S+)(?:{_WS}+<([^>\n]+)>)?)?$"
# a common-form `call`, `callq` or `syscall` line from the `:\t` after its
# address: "syscall" or None, then the tail.  The literal `:\t` makes the
# search fast; a match must still start at the line's address
SITE_RE = re.compile(rf":\t(?:(syscall)|callq?){_TAIL}", re.M)
# every instruction line; the rest of a line not in the common form is in group 5
DECODE_RE = re.compile(rf"\n{_WS}+([0-9a-f]+):\t([a-z0-9.]+)(?:{_TAIL}|(.+))", re.M)
_LINE_HEAD = re.compile(r"\s+([0-9a-f]+):\t([a-z0-9.]+)")
_FIRST_LINE = re.compile(rf"^{_WS}*\S", re.M)  # the first line that is not blank
_TOKEN = re.compile(r"\S+")
HEX_OPERAND_RE = re.compile(r"^[0-9a-f]+$")
# `name@@VERSION`, but not objdump's label for code that no symbol covers,
# relative to the nearest symbol, such as `abort@@GLIBC_2.2.5-0x1f`
EXPORT_RE = re.compile(r"(.*?)@@(?!.*[+-]0x[0-9a-f]+$)")
_OPERAND_SPLIT = re.compile(r"\s*,\s*").split

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
    """The instructions of validated body text.  The one operand token of
    a line in the common form holds no space, so its commas split it."""
    return tuple([
        Instruction(int(address, 16), mnemonic, tuple(ops.split(",")) if ops else (),
                    comment or None) if not rest else _decode_rest(address, mnemonic, rest)
        for address, mnemonic, ops, comment, rest in DECODE_RE.findall(body)])


def _decode_rest(address: str, mnemonic: str, rest: str) -> Instruction:
    ops, comment = _rest_fields(rest)
    return Instruction(int(address, 16), mnemonic,
                       tuple(_OPERAND_SPLIT(ops)) if ops else (), comment)


def _rest_fields(rest: str) -> tuple[str | None, str | None] | None:
    """(operands, comment) of the text after a mnemonic, or None where no
    instruction line ends so.

    The grammar is `(\\s+(\\S+(\\s*,\\s*\\S+)*))?(\\s+<([^>]+)>)?$`, and the
    fields are those that a backtracking matcher finds first, in linear time.
    Operands end at the end of a token (a run of non-space); the first of
    those ends that is followed by the end or by a whole comment wins, in the
    matcher's order: from a token, first continue through a next token that
    starts with a comma, else stop here, else continue through this token's
    own last comma.  `res[i][entry]` is the winning end from token i, entered
    at its start (entry 0) or after its leading comma (entry 1)."""
    if not rest:
        return None, None
    spans = [m.span() for m in _TOKEN.finditer(rest)]
    if not rest[0].isspace() or not spans or spans[-1][1] != len(rest):
        return None
    n = len(spans)
    last_gt = rest.rfind(">", 0, len(rest) - 1)

    def comment_from(i: int) -> bool:
        s = spans[i][0]
        return rest[s] == "<" and rest[-1] == ">" and s > last_gt and len(rest) - s >= 3

    res: list[list[int | None]] = [[None, None] for _ in range(n)]
    for i in reversed(range(n)):
        s, e = spans[i]
        for entry in (0, 1):
            end = None
            if i + 1 < n and rest[spans[i + 1][0]] == ",":
                if spans[i + 1][1] - spans[i + 1][0] > 1:
                    end = res[i + 1][1]
                elif i + 2 < n:  # a lone comma joins the tokens around it
                    end = res[i + 2][0]
            if end is None and (i + 1 == n or comment_from(i + 1)):
                end = i
            if end is None and i + 1 < n and rest[e - 1] == "," and e - 1 > s + entry:
                end = res[i + 1][0]
            res[i][entry] = end
    end = res[0][0]
    if end is None:
        return (None, rest[spans[0][0] + 1:-1]) if comment_from(0) else None
    comment = rest[spans[end + 1][0] + 1:-1] if end + 1 < n else None
    return rest[spans[0][0]:spans[end][1]], comment


def _line_fields(line: str) -> tuple[str, str, str | None, str | None] | None:
    """(address, mnemonic, operands, comment) of an instruction line, or None."""
    m = _LINE_HEAD.match(line)
    rest = m and _rest_fields(line[m.end():])
    return None if rest is None else (m.group(1), m.group(2), *rest)


class _Parse:
    """One parse: the text and the unit read from it so far."""

    def __init__(self, text: str):
        self.text = text
        self.unit = DisasmUnit()

    def lineno(self, pos: int) -> int:
        return self.text.count("\n", 0, pos) + 1

    def line_at(self, pos: int) -> tuple[str, int]:
        end = self.text.find("\n", pos)
        end = len(self.text) if end < 0 else end
        return self.text[pos:end], end

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

    def add_site(self, symbol: str, address: str, mnemonic: str,
                 ops: str | None, comment: str | None) -> None:
        if mnemonic == "syscall":
            self.unit.syscall_sites.append(SyscallSite(symbol, int(address, 16)))
        elif mnemonic in CALL_MNEMONICS and ops:
            op = _OPERAND_SPLIT(ops, 1)[0]
            if op.startswith("*"):
                self.unit.callsites.append(CallSite(symbol, None, INDIRECT))
            elif HEX_OPERAND_RE.match(op) and comment:
                self.unit.callsites.append(CallSite(symbol, comment, DIRECT))
            # any other operand form is an unmodeled call; not a callsite

    def function(self, m: re.Match) -> re.Match | None:
        """Read the function whose header and first lines `m` matched, up to
        the next header (returned) or the end of the text (None)."""
        text, symbol, start = self.text, m.group(2), int(m.group(1), 16)
        sites = len(self.unit.syscall_sites)
        body_start = lo = m.start(3)
        hi = m.end()
        last = start - 1  # the address check then also rejects one below `start`
        nxt = None
        while True:
            # text[lo:hi] holds blank lines and instruction lines in the common form
            last = self.check_addresses(lo, hi, last)
            for s in SITE_RE.finditer(text, lo, hi):
                head = _LINE_HEAD.match(text, text.rfind("\n", lo, s.start()) + 1)
                if head.end(1) == s.start():  # not a `:\t` inside a comment
                    self.add_site(symbol, head.group(1), s.group(1) or "call", *s.group(2, 3))
            if hi == len(text) or (nxt := FUNCTION_RE.match(text, hi + 1)):
                break
            lo = hi
            hi = BODY_RE.match(text, lo).end()
            if hi == lo:  # the next line is in another form, or is no instruction
                line, lo = self.line_at(hi + 1)
                fields = _line_fields(line)
                if fields is None:
                    kind = "instruction line" if line[0].isspace() else "function header"
                    raise ParseError(f"line {self.lineno(hi + 1)}: bad {kind}: {line!r}")
                last = self.check_addresses(hi, lo, last)
                self.add_site(symbol, *fields)
                hi = BODY_RE.match(text, lo).end()
        host = len(self.unit.syscall_sites) > sites
        self.unit.functions.append(FunctionRecord(
            canonical_name=symbol,
            start=start,
            end=max(last, start) + 1,
            api_name=e.group(1) if (e := EXPORT_RE.match(symbol)) else None,
            body=text[body_start:hi] if host else "",
        ))
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
            line, _ = parse.line_at(first.start())
            what = ("instruction outside any function" if _line_fields(line)
                    else f"bad function header: {line!r}")
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
