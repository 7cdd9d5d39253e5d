"""Parser for the SDIS textual disassembly format.

SDIS is a strict subset of common disassembler output: function headers
(`<hexaddr> <symbol>:`) followed by instruction lines
`<ws><hexaddr>:\\t<mnemonic>[<ws><operand>[<ws><<comment>>]]`, where the
operand is one token with no whitespace (`$0x1,%eax`, operands joined by
commas) and a comment needs an operand before it.  Lines are separated by
`\\n` alone, and `line N` of an error is the text's N-th such line; any
other character, `\\r` and `\\x0c` included, belongs to its line.  Addresses
rise through the whole text: a header's is above every address before it,
and its first instruction's may equal it, so functions never overlap.
Lines that parse as neither header nor instruction are an error rather
than skipped, so broken fixtures surface immediately.

The regular-expression engine reads the lines, not a Python loop: one
possessive match takes a header and every blank or instruction line of its
body, keeping no backtracking state, one `findall` takes their addresses,
and one search finds their `call`, `callq` and `syscall` lines.
`parse_disassembly` validates every line this way, and it alone decides
which lines are `syscall` sites.  `header_extents` reads only the headers of
a text known to be valid, and decides where each function ends.  No
instruction is decoded here: a function holding a `syscall` keeps its body
text and where each of its `syscall` lines starts there, from which
`sysnum.resolve_numbers` walks back.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import islice
from operator import lt
from typing import NamedTuple

from .errors import ParseError, line_number

_WS = r"[^\S\n]"  # whitespace inside a line
# what follows the mnemonic: the operand token, then the comment
_TAIL = rf"(?:{_WS}+(\S+)(?:{_WS}+<([^>\n]+)>)?)?$"
# an instruction line, without captures
_INSN = rf"{_WS}++[0-9a-f]++:\t[a-z0-9.]++(?:{_WS}++\S++(?:{_WS}++<[^>\n]++>)?+)?+"
INSN_RE = re.compile(rf"{_INSN}$", re.M)
_HEADER = r"([0-9a-f]{1,16}) <([^>\n]++)>:$"  # address, then symbol
# a header, then its body: blank and instruction lines, each after its `\n`
FUNCTION_RE = re.compile(rf"^{_HEADER}((?:\n(?:{_INSN}|{_WS}*+)$)*+)", re.M)
# a header after its `\n`: the literal first character makes the scan fast
HEADER_RE = re.compile(rf"\n{_HEADER}", re.M)
OPENING_HEADER_RE = re.compile(_HEADER, re.M)  # a header at the text's start
ADDRESS_RE = re.compile(rf"\n{_WS}++([0-9a-f]++):")
# a `call`, `callq` or `syscall` line from the `:\t` after its address:
# "syscall" or None, then the tail.  The literal `:\t` makes the search
# fast; a match must still be at the line's first `:\t`
SITE_RE = re.compile(rf":\t(?:(syscall)|callq?){_TAIL}", re.M)
_FIRST_LINE = re.compile(rf"^{_WS}*\S", re.M)  # the first line that is not blank
HEX_OPERAND_RE = re.compile(r"^[0-9a-f]+$")
# `name@@VERSION`, but not objdump's label for code that no symbol covers,
# relative to the nearest symbol, such as `abort@@GLIBC_2.2.5-0x1f`
EXPORT_RE = re.compile(r"(.*?)@@(?!.*[+-]0x[0-9a-f]+$)")

CALL_MNEMONICS = {"call", "callq"}

DIRECT = "Direct"
INDIRECT = "Indirect"


class FunctionRecord(NamedTuple):
    canonical_name: str
    api_name: str | None  # set exactly for an API export
    # the body lines, each after its `\n`, of a function that holds a
    # `syscall` (the only ones `sysnum.resolve_numbers` reads); "" otherwise
    body: str = ""
    # the index in `body` of the `\n` that opens each `syscall` line, in
    # order: one per site of this function in `DisasmUnit.syscall_sites`
    syscall_lines: tuple[int, ...] = ()


class CallSite(NamedTuple):
    caller: str
    target: str | None  # None for an indirect call
    kind: str


class SyscallSite(NamedTuple):
    function: str
    site_address: int


@dataclass
class DisasmUnit:
    functions: list[FunctionRecord] = field(default_factory=list)
    callsites: list[CallSite] = field(default_factory=list)
    syscall_sites: list[SyscallSite] = field(default_factory=list)


def _bad_line(text: str, pos: int, in_body: bool) -> ParseError:
    """The error for the line at `pos`, which starts no function: after a
    function, an indented line is a bad instruction line; before the first,
    a whole instruction line is outside any function."""
    end = text.find("\n", pos)
    line = text[pos:] if end < 0 else text[pos:end]
    if not in_body and INSN_RE.match(text, pos):
        what = "instruction outside any function"
    else:
        kind = "instruction line" if in_body and line[0].isspace() else "function header"
        what = f"bad {kind}: {line!r}"
    return ParseError(f"line {line_number(text, pos)}: {what}")


def _check_addresses(text: str, lo: int, hi: int, last: int) -> int:
    """The last address of the instruction lines in text[lo:hi], each above
    the one before and the first above `last`."""
    addrs = ADDRESS_RE.findall(text, lo, hi)
    if not addrs:
        return last
    # hex digits of one length compare as their values do
    if (int(addrs[0], 16) > last and len(set(map(len, addrs))) == 1
            and all(map(lt, addrs, islice(addrs, 1, None)))):
        return int(addrs[-1], 16)
    for m in ADDRESS_RE.finditer(text, lo, hi):
        addr = int(m.group(1), 16)
        if addr <= last:
            raise ParseError(f"line {line_number(text, m.start() + 1)}: "
                             f"address {addr:#x} does not increase")
        last = addr
    return last


def _functions(text: str):
    """Each function of SDIS `text` in text order, as (symbol, lo, hi) with
    its body lines in text[lo:hi], once its header and every line of its
    body are validated."""
    pos = first.start() if (first := _FIRST_LINE.search(text)) else len(text)
    last = -1  # the highest address so far; -1 before the first function
    for m in FUNCTION_RE.finditer(text, pos):
        if m.start() != pos:  # the line at `pos` starts no function
            break
        symbol, start = m.group(2), int(m.group(1), 16)
        if start <= last:
            raise ParseError(f"line {line_number(text, pos)}: function {symbol} at "
                             f"{start:#x} is not above address {last:#x}")
        lo, hi = m.span(3)
        # one below `start`, so that the check also rejects an address below it
        last = max(_check_addresses(text, lo, hi, start - 1), start)
        yield symbol, lo, hi
        pos = hi + 1  # past the `\n` after the body, or past the text's end
    if pos < len(text):
        raise _bad_line(text, pos, last >= 0)


def header_extents(text: str) -> list[tuple[str, int, int]]:
    """(name, start, end) of each function of SDIS `text` that has been
    validated already, read from the headers alone, in text order.

    Each function ends at the next one's start, so that the return address
    of a trailing call (to a function that does not return) still lies in
    the caller.  The last one ends one past the address of its last
    instruction line, or one past its start when it has none: in a valid
    text only a header starts with a hex digit, and a body line holds a
    `:\\t` exactly when it is an instruction line, whose address is what
    comes before its first `:\\t`.  On any other text this returns some
    extents or raises ParseError."""
    headers = list(HEADER_RE.finditer(text))
    if (first := OPENING_HEADER_RE.match(text)) is not None:
        headers.insert(0, first)
    if not headers:
        return []
    starts = [int(h.group(1), 16) for h in headers]
    end, body = starts[-1] + 1, headers[-1].end()  # the body's lines follow the header
    if (tab := text.rfind(":\t", body)) >= 0:
        line = text.rfind("\n", body, tab) + 1
        address = text[line:text.find(":\t", line)].strip()  # int() strips less
        try:
            end = int(address, 16) + 1
        except ValueError:
            raise ParseError(f"line {line_number(text, line)}: bad address {address!r}") from None
    return list(zip([h.group(2) for h in headers], starts, starts[1:] + [end]))


def parse_disassembly(text: str) -> DisasmUnit:
    """Parse SDIS text into a DisasmUnit.

    Function boundaries come from header lines; a header symbol matching
    EXPORT_RE marks an API export named by the text before "@@".  Every
    line is validated, in text order; only syscall hosts keep their body
    text.
    """
    unit = DisasmUnit()
    for symbol, lo, hi in _functions(text):
        lines = []  # the `\n` that opens each `syscall` line, from `lo`
        for s in SITE_RE.finditer(text, lo, hi):
            line = text.rfind("\n", lo, s.start())
            if text.find(":\t", line, s.start()) >= 0:
                continue  # a `:\t` inside a comment
            syscall, op, comment = s.groups()
            if syscall:
                address = int(text[line:s.start()].strip(), 16)
                unit.syscall_sites.append(SyscallSite(symbol, address))
                lines.append(line - lo)
            elif op:
                op = op.split(",", 1)[0]
                if op.startswith("*"):
                    unit.callsites.append(CallSite(symbol, None, INDIRECT))
                elif HEX_OPERAND_RE.match(op) and comment:
                    unit.callsites.append(CallSite(symbol, comment, DIRECT))
                # any other operand form is an unmodeled call; not a callsite
        api = e.group(1) if (e := EXPORT_RE.match(symbol)) else None
        body = text[lo:hi] if lines else ""
        unit.functions.append(FunctionRecord(symbol, api, body, tuple(lines)))
    return unit


def extract_plt_imports(unit: DisasmUnit) -> set[str]:
    """Base names of APIs the unit calls through PLT stubs."""
    return {
        site.target[: -len("@plt")]
        for site in unit.callsites
        if site.kind == DIRECT and site.target and site.target.endswith("@plt")
    }
