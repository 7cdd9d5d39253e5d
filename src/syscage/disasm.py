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

The regular-expression engine reads the lines, not a Python loop.  One
scan finds the headers, which bound the bodies.  In a body, one `findall`
matches each instruction line, once, after its `\\n`, and takes its
address; the body is valid when those lines and the empty line that usually
ends it account for every `\\n` in it.  Only a body that does not add up is
read again, by one possessive match that ends where its first bad line
starts, if it has one.  One search of the whole text, read in step with the
functions, finds their `call`, `callq` and `syscall` lines.
`parse_disassembly` validates every line this way, and it alone decides
which lines are `syscall` sites.  `header_extents` reads only the headers of
a text known to be valid, from the same scan, and decides where each
function ends.  No instruction is decoded here: a function holding a
`syscall` keeps its body text and where each of its `syscall` lines starts
there, from which `sysnum.resolve_numbers` walks back.
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
# what follows the address of an instruction line; then the line, without
# captures (a capture in a possessive repeat can crash the re module)
_AFTER_ADDRESS = rf":\t[a-z0-9.]++(?:{_WS}++\S++(?:{_WS}++<[^>\n]++>)?+)?+"
_INSN = rf"{_WS}++[0-9a-f]++{_AFTER_ADDRESS}"
INSN_RE = re.compile(rf"{_INSN}$", re.M)
_HEADER = r"([0-9a-f]{1,16}) <([^>\n]++)>:$"  # address, then symbol
# a header after its `\n`: the literal first character makes the scan fast
HEADER_RE = re.compile(rf"\n{_HEADER}", re.M)
OPENING_HEADER_RE = re.compile(_HEADER, re.M)  # a header at the text's start
# an instruction line after its `\n`, with its address: the one match of
# each; the literal first character makes the scan fast
LINE_RE = re.compile(rf"\n{_WS}++([0-9a-f]++){_AFTER_ADDRESS}$", re.M)
# the blank and instruction lines from a body's start, possessive so that it
# keeps no backtracking state: it ends where a bad line starts
BODY_RE = re.compile(rf"(?:\n(?:{_INSN}|{_WS}*+)$)*+", re.M)
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


def _check_addresses(text: str, lo: int, addrs: list[str], last: int) -> int:
    """The last of `addrs`, the addresses of the instruction lines of a body
    from text[lo] on, once each is above the one before and the first above
    `last`."""
    if not addrs:
        return last
    # hex digits of one length compare as their values do
    if (int(addrs[0], 16) > last and len(set(map(len, addrs))) == 1
            and all(map(lt, addrs, islice(addrs, 1, None)))):
        return int(addrs[-1], 16)
    for i, addr in enumerate(addrs):
        value = int(addr, 16)
        if value <= last:
            line = next(islice(LINE_RE.finditer(text, lo), i, None))
            raise ParseError(f"line {line_number(text, line.start() + 1)}: "
                             f"address {value:#x} does not increase")
        last = value
    return last


def _headers(text: str):
    """Each line of `text` that has the form of a header, in text order, as
    a match with the address and the symbol as groups 1 and 2."""
    if (first := OPENING_HEADER_RE.match(text)) is not None:
        yield first
    yield from HEADER_RE.finditer(text)


def _functions(text: str):
    """Each function of SDIS `text` in text order, as (symbol, lo, hi) with
    its body lines in text[lo:hi], once its header and every line of its
    body are validated."""
    headers = _headers(text)  # read one ahead, as each ends the body before
    h = next(headers, None)
    if first := _FIRST_LINE.search(text, 0, h.start() if h else len(text)):
        raise _bad_line(text, first.start(), False)
    last = -1  # the highest address so far; -1 before the first function
    while h is not None:
        symbol, start, lo = h.group(2), int(h.group(1), 16), h.end()
        if start <= last:
            raise ParseError(f"line {line_number(text, h.start(1))}: function {symbol} at "
                             f"{start:#x} is not above address {last:#x}")
        h = next(headers, None)
        hi = h.start() if h else len(text)
        addrs = LINE_RE.findall(text, lo, hi)
        # the body adds up when its instruction lines, and the empty line
        # that usually ends it, are all its lines; else it is read again
        if len(addrs) + (text[hi - 1] == "\n") != text.count("\n", lo, hi):
            valid = BODY_RE.match(text, lo, hi).end()
            if valid < hi:  # the line after `valid` is bad; an address error before it wins
                _check_addresses(text, lo, LINE_RE.findall(text, lo, valid), start - 1)
                raise _bad_line(text, valid + 1, True)
        # one below `start`, so that the check also rejects an address below it
        last = max(_check_addresses(text, lo, addrs, start - 1), start)
        yield symbol, lo, hi


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
    headers = list(_headers(text))
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
    sites = SITE_RE.finditer(text)  # read in step with the functions
    site = next(sites, None)
    for symbol, lo, hi in _functions(text):
        lines = []  # the `\n` that opens each `syscall` line, from `lo`
        while site is not None and (at := site.start()) < hi:
            line = text.rfind("\n", lo, at)  # -1 for a site in the header line
            if line >= 0 and text.find(":\t", line, at) < 0:  # else in a comment
                syscall, op, comment = site.groups()
                if syscall:
                    address = int(text[line:at].strip(), 16)
                    unit.syscall_sites.append(SyscallSite(symbol, address))
                    lines.append(line - lo)
                elif op:
                    op = op.split(",", 1)[0]
                    if op.startswith("*"):
                        unit.callsites.append(CallSite(symbol, None, INDIRECT))
                    elif HEX_OPERAND_RE.match(op) and comment:
                        unit.callsites.append(CallSite(symbol, comment, DIRECT))
                    # any other operand form is an unmodeled call; not a callsite
            site = next(sites, None)
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
