"""Parser for the SDIS textual disassembly format.

SDIS is a strict subset of common disassembler output: function headers
(`<hexaddr> <symbol>:`) followed by tab-separated instruction lines.  Lines
inside a function body that parse as neither header nor instruction are an
error rather than skipped, so broken fixtures surface immediately.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import ParseError

HEADER_RE = re.compile(r"^([0-9a-f]{1,16}) <([^>]+)>:$")
INSN_RE = re.compile(
    r"^\s+([0-9a-f]+):\t([a-z0-9.]+)(\s+(\S+(\s*,\s*\S+)*))?(\s+<([^>]+)>)?$"
)
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
    # every instruction, in order, of a function that holds a `syscall` (the
    # only ones `sysnum.resolve_numbers` reads); () for every other function
    instructions: tuple[Instruction, ...]


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


def _finish_function(symbol: str, start: int, last: int,
                     body: list[tuple[str, str, str | None, str | None]],
                     host: bool) -> FunctionRecord:
    """The record of a function whose last instruction is at `last` (below
    `start` when it has none); `body` holds its instruction fields."""
    insns = tuple(Instruction(int(a, 16), mn, tuple(_OPERAND_SPLIT(ops)) if ops else (), cm)
                  for a, mn, ops, cm in body) if host else ()
    return FunctionRecord(
        canonical_name=symbol,
        start=start,
        end=max(last, start) + 1,
        api_name=m.group(1) if (m := EXPORT_RE.match(symbol)) else None,
        instructions=insns,
    )


def parse_disassembly(text: str) -> DisasmUnit:
    """Parse SDIS text into a DisasmUnit.

    Function boundaries come from header lines; a header symbol matching
    EXPORT_RE marks an API export named by the text before "@@".  Every
    line is validated; instructions are kept only for syscall hosts.
    """
    insn_match, header_match = INSN_RE.match, HEADER_RE.match
    unit = DisasmUnit()
    functions, callsites, syscall_sites = unit.functions, unit.callsites, unit.syscall_sites
    symbol: str | None = None
    start = last = 0
    body = []  # (address, mnemonic, operands, comment) of each instruction line
    host = False

    for lineno, line in enumerate(text.splitlines(), 1):
        m = insn_match(line)
        if m:
            if symbol is None:
                raise ParseError(f"line {lineno}: instruction outside any function")
            fields = m.group(1, 2, 4, 7)
            addr = int(fields[0], 16)
            if addr <= last:
                raise ParseError(f"line {lineno}: address {addr:#x} does not increase")
            last = addr
            body.append(fields)
            mnemonic = fields[1]
            if mnemonic == "syscall":
                host = True
                syscall_sites.append(SyscallSite(symbol, addr))
            elif mnemonic in CALL_MNEMONICS and fields[2]:
                op = _OPERAND_SPLIT(fields[2], 1)[0]
                if op.startswith("*"):
                    callsites.append(CallSite(symbol, None, INDIRECT))
                elif HEX_OPERAND_RE.match(op) and fields[3]:
                    callsites.append(CallSite(symbol, fields[3], DIRECT))
                # any other operand form is an unmodeled call; not a callsite
            continue
        if not line.strip():
            continue
        m = header_match(line)
        if m:
            if symbol is not None:
                functions.append(_finish_function(symbol, start, last, body, host))
            start = int(m.group(1), 16)
            symbol = m.group(2)
            last = start - 1  # the address check then also rejects one below `start`
            body = []
            host = False
            continue
        if symbol is None or not line[0].isspace():
            raise ParseError(f"line {lineno}: bad function header: {line!r}")
        raise ParseError(f"line {lineno}: bad instruction line: {line!r}")

    if symbol is not None:
        functions.append(_finish_function(symbol, start, last, body, host))

    _check_disjoint(functions)
    return unit


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
