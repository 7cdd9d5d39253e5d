"""Parser for the SDIS textual disassembly format.

SDIS is a strict subset of common disassembler output: function headers
(`<hexaddr> <symbol>:`) followed by tab-separated instruction lines.  Lines
inside a function body that parse as neither header nor instruction are an
error rather than skipped, so broken fixtures surface immediately.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import ParseError

HEADER_RE = re.compile(r"^([0-9a-f]{1,16}) <([^>]+)>:$")
INSN_RE = re.compile(
    r"^\s+([0-9a-f]+):\t([a-z0-9.]+)(\s+(\S+(\s*,\s*\S+)*))?(\s+<([^>]+)>)?$"
)
HEX_OPERAND_RE = re.compile(r"^[0-9a-f]+$")

CALL_MNEMONICS = {"call", "callq"}

DIRECT = "Direct"
INDIRECT = "Indirect"


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
    api_name: str | None  # set exactly for an API export
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


def _split_operands(text: str | None) -> tuple[str, ...]:
    if not text:
        return ()
    return tuple(re.split(r"\s*,\s*", text))


def _finish_function(symbol: str, start: int, insns: list[Instruction]) -> FunctionRecord:
    end = insns[-1].address + 1 if insns else start + 1
    return FunctionRecord(
        canonical_name=symbol,
        start=start,
        end=end,
        api_name=symbol.split("@@", 1)[0] if "@@" in symbol else None,
        instructions=tuple(insns),
    )


def parse_disassembly(text: str) -> DisasmUnit:
    """Parse SDIS text into a DisasmUnit.

    Function boundaries come from header lines; a header symbol containing
    "@@" marks an API export whose api_name is the text before "@@".
    """
    functions: list[FunctionRecord] = []
    cur_symbol: str | None = None
    cur_start = 0
    cur_insns: list[Instruction] = []

    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        m = HEADER_RE.match(line)
        if m:
            if cur_symbol is not None:
                functions.append(_finish_function(cur_symbol, cur_start, cur_insns))
            cur_start = int(m.group(1), 16)
            cur_symbol = m.group(2)
            cur_insns = []
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
                    symbol_comment=m.group(7),
                )
            )
            continue
        if cur_symbol is None or not line[0].isspace():
            raise ParseError(f"line {lineno}: bad function header: {line!r}")
        raise ParseError(f"line {lineno}: bad instruction line: {line!r}")

    if cur_symbol is not None:
        functions.append(_finish_function(cur_symbol, cur_start, cur_insns))

    _check_disjoint(functions)

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
