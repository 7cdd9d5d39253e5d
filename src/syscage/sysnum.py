"""Syscall-number recovery at syscall sites, plus the number<->name table.

The resolver runs once forward through each function that hosts a
`syscall`, holding the known 32-bit value of each register; every register
starts unknown.  It models `mov`, `add` and `sub` of constants and known
registers.  A call makes every register unknown, and so does any other
instruction for the register that is its last operand.  Each `syscall` takes
the accumulator's value at that point, so a number is reported only where it
is certain; anything else is unresolved, never guessed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .disasm import CALL_MNEMONICS, DisasmUnit, FunctionRecord, SyscallSite
from .errors import ParseError

MASK32 = 0xFFFFFFFF

# the modelled instructions: new destination value from its old value and
# the source's, both known 32-bit values or None
_APPLY = {
    "mov": lambda old, value: value,
    "add": lambda old, value: None if old is None else (old + value) & MASK32,
    "sub": lambda old, value: None if old is None else (old - value) & MASK32,
}

# 32-bit register names alias their 64-bit cells
_E_TO_R = {
    "eax": "rax", "ebx": "rbx", "ecx": "rcx", "edx": "rdx",
    "esi": "rsi", "edi": "rdi", "ebp": "rbp", "esp": "rsp",
}

ACCUMULATOR = "rax"


def _as_register(operand: str) -> str | None:
    if not operand.startswith("%"):
        return None
    name = operand[1:]
    return _E_TO_R.get(name, name)


def _as_constant(operand: str) -> int | None:
    if not operand.startswith("$"):
        return None
    try:
        return int(operand[1:], 0) & MASK32
    except ValueError:
        return None


@dataclass(frozen=True)
class SyscallTable:
    number_to_name: dict[int, str]
    names: frozenset[str]


@dataclass(frozen=True)
class ResolvedSyscallSite:
    site: SyscallSite
    name: str | None  # None where the number was not recovered or is not in the table


def load_syscall_table(text: str) -> SyscallTable:
    """Parse syscall_64.tbl-shaped rows: `<num> <abi> <name> [<entry>]`."""
    number_to_name: dict[int, str] = {}
    names: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split()
        if len(fields) < 3:
            raise ParseError(f"line {lineno}: expected <num> <abi> <name>")
        if not (fields[0].isascii() and fields[0].isdigit()):  # no sign, "_" or non-ASCII digit
            raise ParseError(f"line {lineno}: bad number {fields[0]!r}")
        number = int(fields[0])
        name = fields[2]
        if number in number_to_name:
            raise ParseError(f"line {lineno}: duplicate syscall number {number}")
        if name in names:
            raise ParseError(f"line {lineno}: duplicate syscall name {name!r}")
        number_to_name[number] = name
        names.add(name)
    return SyscallTable(number_to_name=number_to_name, names=frozenset(names))


def resolve_numbers(function: FunctionRecord) -> dict[int, int | None]:
    """Syscall number at each `syscall` of `function`, by address; None where
    the accumulator's value is unknown there."""
    regs: dict[str, int] = {}
    numbers: dict[int, int | None] = {}
    for ins in function.instructions:
        ops = ins.operands
        if ins.mnemonic == "syscall":
            numbers[ins.address] = regs.get(ACCUMULATOR)
        if ins.mnemonic in CALL_MNEMONICS:
            regs.clear()
        elif ins.mnemonic in _APPLY and len(ops) == 2:
            src, dst = ops
            dreg = _as_register(dst)
            if dreg is None:
                continue
            value = _as_constant(src)
            if value is None:
                value = regs.get(_as_register(src))
            if value is not None:
                value = _APPLY[ins.mnemonic](regs.get(dreg), value)
            if value is None:
                regs.pop(dreg, None)
            else:
                regs[dreg] = value
        elif ops and (reg := _as_register(ops[-1])) is not None:
            regs.pop(reg, None)  # conservative: any other write clobbers
    return numbers


def resolve_sites(unit: DisasmUnit, table: SyscallTable) -> list[ResolvedSyscallSite]:
    """Resolve every syscall site of a unit against the table."""
    hosts = {site.function for site in unit.syscall_sites}
    numbers: dict[int, int | None] = {}
    for fn in unit.functions:
        if fn.canonical_name in hosts:
            numbers.update(resolve_numbers(fn))
    return [ResolvedSyscallSite(site, table.number_to_name.get(numbers.get(site.site_address)))
            for site in unit.syscall_sites]
