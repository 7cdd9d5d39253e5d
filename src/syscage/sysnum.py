"""Syscall-number recovery at syscall sites, plus the number<->name table.

The resolver runs once forward through each function that hosts a
`syscall`, holding the known 32-bit value of each 64-bit register; every
register starts unknown.  Each register name stands for its 64-bit cell
(`eax`, `ax`, `al` and `ah` for `rax`): a write through a 32- or 64-bit name
sets the cell, and a write through an 8- or 16-bit name makes it unknown, as
does a read through one.  It models `mov`, `add` and `sub` of constants and
known registers.  A call makes every register unknown, and so does any other
instruction for the register that is its last operand.  Each `syscall` takes
the accumulator's value at that point, so a number is reported only where it
is certain; anything else is unresolved, never guessed.  A `syscall` then
makes `rax`, `rcx` and `r11` unknown, as the kernel writes them.  The
pass reads each host's body text straight, one pattern match a line: no
instruction objects are built, an address is read only at a `syscall`,
and the operand token is split only at its last comma.  A `$` constant
counts only in SDIS syntax, hex after `0x` or decimal; any other is unknown.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .disasm import CALL_MNEMONICS, DisasmUnit, FunctionRecord, SyscallSite
from .errors import ParseError

MASK32 = 0xFFFFFFFF

# a line of validated body text: its address, mnemonic and operand token,
# "" where it has none
LINE_RE = re.compile(r"\n[^\S\n]+([0-9a-f]+):\t([a-z0-9.]+)(?:[^\S\n]+(\S+))?")
CONSTANT_RE = re.compile(r"\$-?(?:0x[0-9a-f]+|[0-9]+)")

# the modelled instructions: new destination value from its old value and
# the source's, both known 32-bit values or None
_APPLY = {
    "mov": lambda old, value: value,
    "add": lambda old, value: None if old is None else (old + value) & MASK32,
    "sub": lambda old, value: None if old is None else (old - value) & MASK32,
}


def _register_cells() -> dict[str, tuple[str, bool]]:
    """Each register name -> (its 64-bit cell, whether a write through the
    name sets the whole cell, as a 32- or 64-bit name does)."""
    families = [(f"r{x}x", f"e{x}x", [f"{x}x", f"{x}l", f"{x}h"]) for x in "abcd"]
    families += [(f"r{x}", f"e{x}", [x, f"{x}l"]) for x in ("si", "di", "bp", "sp")]
    families += [(f"r{n}", f"r{n}d", [f"r{n}w", f"r{n}b"]) for n in range(8, 16)]
    cells = {}
    for cell, low32, partial in families:
        cells |= {cell: (cell, True), low32: (cell, True)}
        cells |= dict.fromkeys(partial, (cell, False))
    return cells


_CELLS = _register_cells()  # any other name is a cell of its own

ACCUMULATOR = "rax"


def _as_register(operand: str) -> tuple[str, bool] | None:
    """(cell, full) of a register operand, or None for any other operand."""
    if not operand.startswith("%"):
        return None
    name = operand[1:]
    return _CELLS.get(name, (name, True))


def _as_constant(operand: str) -> int | None:
    """The value of an SDIS `$` constant, or None for any other operand."""
    if CONSTANT_RE.fullmatch(operand) is None:
        return None
    try:  # int() rejects a decimal with leading zeros or past its digit limit
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
    for lineno, line in enumerate(text.split("\n"), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split()
        if len(fields) < 3:
            raise ParseError(f"line {lineno}: expected <num> <abi> <name>")
        try:
            if not (fields[0].isascii() and fields[0].isdigit()):  # no sign, "_" or non-ASCII digit
                raise ValueError
            number = int(fields[0])  # ValueError past int()'s digit limit
        except ValueError:
            raise ParseError(f"line {lineno}: bad number {fields[0]!r}") from None
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
    for address, mnemonic, token in LINE_RE.findall(function.body):
        src, comma, dst = token.rpartition(",")  # dst: the last operand
        if mnemonic == "syscall":  # the kernel writes rax, rcx and r11
            numbers[int(address, 16)] = regs.pop(ACCUMULATOR, None)
            regs.pop("rcx", None)
            regs.pop("r11", None)
        elif mnemonic in CALL_MNEMONICS:
            regs.clear()
        elif comma and mnemonic in _APPLY and "," not in src:  # two operands
            dreg = _as_register(dst)
            if dreg is None:
                continue
            value = _as_constant(src)
            if value is None and (sreg := _as_register(src)) is not None and sreg[1]:
                value = regs.get(sreg[0])
            cell, full = dreg
            if value is not None and full:
                value = _APPLY[mnemonic](regs.get(cell), value)
            if value is None or not full:
                regs.pop(cell, None)
            else:
                regs[cell] = value
        elif (reg := _as_register(dst)) is not None:
            regs.pop(reg[0], None)  # conservative: any other write clobbers
    return numbers


def resolve_sites(unit: DisasmUnit, table: SyscallTable) -> list[ResolvedSyscallSite]:
    """Resolve every syscall site of a unit against the table."""
    numbers: dict[int, int | None] = {}
    for fn in unit.functions:
        if fn.body:  # only a function that holds a `syscall` keeps its body
            numbers.update(resolve_numbers(fn))
    return [ResolvedSyscallSite(site, table.number_to_name.get(numbers.get(site.site_address)))
            for site in unit.syscall_sites]
