"""Syscall-number recovery at syscall sites, plus the number<->name table.

The model: every register is unknown at the top of a function.  Each
register name stands for its 64-bit cell (`eax`, `ax`, `al` and `ah` for
`rax`): a write through a 32- or 64-bit name sets the cell, and a write
through an 8- or 16-bit name makes it unknown, as does a read through one.
It models `mov`, `add` and `sub` of constants and known registers.  A call
makes every register unknown, and so does any other instruction for the
register that is its last operand.  Each `syscall` takes the accumulator's
value at that point, so a number is reported only where it is certain;
anything else is unresolved, never guessed.  A `syscall` then makes `rax`,
`rcx` and `r11` unknown, as the kernel writes them.  A `$` constant counts
only in SDIS syntax, hex after `0x` or decimal; any other is unknown.

The resolver reads only the lines that decide each number.  It finds each
`syscall` line of a host's body text as `disasm` does, and walks up from
it one line at a time, one pattern match a line, to the line that writes
the accumulator; from a full-width `mov`, `add` or `sub` it walks on for
the source register, and for `add` and `sub` for the old value too.  A
walk stops, with the value unknown, exactly where the model loses it: at a
call, at a `syscall` for `rax`, `rcx` and `r11`, at a partial-width write
or read, at any other write whose last operand is the register, at any
other source, and at the top of the function.  The walks of one function
share the value of every (cell, line) pair that any of them passed, so no
pair is examined twice: the work is at most the body's lines times the
cells it names.  A stack of waiting walks stands in for recursion, so a
chain of any length fits.  No instruction objects are built, an address is
read only at a `syscall`, and the operand token is split only at its last
comma.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from .disasm import CALL_MNEMONICS, DisasmUnit, FunctionRecord, SyscallSite
from .errors import ParseError, content_lines

MASK32 = 0xFFFFFFFF

# a line of validated body text, from its `\n`: its mnemonic and operand
# token, None where it has none
LINE_RE = re.compile(r"\n[^\S\n]+[0-9a-f]+:\t([a-z0-9.]+)(?:[^\S\n]+(\S+))?")
# a `syscall` mnemonic from the `:\t` after its address; a match must still
# be at the line's first `:\t`
SYSCALL_RE = re.compile(r":\tsyscall(?![a-z0-9.])")
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
SYSCALL_WRITES = {ACCUMULATOR, "rcx", "r11"}  # the registers the kernel writes


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


class ResolvedSyscallSite(NamedTuple):
    site: SyscallSite
    name: str | None  # None where the number was not recovered or is not in the table


def load_syscall_table(text: str) -> SyscallTable:
    """Parse syscall_64.tbl-shaped rows: `<num> <abi> <name> [<entry>]`.
    Rows of the x32 ABI are skipped: they repeat 64-bit names."""
    number_to_name: dict[int, str] = {}
    names: set[str] = set()
    for lineno, stripped in content_lines(text):
        fields = stripped.split()
        if len(fields) < 3:
            raise ParseError(f"line {lineno}: expected <num> <abi> <name>")
        try:
            if not (fields[0].isascii() and fields[0].isdigit()):  # no sign, "_" or non-ASCII digit
                raise ValueError
            number = int(fields[0])  # ValueError past int()'s digit limit
        except ValueError:
            raise ParseError(f"line {lineno}: bad number {fields[0]!r}") from None
        if fields[1] == "x32":
            continue
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
    body = function.body
    known: dict[tuple[str, int], int | None] = {}  # shared by the walks of every site
    numbers: dict[int, int | None] = {}
    for site in SYSCALL_RE.finditer(body):
        at = site.start()
        line = body.rfind("\n", 0, at)
        if body.find(":\t", line, at) < 0:  # not a `:\t` inside a comment
            address = int(body[line:at].strip(), 16)
            numbers[address] = _value(body, (ACCUMULATOR, line), known)
    return numbers


def _value(body: str, key: tuple[str, int], known: dict) -> int | None:
    """The value of the cell `key[0]` before the line at `body[key[1]]`.

    A stack of walks stands in for recursion: a walk that ends at a
    modelled write whose source or old value is not yet known stays on the
    stack under a walk for that value.  `known` gains the value of every
    (cell, position) pair that a walk passes."""
    walks = [_walk(body, key, known)]
    while walks:
        passed, mnemonic, source, old = walks[-1]
        if type(source) is tuple and source not in known:
            walks.append(_walk(body, source, known))
        elif old is not None and old not in known:
            walks.append(_walk(body, old, known))
        else:
            walks.pop()
            value = known[source] if type(source) is tuple else source
            if old is not None and value is not None:
                value = _APPLY[mnemonic](known[old], value)
            for pair in passed:
                known[pair] = value
    return known[key]


def _walk(body: str, key: tuple[str, int], known: dict):
    """Walk up from the line at `body[key[1]]` to the line that writes the
    cell `key[0]`: (the (cell, position) pairs passed, the write's mnemonic,
    its source as a value or as a pair to read, the pair that holds the
    cell's old value or None).  A known pair ends the walk as a `mov` from
    it, and a stop as a `mov` of None."""
    cell, pos = key
    passed = []
    while (key := (cell, pos)) not in known:
        passed.append(key)
        pos = body.rfind("\n", 0, pos)
        if pos < 0:
            break  # the start of the function
        if (m := LINE_RE.match(body, pos)) is None:
            continue  # a blank line
        mnemonic, token = m.groups("")
        if mnemonic == "syscall":
            if cell in SYSCALL_WRITES:
                break
            continue
        if mnemonic in CALL_MNEMONICS:
            break
        src, comma, dst = token.rpartition(",")  # dst: the last operand
        if (reg := _as_register(dst)) is None or reg[0] != cell:
            continue
        if not (reg[1] and comma and mnemonic in _APPLY and "," not in src):
            break  # a partial-width write, or any other write
        old = None if mnemonic == "mov" else (cell, pos)
        if (value := _as_constant(src)) is not None:
            return passed, mnemonic, value, old
        if (sreg := _as_register(src)) is not None and sreg[1]:
            return passed, mnemonic, (sreg[0], pos), old
        break  # a memory operand or a partial-width read
    else:
        return passed, "mov", key, None
    return passed, "mov", None, None


def resolve_sites(unit: DisasmUnit, table: SyscallTable) -> list[ResolvedSyscallSite]:
    """Resolve every syscall site of a unit against the table."""
    numbers: dict[int, int | None] = {}
    for fn in unit.functions:
        if fn.body:  # only a function that holds a `syscall` keeps its body
            numbers.update(resolve_numbers(fn))
    return [ResolvedSyscallSite(site, table.number_to_name.get(numbers.get(site.site_address)))
            for site in unit.syscall_sites]
