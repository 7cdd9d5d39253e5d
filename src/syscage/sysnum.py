"""Syscall-number recovery at syscall sites, plus the number<->name table.

The resolver walks backward from a `syscall` instruction collecting the
def-use chain of the accumulator, then replays the extracted slice forward.
It understands exactly three ways a number reaches the accumulator: a
constant move, constant moves relayed through other registers, and add/sub
arithmetic on tracked registers.  Anything else yields Unresolved rather
than a guess.
"""

from __future__ import annotations

from dataclasses import dataclass

from .disasm import CALL_MNEMONICS, FunctionRecord, Instruction, SyscallSite
from .errors import ParseError

MASK32 = 0xFFFFFFFF

_SUPPORTED = {"mov", "add", "sub"}

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


@dataclass
class SyscallTable:
    number_to_name: dict[int, str]
    name_to_number: dict[str, int]

    @property
    def names(self) -> set[str]:
        return set(self.name_to_number)

    def __len__(self) -> int:
        return len(self.number_to_name)


@dataclass(frozen=True)
class ResolvedSyscallSite:
    site: SyscallSite
    number: int | None
    name: str | None


def load_syscall_table(text: str) -> SyscallTable:
    """Parse syscall_64.tbl-shaped rows: `<num> <abi> <name> [<entry>]`."""
    number_to_name: dict[int, str] = {}
    name_to_number: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split()
        if len(fields) < 3:
            raise ParseError(f"line {lineno}: expected <num> <abi> <name>")
        try:
            number = int(fields[0])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad number {fields[0]!r}") from exc
        name = fields[2]
        if number in number_to_name:
            raise ParseError(f"line {lineno}: duplicate syscall number {number}")
        if name in name_to_number:
            raise ParseError(f"line {lineno}: duplicate syscall name {name!r}")
        number_to_name[number] = name
        name_to_number[name] = number
    return SyscallTable(number_to_name=number_to_name, name_to_number=name_to_number)


def _writes_tracked(ins: Instruction, tracked: set[str]) -> bool:
    # Conservative: an unsupported mnemonic whose last operand is a tracked
    # register is assumed to clobber it.
    if not ins.operands:
        return False
    reg = _as_register(ins.operands[-1])
    return reg is not None and reg in tracked


def resolve_number(function: FunctionRecord, site: SyscallSite) -> int | None:
    """Syscall number at `site`, or None when the def chain leaves the
    supported instruction set, crosses a callsite, or exits the function."""
    idx = next(
        (i for i, ins in enumerate(function.instructions)
         if ins.address == site.site_address),
        None,
    )
    if idx is None:
        return None

    tracked = {ACCUMULATOR}
    slice_rev: list[Instruction] = []
    for ins in reversed(function.instructions[:idx]):
        if not tracked:
            break
        if ins.mnemonic in CALL_MNEMONICS:
            return None
        if ins.mnemonic in _SUPPORTED and len(ins.operands) == 2:
            src, dst = ins.operands
            dreg = _as_register(dst)
            if dreg is None or dreg not in tracked:
                continue
            const = _as_constant(src)
            sreg = _as_register(src)
            if const is None and sreg is None:
                return None  # memory operand feeding a tracked register
            slice_rev.append(ins)
            if ins.mnemonic == "mov":
                tracked.discard(dreg)
                if sreg is not None:
                    tracked.add(sreg)
            else:  # add/sub keep the destination live
                if sreg is not None:
                    tracked.add(sreg)
        elif _writes_tracked(ins, tracked):
            return None
    if tracked:
        return None  # chain exits the function body

    env: dict[str, int] = {}
    for ins in reversed(slice_rev):
        src, dst = ins.operands
        dreg = _as_register(dst)
        const = _as_constant(src)
        value = const if const is not None else env.get(_as_register(src))
        if value is None or dreg is None:
            return None
        if ins.mnemonic == "mov":
            env[dreg] = value & MASK32
        elif dreg not in env:
            return None
        elif ins.mnemonic == "add":
            env[dreg] = (env[dreg] + value) & MASK32
        else:
            env[dreg] = (env[dreg] - value) & MASK32
    number = env.get(ACCUMULATOR)
    return number & MASK32 if number is not None else None


def resolve_sites(unit_functions, sites, table: SyscallTable) -> list[ResolvedSyscallSite]:
    """Resolve every syscall site of a unit against the table."""
    by_name = {fn.canonical_name: fn for fn in unit_functions}
    resolved = []
    for site in sites:
        number = resolve_number(by_name[site.function], site)
        name = table.number_to_name.get(number) if number is not None else None
        if name is None:
            number = None
        resolved.append(ResolvedSyscallSite(site=site, number=number, name=name))
    return resolved
