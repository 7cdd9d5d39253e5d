import random
import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syscage import packaged_data
from syscage.disasm import parse_disassembly
from syscage.errors import ParseError
from syscage.sysnum import (
    load_syscall_table,
    resolve_numbers,
    resolve_sites,
)

from oracles import interpret_accumulator, resolve_numbers_reference
from test_verifier import _replace_run


def _function(body):
    """body: list of (mnemonic, operands) ending with syscall.  The host `f`
    that `parse_disassembly` makes of it, and the unit that holds `f`."""
    lines = ["0000000000001000 <f>:"]
    addr = 0x1000
    for mnemonic, operands in body:
        lines.append(f"    {addr:x}:\t{mnemonic}" + (f"\t{','.join(operands)}" if operands else ""))
        addr += 5
    unit = parse_disassembly("\n".join(lines))
    return unit.functions[0], unit


def _resolve(body):
    """The resolved number of the last `syscall` of `body`."""
    return _numbers(body)[-1]


def test_constant_to_accumulator():
    assert _resolve([("mov", ["$0x3", "%eax"]), ("syscall", [])]) == 3


def test_relay_through_register():
    body = [("mov", ["$0x1", "%ebx"]), ("mov", ["%ebx", "%eax"]), ("syscall", [])]
    assert _resolve(body) == 1


def test_arithmetic_on_accumulator():
    body = [("mov", ["$0x2", "%eax"]), ("add", ["$0x1", "%eax"]), ("syscall", [])]
    assert _resolve(body) == 3


def test_sub_and_register_arithmetic():
    body = [
        ("mov", ["$0x10", "%ecx"]),
        ("mov", ["$0x20", "%eax"]),
        ("sub", ["%ecx", "%eax"]),
        ("syscall", []),
    ]
    assert _resolve(body) == 0x10


def test_rax_and_eax_same_cell():
    body = [("mov", ["$0x5", "%rax"]), ("add", ["$0x1", "%eax"]), ("syscall", [])]
    assert _resolve(body) == 6


def test_unresolved_when_chain_exits_function():
    assert _resolve([("add", ["$0x1", "%eax"]), ("syscall", [])]) is None
    assert _resolve([("syscall", [])]) is None


def test_unresolved_across_callsite():
    body = [
        ("mov", ["$0x1", "%ebx"]),
        ("callq", ["2000"]),
        ("mov", ["%ebx", "%eax"]),
        ("syscall", []),
    ]
    assert _resolve(body) is None


def test_call_after_resolution_is_fine():
    body = [
        ("callq", ["2000"]),
        ("mov", ["$0x7", "%eax"]),
        ("syscall", []),
    ]
    assert _resolve(body) == 7


def test_unresolved_on_memory_load():
    assert _resolve([("mov", ["(%rdi)", "%eax"]), ("syscall", [])]) is None


def test_unresolved_on_unsupported_write():
    body = [("xor", ["%eax", "%eax"]), ("syscall", [])]
    assert _resolve(body) is None


def test_unsupported_write_to_relay_register():
    body = [
        ("lea", ["0x8(%rsp)", "%rbx"]),
        ("mov", ["%ebx", "%eax"]),
        ("syscall", []),
    ]
    assert _resolve(body) is None


def test_later_untracked_def_ignored():
    body = [
        ("mov", ["$0x1", "%ebx"]),
        ("mov", ["%ebx", "%eax"]),
        ("mov", ["$0x9", "%ebx"]),
        ("syscall", []),
    ]
    assert _resolve(body) == 1


def test_narrow_write_clobbers_its_register():
    # `mov $0x3c,%al` leaves %rax unknown, not the 1 of the earlier %eax write
    body = [("mov", ["$0x1", "%eax"]), ("mov", ["$0x3c", "%al"]), ("syscall", [])]
    assert _resolve(body) is None
    body = [("mov", ["$0x1", "%eax"]), ("mov", ["%eax", "%ebx"]),
            ("add", ["$0x1", "%bx"]), ("mov", ["%ebx", "%eax"]), ("syscall", [])]
    assert _resolve(body) is None
    # a read through an 8- or 16-bit name is unknown too
    assert _resolve([("mov", ["$0x1", "%ecx"]), ("mov", ["%cl", "%eax"]), ("syscall", [])]) is None


def test_every_width_of_a_register_is_one_cell():
    # %r15d and %r15 are one register: the later 64-bit write wins
    body = [("mov", ["$0x1", "%r15d"]), ("mov", ["$0x2", "%r15"]),
            ("mov", ["%r15d", "%eax"]), ("syscall", [])]
    assert _resolve(body) == 2
    body = [("mov", ["$0x3", "%r8"]), ("add", ["$0x1", "%r8d"]),
            ("mov", ["%r8", "%rax"]), ("syscall", [])]
    assert _resolve(body) == 4
    body = [("mov", ["$0x3", "%esi"]), ("mov", ["$0x7", "%sil"]),
            ("mov", ["%rsi", "%rax"]), ("syscall", [])]
    assert _resolve(body) is None


def test_wraparound_mod_2_32():
    body = [("mov", ["$0x0", "%eax"]), ("sub", ["$0x1", "%eax"]), ("syscall", [])]
    assert _resolve(body) == 0xFFFFFFFF


def test_a_constant_counts_only_in_sdis_syntax():
    # int(text, 0) reads each of these; none is an SDIS constant
    for constant in ("$1_0", "$0x_3c", "$\u0661", "$+0x3c", "$0X3c"):
        assert _resolve([("mov", [constant, "%eax"]), ("syscall", [])]) is None, constant
    for constant, number in (("$0x3c", 60), ("$60", 60), ("$-0x1", 0xFFFFFFFF), ("$0", 0)):
        assert _resolve([("mov", [constant, "%eax"]), ("syscall", [])]) == number, constant


REGS = ["%eax", "%ebx", "%ecx", "%edx", "%esi", "%edi", "%rax", "%rbx"]


def _random_body(rng: random.Random, length: int, mid_syscalls: int = 0):
    body = []
    for _ in range(length):
        op = rng.random()
        if op < 0.4:
            body.append(("mov", [f"${rng.randint(0, 400)}", rng.choice(REGS)]))
        elif op < 0.65:
            body.append(("mov", [rng.choice(REGS), rng.choice(REGS)]))
        else:
            mnem = rng.choice(["add", "sub"])
            src = (
                f"${rng.randint(0, 50)}" if rng.random() < 0.5 else rng.choice(REGS)
            )
            body.append((mnem, [src, rng.choice(REGS)]))
    for _ in range(mid_syscalls):
        body.insert(rng.randint(0, len(body)), ("syscall", []))
    body.append(("syscall", []))
    return body


def _numbers(body):
    """Resolved number of each `syscall` of `body`, in order."""
    return resolve_numbers(_function(body)[0])


def _check_against_reference(unit):
    """The resolved numbers of every site of `unit`: one per site that
    `disasm` found, in site order, each the object-based reference's number
    at that site's address."""
    numbers = [n for fn in unit.functions for n in resolve_numbers(fn)]
    sites = [site.site_address for site in unit.syscall_sites]
    assert len(numbers) == len(sites)
    assert list(zip(sites, numbers)) == [
        item for fn in unit.functions for item in resolve_numbers_reference(fn).items()]
    return numbers


def _check_every_site(body):
    # each site against the interpreter on every instruction before it,
    # earlier syscalls included
    expected = [interpret_accumulator(body[:i])
                for i, (mnemonic, _) in enumerate(body) if mnemonic == "syscall"]
    assert _numbers(body) == expected, body


def test_resolver_matches_interpreter_on_random_sequences():
    mov1, syscall = ("mov", ["$0x1", "%eax"]), ("syscall", [])
    assert _numbers([mov1, syscall, ("mov", ["$0x3", "%eax"]), syscall]) == [1, 3]
    assert _numbers([mov1, syscall, ("callq", ["2000"]), syscall]) == [1, None]
    # a syscall returns in rax and overwrites rcx and r11; other registers keep
    assert _numbers([mov1, syscall, syscall]) == [1, None]
    for reg in ("%ecx", "%r11", "%edx"):
        body = [("mov", ["$0x5", reg]), syscall, ("mov", [reg, "%eax"]), syscall]
        assert _numbers(body) == [None, None if reg != "%edx" else 5], reg
    rng = random.Random(42)
    for _ in range(1000):
        _check_every_site(_random_body(rng, rng.randint(1, 8), rng.randint(0, 3)))


def test_resolver_matches_interpreter_exhaustive_small():
    # every two-instruction program over a tiny constant/register universe
    regs = ["%eax", "%ebx"]
    atoms = []
    for dst in regs:
        for c in ("$0", "$1", "$2"):
            atoms.append(("mov", [c, dst]))
            atoms.append(("add", [c, dst]))
            atoms.append(("sub", [c, dst]))
        for src in regs:
            atoms.append(("mov", [src, dst]))
            atoms.append(("add", [src, dst]))
    for first in atoms:
        for second in atoms:
            body = [first, second, ("syscall", [])]
            assert _resolve(body) == interpret_accumulator(body[:-1]), body


# every width of three registers, the accumulator among them
WIDTH_REGS = ["%rax", "%eax", "%ax", "%al", "%ah", "%rbx", "%ebx", "%bx", "%bl", "%bh",
              "%r15", "%r15d", "%r15w", "%r15b"]
_WIDTH_STEP = st.tuples(
    st.sampled_from(["mov", "add", "sub"]),
    st.tuples(st.sampled_from(WIDTH_REGS) | st.integers(0, 9).map(lambda n: f"${n}"),
              st.sampled_from(WIDTH_REGS)).map(list),
) | st.just(("syscall", []))


@settings(max_examples=300, deadline=None)
@given(body=st.lists(_WIDTH_STEP, max_size=10))
def test_resolver_matches_interpreter_across_register_widths(body):
    _check_every_site([*body, ("syscall", [])])


# operand parts: registers of every width and some outside the model,
# constants in and out of SDIS syntax, memory operands with and without
# commas, other destinations and the empty part
_PART = st.sampled_from([
    *WIDTH_REGS, "%rcx", "%r11", "%edx", "%xmm0",
    "$0x3c", "$1", "$-1", "$0", "$sym", "$010", "$1_0", "$0X3c",
    "0x8(%rsp,%rbx,4)", "(%rdi)", "0x8(%rsp)", "*%rax", "*0x8(%rax,%rbx,8)", "2000", "sym", "",
])
# an instruction line: mnemonic, operand token and comment; `syscall`
# twice, so a body holds several sites, and mnemonics that only start
# with it.  A comment may hold a `:\tsyscall`, alone or followed by an
# operand, which is no site
_LINE = st.tuples(
    st.sampled_from(["mov", "add", "sub", "lea", "pop", "xor", "cmp", "nop", "call", "callq",
                     "syscall", "syscall", "syscalls", "syscall.1"]),
    st.lists(_PART, max_size=4).map(",".join),  # 0-3 commas
    st.sampled_from(["", " <g>", " <g+0x8:\tsyscall>", " <g+0x8:\tsyscall 0x1>"]),
) | st.sampled_from(["", " ", "\t", "\x0c"])  # a blank line


@settings(max_examples=400, deadline=None)
@given(lines=st.lists(_LINE, max_size=40))
def test_resolver_matches_the_object_based_reference_on_any_operands(lines):
    body = [line if isinstance(line, str) else
            f"    {0x1000 + 4 * i:x}:\t{line[0]}" + (f"\t{line[1]}{line[2]}" if line[1] else "")
            for i, line in enumerate(lines)]
    body.append(f"    {0x1000 + 4 * len(lines):x}:\tsyscall")
    unit = parse_disassembly("\n".join(["0000000000001000 <f>:", *body, ""]))
    numbers = _check_against_reference(unit)
    assert len(numbers) == 1 + sum(not isinstance(line, str) and line[0] == "syscall"
                                   for line in lines)


def test_resolver_matches_the_object_based_reference_on_the_workloads(monkeypatch):
    # the resolver's walk was written against seed 1; seed 2 is held out
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import gen

    hosts = 0
    for name, seed in (("libc-rare", 1), ("libc-rare", 2), ("indirect-attack", 1)):
        for path, text in gen.BUILDERS[name](seed).files().items():
            if path.endswith(".sdis"):
                unit = parse_disassembly(text)
                _check_against_reference(unit)
                hosts += sum(1 for fn in unit.functions if fn.body)
    assert hosts > 450


@pytest.mark.parametrize("body, number", [
    # a chain of 100 000 additions to the accumulator
    ([("mov", ["$0x0", "%eax"])] + [("add", ["$0x1", "%eax"])] * 100_000 + [("syscall", [])],
     100_000),
    # a relay through two registers, 100 000 lines long
    ([("mov", ["$0x3c", "%eax"])]
     + [("mov", ["%eax", "%ebx"]), ("mov", ["%ebx", "%eax"])] * 50_000 + [("syscall", [])], 0x3c),
    # 5 000 sites, each reading one register set at the top, past filler
    ([("mov", ["$0x27", "%ebx"])]
     + [("mov", ["%ebx", "%eax"]), ("syscall", []), ("nop", []), ("mov", ["$0x1", "%ecx"]),
        ("lea", ["0x8(%rsp)", "%rdx"])] * 5_000, 0x27),
], ids=["add-chain", "relay", "many-sites"])
def test_resolver_work_is_linear_in_the_body(body, number):
    # a walk that recursed would pass Python's stack limit on the first two,
    # and one that kept no values would walk back to the top from each site
    fn, unit = _function(body)
    started = time.perf_counter()
    numbers = resolve_numbers(fn)
    assert time.perf_counter() - started < 5
    assert _check_against_reference(unit) == numbers
    assert set(numbers) == {number}


def test_unsupported_write_sequences_always_unresolved():
    rng = random.Random(43)
    clobbers = [("xor", ["%eax", "%eax"]), ("imul", ["$2", "%eax"]),
                ("pop", ["%rax"]), ("lea", ["0x4(%rdi)", "%eax"])]
    for _ in range(200):
        body = _random_body(rng, rng.randint(0, 4))[:-1]
        body.append(rng.choice(clobbers))
        # keep the accumulator chain alive through the clobber
        for _ in range(rng.randint(0, 3)):
            if rng.random() < 0.5:
                body.append(("add", [f"${rng.randint(0, 9)}", "%eax"]))
            else:
                body.append(("sub", ["%ebx" , "%eax"]))
        body.append(("syscall", []))
        assert _resolve(body) is None


def test_load_table_row():
    table = load_syscall_table("0\tcommon\tread\tsys_read\n")
    assert table.number_to_name == {0: "read"}
    assert table.names == {"read"}


def test_load_table_empty_and_comments():
    table = load_syscall_table("# comment\n\n")
    assert len(table.number_to_name) == 0


def test_load_table_duplicate_number():
    with pytest.raises(ParseError, match="line 2: duplicate syscall number 0"):
        load_syscall_table("0 common read\n0 common write\n")


def test_load_table_malformed():
    # the last has more digits than int() reads
    for number in ("zero", "1_0", "-1", "+2", "\uff11", "1" + "0" * 4300):
        with pytest.raises(ParseError, match=re.escape(f"line 1: bad number '{number}'")):
            load_syscall_table(f"{number} common read\n")
    with pytest.raises(ParseError, match="line 1: expected <num> <abi> <name>"):
        load_syscall_table("0 common\n")
    with pytest.raises(ParseError, match="line 2: duplicate syscall name 'read'"):
        load_syscall_table("0 common read\n1 common read\n")


def test_load_table_skips_x32_rows():
    # the kernel's own table repeats 64-bit names in its x32 rows, 512 and up
    table = load_syscall_table("13\t64\trt_sigaction\tsys_rt_sigaction\n"
                               "512\tx32\trt_sigaction\tcompat_sys_rt_sigaction\n")
    assert table.number_to_name == {13: "rt_sigaction"}
    assert table.names == {"rt_sigaction"}
    bundled = packaged_data("syscall_64.tbl")
    assert load_syscall_table(bundled + "512 x32 rt_sigaction compat_sys_rt_sigaction\n") == \
        load_syscall_table(bundled)
    with pytest.raises(ParseError, match="^line 1: bad number 'x'$"):
        load_syscall_table("x x32 rt_sigaction\n")


def test_table_lines_are_numbered_by_newline():
    # a stray \x0c or \r inside a row is whitespace between its fields;
    # `line N` is the text's N-th `\n`-separated line
    table = load_syscall_table("0\x0ccommon read\r\n1 common\rwrite\x0c\n")
    assert table.number_to_name == {0: "read", 1: "write"}
    with pytest.raises(ParseError, match="^line 2: expected <num> <abi> <name>$"):
        load_syscall_table("0 common read\x0c\nbad\n")


TABLE_LINES = packaged_data("syscall_64.tbl").splitlines()
_TABLE_PIECE = st.sampled_from([
    " ", "\t", "\n", "#", "0", "1", "-", "+", "_", "x", "x32", "common", "read",
]) | st.text(max_size=2)


@st.composite
def _edited_table(draw):
    """Up to eight consecutive rows of the bundled table with up to three
    short runs of characters replaced by table pieces."""
    i = draw(st.integers(0, len(TABLE_LINES)))
    text = "\n".join(TABLE_LINES[i:i + draw(st.integers(0, 8))])
    for _ in range(draw(st.integers(0, 3))):
        text = _replace_run(draw, text, _TABLE_PIECE)
    return text


@settings(max_examples=300, deadline=None)
@given(text=st.text() | _edited_table())
def test_load_syscall_table_parses_or_raises_parse_error(text):
    try:
        table = load_syscall_table(text)
    except ParseError:
        return
    # one number per name and one name per number
    assert sorted(table.names) == sorted(table.number_to_name.values())


def test_seed_table_has_335_names(seed_table):
    assert len(seed_table.number_to_name) == 335
    assert seed_table.number_to_name[16] == "ioctl"
    assert seed_table.number_to_name[3] == "close"


def test_resolve_sites_on_minilib(minilib_unit, seed_table):
    resolved = resolve_sites(minilib_unit, seed_table)
    names = {r.site.function: r.name for r in resolved}
    assert names == {
        "read@@GLIBC_2.2.5": "read",
        "do_write": "write",
        "open_handler": "open",
        "ioctl_handler": "ioctl",
    }
    assert all(r.name is not None for r in resolved)
