import random
import re
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import Instruction, decode_instructions, parse_disassembly_reference
from syscage.disasm import (
    BODY_RE,
    DIRECT,
    INDIRECT,
    LINE_RE,
    CallSite,
    SyscallSite,
    extract_plt_imports,
    header_extents,
    parse_disassembly,
)
from syscage.errors import ParseError
from syscage.sysnum import resolve_sites

FIXTURE_LINES = (Path(__file__).parent / "data" / "minilib.sdis").read_text().splitlines()


def test_api_export_header():
    text = (
        "0000000000001130 <read@@GLIBC_2.2.5>:\n"
        "    1130:\tmov\t$0x0,%eax\n"
        "    1135:\tsyscall\n"
    )
    unit = parse_disassembly(text)
    assert len(unit.functions) == 1
    fn = unit.functions[0]
    assert fn.canonical_name == "read@@GLIBC_2.2.5"
    assert fn.api_name == "read"
    assert parse_disassembly("0000000000001000 <noop>:\n").functions[0].api_name is None
    # objdump's label for code before or after a symbol is not an export
    for label in ("abort@@GLIBC_2.2.5-0x1f", "abort@@GLIBC_2.2.5+0x8"):
        assert parse_disassembly(f"0000000000001000 <{label}>:\n").functions[0].api_name is None
    assert header_extents(text) == [("read@@GLIBC_2.2.5", 0x1130, 0x1136)]
    assert [i.mnemonic for i in decode_instructions(fn.body)] == ["mov", "syscall"]


def test_empty_input():
    unit = parse_disassembly("")
    assert unit.functions == []
    assert unit.callsites == []
    assert unit.syscall_sites == []


def test_three_function_fixture_callsites(minilib_unit):
    # hand-count of minilib.sdis: direct calls in write, do_write, open,
    # log_call, dispatch; one indirect call in dispatch
    direct = [c for c in minilib_unit.callsites if c.kind == DIRECT]
    indirect = [c for c in minilib_unit.callsites if c.kind == INDIRECT]
    assert len(direct) == 5
    assert len(indirect) == 1
    assert indirect[0].caller == "dispatch"
    assert indirect[0].target is None
    in_dispatch = [c.target for c in minilib_unit.callsites if c.caller == "dispatch"]
    assert in_dispatch == ["log_call", None]


def test_syscall_sites(minilib_unit):
    assert len(minilib_unit.syscall_sites) == 4
    hosts = {s.function for s in minilib_unit.syscall_sites}
    assert hosts == {
        "read@@GLIBC_2.2.5", "do_write", "open_handler", "ioctl_handler",
    }


def test_plt_imports(target_unit):
    assert extract_plt_imports(target_unit) == {"read", "write", "open"}


def test_plt_imports_empty(minilib_unit):
    assert extract_plt_imports(minilib_unit) == set()


def test_plt_imports_dedup():
    text = (
        "0000000000001000 <f>:\n"
        "    1000:\tcallq\t2000 <open@plt>\n"
        "    1005:\tcallq\t2000 <open@plt>\n"
        "    100a:\tcallq\t2010 <mmap@plt>\n"
    )
    assert extract_plt_imports(parse_disassembly(text)) == {"open", "mmap"}


def test_malformed_header():
    with pytest.raises(ParseError, match="line 1: bad function header: 'zzzz <f>:'"):
        parse_disassembly("zzzz <f>:\n")


def test_instruction_outside_function():
    with pytest.raises(ParseError, match="line 1: instruction outside any function"):
        parse_disassembly("    1000:\tnop\n")


def test_junk_line_in_body():
    text = "0000000000001000 <f>:\n    1000:\tnop\n    not an instruction\n"
    with pytest.raises(ParseError, match="line 3: bad instruction line"):
        parse_disassembly(text)


def test_address_order_error():
    text = "0000000000001000 <f>:\n    1005:\tnop\n    1003:\tnop\n"
    with pytest.raises(ParseError, match="line 3: address 0x1003 does not increase"):
        parse_disassembly(text)


def test_instruction_below_start():
    with pytest.raises(ParseError, match="line 2: address 0xf00 does not increase"):
        parse_disassembly("0000000000001000 <f>:\n    0f00:\tnop\n")


def test_first_error_in_text_order_wins():
    # an address error before a bad line of the same body
    for middle, lineno in (("", 3), ("    1006:\tmov\t$0x1,%eax\n", 4)):
        text = f"0000000000001000 <f>:\n    1005:\tnop\n{middle}    1003:\tnop\n    junk\n"
        with pytest.raises(ParseError, match=f"^line {lineno}: address 0x1003 does not increase$"):
            parse_disassembly(text)
    text = "0000000000001000 <f>:\n    1005:\tnop\n    junk\n    1003:\tnop\n"
    with pytest.raises(ParseError, match="^line 3: bad instruction line: '    junk'$"):
        parse_disassembly(text)
    text = "0000000000001000 <f>:\n    1005:\tnop\n    1009:\tmov\t$0x1,%eax\n    1007:\tnop\n"
    with pytest.raises(ParseError, match="^line 4: address 0x1007 does not increase$"):
        parse_disassembly(text)


def test_instruction_after_blank_lines_before_any_header():
    text = "\n  \n\x0c\n    1000:\tnop\n0000000000001000 <f>:\n"
    with pytest.raises(ParseError, match="^line 4: instruction outside any function$"):
        parse_disassembly(text)
    with pytest.raises(ParseError, match="^line 2: bad function header: 'f:'$"):
        parse_disassembly("\t\nf:\n0000000000001000 <f>:\n")


def test_lines_are_numbered_by_newline():
    # \r, \x0c and \u2028 belong to their line: a header that ends in \r is
    # bad, and a symbol may hold \u2028
    with pytest.raises(ParseError, match=r"^line 1: bad function header: '0000000000001000 <f>:\\r'$"):
        parse_disassembly("0000000000001000 <f>:\r\n    1000:\tnop\r\n")
    # a line of \x0c alone is blank; one after an instruction is not
    with pytest.raises(ParseError, match="^line 4: bad instruction line: '    bad'$"):
        parse_disassembly("0000000000001000 <f>:\n    1000:\tnop\n\x0c\n    bad\n")
    with pytest.raises(ParseError, match=r"^line 2: bad instruction line: '    1000:\\tnop\\x0c'$"):
        parse_disassembly("0000000000001000 <f>:\n    1000:\tnop\x0c\n")
    unit = parse_disassembly("0000000000001000 <f\u2028g>:\n    1000:\tcallq\t2000\x0c<h>")
    assert [f.canonical_name for f in unit.functions] == ["f\u2028g"]
    assert unit.callsites == [CallSite("f\u2028g", "h", DIRECT)]


def test_an_instruction_has_one_operand_token():
    # spaced operands, and a comment with no operand before it, are rejected
    for line in ("mov\t$0x1, %eax", "callq\t2000 , %rax <g>", "nop\t<a b>"):
        bad = f"    1005:\t{line}"
        text = f"0000000000001000 <f>:\n    1000:\tnop\n\n{bad}\n"
        with pytest.raises(ParseError, match=f"^line 4: bad instruction line: {re.escape(repr(bad))}$"):
            parse_disassembly(text)
    # a comma that ends the token is the operand's, then a comment follows
    text = ("0000000000001000 <f>:\n    1000:\tcallq\t2000, <g>\n"
            "    1005:\tmov\tx, <f>\n    100a:\tmov\t$0x1,%eax\n    100f:\tsyscall\n")
    unit = parse_disassembly(text)
    assert unit.callsites == [CallSite("f", "g", DIRECT)]
    assert decode_instructions(unit.functions[0].body)[:3] == (
        Instruction(0x1000, "callq", ("2000", ""), "g"),
        Instruction(0x1005, "mov", ("x", ""), "f"),
        Instruction(0x100a, "mov", ("$0x1", "%eax")),
    )


def test_comma_joined_operands_take_linear_time():
    # a backtracking operand grammar splits k comma-joined words 2^k ways
    # before it rejects a line; spaced commas are rejected, joined ones parse
    for sep in (", ", " ,", " , ", ","):
        for tail in (" @", "", " <g>"):
            ops = sep.join(["a"] * 41)
            text = f"0000000000001000 <f>:\n    1000:\tmov\t{ops}{tail}\n    1005:\tsyscall\n"
            started = time.perf_counter()
            if sep == "," and tail != " @":
                body = parse_disassembly(text).functions[0].body
                assert len(decode_instructions(body)[0].operands) == 41
            else:
                with pytest.raises(ParseError, match="^line 2: bad instruction line"):
                    parse_disassembly(text)
            assert time.perf_counter() - started < 0.5


def test_a_long_body_is_one_match_in_little_memory():
    # one findall takes the address of every line of a valid body; on a body
    # with a bad line, a possessive match finds it and keeps no backtracking
    # state, where a greedy one keeps about 1 KiB a line until the match ends
    lines = [f"    {0x10000 + i:x}:\tmov\t$0x{i:x},%eax" for i in range(40_000)]
    text = "\n".join(["0000000000010000 <f>:", *lines, "    19c40:\tsyscall", ""])
    bad = text + "    junk\n"
    body = text.index("\n")
    tracemalloc.start()
    try:
        assert len(LINE_RE.findall(text)) == 40_001
        assert BODY_RE.match(bad, body).end() == len(text) - 1  # at the `\n` before `junk`
        unit = parse_disassembly(text)
        with pytest.raises(ParseError, match="^line 40003: bad instruction line: '    junk'$"):
            parse_disassembly(bad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert unit.syscall_sites == [SyscallSite("f", 0x19c40)]
    assert header_extents(text) == [("f", 0x10000, 0x19c41)]


def test_a_body_that_adds_up_is_matched_once(monkeypatch):
    # the findall that takes a body's addresses matches each of its lines
    # once; only a body with more than its closing empty line besides its
    # instruction lines is matched again
    import syscage.disasm

    again = []

    class Spy:
        def match(self, text, lo, hi):
            again.append(text[lo:hi])
            return BODY_RE.match(text, lo, hi)

    monkeypatch.setattr(syscage.disasm, "BODY_RE", Spy())
    assert len(parse_disassembly("\n".join(FIXTURE_LINES) + "\n").functions) > 1
    assert again == []
    text = "0000000000001000 <f>:\n    1000:\tnop\n\n\n0000000000001008 <g>:\n    1008:\tsyscall\n"
    assert parse_disassembly(text).syscall_sites == [SyscallSite("g", 0x1008)]
    assert again == ["\n    1000:\tnop\n\n"]


def test_overlapping_functions():
    # each function starts above every address before it: the last
    # instruction of the function before, or its header when it has none
    f = "0000000000001000 <f>:\n    1000:\tnop\n    1004:\tnop\n"
    for text, error in (
        (f + "0000000000001002 <g>:\n    1002:\tnop\n",
         "line 4: function g at 0x1002 is not above address 0x1004"),
        (f + "0000000000001004 <g>:\n", "line 4: function g at 0x1004 is not above address 0x1004"),
        # disjoint, but below the function before
        ("0000000000002000 <g>:\n" + f, "line 2: function f at 0x1000 is not above address 0x2000"),
        # two headers at one address, after a blank line
        ("\n0000000000001000 <e>:\n" + f, "line 3: function f at 0x1000 is not above address 0x1000"),
        # a bad line of the body before comes first
        ("0000000000002000 <g>:\n    junk\n" + f, "line 2: bad instruction line: '    junk'"),
    ):
        with pytest.raises(ParseError, match=f"^{re.escape(error)}$"):
            parse_disassembly(text)
    extents = header_extents(f + "0000000000001005 <g>:\n    1005:\tsyscall\n")
    assert extents == [("f", 0x1000, 0x1005), ("g", 0x1005, 0x1006)]


def _random_fixture(rng: random.Random):
    """SDIS text with known counts of functions/callsites/syscalls."""
    n_funcs = rng.randint(1, 8)
    lines = []
    addr = 0x1000
    counts = dict(direct=0, indirect=0, syscalls=0)
    for i in range(n_funcs):
        lines.append(f"{addr:016x} <fn{i}>:")
        for _ in range(rng.randint(1, 6)):
            choice = rng.random()
            if choice < 0.3:
                target = f"fn{rng.randrange(n_funcs)}"
                lines.append(f"    {addr:x}:\tcallq\t{addr:x} <{target}>")
                counts["direct"] += 1
            elif choice < 0.5:
                lines.append(f"    {addr:x}:\tcallq\t*(%rax)")
                counts["indirect"] += 1
            elif choice < 0.7:
                lines.append(f"    {addr:x}:\tsyscall")
                counts["syscalls"] += 1
            else:
                lines.append(f"    {addr:x}:\tnop")
            addr += rng.randint(1, 8)
        lines.append("")
        addr += rng.randint(1, 16)
    return "\n".join(lines), n_funcs, counts


def test_roundtrip_counts_on_generated_fixtures():
    rng = random.Random(1234)
    for _ in range(50):
        text, n_funcs, counts = _random_fixture(rng)
        unit = parse_disassembly(text)
        assert len(unit.functions) == n_funcs
        assert sum(c.kind == DIRECT for c in unit.callsites) == counts["direct"]
        assert sum(c.kind == INDIRECT for c in unit.callsites) == counts["indirect"]
        assert len(unit.syscall_sites) == counts["syscalls"]


def test_parse_is_deterministic(data_dir):
    text = (data_dir / "minilib.sdis").read_text()
    assert parse_disassembly(text) == parse_disassembly(text)


def test_every_instruction_inside_its_function(data_dir, minilib_unit):
    hosts = {s.function for s in minilib_unit.syscall_sites}
    extents = header_extents((data_dir / "minilib.sdis").read_text())
    checked = 0
    for fn, (name, start, end) in zip(minilib_unit.functions, extents, strict=True):
        assert fn.canonical_name == name
        if name in hosts:
            instructions = decode_instructions(fn.body)
            assert instructions
            for ins in instructions:
                assert start <= ins.address < end
            checked += 1
    assert checked >= 1


def test_only_syscall_hosts_keep_their_instructions(minilib_unit):
    text = (
        "0000000000001000 <host>:\n"
        "    1000:\tmov\t$0x27,%eax\n"
        "    1005:\tcallq\t2000 <helper>\n"
        "    100a:\tsyscall\n"
        "    100c:\tretq\n"
        "0000000000002000 <helper>:\n"
        "    2000:\tcallq\t*(%rax)\n"
        "    2002:\tretq\n"
    )
    host, helper = parse_disassembly(text).functions
    assert decode_instructions(host.body) == (
        Instruction(0x1000, "mov", ("$0x27", "%eax")),
        Instruction(0x1005, "callq", ("2000",), "helper"),
        Instruction(0x100a, "syscall"),
        Instruction(0x100c, "retq"),
    )
    assert decode_instructions(helper.body) == ()
    # on the fixture: every instruction line of a host, in order; () elsewhere
    hosts = {s.function for s in minilib_unit.syscall_sites}
    body: dict[str, list[int]] = {}
    for line in FIXTURE_LINES:
        if line and not line[0].isspace():
            name = line.split("<", 1)[1].rsplit(">", 1)[0]
        elif line.strip():
            body.setdefault(name, []).append(int(line.split(":", 1)[0], 16))
    for fn in minilib_unit.functions:
        if fn.canonical_name in hosts:
            assert [i.address for i in decode_instructions(fn.body)] == body[fn.canonical_name]
        else:
            assert decode_instructions(fn.body) == ()


# pieces of SDIS lines, so mutated lines often still parse
_PIECE = st.sampled_from([
    "\t", " ", ",", ":", "<", ">", "0000000000002000 ", "    ", "1000", "1005", "2000",
    "f@@V_1", "mov", "add", "sub", "xor", "callq", "syscall", "retq",
    "$0x27", "$-1", "$sym", "%eax", "%ebx", "%rax", "(%rdi)", "*%rax",
]) | st.text(max_size=3)


@st.composite
def _mutated_fixture(draw):
    """The fixture SDIS with up to four runs of lines deleted, repeated or
    replaced by lines of fixture text or SDIS pieces."""
    lines = list(FIXTURE_LINES)
    new_line = st.sampled_from(FIXTURE_LINES) | st.lists(_PIECE, max_size=8).map("".join)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines)))
        j = draw(st.integers(i, min(len(lines), i + 2)))
        lines[i:j] = draw(st.lists(new_line, max_size=2))
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(text=st.text() | _mutated_fixture())
def test_parse_either_rejects_or_resolves_every_site(text, seed_table):
    try:
        unit = parse_disassembly(text)
    except ParseError:
        return
    resolved = resolve_sites(unit, seed_table)
    assert [r.site for r in resolved] == unit.syscall_sites


def _instructions(f):
    """The instructions of a function: those the reference parser keeps, or
    those decoded from the body text that `parse_disassembly` keeps."""
    return f.instructions if hasattr(f, "instructions") else decode_instructions(f.body)


def _read_view(unit):
    """What the readers of a unit see: each function's name and API name, the
    instructions of each function that holds a `syscall`, and the sites."""
    functions = [(f.canonical_name, f.api_name) for f in unit.functions]
    hosts = [[(i.address, i.mnemonic, i.operands, i.symbol_comment) for i in ins]
             for ins in map(_instructions, unit.functions)
             if any(i.mnemonic == "syscall" for i in ins)]
    return functions, hosts, unit.callsites, unit.syscall_sites


def test_long_bodies_equal_the_reference():
    # bodies of 2 500 lines with a syscall and a call past line 1 000, and
    # errors there
    lines = [f"    {0x1000 + i:x}:\tmov\t$0x{i:x},%eax" for i in range(2500)]
    lines[1002] = f"    {0x1000 + 1002:x}:\tsyscall"
    lines[1999] = f"    {0x1000 + 1999:x}:\tcallq\t3000 <g>"
    header = "0000000000001000 <f>:"
    errors = []
    for body in (lines, lines[:1500] + [""] * 700 + lines[1500:],
                 lines[:1200] + [lines[1100]] + lines[1200:],
                 lines[:2200] + ["    1898:\tmov\t$0x27, %eax"] + lines[2201:]):
        text = "\n".join([header, *body, "0000000000004000 <g>:", "    4000:\tsyscall"])
        try:
            expected = parse_disassembly_reference(text)
        except ParseError as exc:
            errors.append(str(exc))
            with pytest.raises(ParseError, match=f"^{re.escape(str(exc))}$"):
                parse_disassembly(text)
            continue
        assert _read_view(parse_disassembly(text)) == _read_view(expected)
        assert header_extents(text) == _extents(expected)
    assert errors == ["line 1202: address 0x144c does not increase",
                      "line 2202: bad instruction line: '    1898:\\tmov\\t$0x27, %eax'"]


def test_decoding_on_demand_equals_the_reference_on_the_workloads(monkeypatch):
    """Every SDIS file of both benchmark workloads at seed 1: the same
    functions and sites, and the same instructions of each syscall host;
    and the same extents from `header_extents`."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import gen

    for name in ("libc-rare", "indirect-attack"):
        for path, text in gen.BUILDERS[name](1).files().items():
            if path.endswith(".sdis"):
                unit, expected = parse_disassembly(text), parse_disassembly_reference(text)
                assert _read_view(unit) == _read_view(expected), path
                assert any(map(_instructions, unit.functions)) == bool(unit.syscall_sites)
                assert header_extents(text) == _extents(expected), path


@settings(max_examples=300, deadline=None)
@given(text=st.text() | _mutated_fixture())
# spaced operands are rejected
@example(text="0000000000001000 <f>:\n    1000:\tcallq\t2000 , %rax <g>\n")
@example(text="0000000000001000 <f>:\n    1000:\tcall\t*%rax ,8 <g>\n    1002:\tsyscall\n")
@example(text="0000000000001000 <f@@V-0x1f>:\n0000000000001020 <f@@V>:\n"
              "0000000000001030 <f@@V+0x10>:\n0000000000001040 <g@@0x1>:\n")
# a trailing comma ends the operand when a whole comment follows
@example(text="0000000000001000 <f>:\n    1000:\tcallq\t2000, <g>\n"
              "    1005:\tmov\tx, <f>\n    100a:\tsyscall\n")
# a comment that holds what looks like a call or a syscall line
@example(text="0000000000001000 <f>:\n    1000:\tnop\tx <a:\tsyscall b>\n"
              "    1001:\tcall\t*x <y:\tcall *b>\n")
# characters that str.splitlines breaks at, inside a line; no final newline
@example(text="0000000000001000 <f>:\n    1000:\tcallq\t2000\x0c<g>\n    1005:\tnop\x0c\n")
@example(text="0000000000001000 <f>:\r\n    1000:\tsyscall\r\n")
@example(text="0000000000001000 <f\u2028>:\n    1000:\tsyscall\u2028<g>\n\u2028\n")
@example(text="\n0000000000001000 <f>:\n    1000:\tmov\t$0x1, %eax\n    1005:\tsyscall")
# functions out of address order: one below the one before, two headers at
# one address, and a header at the last instruction address before it
@example(text="0000000000002000 <g>:\n    2000:\tsyscall\n0000000000001000 <f>:\n    1000:\tnop\n")
@example(text="0000000000001000 <f>:\n0000000000001000 <g>:\n    1000:\tsyscall\n")
@example(text="0000000000001000 <f>:\n    1000:\tnop\n    1008:\tnop\n"
              "0000000000001008 <g>:\n    1008:\tsyscall\n")
# a body that does not add up by its instruction lines and the empty line
# that usually ends it: a blank line and a `\x0c`-only line inside it, a
# whitespace-only last line before the next header, and no final `\n`
@example(text="0000000000001000 <f>:\n    1000:\tnop\n\n    1001:\tsyscall\n\x0c\n"
              "    1003:\tcallq\t1000 <f>\n")
@example(text="0000000000001000 <f>:\n    1000:\tsyscall\n \t\n0000000000001008 <g>:\n")
@example(text="0000000000001000 <f>:\n    1000:\tsyscall\n\n0000000000001008 <g>:\n"
              "    1008:\tcallq\t1000 <f>")
# addresses that cross a hex-length boundary in one function, rising or not
@example(text="000000000000fff0 <f>:\n    fffe:\tnop\n    ffff:\tsyscall\n"
              "    10000:\tcallq\t*%rax\n\n0000000000010008 <g>:\n    10008:\tsyscall\n")
@example(text="000000000000fff0 <f>:\n    fffe:\tnop\n    10000:\tsyscall\n    ffff:\tnop\n")
# an address error and a bad line in one body, in both orders
@example(text="0000000000001000 <f>:\n    1005:\tnop\n    1003:\tnop\n    junk\n")
@example(text="0000000000001000 <f>:\n    1005:\tnop\n    junk\n    1003:\tnop\n")
# a header whose symbol holds what looks like a syscall line
@example(text="0000000000001000 <f:\tsyscall x>:\n    1000:\tnop\n"
              "0000000000001008 <g:\tcall *x>:\n    1008:\tsyscall\n")
# text before the first header
@example(text="junk\n0000000000001000 <f>:\n    1000:\tsyscall\n")
@example(text=" \n\x0c\n    1000:\tnop\n0000000000001000 <f>:\n    1000:\tsyscall\n")
def test_parse_equals_the_line_by_line_reference(text):
    try:
        expected = parse_disassembly_reference(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            parse_disassembly(text)
        assert str(got.value) == str(exc)
        return
    unit = parse_disassembly(text)
    assert _read_view(unit) == _read_view(expected)
    assert header_extents(text) == _extents(expected)
    kept = [bool(_instructions(f)) for f in unit.functions]
    assert kept == [any(i.mnemonic == "syscall" for i in f.instructions)
                    for f in expected.functions]


def _extents(unit):
    """The extent of each function of a unit of the reference parser, as
    `header_extents` gives it: each end but the last moved to the next
    function's start, which the reference puts at or above that end."""
    functions = unit.functions
    ends = [f.start for f in functions[1:]] + [f.end for f in functions[-1:]]
    assert all(f.end <= end for f, end in zip(functions, ends))
    return [(f.canonical_name, f.start, end) for f, end in zip(functions, ends)]


@settings(max_examples=300, deadline=None)
@given(text=st.text() | _mutated_fixture())
@example(text="    1000:\tnop\n")
@example(text="0000000000001000 <f>:\n    1000:\tnop\n    1000:\tnop\n")
@example(text="0000000000001000 <f>:\n    1004:\tnop\n0000000000001002 <g>:\n")
def test_extents_equal_those_of_the_full_parse(text):
    """On a text that `parse_disassembly` accepts, `header_extents` gives one
    extent per function, in order: those of the reference parser."""
    try:
        unit = parse_disassembly(text)
    except ParseError:
        return
    extents = header_extents(text)
    assert [name for name, _, _ in extents] == [f.canonical_name for f in unit.functions]
    assert extents == _extents(parse_disassembly_reference(text))


# whitespace inside a line, `\x0c` and `\r` among it
_INLINE = " \t\x0c\r\x0b\x85\u3000"


@st.composite
def _valid_sdis(draw):
    """SDIS text that `parse_disassembly` accepts: blank lines before the
    first header and in bodies, odd in-line whitespace, header names and
    comments that hold `:\t`, a first instruction at its header's address,
    empty bodies, and a final `\n` or none."""
    ws = st.text(st.sampled_from(_INLINE), min_size=1, max_size=2)
    blank = st.text(st.sampled_from(_INLINE), max_size=2)
    name = st.text(st.characters(blacklist_characters=">\n"), min_size=1, max_size=5)
    comment = name | st.just("y:\tcall *b")
    operand = st.text(st.sampled_from("$0x1,%eax*():<"), min_size=1, max_size=5)
    lines = draw(st.lists(blank, max_size=2))
    last = draw(st.integers(-1, 0xfff))  # the highest address so far
    for _ in range(draw(st.integers(0, 4))):
        start = last + draw(st.integers(1, 0x20))
        lines.append(f"{start:x}".zfill(draw(st.integers(len(f"{start:x}"), 16)))
                     + f" <{draw(name)}>:")
        addr = start - 1  # the first instruction may be at `start`
        for _ in range(draw(st.integers(0, 4))):
            if draw(st.booleans()):
                lines.append(draw(blank))
                continue
            addr += draw(st.integers(1, 8))
            line = f"{draw(ws)}{draw(st.sampled_from(['', '0']))}{addr:x}:\t" + draw(
                st.sampled_from(["nop", "callq", "syscall", "mov", "x.1"]))
            if draw(st.booleans()):
                line += draw(ws) + draw(operand)
                if draw(st.booleans()):
                    line += f"{draw(ws)}<{draw(comment)}>"
            lines.append(line)
        last = max(addr, start)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=300, deadline=None)
@given(text=_valid_sdis())
@example(text="\n\r\n0000000000001000 <f:\tg>:\n\x0c\n    1000:\tcallq\t2000\r<a:\tb>\n"
              "0000000000001008 <h>:\n")
def test_header_extents_equal_the_validated_extents(text):
    parse_disassembly(text)  # valid by construction
    assert header_extents(text) == _extents(parse_disassembly_reference(text))


@settings(max_examples=300, deadline=None)
@given(text=st.text() | _mutated_fixture() | _valid_sdis().map(lambda t: t.replace("0", "\x1c")))
@example(text="0000000000001000 <f>:\n    zz:\tnop\n")
@example(text="0000000000001000 <f>:\n\x1c:\tnop\n")
def test_header_extents_raise_only_parse_errors(text):
    """On any text, `header_extents` returns or raises ParseError, and on one
    that the reference parser accepts it gives the reference's extents."""
    try:
        got = header_extents(text)
    except ParseError:
        got = None
    try:
        expected = _extents(parse_disassembly_reference(text))
    except ParseError:
        return
    assert got == expected
