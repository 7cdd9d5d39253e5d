"""The CLI's exit-code contract: whatever one input file holds, with the
fixture's files for the others, `main` returns 0, 1, 2 or 3 and raises
nothing; on 2, its error is one line that names the file."""

import hashlib
import json
import re
import sys
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from syscage.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"


class _Huge(int):
    """An integer with more decimal digits than int() reads by default, with
    a repr that needs no decimal conversion (hypothesis prints examples)."""

    def __repr__(self):
        return f"<an integer of {self.bit_length()} bits>"


HUGE = _Huge(10 ** sys.get_int_max_str_digits())  # 4 301 digits by default
FIXTURES = {
    "sdis": DATA / "minilib.sdis",
    "facts": DATA / "minilib.facts.json",
    "mapping": GOLDEN / "mapping.json",
    "sidecar": GOLDEN / "sidecar.json",
    "memmap": DATA / "memmap.txt",
    "events": DATA / "events.txt",
    "profile": GOLDEN / "profile.json",
    "table": Path(__file__).parents[1] / "src" / "syscage" / "data" / "syscall_64.tbl",
}
READERS = {
    "sdis": ["analyze", "verify"],
    "facts": ["analyze"],
    "mapping": ["profile", "verify"],
    "sidecar": ["verify"],
    "memmap": ["verify"],
    "events": ["verify"],
    "profile": ["cve"],
    "table": ["analyze", "profile", "verify", "cve"],
}
JSON_INPUTS = ["facts", "mapping", "sidecar", "profile"]
EXAMPLES = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

JSON = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=8)
    | st.integers() | st.integers(0, 99).map(lambda n: _Huge(HUGE * 10 ** n)),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=3)),
    max_leaves=8,
)


def _argv(command: str, files: dict[str, Path], out: Path) -> list[str]:
    argv = {
        "analyze": ["analyze", files["sdis"], files["facts"], "-o", out / "m.json"],
        "profile": ["profile", DATA / "target.sdis", "--mapping", files["mapping"],
                    "--trace", DATA / "target.trace",
                    "-o", out / "p.json", "--sidecar", out / "s.json"],
        "verify": ["verify", "--sidecar", files["sidecar"], "--mapping", files["mapping"],
                   "--memmap", files["memmap"], "--events", files["events"],
                   "--lib-disasm", files["sdis"], "--target", "target",
                   "-o", out / "v.log"],
        "cve": ["cve", files["profile"], "-o", out / "r.json"],
    }[command]
    return [str(a) for a in argv + ["--table", files["table"]]]


def _assert_contract(role: str, content: bytes, tmp_path: Path, capsys) -> None:
    # same file name as the fixture: verify finds a library by its stem
    path = tmp_path / FIXTURES[role].name
    path.write_bytes(content)
    files = {**FIXTURES, role: path}
    if role == "mapping":
        # the sidecar of this mapping, so that verify reads on past the check
        # that the sidecar was made from it
        sidecar = json.loads(FIXTURES["sidecar"].read_text())
        sidecar["mapping_sha256"] = [hashlib.sha256(content).hexdigest()]
        files["sidecar"] = tmp_path / "made-from-this.json"
        files["sidecar"].write_text(json.dumps(sidecar))
    for command in READERS[role]:
        capsys.readouterr()
        code = main(_argv(command, files, tmp_path))
        assert code in (0, 1, 2, 3), command
        if code == 2:
            err = capsys.readouterr().err
            # a sha256 that one file lists and another does not have is the
            # fault of neither alone: the error leads with one, names the other
            chained = (err.startswith("syscage: parse error: ")
                       and "sha256" in err and f" {path}" in err)
            assert err.startswith(f"syscage: parse error: {path}: ") or chained, (command, err)
            assert err.count("\n") == 1, (command, err)


class _Mutation(NamedTuple):
    """The `length` bytes from `at`, taken modulo one more than the length of
    the text, replaced by `new`."""
    at: int
    length: int
    new: bytes

    def apply(self, original: bytes) -> bytes:
        i = self.at % (len(original) + 1)
        return original[:i] + self.new + original[i + self.length:]


class _Splice(NamedTuple):
    """The value at a path replaced by `value`; each step of the path picks a
    key or an index modulo the size of the object or array it is in."""
    path: list[int]
    value: object

    def apply(self, doc):
        if not (self.path and isinstance(doc, (dict, list)) and doc):
            return self.value
        keys = sorted(doc) if isinstance(doc, dict) else range(len(doc))
        key = keys[self.path[0] % len(keys)]
        copy = dict(doc) if isinstance(doc, dict) else list(doc)
        copy[key] = _Splice(self.path[1:], self.value).apply(doc[key])
        return copy


# a path long enough to reach every leaf of the fixtures (the mapping's
# apis/<api>/syscalls/<i>/<field> is the deepest, at five steps)
SPLICES = st.builds(_Splice, st.lists(st.integers(0, 63), max_size=8), JSON)


def _spliced(doc):
    """`doc` with the value at one path replaced by an arbitrary JSON value."""
    return SPLICES.map(lambda splice: splice.apply(doc))


def _dumps(value) -> str:
    """JSON text of `value`, whose integers may pass int()'s digit limit."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.dumps(value)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("role", FIXTURES)
@EXAMPLES
@given(content=st.binary(max_size=300)
       | st.builds(_Mutation, st.integers(0, 2**16), st.integers(0, 16), st.binary(max_size=16)))
# JSON nested deeper than the decoder goes
@example(content=b"[" * 100_000)
# a table row whose number int() does not read
@example(content=b"0 common read\n1" + b"0" * 4300 + b" common write\n")
# in the mapping, a space in the name of its library: verify finds no
# sha256 for the SDIS that it is handed
@example(content=_Mutation(4619, 0, b" "))
def test_any_bytes_end_in_a_documented_exit_code(tmp_path, capsys, role, content):
    original = FIXTURES[role].read_bytes()
    if isinstance(content, _Mutation):
        content = content.apply(original)
    _assert_contract(role, content, tmp_path, capsys)


@pytest.mark.parametrize("role", JSON_INPUTS)
@EXAMPLES
@given(value=JSON | SPLICES)
# integers that int() does not read: at the top, and inside the document
@example(value=HUGE)
@example(value=_Splice([0, 0], _Huge(-HUGE)))
# in the mapping, a leaf five steps down: a non-boolean `tainted`, and a
# syscall entry that repeats the name of the one before it
@example(value=_Splice([0, 0, 1, 0, 1], 1))
@example(value=_Splice([0, 0, 1, 1, 0], "ioctl"))
# a sha256 that no file has: of the library SDIS, in the mapping's
# `libraries` (its fifth key); of a mapping, in the sidecar's first key
@example(value=_Splice([4, 0], "0" * 64))
@example(value=_Splice([0, 0], "0" * 64))
# a library sha256 that would break the error line that echoes it
@example(value=_Splice([4, 0], "\n"))
def test_any_json_value_ends_in_a_documented_exit_code(tmp_path, capsys, role, value):
    if isinstance(value, _Splice):
        value = value.apply(json.loads(FIXTURES[role].read_text()))
    _assert_contract(role, _dumps(value).encode(), tmp_path, capsys)


@pytest.mark.parametrize("command, flag", [("profile", "--min-count")])
def test_a_limit_takes_ascii_digits_only(tmp_path, capsys, command, flag):
    argv = _argv(command, FIXTURES, tmp_path)
    assert main(argv + [flag, "12"]) == 0
    for value in ("\u0661\u0662", " 3 ", "1_0", "+3"):  # int() reads 12, 3, 10 and 3
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, value])
        assert exc.value.code == 1
        assert flag in capsys.readouterr().err


@EXAMPLES
@given(tag=st.text(max_size=6))
@example(tag="")
@example(tag="tar get")
@example(tag="\x1c")  # whitespace that no tag holds
def test_a_target_tag_is_a_run_of_non_whitespace(tmp_path, capsys, tag):
    """`verify --target` takes what an event line's tag can be, `\\S+`, and
    exits 1 on any other value."""
    argv = _argv("verify", FIXTURES, tmp_path) + [f"--target={tag}"]
    if re.fullmatch(r"\S+", tag):
        assert main(argv) == 0
        return
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "argument --target" in capsys.readouterr().err
