"""The CLI's exit-code contract: whatever one input file holds, with the
fixture's files for the others, `main` returns 0, 1, 2 or 3 and raises
nothing."""

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from syscage.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
FIXTURES = {
    "sdis": DATA / "minilib.sdis",
    "facts": DATA / "minilib.facts.json",
    "mapping": GOLDEN / "mapping.json",
    "sidecar": GOLDEN / "sidecar.json",
    "memmap": DATA / "memmap.txt",
    "events": DATA / "events.txt",
    "profile": GOLDEN / "profile.json",
}
READERS = {
    "sdis": ["analyze", "verify"],
    "facts": ["analyze"],
    "mapping": ["profile", "verify"],
    "sidecar": ["verify"],
    "memmap": ["verify"],
    "events": ["verify"],
    "profile": ["cve"],
}
JSON_INPUTS = ["facts", "mapping", "sidecar", "profile"]
EXAMPLES = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
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
    return [str(a) for a in argv]


def _assert_contract(role: str, content: bytes, tmp_path: Path) -> None:
    # same file name as the fixture: verify finds a library by its stem
    path = tmp_path / FIXTURES[role].name
    path.write_bytes(content)
    files = {**FIXTURES, role: path}
    for command in READERS[role]:
        assert main(_argv(command, files, tmp_path)) in (0, 1, 2, 3), command


@st.composite
def _mutated(draw, original: bytes):
    """`original` with a slice of up to 16 bytes replaced by arbitrary bytes."""
    i = draw(st.integers(0, len(original)))
    j = draw(st.integers(i, min(len(original), i + 16)))
    return original[:i] + draw(st.binary(max_size=16)) + original[j:]


@st.composite
def _spliced(draw, doc):
    """`doc` with the value at one path replaced by an arbitrary JSON value."""
    if isinstance(doc, (dict, list)) and doc and draw(st.booleans()):
        copy = dict(doc) if isinstance(doc, dict) else list(doc)
        key = draw(st.sampled_from(sorted(doc) if isinstance(doc, dict) else range(len(doc))))
        copy[key] = draw(_spliced(doc[key]))
        return copy
    return draw(JSON)


@pytest.mark.parametrize("role", FIXTURES)
@EXAMPLES
@given(data=st.data())
def test_any_bytes_end_in_a_documented_exit_code(tmp_path, role, data):
    original = FIXTURES[role].read_bytes()
    content = data.draw(st.binary(max_size=300) | _mutated(original))
    _assert_contract(role, content, tmp_path)


@pytest.mark.parametrize("role", JSON_INPUTS)
@EXAMPLES
@given(data=st.data())
def test_any_json_value_ends_in_a_documented_exit_code(tmp_path, role, data):
    original = json.loads(FIXTURES[role].read_text())
    value = data.draw(JSON | _spliced(original))
    _assert_contract(role, json.dumps(value).encode(), tmp_path)


@pytest.mark.parametrize("command, flag", [("profile", "--min-count"), ("verify", "--scan-limit")])
def test_a_limit_takes_ascii_digits_only(tmp_path, capsys, command, flag):
    argv = _argv(command, FIXTURES, tmp_path)
    assert main(argv + [flag, "12"]) == 0
    for value in ("\u0661\u0662", " 3 ", "1_0", "+3"):  # int() reads 12, 3, 10 and 3
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, value])
        assert exc.value.code == 1
        assert flag in capsys.readouterr().err
