import argparse
import hashlib
import json
import os
import re
import threading
from contextlib import contextmanager
from pathlib import Path

import pytest

from syscage.cli import COMMANDS, MAP_MIN_BYTES, build_parser, main
from syscage.profilegen import SeccompProfile, dump_json

DATA_ARGS = {}


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture
def outdir(tmp_path):
    return tmp_path


def _analyze(data_dir, outdir, *extra):
    mapping = outdir / "mapping.json"
    code = main([
        "analyze", str(data_dir / "minilib.sdis"),
        str(data_dir / "minilib.facts.json"),
        "-o", str(mapping), *extra,
    ])
    return code, mapping


def _profile(data_dir, outdir, mapping, *extra):
    profile = outdir / "profile.json"
    sidecar = outdir / "sidecar.json"
    code = main([
        "profile", str(data_dir / "target.sdis"),
        "--mapping", str(mapping),
        "--trace", str(data_dir / "target.trace"),
        "-o", str(profile), "--sidecar", str(sidecar), *extra,
    ])
    return code, profile, sidecar


def test_analyze_writes_mapping(data_dir, outdir):
    code, mapping = _analyze(data_dir, outdir)
    assert code == 0
    doc = json.loads(mapping.read_text())
    assert set(doc["apis"]) == {"read", "write", "open"}
    open_syscalls = {e["syscall"] for e in doc["apis"]["open"]["syscalls"]}
    assert open_syscalls == {"open", "ioctl"}


def test_analyze_missing_facts(data_dir, outdir):
    code = main([
        "analyze", str(data_dir / "minilib.sdis"),
        str(data_dir / "nope.json"), "-o", str(outdir / "m.json"),
    ])
    assert code == 1


def test_analyze_malformed_disassembly(tmp_path, data_dir):
    bad = tmp_path / "bad.sdis"
    bad.write_text("this is not sdis\n")
    code = main([
        "analyze", str(bad), str(data_dir / "minilib.facts.json"),
        "-o", str(tmp_path / "m.json"),
    ])
    assert code == 2


def test_profile_outputs(data_dir, outdir):
    _, mapping = _analyze(data_dir, outdir)
    code, profile, sidecar = _profile(data_dir, outdir, mapping)
    assert code == 0
    doc = json.loads(profile.read_text())
    names = doc["syscalls"][0]["names"]
    assert names == sorted(names)
    # read/write/open via APIs, ioctl via the tainted handler, close embedded
    assert set(names) == {"read", "write", "open", "ioctl", "close"}
    assert doc["defaultAction"] == "SCMP_ACT_ERRNO"
    side = json.loads(sidecar.read_text())
    assert side["suspicious_indirect"] == ["ioctl", "open"]
    # trace saw read/write/close, so open and ioctl are rare
    assert side["suspicious_rare"] == ["ioctl", "open"]


def test_profile_unknown_api_strict(data_dir, outdir, tmp_path, capsys):
    _, mapping = _analyze(data_dir, outdir)
    target = tmp_path / "t.sdis"
    target.write_text(
        "0000000000400000 <main>:\n    400000:\tcallq\t401000 <mystery@plt>\n"
    )
    code = main([
        "profile", str(target), "--mapping", str(mapping), "--strict",
        "-o", str(tmp_path / "p.json"), "--sidecar", str(tmp_path / "s.json"),
    ])
    assert code == 3
    assert capsys.readouterr().err == "syscage: analysis error: unknown API(s): mystery\n"


def test_profile_unknown_api_lenient(data_dir, outdir, tmp_path, capsys):
    _, mapping = _analyze(data_dir, outdir)
    target = tmp_path / "t.sdis"
    target.write_text(
        "0000000000400000 <main>:\n"
        "    400000:\tcallq\t401000 <mystery@plt>\n"
        "    400005:\tcallq\t401010 <read@plt>\n"
    )
    code = main([
        "profile", str(target), "--mapping", str(mapping),
        "-o", str(tmp_path / "p.json"), "--sidecar", str(tmp_path / "s.json"),
    ])
    assert code == 0
    doc = json.loads((tmp_path / "p.json").read_text())
    assert doc["syscalls"][0]["names"] == ["read"]
    assert capsys.readouterr().err == "warning: ignoring unmapped APIs: mystery\n"


def test_profile_embedded_syscall(data_dir, outdir):
    _, mapping = _analyze(data_dir, outdir)
    _, profile, _ = _profile(data_dir, outdir, mapping)
    names = json.loads(profile.read_text())["syscalls"][0]["names"]
    assert "close" in names  # mov $0x3,%eax; syscall in the target


def test_verify_log(data_dir, outdir):
    _, mapping = _analyze(data_dir, outdir)
    log = outdir / "verdicts.log"
    _, profile, sidecar = _profile(data_dir, outdir, mapping)
    code = main([
        "verify", "--sidecar", str(sidecar), "--mapping", str(mapping),
        "--memmap", str(data_dir / "memmap.txt"),
        "--events", str(data_dir / "events.txt"),
        "--lib-disasm", str(data_dir / "minilib.sdis"),
        "--policy", "indirect", "--target", "target",
        "-o", str(log),
    ])
    assert code == 0
    reasons = [line.split()[2] for line in log.read_text().splitlines()]
    assert reasons == [
        "NotTarget", "NotSuspicious", "PathMatched",
        "CacheHit", "RspOutOfRange", "NoPathMatch",
    ]


def test_verify_malformed_events(data_dir, outdir, tmp_path):
    _, mapping = _analyze(data_dir, outdir)
    _, profile, sidecar = _profile(data_dir, outdir, mapping)
    bad = tmp_path / "bad.events"
    bad.write_text("target open rip=zz rsp=1 stack=\n")
    code = main([
        "verify", "--sidecar", str(sidecar), "--mapping", str(mapping),
        "--memmap", str(data_dir / "memmap.txt"),
        "--events", str(bad),
        "--lib-disasm", str(data_dir / "minilib.sdis"),
    ])
    assert code == 2


def test_cve_report(data_dir, outdir):
    _, mapping = _analyze(data_dir, outdir)
    _, profile, _ = _profile(data_dir, outdir, mapping)
    report = outdir / "report.json"
    code = main(["cve", str(profile), "-o", str(report)])
    assert code == 0
    doc = json.loads(report.read_text())
    # ioctl is allowed by this profile, so its 29 CVEs are NOT mitigated
    assert "ioctl" not in doc["per_syscall"]
    assert doc["per_syscall"]["execveat"] == 10
    assert doc["count"] > 0


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])  # missing required arguments
    assert exc.value.code == 1


def test_outputs_byte_deterministic(data_dir, tmp_path):
    texts = []
    for run in ("a", "b"):
        d = tmp_path / run
        d.mkdir()
        _, mapping = _analyze(data_dir, d)
        _, profile, sidecar = _profile(data_dir, d, mapping)
        texts.append(
            (mapping.read_text(), profile.read_text(), sidecar.read_text())
        )
    assert texts[0] == texts[1]


def test_outputs_match_golden(data_dir, tmp_path):
    """analyze -> profile -> verify on the fixtures writes exactly the files
    under data/golden; replace them only for an intended change of output."""
    _, mapping = _analyze(data_dir, tmp_path)
    _, profile, sidecar = _profile(data_dir, tmp_path, mapping)
    log = tmp_path / "verdicts.log"
    assert main([
        "verify", "--sidecar", str(sidecar), "--mapping", str(mapping),
        "--memmap", str(data_dir / "memmap.txt"),
        "--events", str(data_dir / "events.txt"),
        "--lib-disasm", str(data_dir / "minilib.sdis"),
        "--target", "target", "-o", str(log),
    ]) == 0
    for out in (mapping, profile, sidecar, log):
        assert out.read_bytes() == (data_dir / "golden" / out.name).read_bytes(), out.name


def _verify_golden(data_dir, tmp_path, sidecar=None, mapping=None, events=None, lib=None,
                   extra=()):
    """verify on the fixtures with the golden sidecar and mapping, or the
    given replacements, and `extra` options; returns the exit code and the
    verdict log's path."""
    golden = data_dir / "golden"
    log = tmp_path / "v.log"
    code = main([
        "verify", "--sidecar", str(sidecar or golden / "sidecar.json"),
        "--mapping", str(mapping or golden / "mapping.json"),
        "--memmap", str(data_dir / "memmap.txt"),
        "--events", str(events or data_dir / "events.txt"),
        "--lib-disasm", str(lib or data_dir / "minilib.sdis"),
        "--target", "target", "-o", str(log), *extra,
    ])
    return code, log


def test_verify_decodes_no_instruction(data_dir, tmp_path, monkeypatch):
    """verify reads only function extents, so it never reads the body of a
    syscall host; analyze does."""
    import syscage.sysnum

    def decode(function):
        raise AssertionError("decoded an instruction")

    monkeypatch.setattr(syscage.sysnum, "resolve_numbers", decode)
    code, log = _verify_golden(data_dir, tmp_path)
    assert code == 0
    assert log.read_bytes() == (data_dir / "golden" / "verdicts.log").read_bytes()
    with pytest.raises(AssertionError, match="decoded an instruction"):
        _analyze(data_dir, tmp_path)


def test_verify_scans_for_no_site(data_dir, tmp_path, monkeypatch):
    """verify reads function extents alone, so it never looks for a call or
    `syscall` line in the library SDIS; analyze does."""
    import syscage.disasm

    class NoScan:
        def finditer(self, *args):
            raise AssertionError("scanned for sites")

    monkeypatch.setattr(syscage.disasm, "SITE_RE", NoScan())
    code, log = _verify_golden(data_dir, tmp_path)
    assert code == 0
    assert log.read_bytes() == (data_dir / "golden" / "verdicts.log").read_bytes()
    with pytest.raises(AssertionError, match="scanned for sites"):
        _analyze(data_dir, tmp_path)


def test_malformed_lib_disasm_fails_verify_as_it_fails_analyze(data_dir, tmp_path, capsys):
    lib = tmp_path / "minilib.sdis"  # the stem of the memory map's `lib` line
    lib.write_bytes((data_dir / "minilib.sdis").read_bytes() + b"    1000:\tnop\n")
    line = lib.read_bytes().count(b"\n")
    code = main(["analyze", str(lib), str(data_dir / "minilib.facts.json"),
                 "-o", str(tmp_path / "m.json")])
    assert (code, capsys.readouterr().err) == (
        2, f"syscage: parse error: {lib}: line {line}: address 0x1000 does not increase\n")
    # verify parses no SDIS that its mapping does not vouch for, so a
    # malformed one exits 2 as another sha256
    code, _ = _verify_golden(data_dir, tmp_path, lib=lib)
    golden = data_dir / "golden" / "mapping.json"
    assert (code, capsys.readouterr().err) == (2, (
        f"syscage: parse error: {lib}: sha256 {_sha256(lib)}, "
        f"not {_sha256(data_dir / 'minilib.sdis')} as in --mapping {golden}: "
        "not the SDIS that `syscage analyze` read\n"))


def _shifted(text: str, by: int) -> str:
    """SDIS `text` with every header, instruction and call-target address
    raised by `by`."""
    def shift(m):
        return f"{m[1]}{int(m[2], 16) + by:0{len(m[2])}x}{m[3]}"
    return re.sub(r"(^|^\s+|\t)([0-9a-f]+)(:| <)", shift, text, flags=re.M)


def test_a_shifted_lib_disasm_is_rejected(data_dir, tmp_path, capsys):
    """The fixture SDIS with every address raised by 0x1000 is well formed,
    and replayed against the fixture mapping it would turn three verdicts
    into RipOutOfRange; it is not the SDIS that the mapping was made from."""
    lib = tmp_path / "minilib.sdis"
    lib.write_text(_shifted((data_dir / "minilib.sdis").read_text(), 0x1000))
    assert main(["analyze", str(lib), str(data_dir / "minilib.facts.json"),
                 "-o", str(tmp_path / "m.json")]) == 0
    capsys.readouterr()
    code, log = _verify_golden(data_dir, tmp_path, lib=lib)
    golden = data_dir / "golden" / "mapping.json"
    assert (code, capsys.readouterr().err) == (2, (
        f"syscage: parse error: {lib}: sha256 {_sha256(lib)}, "
        f"not {_sha256(data_dir / 'minilib.sdis')} as in --mapping {golden}: "
        "not the SDIS that `syscage analyze` read\n"))
    assert not log.exists()


def test_a_lib_disasm_that_no_mapping_lists_is_rejected(data_dir, tmp_path, capsys):
    lib = tmp_path / "otherlib.sdis"  # the fixture's bytes under another stem
    lib.write_bytes((data_dir / "minilib.sdis").read_bytes())
    memmap = tmp_path / "memmap.txt"
    memmap.write_text((data_dir / "memmap.txt").read_text().replace("minilib", "otherlib"))
    golden = data_dir / "golden"
    argv = ["verify", "--sidecar", str(golden / "sidecar.json"),
            "--mapping", str(golden / "mapping.json"), "--memmap", str(memmap),
            "--events", str(data_dir / "events.txt"), "--lib-disasm", str(lib),
            "-o", str(tmp_path / "v.log")]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"syscage: parse error: {lib}: no library 'otherlib' in --mapping "
        f"{golden / 'mapping.json'}; re-run `syscage analyze` on this file\n")
    # a malformed unlisted file gets the same message: it is never parsed
    lib.write_bytes(lib.read_bytes() + b"junk\n")
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"syscage: parse error: {lib}: no library 'otherlib' in --mapping "
        f"{golden / 'mapping.json'}; re-run `syscage analyze` on this file\n")


def test_a_sidecar_made_from_another_mapping_is_rejected(data_dir, tmp_path, capsys):
    # the golden mapping indented: the same document in other bytes
    mapping = tmp_path / "mapping.json"
    mapping.write_text(json.dumps(_golden_mapping(data_dir), indent=1))
    sidecar = data_dir / "golden" / "sidecar.json"
    code, log = _verify_golden(data_dir, tmp_path, mapping=mapping)
    assert (code, capsys.readouterr().err) == (2, (
        f"syscage: parse error: {sidecar}: mapping_sha256 "
        f"{[_sha256(data_dir / 'golden' / 'mapping.json')]}, not {[_sha256(mapping)]} "
        f"as of --mapping {mapping}; re-run `syscage profile`\n"))
    assert not log.exists()
    # one more --mapping than the sidecar was made from
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"format": 4, "libraries": {}, "call_graph": {},
                                 "hosts": {}, "apis": {}}))
    code, _ = _verify_golden(data_dir, tmp_path, extra=["--mapping", str(empty)])
    assert code == 2 and "re-run `syscage profile`" in capsys.readouterr().err


def test_two_digests_of_one_library_are_an_analysis_error(data_dir, tmp_path, capsys):
    doc = _golden_mapping(data_dir)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    first.write_text(json.dumps({**doc, "apis": {"read": doc["apis"]["read"]}}))
    second.write_text(json.dumps({**doc, "apis": {"open": doc["apis"]["open"]},
                                  "libraries": {"minilib": "0" * 64}}))
    code = main(["profile", str(data_dir / "target.sdis"), "--mapping", str(first),
                 "--mapping", str(second), "-o", str(tmp_path / "p.json"),
                 "--sidecar", str(tmp_path / "s.json")])
    assert (code, capsys.readouterr().err) == (3, (
        "syscage: analysis error: library 'minilib' has two sha256 digests: "
        f"{doc['libraries']['minilib']}, {'0' * 64}\n"))


def _validate(text):
    """In place of `disasm._functions`, the loop that validates every line."""
    raise AssertionError("validated every line")
    yield


def test_verify_reads_a_vouched_lib_disasm_by_its_headers(data_dir, tmp_path, monkeypatch):
    """The mapping lists the sha256 of the fixture SDIS, so verify reads its
    extents from the headers and never runs the validating loop; analyze
    does."""
    import syscage.disasm

    monkeypatch.setattr(syscage.disasm, "_functions", _validate)
    code, log = _verify_golden(data_dir, tmp_path)
    assert code == 0
    assert log.read_bytes() == (data_dir / "golden" / "verdicts.log").read_bytes()
    with pytest.raises(AssertionError, match="validated every line"):
        _analyze(data_dir, tmp_path)


def test_verify_rejects_an_unvouched_lib_disasm_unparsed(data_dir, tmp_path, monkeypatch,
                                                         capsys):
    """An SDIS whose sha256 the mapping does not list exits 2 on its digest
    alone, well formed (shifted) or not, and the validating loop never runs."""
    import syscage.disasm

    monkeypatch.setattr(syscage.disasm, "_functions", _validate)
    text = (data_dir / "minilib.sdis").read_text()
    golden = data_dir / "golden" / "mapping.json"
    for name, spoilt in (("shifted", _shifted(text, 0x1000)), ("malformed", text + "junk\n")):
        lib = tmp_path / name / "minilib.sdis"
        lib.parent.mkdir()
        lib.write_text(spoilt)
        code, log = _verify_golden(data_dir, tmp_path, lib=lib)
        assert (code, capsys.readouterr().err) == (2, (
            f"syscage: parse error: {lib}: sha256 {_sha256(lib)}, "
            f"not {_sha256(data_dir / 'minilib.sdis')} as in --mapping {golden}: "
            "not the SDIS that `syscage analyze` read\n"))
        assert not log.exists()


@contextmanager
def _events(tmp_path, kind, data):
    """An events file holding `data`: a regular file, or a FIFO that a
    thread feeds."""
    path = tmp_path / "events.txt"
    if kind == "file":
        path.write_bytes(data)
        yield path
        return
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_bytes, args=(data,), daemon=True)
    writer.start()
    yield path
    writer.join(timeout=10)
    assert not writer.is_alive()


@pytest.mark.parametrize("kind", ["file", "fifo"])
def test_events_are_read_from_a_file_or_a_pipe(data_dir, tmp_path, capsys, monkeypatch, kind):
    """A regular file of MAP_MIN_BYTES or more is mapped and a FIFO is read;
    both give the same verdicts, and the same error for bytes that are not
    UTF-8."""
    import mmap

    mapped = []

    def spy(fileno, length, *args, real=mmap.mmap, **kwargs):
        mapped.append(os.fstat(fileno).st_size)
        return real(fileno, length, *args, **kwargs)

    monkeypatch.setattr(mmap, "mmap", spy)
    pad = b"\n" * MAP_MIN_BYTES  # blank lines, which are skipped
    text = (data_dir / "events.txt").read_bytes() + pad
    golden = (data_dir / "golden" / "verdicts.log").read_bytes()
    with _events(tmp_path, kind, text) as events:
        code, log = _verify_golden(data_dir, tmp_path, events=events)
    assert (code, log.read_bytes()) == (0, golden)
    assert mapped == ([len(text)] if kind == "file" else [])
    capsys.readouterr()
    events.unlink()
    with _events(tmp_path, kind, pad + b"\xff\n") as events:
        code, _ = _verify_golden(data_dir, tmp_path, events=events)
    assert (code, capsys.readouterr().err) == (2, f"syscage: parse error: {events}: "
                                               f"not UTF-8 text (invalid start byte at byte {len(pad)})\n")


def test_empty_events_give_an_empty_log(data_dir, tmp_path):
    empty = tmp_path / "events.txt"
    empty.write_bytes(b"")
    code, log = _verify_golden(data_dir, tmp_path, events=empty)
    assert (code, log.read_bytes()) == (0, b"")


def test_events_directory_is_a_usage_error(data_dir, tmp_path, capsys):
    code, log = _verify_golden(data_dir, tmp_path, events=tmp_path)
    assert code == 1
    assert capsys.readouterr().err.startswith(f"syscage: error: {tmp_path}: ")
    assert not log.exists()


@pytest.mark.parametrize("command, flag, value", [
    ("profile", "--min-count", "-1"),
    ("profile", "--min-count", "0"),
])
def test_non_positive_limit_is_a_usage_error(data_dir, tmp_path, capsys,
                                             command, flag, value):
    argv = [
        command, str(data_dir / "target.sdis"),
        "--mapping", str(data_dir / "golden" / "mapping.json"),
        "--trace", str(data_dir / "target.trace"),
        "-o", str(tmp_path / "p.json"), "--sidecar", str(tmp_path / "s.json"),
    ]
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, value])
    assert exc.value.code == 1
    assert flag in capsys.readouterr().err


def test_verify_has_no_scan_limit(data_dir, tmp_path, capsys):
    # the first 512 stack words are scanned, and no option changes that
    with pytest.raises(SystemExit) as exc:
        _verify_golden(data_dir, tmp_path, extra=["--scan-limit", "5"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --scan-limit 5" in capsys.readouterr().err
    assert not (tmp_path / "v.log").exists()


def test_unknown_syscall_gets_its_own_verdict(data_dir, tmp_path):
    events = tmp_path / "events.txt"
    events.write_text((data_dir / "events.txt").read_text()
                      + "target frobnicate rip=7f0000001005 rsp=7ffc00001000 stack=400014\n")
    code, log = _verify_golden(data_dir, tmp_path, events=events)
    assert code == 0
    golden = (data_dir / "golden" / "verdicts.log").read_text()
    assert log.read_text() == golden + "6 Deny UnknownSyscall path=\n"


def _golden_mapping(data_dir):
    return json.loads((data_dir / "golden" / "mapping.json").read_text())


def _without_format(doc):
    del doc["format"]


def _format_1(doc):
    doc["format"] = 1


def _format_3(doc):
    # the previous format: no sha256 of the library SDIS
    del doc["libraries"]
    doc["format"] = 3


def _format_2(doc):
    # the previous format: the hosts listed on each entry, none at the top
    for rec in doc["apis"].values():
        for entry in rec["syscalls"]:
            entry["hosts"] = doc["hosts"][entry["syscall"]]
    del doc["hosts"]
    doc["format"] = 2


def _entry_without_syscall(doc):
    del doc["apis"]["open"]["syscalls"][0]["syscall"]


def _hosts_not_a_list(doc):
    doc["hosts"]["open"] = "open_handler"


def _call_graph_not_an_object(doc):
    doc["call_graph"] = [["dispatch", "open_handler"]]


def _unresolved_sites_a_string(doc):
    doc["apis"]["open"]["unresolved_sites"] = "two"


def _unresolved_sites_true(doc):
    doc["apis"]["open"]["unresolved_sites"] = True


def _unresolved_sites_negative(doc):
    doc["apis"]["open"]["unresolved_sites"] = -3


def _syscall_an_array(doc):
    doc["apis"]["open"]["syscalls"][0]["syscall"] = ["ioctl"]


def _libraries_listing_a_number(doc):
    doc["libraries"]["minilib"] = 0


def _tainted_a_string(doc):
    doc["apis"]["open"]["syscalls"][0]["tainted"] = "yes"


def _host_an_array(doc):
    doc["hosts"]["open"] = [["open_handler"]]


def _duplicate_syscall(doc):
    syscalls = doc["apis"]["open"]["syscalls"]
    syscalls.append(dict(syscalls[1], tainted=False))


def _entry_function_a_number(doc):
    doc["apis"]["open"]["entry_function"] = 7


def _callee_an_array(doc):
    doc["call_graph"]["dispatch"] = [["open_handler"]]


SIDECARS = {
    "sidecar-list": ["ioctl", "open"],
    "sidecar-listing-an-array": {"suspicious_indirect": [[1]], "suspicious_rare": []},
    "sidecar-digests-not-strings": {"mapping_sha256": [1], "suspicious_indirect": [],
                                    "suspicious_rare": []},
}


@pytest.mark.parametrize("spoil", [
    _without_format, _format_1, _format_2, _format_3, _entry_without_syscall,
    _hosts_not_a_list, _libraries_listing_a_number,
    _call_graph_not_an_object, _unresolved_sites_a_string, _unresolved_sites_true,
    _unresolved_sites_negative, _syscall_an_array,
    _tainted_a_string, _host_an_array, _duplicate_syscall, _entry_function_a_number,
    _callee_an_array,
    *SIDECARS,
])
def test_malformed_mapping_or_sidecar_is_a_parse_error(data_dir, tmp_path, capsys, spoil):
    if spoil in SIDECARS:
        bad = tmp_path / "sidecar.json"
        bad.write_text(json.dumps(SIDECARS[spoil]))
        code, _ = _verify_golden(data_dir, tmp_path, sidecar=bad)
    else:
        doc = _golden_mapping(data_dir)
        spoil(doc)
        bad = tmp_path / "mapping.json"
        bad.write_text(json.dumps(doc))
        code, _ = _verify_golden(data_dir, tmp_path, mapping=bad)
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and f"parse error: {bad}: " in err
    if spoil in (_without_format, _format_1, _format_2, _format_3):
        assert "re-run `syscage analyze`" in err
    if spoil is _duplicate_syscall:
        assert "mapping API 'open' syscalls[2]: duplicate syscall 'open'" in err
    if spoil is _unresolved_sites_negative:
        assert "mapping API 'open' unresolved_sites is negative" in err


# each field that `analyze` writes, as its path in the mapping document
MAPPING_FIELDS = [("libraries",), ("call_graph",), ("hosts",), ("apis",),
                  ("apis", "open", "entry_function"),
                  ("apis", "open", "unresolved_sites"), ("apis", "open", "syscalls")]


@pytest.mark.parametrize("path", MAPPING_FIELDS, ids=".".join)
def test_a_missing_mapping_field_is_a_parse_error(data_dir, tmp_path, capsys, path):
    doc = _golden_mapping(data_dir)
    *parents, key = path
    owner = doc if not parents else doc["apis"]["open"]
    del owner[key]
    mapping = tmp_path / "mapping.json"
    mapping.write_text(json.dumps(doc))
    what = "mapping" if not parents else "mapping API 'open'"
    assert _profile(data_dir, tmp_path, mapping)[0] == 2
    assert _verify_golden(data_dir, tmp_path, mapping=mapping)[0] == 2
    error = f"syscage: parse error: {mapping}: {what} {key} is missing\n"
    assert capsys.readouterr().err == error * 2


@pytest.mark.parametrize("policy", ["indirect", "rare"])
def test_a_missing_sidecar_list_is_a_parse_error(data_dir, tmp_path, capsys, policy):
    _assert_sidecar_field_missing(data_dir, tmp_path, capsys, f"suspicious_{policy}",
                                  ["--policy", policy])


def test_a_sidecar_without_mapping_digests_is_a_parse_error(data_dir, tmp_path, capsys):
    _assert_sidecar_field_missing(data_dir, tmp_path, capsys, "mapping_sha256", [])


def _assert_sidecar_field_missing(data_dir, tmp_path, capsys, key, extra):
    doc = json.loads((data_dir / "golden" / "sidecar.json").read_text())
    del doc[key]
    sidecar = tmp_path / "sidecar.json"
    sidecar.write_text(json.dumps(doc))
    code, log = _verify_golden(data_dir, tmp_path, sidecar=sidecar, extra=extra)
    assert (code, capsys.readouterr().err) == (
        2, f"syscage: parse error: {sidecar}: sidecar {key} is missing\n")
    assert not log.exists()


def test_a_missing_unresolved_count_gives_no_profile(data_dir, tmp_path, capsys):
    """An imported API with unresolved sites allows the whole table; without
    its count, the profile would allow only the syscalls its record lists."""
    doc = _golden_mapping(data_dir)
    doc["apis"]["read"]["unresolved_sites"] = 2
    mapping = tmp_path / "mapping.json"
    mapping.write_text(json.dumps(doc))
    code, profile, _ = _profile(data_dir, tmp_path, mapping)
    assert (code, capsys.readouterr().err) == (
        0, "warning: allowing every syscall: unresolved syscall sites in API(s): read\n")
    profile.unlink()
    del doc["apis"]["read"]["unresolved_sites"]
    mapping.write_text(json.dumps(doc))
    code, profile, _ = _profile(data_dir, tmp_path, mapping)
    assert (code, capsys.readouterr().err) == (
        2, f"syscage: parse error: {mapping}: mapping API 'read' unresolved_sites is missing\n")
    assert not profile.exists()


def _chain_library(n):
    """SDIS for api@@V_1 -> f1 -> ... -> f{n-1}, each calling the next from
    its first instruction; f{n-1} issues getpid."""
    names = ["api@@V_1"] + [f"f{i}" for i in range(1, n)]
    lines = []
    for i, name in enumerate(names):
        start = 0x1000 + 0x10 * i
        lines.append(f"{start:016x} <{name}>:")
        if i + 1 < n:
            lines.append(f"    {start:x}:\tcallq\t{start + 0x10:x} <{names[i + 1]}>")
            lines.append(f"    {start + 5:x}:\tretq")
        else:
            lines.append(f"    {start:x}:\tmov\t$0x27,%eax")
            lines.append(f"    {start + 5:x}:\tsyscall")
    return "\n".join(lines) + "\n"


def test_long_call_chain_matches(tmp_path):
    # one 100-function walk leads from the API to the syscall; a cap on the
    # length of secure paths would deny the event
    n = 100
    base = 0x7F0000000000
    (tmp_path / "chain.sdis").write_text(_chain_library(n))
    (tmp_path / "chain.facts.json").write_text("{}")
    (tmp_path / "memmap.txt").write_text(
        f"lib chain {base:x} 10000\nstack 7ffc00000000 7ffc00100000\ncode 400000 500000\n")
    returns = [base + 0x1000 + 0x10 * i + 5 for i in reversed(range(n - 1))]
    rip = base + 0x1000 + 0x10 * (n - 1) + 5
    (tmp_path / "events.txt").write_text(
        f"target getpid rip={rip:x} rsp=7ffc00001000 "
        f"stack={','.join(f'{w:x}' for w in returns)},400014\n")
    mapping = tmp_path / "mapping.json"
    assert main(["analyze", str(tmp_path / "chain.sdis"),
                 str(tmp_path / "chain.facts.json"), "-o", str(mapping)]) == 0
    (tmp_path / "sidecar.json").write_text(json.dumps({
        "mapping_sha256": [_sha256(mapping)],
        "suspicious_indirect": ["getpid"], "suspicious_rare": []}))
    log = tmp_path / "verdicts.log"
    assert main([
        "verify", "--sidecar", str(tmp_path / "sidecar.json"), "--mapping", str(mapping),
        "--memmap", str(tmp_path / "memmap.txt"), "--events", str(tmp_path / "events.txt"),
        "--lib-disasm", str(tmp_path / "chain.sdis"), "-o", str(log),
    ]) == 0
    assert log.read_text().startswith("0 Allow PathMatched path=f99,f98,")


def test_functions_sharing_a_name_resolve_their_own_sites(tmp_path):
    # `objdump -d` can head two functions with one name; the syscall site of
    # the first copy must not be looked up in the second
    (tmp_path / "dup.sdis").write_text(
        "0000000000001000 <f@@V_1>:\n    1000:\tmov\t$0x27,%eax\n    1005:\tsyscall\n"
        "0000000000002000 <f@@V_1>:\n    2000:\tretq\n")
    (tmp_path / "dup.facts.json").write_text("{}")
    mapping = tmp_path / "mapping.json"
    assert main(["analyze", str(tmp_path / "dup.sdis"),
                 str(tmp_path / "dup.facts.json"), "-o", str(mapping)]) == 0
    record = json.loads(mapping.read_text())["apis"]["f"]
    assert [e["syscall"] for e in record["syscalls"]] == ["getpid"]
    assert record["unresolved_sites"] == 0


def test_api_exported_by_two_functions_is_an_analysis_error(tmp_path, capsys):
    # the mapping would keep one of them, so an allowlist built from it
    # could block what the other issues
    (tmp_path / "two.sdis").write_text(
        "0000000000001000 <open@@V_1>:\n    1000:\tmov\t$0x2,%eax\n    1005:\tsyscall\n"
        "0000000000002000 <open@@V_2>:\n    2000:\tmov\t$0x0,%eax\n    2005:\tsyscall\n")
    (tmp_path / "two.facts.json").write_text("{}")
    assert main(["analyze", str(tmp_path / "two.sdis"), str(tmp_path / "two.facts.json"),
                 "-o", str(tmp_path / "mapping.json")]) == 3
    assert capsys.readouterr().err == ("syscage: analysis error: API 'open' defined by more "
                                       "than one function: open@@V_1, open@@V_2\n")
    assert not (tmp_path / "mapping.json").exists()
    # objdump's labels for code before or after a symbol are no second export
    (tmp_path / "two.sdis").write_text(
        "0000000000000fe1 <open@@V_1-0x1f>:\n    fe1:\tmov\t$0x0,%eax\n    fe6:\tsyscall\n"
        "0000000000001000 <open@@V_1>:\n    1000:\tmov\t$0x2,%eax\n    1005:\tsyscall\n"
        "0000000000001010 <open@@V_1+0x10>:\n    1010:\tmov\t$0x0,%eax\n    1015:\tsyscall\n")
    assert main(["analyze", str(tmp_path / "two.sdis"), str(tmp_path / "two.facts.json"),
                 "-o", str(tmp_path / "mapping.json")]) == 0
    record = json.loads((tmp_path / "mapping.json").read_text())["apis"]["open"]
    assert record["entry_function"] == "open@@V_1"
    assert [e["syscall"] for e in record["syscalls"]] == ["open"]


def test_non_utf8_disassembly_is_a_parse_error(data_dir, tmp_path, capsys):
    bad = tmp_path / "lib.sdis"
    # a line end counts in bytes as it is in the file
    for data, offset in ((b"0000000000001000 <f\xff>:\n", 19), (b"\r\n\r\n\xff", 4)):
        bad.write_bytes(data)
        code = main(["analyze", str(bad), str(data_dir / "minilib.facts.json"),
                     "-o", str(tmp_path / "m.json")])
        assert code == 2
        assert capsys.readouterr().err == (f"syscage: parse error: {bad}: not UTF-8 text "
                                           f"(invalid start byte at byte {offset})\n")


def test_crlf_disassembly_is_a_parse_error_at_line_1(data_dir, tmp_path, capsys):
    # files are decoded with no line-end translation, so the header ends in \r
    sdis = tmp_path / "minilib.sdis"
    sdis.write_bytes((data_dir / "minilib.sdis").read_bytes().replace(b"\n", b"\r\n"))
    code = main(["analyze", str(sdis), str(data_dir / "minilib.facts.json"),
                 "-o", str(tmp_path / "m.json")])
    assert code == 2
    assert capsys.readouterr().err == (
        f"syscage: parse error: {sdis}: line 1: bad function header: "
        "'0000000000001000 <read@@GLIBC_2.2.5>:\\r'\n")


def test_a_lone_cr_in_disassembly_is_not_a_line_break(data_dir, tmp_path, capsys):
    # whitespace between an operand and its comment, so later lines keep their numbers
    text = (data_dir / "minilib.sdis").read_bytes().replace(b" <do_write>", b"\r<do_write>", 1)
    sdis, mapping = tmp_path / "minilib.sdis", tmp_path / "mapping.json"
    sdis.write_bytes(text)
    argv = ["analyze", str(sdis), str(data_dir / "minilib.facts.json"), "-o", str(mapping)]
    assert main(argv) == 0
    golden = _golden_mapping(data_dir)
    golden["libraries"] = {"minilib": _sha256(sdis)}
    assert mapping.read_text() == dump_json(golden)
    sdis.write_bytes(text + b"bad\n")
    assert main(argv) == 2
    line = text.count(b"\n") + 1
    assert f"{sdis}: line {line}: bad function header: 'bad'\n" in capsys.readouterr().err


@pytest.mark.parametrize("line_end, rare", [
    (b"\n", []),
    (b"\r\n", []),  # the \r is after the syscall name, so every line still counts
    (b"\r", ["close"]),  # one line: only its first call counts
])
def test_trace_lines_split_at_newline_alone(data_dir, tmp_path, line_end, rare):
    trace = tmp_path / "target.trace"
    text = (data_dir / "target.trace").read_bytes()
    trace.write_bytes(text.replace(b"\nclose", line_end + b"close"))
    profile, sidecar = tmp_path / "profile.json", tmp_path / "sidecar.json"
    assert main(["profile", str(data_dir / "target.sdis"),
                 "--mapping", str(data_dir / "golden" / "mapping.json"), "--trace", str(trace),
                 "-o", str(profile), "--sidecar", str(sidecar)]) == 0
    assert json.loads(sidecar.read_text())["suspicious_rare"] == sorted(["ioctl", "open", *rare])


def test_crlf_events_verify(data_dir, tmp_path):
    events = tmp_path / "events.txt"
    events.write_bytes((data_dir / "events.txt").read_bytes().replace(b"\n", b"\r\n"))
    code, log = _verify_golden(data_dir, tmp_path, events=events)
    assert code == 0
    assert log.read_bytes() == (data_dir / "golden" / "verdicts.log").read_bytes()


def _golden_outputs(data_dir, tmp_path, *mappings):
    """profile and verify on the fixtures with `mappings`; each output's
    bytes must be those of the golden file of the same role."""
    argv = [arg for m in mappings for arg in ("--mapping", str(m))]
    profile, sidecar, log = (tmp_path / "p.json", tmp_path / "s.json", tmp_path / "v.log")
    assert main(["profile", str(data_dir / "target.sdis"), *argv,
                 "--trace", str(data_dir / "target.trace"),
                 "-o", str(profile), "--sidecar", str(sidecar)]) == 0
    assert main(["verify", "--sidecar", str(sidecar), *argv,
                 "--memmap", str(data_dir / "memmap.txt"),
                 "--events", str(data_dir / "events.txt"),
                 "--lib-disasm", str(data_dir / "minilib.sdis"),
                 "--target", "target", "-o", str(log)]) == 0
    golden = data_dir / "golden"
    for out, name in ((profile, "profile.json"), (log, "verdicts.log")):
        assert out.read_bytes() == (golden / name).read_bytes(), name
    # the sidecar names the mapping files it was made from
    expected = json.loads((golden / "sidecar.json").read_text())
    expected["mapping_sha256"] = [_sha256(m) for m in mappings]
    assert sidecar.read_text() == dump_json(expected)


def test_an_indented_mapping_gives_the_same_outputs(data_dir, tmp_path):
    # the layout `analyze` wrote before its output became compact: a mapping
    # takes any JSON whitespace, and its sidecar records these bytes
    mapping = tmp_path / "indented.json"
    mapping.write_text(json.dumps(_golden_mapping(data_dir), indent=2, sort_keys=True) + "\n")
    assert mapping.read_bytes() != (data_dir / "golden" / "mapping.json").read_bytes()
    _golden_outputs(data_dir, tmp_path, mapping)


def test_mappings_merge_in_order(data_dir, tmp_path, capsys):
    """Split files give the golden outputs: records, call graphs and host
    lists are unioned, with `dispatch`'s callees split between the files and
    `open`'s host listed in both."""
    doc = _golden_mapping(data_dir)
    graph, hosts, apis = doc["call_graph"], doc["hosts"], doc["apis"]
    libraries = doc["libraries"]  # in both files: one digest per library merges
    first = {"format": 4, "libraries": libraries, "apis": {k: apis[k] for k in ("read", "write")},
             "call_graph": {"dispatch": ["log_call"], "do_write": graph["do_write"],
                            "write@@GLIBC_2.2.5": graph["write@@GLIBC_2.2.5"]},
             "hosts": {k: hosts[k] for k in ("open", "read", "write")}}
    second = {"format": 4, "libraries": libraries, "apis": {"open": apis["open"]},
              "call_graph": {"dispatch": ["ioctl_handler", "open_handler"],
                             "log_call": graph["log_call"],
                             "open@@GLIBC_2.2.5": graph["open@@GLIBC_2.2.5"]},
              "hosts": {k: hosts[k] for k in ("ioctl", "open")}}
    paths = [tmp_path / "first.json", tmp_path / "second.json", tmp_path / "bad.json"]
    for path, part in zip(paths, (first, second, {"format": 2})):
        path.write_text(json.dumps(part))
    _golden_outputs(data_dir, tmp_path, *paths[:2])
    capsys.readouterr()

    def profile(*order):
        code = main(["profile", str(data_dir / "target.sdis"), "-o", str(tmp_path / "p.json"),
                     "--sidecar", str(tmp_path / "s.json"),
                     *[arg for m in order for arg in ("--mapping", str(m))]])
        return code, capsys.readouterr().err

    # each file is merged as it is read, so the first fault in order is reported
    assert profile(paths[0], paths[1], paths[0], paths[2]) == (
        3, "syscage: analysis error: API 'read' defined by more than one mapping\n")
    code, err = profile(paths[0], paths[2], paths[0])
    assert code == 2 and err.startswith(f"syscage: parse error: {paths[2]}: ")


@pytest.mark.parametrize("text, reason", [
    ("{", "Expecting property name"),
    ("[" * 100_000, "maximum recursion depth exceeded"),
])
def test_malformed_json_names_its_file(data_dir, tmp_path, capsys, text, reason):
    bad = tmp_path / "sidecar.json"
    bad.write_text(text)
    code, _ = _verify_golden(data_dir, tmp_path, sidecar=bad)
    assert code == 2
    assert f"parse error: {bad}: {reason}" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["missing input", "directory input", "output dir missing"])
def test_unusable_path_is_a_usage_error(data_dir, tmp_path, capsys, case):
    lib, out = data_dir / "minilib.sdis", tmp_path / "m.json"
    if case == "missing input":
        lib = tmp_path / "nope.sdis"
    elif case == "directory input":
        lib = tmp_path
    else:
        out = tmp_path / "no" / "m.json"
    code = main(["analyze", str(lib), str(data_dir / "minilib.facts.json"), "-o", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"syscage: error: {out if case == 'output dir missing' else lib}: ")
    assert "Traceback" not in err


def _working_argv(data_dir, out):
    """A command line of each subcommand that exits 0 on the fixtures."""
    golden = data_dir / "golden"
    argvs = {
        "analyze": ["analyze", data_dir / "minilib.sdis", data_dir / "minilib.facts.json",
                    "-o", out / "m.json"],
        "profile": ["profile", data_dir / "target.sdis", "--mapping", golden / "mapping.json",
                    "--trace", data_dir / "target.trace",
                    "-o", out / "p.json", "--sidecar", out / "s.json"],
        "verify": ["verify", "--sidecar", golden / "sidecar.json",
                   "--mapping", golden / "mapping.json", "--memmap", data_dir / "memmap.txt",
                   "--events", data_dir / "events.txt", "--lib-disasm", data_dir / "minilib.sdis",
                   "-o", out / "v.log"],
        "cve": ["cve", golden / "profile.json", "-o", out / "c.json"],
    }
    return {command: [str(arg) for arg in argv] for command, argv in argvs.items()}


# (subcommand, the index of a positional path or a path option's flag)
@pytest.mark.parametrize("command, where", [
    ("analyze", 1), ("analyze", 2), ("analyze", "--table"), ("analyze", "-o"),
    ("profile", 1), ("profile", "--mapping"), ("profile", "--table"), ("profile", "--trace"),
    ("profile", "-o"), ("profile", "--sidecar"),
    ("verify", "--sidecar"), ("verify", "--mapping"), ("verify", "--memmap"),
    ("verify", "--events"), ("verify", "--lib-disasm"), ("verify", "--table"),
    ("verify", "-o"),
    ("cve", 1), ("cve", "--dataset"), ("cve", "--table"), ("cve", "-o"),
])
def test_empty_path_is_a_usage_error(data_dir, tmp_path, capsys, command, where):
    """An empty path names no file: it is not the bundled file, nor stdout.
    The failed command leaves each of its outputs as it was: neither
    rewritten nor, when missing, created."""
    argv = _working_argv(data_dir, tmp_path)[command]
    assert main(argv) == 0
    capsys.readouterr()
    outputs = sorted(tmp_path.iterdir())  # what the command wrote
    if isinstance(where, int):
        argv[where] = ""
    elif where in argv:
        argv[argv.index(where) + 1] = ""
    else:
        argv += [where, ""]
    for old in (b"old\n", None):
        for path in outputs:
            path.write_bytes(old) if old else path.unlink()
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "syscage: error: [Errno 2] No such file or directory: ''\n"
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == (
            dict.fromkeys(outputs, old) if old else {})


@pytest.mark.parametrize("profile", [
    ["read"],
    {"syscalls": [{"action": "SCMP_ACT_ALLOW", "names": "read"}]},
    {"syscalls": {"action": "SCMP_ACT_ALLOW"}},
])
def test_malformed_docker_profile_is_a_parse_error(tmp_path, capsys, profile):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(profile))
    assert main(["cve", str(path), "-o", str(tmp_path / "r.json")]) == 2
    assert f"parse error: {path}: profile" in capsys.readouterr().err


@pytest.mark.parametrize("strict", [False, True])
def test_allow_all_fallback_is_reported(data_dir, tmp_path, capsys, strict):
    doc = _golden_mapping(data_dir)
    doc["apis"]["read"]["unresolved_sites"] = 2
    mapping = tmp_path / "mapping.json"
    mapping.write_text(json.dumps(doc))
    code, profile, _ = _profile(data_dir, tmp_path, mapping, *(["--strict"] if strict else []))
    err = capsys.readouterr().err
    if strict:
        assert code == 3
        assert err == ("syscage: analysis error: "
                       "unresolved syscall sites in API(s): read\n")
    else:
        assert code == 0
        assert err == ("warning: allowing every syscall: "
                       "unresolved syscall sites in API(s): read\n")
        assert len(json.loads(profile.read_text())["syscalls"][0]["names"]) == 335


@pytest.mark.parametrize("strict", [False, True])
def test_target_unresolved_site_allows_all(data_dir, tmp_path, capsys, strict):
    # the target's own syscall with a number that is not recovered
    target = tmp_path / "target.sdis"
    target.write_text((data_dir / "target.sdis").read_text().replace(
        "mov\t$0x3,%eax", "mov\t(%rdi),%eax"))
    profile, sidecar = tmp_path / "profile.json", tmp_path / "sidecar.json"
    code = main(["profile", str(target), "--mapping", str(data_dir / "golden" / "mapping.json"),
                 "-o", str(profile), "--sidecar", str(sidecar),
                 *(["--strict"] if strict else [])])
    err = capsys.readouterr().err
    if strict:
        assert code == 3
        assert err == ("syscage: analysis error: "
                       "unresolved syscall sites in the target itself\n")
    else:
        assert code == 0
        assert err == ("warning: allowing every syscall: "
                       "unresolved syscall sites in the target itself\n")
        assert len(json.loads(profile.read_text())["syscalls"][0]["names"]) == 335


def test_lib_disasm_without_lib_line_is_an_analysis_error(data_dir, tmp_path, capsys):
    others = [tmp_path / "otherlib.sdis", tmp_path / "alib.sdis"]
    for other in others:
        other.write_text((data_dir / "minilib.sdis").read_text())
    golden = data_dir / "golden"
    argv = ["verify", "--sidecar", str(golden / "sidecar.json"),
            "--mapping", str(golden / "mapping.json"), "--memmap", str(data_dir / "memmap.txt"),
            "--events", str(data_dir / "events.txt"), "-o", str(tmp_path / "v.log")]
    assert main(argv + ["--lib-disasm", str(data_dir / "minilib.sdis"),
                        "--lib-disasm", str(others[0]), "--lib-disasm", str(others[1])]) == 3
    assert capsys.readouterr().err == ("syscage: analysis error: "
                                       "no `lib` line in the memory map for: alib, otherlib\n")
    # a `lib` line without SDIS is a library that was not analysed
    memmap = tmp_path / "memmap.txt"
    memmap.write_text((data_dir / "memmap.txt").read_text() + "lib extra 7f0000100000 1000\n")
    argv[argv.index("--memmap") + 1] = str(memmap)
    assert main(argv + ["--lib-disasm", str(data_dir / "minilib.sdis")]) == 0
    assert (tmp_path / "v.log").read_bytes() == (golden / "verdicts.log").read_bytes()


def test_lib_disasm_sharing_a_stem_is_an_analysis_error(data_dir, tmp_path, capsys):
    # the second file would replace the first's offsets and deny every event
    first, second = tmp_path / "a" / "minilib.sdis", tmp_path / "b" / "minilib.sdis"
    for path, text in ((first, (data_dir / "minilib.sdis").read_text()),
                       (second, "0000000000003000 <unrelated>:\n    3000:\tretq\n")):
        path.parent.mkdir()
        path.write_text(text)
    golden = data_dir / "golden"
    log = tmp_path / "v.log"
    argv = ["verify", "--sidecar", str(golden / "sidecar.json"),
            "--mapping", str(golden / "mapping.json"), "--memmap", str(data_dir / "memmap.txt"),
            "--events", str(data_dir / "events.txt"), "-o", str(log),
            "--lib-disasm", str(first), "--lib-disasm", str(second)]
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        f"syscage: analysis error: --lib-disasm {first} and {second} "
        "share the library name 'minilib'\n")
    assert not log.exists()
    # checked before any SDIS is parsed: a malformed second file changes nothing
    second.write_text("not sdis\n")
    assert main(argv) == 3
    assert "share the library name 'minilib'" in capsys.readouterr().err
    # the same path given twice is one library
    assert main(argv[:-1] + [str(first)]) == 0
    assert log.read_bytes() == (golden / "verdicts.log").read_bytes()


def test_policy_choices_name_the_sidecar_keys():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    policy = next(a for a in sub.choices["verify"]._actions if a.dest == "policy")
    profile = SeccompProfile(allowed=[], suspicious_indirect=set(), suspicious_rare=set())
    assert {f"suspicious_{c}" for c in policy.choices} == {
        key for key in profile.sidecar_document([]) if key.startswith("suspicious_")}


def test_conflicting_alias_is_a_parse_error(data_dir, tmp_path, capsys):
    facts = tmp_path / "alias.facts.json"
    facts.write_text(json.dumps({"aliases": [{"alias": "a", "canonical": "b"},
                                             {"alias": "a", "canonical": "c"}]}))
    code = main(["analyze", str(data_dir / "minilib.sdis"), str(facts),
                 "-o", str(tmp_path / "m.json")])
    assert code == 2
    assert (f"parse error: {facts}: facts aliases[1]: conflicting canonical names for 'a'"
            in capsys.readouterr().err)


def _readme_usage() -> dict[str, list[str]]:
    """Each subcommand of the README's usage block -> the argv of its
    example, continued lines joined."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    usage = readme.split("## CLI usage", 1)[1].split("```", 2)[1].replace("\\\n", " ")
    return {line.split()[1]: line.split()[1:]
            for line in usage.splitlines() if line.startswith("syscage ")}


def test_readme_usage_names_every_subcommand():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(_readme_usage()) == set(sub.choices)


def _parse(parser, argv, capsys):
    """(the parsed options, or the exit code, then stdout and stderr) of
    `argv` on `parser`."""
    try:
        result = vars(parser.parse_args(argv))
    except SystemExit as exc:
        result = exc.code
    return (result, *capsys.readouterr())


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_one_command_parser_parses_as_the_full_parser(command, capsys):
    usage = _readme_usage()[command]
    for argv in (usage, [command, "-h"], [command], usage + ["--no-such-option"],
                 usage + ["--min-count", "0"]):
        assert _parse(build_parser(command), argv, capsys) == _parse(
            build_parser(), argv, capsys), argv


def test_top_level_usage_names_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    assert "{analyze,profile,verify,cve}" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all(f"{name}  " in out and help_line in out
               for name, (help_line, _) in COMMANDS.items())
