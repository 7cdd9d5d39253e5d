import json

import pytest

from syscage.cli import main

DATA_ARGS = {}


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


def test_profile_unknown_api_strict(data_dir, outdir, tmp_path):
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


def test_profile_unknown_api_lenient(data_dir, outdir, tmp_path):
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


def test_trace_merge(data_dir, outdir):
    out = outdir / "counts.json"
    code = main([
        "trace-merge", str(data_dir / "target.trace"),
        str(data_dir / "target.trace"), "-o", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["runs"] == 2
    assert doc["counts"]["read"] == 4


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


def _verify_golden(data_dir, tmp_path, sidecar=None, mapping=None, events=None):
    """verify on the fixtures with the golden sidecar and mapping, or the
    given replacements; returns the exit code and the verdict log's path."""
    golden = data_dir / "golden"
    log = tmp_path / "v.log"
    code = main([
        "verify", "--sidecar", str(sidecar or golden / "sidecar.json"),
        "--mapping", str(mapping or golden / "mapping.json"),
        "--memmap", str(data_dir / "memmap.txt"),
        "--events", str(events or data_dir / "events.txt"),
        "--lib-disasm", str(data_dir / "minilib.sdis"),
        "--target", "target", "-o", str(log),
    ])
    return code, log


@pytest.mark.parametrize("command, flag, value", [
    ("verify", "--scan-limit", "-2"),
    ("verify", "--scan-limit", "0"),
])
def test_non_positive_limit_is_a_usage_error(data_dir, tmp_path, capsys,
                                             command, flag, value):
    golden = data_dir / "golden"
    argv = [
        "verify", "--sidecar", str(golden / "sidecar.json"),
        "--mapping", str(golden / "mapping.json"),
        "--memmap", str(data_dir / "memmap.txt"),
        "--events", str(data_dir / "events.txt"),
        "--lib-disasm", str(data_dir / "minilib.sdis"),
        "-o", str(tmp_path / "v.log"),
    ]
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, value])
    assert exc.value.code == 1
    assert flag in capsys.readouterr().err


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


def _entry_without_syscall(doc):
    del doc["apis"]["open"]["syscalls"][0]["syscall"]


def _hosts_not_a_list(doc):
    doc["apis"]["open"]["syscalls"][0]["hosts"] = "open_handler"


def _call_graph_not_an_object(doc):
    doc["call_graph"] = [["dispatch", "open_handler"]]


@pytest.mark.parametrize("spoil", [
    _without_format, _format_1, _entry_without_syscall, _hosts_not_a_list,
    _call_graph_not_an_object, "sidecar-list",
])
def test_malformed_mapping_or_sidecar_is_a_parse_error(data_dir, tmp_path, capsys, spoil):
    if spoil == "sidecar-list":
        bad = tmp_path / "sidecar.json"
        bad.write_text(json.dumps(["ioctl", "open"]))
        code, _ = _verify_golden(data_dir, tmp_path, sidecar=bad)
    else:
        doc = _golden_mapping(data_dir)
        spoil(doc)
        bad = tmp_path / "mapping.json"
        bad.write_text(json.dumps(doc))
        code, _ = _verify_golden(data_dir, tmp_path, mapping=bad)
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and "parse error" in err
    if spoil in (_without_format, _format_1):
        assert "re-run `syscage analyze`" in err


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
    (tmp_path / "sidecar.json").write_text(
        json.dumps({"suspicious_indirect": ["getpid"], "suspicious_rare": []}))
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
    log = tmp_path / "verdicts.log"
    assert main([
        "verify", "--sidecar", str(tmp_path / "sidecar.json"), "--mapping", str(mapping),
        "--memmap", str(tmp_path / "memmap.txt"), "--events", str(tmp_path / "events.txt"),
        "--lib-disasm", str(tmp_path / "chain.sdis"), "-o", str(log),
    ]) == 0
    assert log.read_text().startswith("0 Allow PathMatched path=f99,f98,")
