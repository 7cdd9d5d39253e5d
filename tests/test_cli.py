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


@pytest.mark.parametrize("command, flag, value", [
    ("analyze", "--max-paths", "-1"),
    ("analyze", "--max-paths", "0"),
    ("analyze", "--max-path-len", "0"),
    ("verify", "--scan-limit", "-2"),
    ("verify", "--scan-limit", "0"),
])
def test_non_positive_limit_is_a_usage_error(data_dir, tmp_path, capsys,
                                             command, flag, value):
    golden = data_dir / "golden"
    argv = {
        "analyze": [
            "analyze", str(data_dir / "minilib.sdis"),
            str(data_dir / "minilib.facts.json"), "-o", str(tmp_path / "m.json"),
        ],
        "verify": [
            "verify", "--sidecar", str(golden / "sidecar.json"),
            "--mapping", str(golden / "mapping.json"),
            "--memmap", str(data_dir / "memmap.txt"),
            "--events", str(data_dir / "events.txt"),
            "--lib-disasm", str(data_dir / "minilib.sdis"),
            "-o", str(tmp_path / "v.log"),
        ],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, value])
    assert exc.value.code == 1
    assert flag in capsys.readouterr().err
