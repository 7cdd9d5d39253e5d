import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syscage import packaged_data
from syscage.cli import main
from syscage.cve import CveRecord, load_cve_dataset, mitigation_report, report_document
from syscage.errors import AnalysisError, ParseError

from test_verifier import _replace_run

SEED_COUNTS = {
    "ioctl": 29, "execveat": 10, "keyctl": 8, "ptrace": 5, "add_key": 4,
    "mount": 3, "unshare": 2, "waitid": 2, "request_key": 2,
    "rt_tgsigqueueinfo": 2, "epoll_ctl": 2, "move_pages": 2, "shmctl": 2,
    "perf_event_open": 2, "clock_nanosleep": 1, "semget": 1, "semctl": 1,
    "name_to_handle_at": 1, "epoll_pwait": 1, "fremovexattr": 1,
}


@pytest.fixture(scope="module")
def seed_records():
    return load_cve_dataset(packaged_data("cve_seed.tsv"))


def test_load_single_record():
    records = load_cve_dataset("CVE-2016-0728\tkeyctl,add_key,request_key\n")
    assert len(records) == 1
    assert records[0].id == "CVE-2016-0728"
    assert records[0].syscalls == {"keyctl", "add_key", "request_key"}


def test_load_empty():
    assert load_cve_dataset("") == []


def test_duplicate_ids_unioned():
    records = load_cve_dataset(
        "CVE-2016-0728\tkeyctl\n"
        "CVE-2016-0728\tadd_key\n"
    )
    assert len(records) == 1
    assert records[0].syscalls == {"keyctl", "add_key"}


def test_malformed_id():
    with pytest.raises(ParseError, match="line 1: bad CVE id 'CVE-XX-1'"):
        load_cve_dataset("CVE-XX-1\tioctl\n")
    with pytest.raises(ParseError, match="line 1: bad CVE id 'CVE-\uff12\uff10\uff12\uff10-1234'"):
        load_cve_dataset("CVE-\uff12\uff10\uff12\uff10-1234\tread\n")
    with pytest.raises(ParseError, match="line 1: missing syscall list"):
        load_cve_dataset("CVE-2016-0728\n")


def test_cve_lines_are_numbered_by_newline():
    # fields are tab-separated, so a stray \x0c or \r is stripped at either
    # end of a field but stays inside one; `line N` is the N-th `\n` line
    records = load_cve_dataset("CVE-2016-0728\x0c\tkeyctl\r,\x0cadd_key\tnote\r\n")
    assert records == [CveRecord("CVE-2016-0728", {"keyctl", "add_key"})]
    with pytest.raises(ParseError, match=r"^line 2: bad CVE id 'CVE-2016\\r-0728'$"):
        load_cve_dataset("CVE-2016-0729\tread\x0c\nCVE-2016\r-0728\tioctl\n")


def test_unknown_syscall_strict(seed_table):
    with pytest.raises(AnalysisError, match="line 1: unknown syscall\\(s\\): not_a_syscall"):
        load_cve_dataset(
            "CVE-2016-0728\tnot_a_syscall\n",
            table_names=seed_table.names,
            strict=True,
        )
    # non-strict keeps the record
    records = load_cve_dataset(
        "CVE-2016-0728\tnot_a_syscall\n", table_names=seed_table.names
    )
    assert len(records) == 1


def test_seed_blocking_ioctl_mitigates_29(seed_records):
    mitigated, per = mitigation_report(seed_records, {"ioctl"})
    assert len(mitigated) == 29
    assert per == {"ioctl": 29}


def test_seed_blocking_unshare_waitid_mitigates_4(seed_records):
    mitigated, _ = mitigation_report(seed_records, {"unshare", "waitid"})
    assert len(mitigated) == 4


def test_seed_per_syscall_counts_exact(seed_records):
    _, per = mitigation_report(seed_records, set(SEED_COUNTS))
    assert per == SEED_COUNTS
    assert list(per) == sorted(SEED_COUNTS)  # the report lists them in this order


def test_shared_cve_deduplicated(seed_records):
    mitigated, _ = mitigation_report(
        seed_records, {"keyctl", "add_key", "request_key"}
    )
    # CVE-2016-0728 appears under all three rows but counts once
    assert len(mitigated) == 8 + 4 + 2 - 2
    assert "CVE-2016-0728" in mitigated


def test_empty_blocked(seed_records):
    mitigated, per = mitigation_report(seed_records, set())
    assert mitigated == set() and per == {}


def test_monotone_in_blocked(seed_records):
    rng = random.Random(3)
    names = sorted(SEED_COUNTS)
    for _ in range(30):
        small = set(rng.sample(names, rng.randint(0, 10)))
        big = small | set(rng.sample(names, rng.randint(0, 10)))
        m_small, _ = mitigation_report(seed_records, small)
        m_big, _ = mitigation_report(seed_records, big)
        assert m_small <= m_big


def test_mitigated_bounded_by_unique_ids(seed_records):
    mitigated, _ = mitigation_report(seed_records, set(SEED_COUNTS))
    assert len(mitigated) <= len(seed_records)
    assert len(mitigated) == len({r.id for r in seed_records if r.syscalls})


def test_report_document_shape(seed_records):
    doc = report_document(seed_records, {"ioctl"})
    assert doc["count"] == 29
    assert doc["per_syscall"] == {"ioctl": 29}
    assert len(doc["mitigated_ids"]) == 29
    assert doc["mitigated_ids"] == sorted(doc["mitigated_ids"])


def test_synthetic_rows_marked():
    # the third column is free text that the loader does not read
    rows = [line.split("\t") for line in packaged_data("cve_seed.tsv").split("\n")
            if line and not line.startswith("#")]
    synthetic = [row[0] for row in rows if row[2:] == ["synthetic=true"]]
    real = [row[0] for row in rows if row[2:] != ["synthetic=true"]]
    assert synthetic and real
    assert all(cve_id.startswith("CVE-2099-") for cve_id in synthetic)
    assert not any(cve_id.startswith("CVE-2099-") for cve_id in real)


SEED_LINES = packaged_data("cve_seed.tsv").splitlines()
_CVE_PIECE = st.sampled_from([
    " ", "\t", "\n", "#", ",", "0", "1", "CVE-", "2020-", "ioctl", "frobnicate",
]) | st.text(max_size=2)


@st.composite
def _edited_dataset(draw):
    """Up to eight consecutive rows of the seed dataset with up to three
    short runs of characters replaced by dataset pieces."""
    i = draw(st.integers(0, len(SEED_LINES)))
    text = "\n".join(SEED_LINES[i:i + draw(st.integers(0, 8))])
    for _ in range(draw(st.integers(0, 3))):
        text = _replace_run(draw, text, _CVE_PIECE)
    return text


@settings(max_examples=300, deadline=None)
@given(text=st.text() | _edited_dataset(), strict=st.booleans())
def test_load_cve_dataset_parses_or_raises(seed_table, text, strict):
    try:
        records = load_cve_dataset(text, table_names=seed_table.names, strict=strict)
    except (ParseError, AnalysisError):
        return
    assert len({r.id for r in records}) == len(records)


def test_cve_reads_what_a_profile_lets_run(tmp_path, capsys, seed_records):
    """A profile whose default lets every syscall run, less one that a rule
    stops, mitigates only the CVEs of that one; a profile with no default
    action is a parse error, not one that blocks everything."""
    profile, report = tmp_path / "profile.json", tmp_path / "report.json"
    profile.write_text(json.dumps({"defaultAction": "SCMP_ACT_ALLOW", "syscalls": [
        {"names": ["ioctl"], "action": "SCMP_ACT_ERRNO"}]}))
    assert main(["cve", str(profile), "-o", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc == report_document(seed_records, {"ioctl"})
    assert doc["count"] == 29 and doc["per_syscall"] == {"ioctl": 29}
    profile.write_text("{}")
    assert main(["cve", str(profile), "-o", str(report)]) == 2
    assert capsys.readouterr().err == (
        f"syscage: parse error: {profile}: profile defaultAction is missing\n")


def test_a_rule_with_args_conditions_mitigates_nothing(tmp_path, capsys):
    """A rule that stops `ioctl` for one request only stops no CVE's
    syscall, while the same rule without `args` mitigates the 29 `ioctl`
    CVEs; an `args` that is not an array is a parse error naming the rule."""
    profile, report = tmp_path / "profile.json", tmp_path / "report.json"
    rule = {"names": ["ioctl"], "action": "SCMP_ACT_ERRNO"}
    args = [{"index": 1, "value": 21505, "op": "SCMP_CMP_EQ"}]
    for spec, count in (({"args": args}, 0), ({"args": []}, 29), ({}, 29), ({"args": {}}, None)):
        profile.write_text(json.dumps({"defaultAction": "SCMP_ACT_ALLOW",
                                       "syscalls": [{**rule, **spec}]}))
        code = main(["cve", str(profile), "-o", str(report)])
        if count is None:
            assert code == 2
            assert capsys.readouterr().err == (f"syscage: parse error: {profile}: "
                                               "profile syscalls[0] args is not an array\n")
        else:
            assert code == 0 and json.loads(report.read_text())["count"] == count
