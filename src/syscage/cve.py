"""CVE<->syscall dataset ingestion and mitigation reporting.

A profile mitigates a CVE when at least one syscall the CVE depends on is
blocked.  The shipped seed dataset pads rows whose CVE ids are not public
in our source with placeholder ids marked synthetic=true, so per-syscall
counts stay faithful without inventing provenance.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass

from .errors import AnalysisError, ParseError, content_lines

CVE_ID_RE = re.compile(r"^CVE-[0-9]{4}-[0-9]{4,}$")  # \d would take any Unicode digit


@dataclass
class CveRecord:
    id: str
    syscalls: set[str]


def load_cve_dataset(
    text: str, table_names: set[str] | None = None, strict: bool = False
) -> list[CveRecord]:
    """Lines: `<CVE-id>\\t<syscall[,syscall...]>[\\t<note>]`, the note free
    text that is not read; duplicate ids are merged with their syscall sets
    unioned."""
    by_id: dict[str, CveRecord] = {}
    for lineno, stripped in content_lines(text):
        fields = stripped.split("\t")
        cve_id = fields[0].strip()
        if not CVE_ID_RE.match(cve_id):
            raise ParseError(f"line {lineno}: bad CVE id {cve_id!r}")
        if len(fields) < 2 or not fields[1].strip():
            raise ParseError(f"line {lineno}: missing syscall list")
        syscalls = {s.strip() for s in fields[1].split(",") if s.strip()}
        if strict and table_names is not None:
            unknown = sorted(syscalls - table_names)
            if unknown:
                raise AnalysisError(f"line {lineno}: unknown syscall(s): {', '.join(unknown)}")
        by_id.setdefault(cve_id, CveRecord(cve_id, set())).syscalls.update(syscalls)
    return list(by_id.values())


def mitigation_report(
    records: list[CveRecord], blocked: set[str]
) -> tuple[set[str], dict[str, int]]:
    """Mitigated CVE ids (any dependent syscall blocked) and, per blocked
    syscall, the number of CVEs depending on it."""
    mitigated = {r.id for r in records if r.syscalls & blocked}
    counts = Counter(s for r in records for s in r.syscalls & blocked)
    return mitigated, dict(sorted(counts.items()))


def report_document(records: list[CveRecord], blocked: set[str]) -> dict:
    mitigated, per_syscall = mitigation_report(records, blocked)
    return {
        "mitigated_ids": sorted(mitigated),
        "count": len(mitigated),
        "per_syscall": per_syscall,
    }
