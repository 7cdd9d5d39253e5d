"""Expected pipeline outputs, computed from the generator's model alone.

Nothing here imports syscage.  The model says, by construction, which
functions call which (direct calls and the type-compatible candidates of
each indirect site), which syscall number every site loads, and what every
stack word of an event is.  From that this module derives what `analyze`,
`profile`, `cve` and `verify` must print, and compares their real outputs
against it.  Secure paths are checked only through verdicts, so a change of
the mapping's path representation does not break the check.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TABLE_FILE = ROOT / "src" / "syscage" / "data" / "syscall_64.tbl"
CVE_FILE = ROOT / "src" / "syscage" / "data" / "cve_seed.tsv"

NOT_TARGET = "NotTarget"
NOT_SUSPICIOUS = "NotSuspicious"
CACHE_HIT = "CacheHit"
PATH_MATCHED = "PathMatched"
RSP_OUT_OF_RANGE = "RspOutOfRange"
RIP_OUT_OF_RANGE = "RipOutOfRange"
NO_PATH_MATCH = "NoPathMatch"
REASONS = (NOT_TARGET, NOT_SUSPICIOUS, CACHE_HIT, PATH_MATCHED,
           RSP_OUT_OF_RANGE, RIP_OUT_OF_RANGE, NO_PATH_MATCH)
ALLOW_REASONS = {NOT_TARGET, NOT_SUSPICIOUS, CACHE_HIT, PATH_MATCHED}


def load_table() -> dict[int, str]:
    """Syscall number -> name, read from the table the program bundles."""
    table = {}
    for line in TABLE_FILE.read_text(encoding="utf-8").splitlines():
        fields = line.split()
        if fields and not fields[0].startswith("#"):
            table[int(fields[0])] = fields[2]
    return table


def load_cves() -> dict[str, set[str]]:
    """CVE id -> syscalls it depends on (duplicate rows merged)."""
    cves: dict[str, set[str]] = {}
    for line in CVE_FILE.read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        names = {s.strip() for s in fields[1].split(",") if s.strip()}
        cves.setdefault(fields[0].strip(), set()).update(names)
    return cves


def _reach(adj: dict[str, set[str]], start: str) -> set[str]:
    seen = {start}
    queue = deque([start])
    while queue:
        for nxt in adj.get(queue.popleft(), ()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def api_summary(lib, table: dict[int, str]) -> dict[str, dict]:
    """api name -> {"entry", "syscalls": {name: tainted}, "unresolved"}."""
    full, direct = lib.adjacency()
    sites = lib.syscall_sites()
    out = {}
    for fn in lib.funcs:
        if fn.api is None:
            continue
        reach_full = _reach(full, fn.name)
        reach_direct = _reach(direct, fn.name)
        syscalls: dict[str, bool] = {}
        unresolved = 0
        for host, number in sites:
            if host not in reach_full:
                continue
            if number is None:
                unresolved += 1
                continue
            name = table[number]
            untainted = host in reach_direct
            syscalls[name] = syscalls.get(name, True) and not untainted
        out[fn.api] = {"entry": fn.name, "syscalls": syscalls,
                       "unresolved": unresolved}
    return out


def expected_profile(summary: dict[str, dict], target, table: dict[int, str]) -> dict:
    """Allowed/blocked/suspicious sets for a non-strict `profile` run."""
    names = set(table.values())
    imports = {api for api in target.imports if api in summary}
    embedded = {table[n] for n in target.embedded}
    allowed = set(embedded)
    votes: dict[str, list[bool]] = {}
    fallback = False
    for api in imports:
        rec = summary[api]
        fallback |= rec["unresolved"] > 0
        for name, tainted in rec["syscalls"].items():
            allowed.add(name)
            votes.setdefault(name, []).append(tainted)
    if fallback:
        # documented non-strict behaviour: an import with an unresolved
        # syscall site may reach anything, so the whole table is allowed
        allowed = set(names)
    indirect = {n for n, v in votes.items()
                if n in allowed and n not in embedded and all(v)}
    rare = {n for n in allowed if target.trace_counts.get(n, 0) < 1}
    return {"allowed": allowed, "blocked": names - allowed,
            "indirect": indirect, "rare": rare, "fallback": fallback}


def expected_cve(blocked: set[str], cves: dict[str, set[str]]) -> list[str]:
    return sorted(cid for cid, deps in cves.items() if deps & blocked)


def embeds(frames_outer_first: list[str], hosts: set[str],
           full: dict[str, set[str]], apis: set[str]) -> bool:
    """True when some call path from an exported API to one of `hosts` is an
    ordered subsequence of the frames (outermost first).  The generated
    graphs are acyclic, so every such walk is a simple path."""
    good: list[bool] = []
    for i, fn in enumerate(frames_outer_first):
        ok = fn in apis or any(
            good[j] and fn in full.get(frames_outer_first[j], ())
            for j in range(i)
        )
        good.append(ok)
        if ok and fn in hosts:
            return True
    return False


def expected_verdicts(workload, profile: dict) -> list[str]:
    """Reason of every event under the per-(process, syscall) cache rule."""
    lib = workload.lib
    full, _ = lib.adjacency()
    apis = {fn.name for fn in lib.funcs if fn.api is not None}
    hosts_of = lib.hosts_by_name(workload.table)
    key = "indirect" if workload.policy == "indirect" else "rare"
    suspicious = profile[key]
    target = workload.targets[0].tag
    cache: set[tuple[str, str]] = set()
    reasons = []
    for ev in workload.events:
        if ev.tag != target:
            reason = NOT_TARGET
        elif ev.syscall not in suspicious:
            reason = NOT_SUSPICIOUS
        elif (ev.tag, ev.syscall) in cache:
            reason = CACHE_HIT
        elif not ev.rsp_ok:
            reason = RSP_OUT_OF_RANGE
        elif ev.rip_fn is None:
            reason = RIP_OUT_OF_RANGE
        else:
            frames = [ev.rip_fn] if ev.rip_fn else []
            for _, frame, is_code in ev.words:
                if frame is not None:
                    frames.append(frame)
                elif is_code:
                    break
            if embeds(frames[::-1], hosts_of.get(ev.syscall, set()), full, apis):
                reason = PATH_MATCHED
                cache.add((ev.tag, ev.syscall))
            else:
                reason = NO_PATH_MATCH
        reasons.append(reason)
    return reasons


class Expected:
    """Everything a run's outputs are compared against."""

    def __init__(self, workload):
        table = workload.table
        self.summary = api_summary(workload.lib, table)
        self.profiles = [expected_profile(self.summary, t, table)
                         for t in workload.targets]
        cves = load_cves()
        self.cves = [expected_cve(p["blocked"], cves) for p in self.profiles]
        self.verdicts = expected_verdicts(workload, self.profiles[0])
        self.table_names = set(table.values())


def check_mapping(doc: dict, summary: dict[str, dict]) -> list[str]:
    """Problems in an `analyze` mapping: API set, entry functions, each
    API's (syscall, tainted) set and unresolved-site count."""
    apis = doc.get("apis", {}) if isinstance(doc, dict) else {}
    problems = []
    if set(apis) != set(summary):
        problems.append(f"API set differs: {sorted(set(apis) ^ set(summary))[:5]}")
    for api, want in summary.items():
        got = apis.get(api)
        if got is None:
            continue
        pairs = {(e["syscall"], bool(e["tainted"])) for e in got.get("syscalls", [])}
        if pairs != set(want["syscalls"].items()):
            problems.append(f"{api}: syscalls differ")
        if got.get("entry_function") != want["entry"]:
            problems.append(f"{api}: entry function differs")
        if got.get("unresolved_sites") != want["unresolved"]:
            problems.append(f"{api}: unresolved count differs")
    return problems


def check_profile(profile_doc: dict, sidecar_doc: dict, want: dict,
                  table_names: set[str]) -> list[str]:
    allowed: set[str] = set()
    for rule in profile_doc.get("syscalls", []):
        if rule.get("action") == "SCMP_ACT_ALLOW":
            allowed.update(rule.get("names", []))
    problems = []
    if allowed != want["allowed"]:
        problems.append(f"allowed differs by {sorted(allowed ^ want['allowed'])[:5]}")
    if table_names - allowed != want["blocked"]:
        problems.append("blocked set differs")
    if profile_doc.get("defaultAction") != "SCMP_ACT_ERRNO":
        problems.append("default action is not SCMP_ACT_ERRNO")
    if set(sidecar_doc.get("suspicious_indirect", [])) != want["indirect"]:
        problems.append("suspicious_indirect differs")
    if set(sidecar_doc.get("suspicious_rare", [])) != want["rare"]:
        problems.append("suspicious_rare differs")
    return problems


def check_cve(doc: dict, want: list[str]) -> list[str]:
    return [] if doc.get("mitigated_ids") == want else ["mitigated ids differ"]


def check_verdicts(log: str, want: list[str]) -> tuple[list[int], list[str]]:
    """Indices of events whose verdict differs, plus structural problems
    (missing or extra lines count every unmatched event as differing)."""
    got: dict[int, tuple[str, str]] = {}
    for line in log.splitlines():
        fields = line.split(" ", 3)
        if len(fields) >= 3 and fields[0].isdigit():
            got[int(fields[0])] = (fields[1], fields[2])
    problems = []
    if len(got) != len(want):
        problems.append(f"{len(got)} verdicts for {len(want)} events")
    wrong = []
    for i, reason in enumerate(want):
        decision = "Allow" if reason in ALLOW_REASONS else "Deny"
        if got.get(i) != (decision, reason):
            wrong.append(i)
    return wrong, problems


def check_output(role: str, text: str, expected: Expected, index: int,
                 extra: str | None = None) -> list[str]:
    """Problems in one command output, `role` naming which output it is."""
    try:
        if role == "mapping":
            return check_mapping(json.loads(text), expected.summary)
        if role == "profile":
            return check_profile(json.loads(text), json.loads(extra or "{}"),
                                 expected.profiles[index], expected.table_names)
        if role == "cve":
            return check_cve(json.loads(text), expected.cves[index])
    except (json.JSONDecodeError, AttributeError, KeyError, TypeError) as exc:
        return [f"unreadable {role}: {exc!r}"]
    raise ValueError(role)
