"""API->syscall mapping and Seccomp profile generation.

The mapping records, per exported API, the reachable syscalls with their
taint flags and secure invocation paths.  A syscall is tainted for an API
when no all-direct path reaches a function that invokes it: those are the
syscalls the runtime verifier has to guard.  The profile partitions the full
syscall table into allowed and blocked sets and carries the two suspicious
sets the runtime verifier can guard (indirect-call-related and
rarely-invoked).
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field

from .callgraph import (
    DEFAULT_MAX_PATH_LEN,
    DEFAULT_MAX_PATHS,
    CallGraph,
    bfs_reachable,
    enumerate_secure_paths,
    predecessors,
)
from .errors import UnknownApi, UnknownSyscallName, UnresolvedSites
from .sysnum import ResolvedSyscallSite, SyscallTable

TRACE_TOKEN_RE = re.compile(r"^[a-z0-9_]+")


@dataclass
class SyscallEntry:
    name: str
    tainted: bool
    paths: list[tuple[str, ...]]


@dataclass
class ApiRecord:
    api: str
    entry_function: str
    syscalls: list[SyscallEntry] = field(default_factory=list)
    unresolved_sites: int = 0
    path_budget_exceeded: bool = False


@dataclass
class ApiSyscallMapping:
    records: dict[str, ApiRecord] = field(default_factory=dict)

    def to_document(self) -> dict:
        return {
            "apis": {
                api: {
                    "entry_function": rec.entry_function,
                    "unresolved_sites": rec.unresolved_sites,
                    "path_budget_exceeded": rec.path_budget_exceeded,
                    "syscalls": [
                        {
                            "syscall": e.name,
                            "tainted": e.tainted,
                            "paths": [list(p) for p in e.paths],
                        }
                        for e in sorted(rec.syscalls, key=lambda e: e.name)
                    ],
                }
                for api, rec in sorted(self.records.items())
            }
        }

    @classmethod
    def from_document(cls, doc: dict) -> "ApiSyscallMapping":
        mapping = cls()
        for api, rec in doc.get("apis", {}).items():
            mapping.records[api] = ApiRecord(
                api=api,
                entry_function=rec.get("entry_function", api),
                syscalls=[
                    SyscallEntry(
                        name=e["syscall"],
                        tainted=bool(e["tainted"]),
                        paths=[tuple(p) for p in e.get("paths", [])],
                    )
                    for e in rec.get("syscalls", [])
                ],
                unresolved_sites=int(rec.get("unresolved_sites", 0)),
                path_budget_exceeded=bool(rec.get("path_budget_exceeded", False)),
            )
        return mapping

    def merge_from(self, other: "ApiSyscallMapping") -> None:
        for api, rec in other.records.items():
            if api in self.records:
                raise UnknownApi(f"API {api!r} defined by more than one mapping")
            self.records[api] = rec


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
    max_len: int = DEFAULT_MAX_PATH_LEN,
    max_paths: int = DEFAULT_MAX_PATHS,
) -> ApiSyscallMapping:
    """One record per exported API; `apis` maps api_name -> graph node."""
    adj = graph.successors()
    direct_adj = graph.successors(direct_only=True)
    pred = predecessors(adj)
    sites = sites_by_host(resolved_sites)
    mapping = ApiSyscallMapping()
    for api_name, node in sorted(apis.items()):
        found, unresolved = reachable_syscalls(adj, direct_adj, sites, node)
        record = ApiRecord(api=api_name, entry_function=node,
                           unresolved_sites=unresolved)
        for name, (tainted, hosts) in sorted(found.items()):
            paths: set[tuple[str, ...]] = set()
            for host in hosts:
                enum = enumerate_secure_paths(adj, pred, node, host, max_len, max_paths)
                paths.update(enum.paths)
                if enum.truncated:
                    record.path_budget_exceeded = True
            record.syscalls.append(
                SyscallEntry(name=name, tainted=tainted, paths=sorted(paths))
            )
        mapping.records[api_name] = record
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
