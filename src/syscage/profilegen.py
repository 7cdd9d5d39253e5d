"""API->syscall mapping and Seccomp profile generation.

The mapping holds the library's call graph and the functions that invoke
each syscall (its hosts) once, and per exported API the reachable syscalls
with their taint flags.  A syscall is tainted for an API when no all-direct
path reaches a host: those are the syscalls the runtime verifier has to
guard, by finding a call-graph walk from an API to a host in the
intercepted stack.  The profile lists the allowed syscalls, every other
table entry being blocked, and carries the two suspicious sets the runtime
verifier can guard (indirect-call-related and rarely-invoked).
"""

from __future__ import annotations

import json
import re
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field

from .callgraph import CallGraph, bfs_reachable
from .errors import MISSING, AnalysisError, ParseError, expect_json, expect_names
from .sysnum import ResolvedSyscallSite, SyscallTable

TRACE_TOKEN_RE = re.compile(r"^[a-z0-9_]+", re.M)  # under re.M, ^ follows \n alone
MAPPING_FORMAT = 4
SYSCALL_ENTRY = "mapping API {!r} syscalls[{}]"
# the Seccomp actions under which a syscall runs; a tuple, since `in` then
# compares a rule's action of any JSON type and hashes none
RUN_ACTIONS = ("SCMP_ACT_ALLOW", "SCMP_ACT_LOG")

# only bench/worker.py's traced run patches this name; ROADMAP item 1 deletes it
enumerate_secure_paths = None


@dataclass
class ApiRecord:
    entry_function: str
    syscalls: dict[str, bool] = field(default_factory=dict)  # name -> tainted
    unresolved_sites: int = 0


@dataclass
class ApiSyscallMapping:
    records: dict[str, ApiRecord] = field(default_factory=dict)
    # caller -> sorted callees; functions that call nothing are left out
    call_graph: dict[str, list[str]] = field(default_factory=dict)
    # syscall -> sorted functions that invoke it
    hosts: dict[str, list[str]] = field(default_factory=dict)
    # library (its SDIS file's stem) -> the sha256 of that SDIS file
    libraries: dict[str, str] = field(default_factory=dict)

    def to_document(self) -> dict:
        return {
            "format": MAPPING_FORMAT,
            "libraries": self.libraries,
            "call_graph": self.call_graph,
            "hosts": self.hosts,
            "apis": {
                api: {
                    "entry_function": rec.entry_function,
                    "unresolved_sites": rec.unresolved_sites,
                    "syscalls": [
                        {"syscall": name, "tainted": tainted}
                        for name, tainted in sorted(rec.syscalls.items())
                    ],
                }
                for api, rec in sorted(self.records.items())
            },
        }

    @classmethod
    def from_document(cls, doc) -> "ApiSyscallMapping":
        if not isinstance(doc, dict) or doc.get("format") != MAPPING_FORMAT:
            raise ParseError(
                f"mapping is not format {MAPPING_FORMAT}; "
                "re-run `syscage analyze` to regenerate it"
            )
        libraries = expect_json(doc.get("libraries", MISSING), dict, "mapping libraries")
        for stem, digest in libraries.items():
            expect_json(digest, str, "mapping libraries[{!r}]", stem)
        mapping = cls(call_graph=_name_lists(doc, "call_graph"),
                      hosts=_name_lists(doc, "hosts"), libraries=libraries)
        for api, rec in expect_json(doc.get("apis", MISSING), dict, "mapping apis").items():
            expect_json(rec, dict, "mapping API {!r}", api)
            syscalls: dict[str, bool] = {}
            entries = expect_json(rec.get("syscalls", MISSING), list,
                                  "mapping API {!r} syscalls", api)
            for i, e in enumerate(entries):
                if not (isinstance(e, dict) and isinstance(e.get("syscall"), str)
                        and isinstance(e.get("tainted"), bool)):  # say which is wrong
                    expect_json(e, dict, SYSCALL_ENTRY, api, i)
                    expect_json(e.get("syscall"), str, SYSCALL_ENTRY + " syscall", api, i)
                    expect_json(e.get("tainted"), bool, SYSCALL_ENTRY + " tainted", api, i)
                if e["syscall"] in syscalls:
                    raise ParseError(f"{SYSCALL_ENTRY.format(api, i)}: "
                                     f"duplicate syscall {e['syscall']!r}")
                syscalls[e["syscall"]] = e["tainted"]
            unresolved = expect_json(rec.get("unresolved_sites", MISSING), int,
                                     "mapping API {!r} unresolved_sites", api)
            if unresolved < 0:  # would keep the allow-all fallback from firing
                raise ParseError(f"mapping API {api!r} unresolved_sites is negative")
            mapping.records[api] = ApiRecord(
                entry_function=expect_json(rec.get("entry_function", MISSING), str,
                                           "mapping API {!r} entry_function", api),
                syscalls=syscalls, unresolved_sites=unresolved)
        return mapping

    def merge_from(self, other: "ApiSyscallMapping") -> None:
        for stem, digest in other.libraries.items():
            if self.libraries.setdefault(stem, digest) != digest:
                raise AnalysisError(f"library {stem!r} has two sha256 digests: "
                                    f"{self.libraries[stem]}, {digest}")
        for api, rec in other.records.items():
            if api in self.records:
                raise AnalysisError(f"API {api!r} defined by more than one mapping")
            self.records[api] = rec
        for mine, theirs in ((self.call_graph, other.call_graph), (self.hosts, other.hosts)):
            for key, names in theirs.items():
                have = mine.get(key)
                mine[key] = sorted(set(have).union(names)) if have else names

    def walk_ends(self) -> tuple[dict[str, set[str]], dict[str, set[str]]]:
        """Per syscall: the entry functions of the APIs whose records list
        it, and the functions that invoke it."""
        entries: dict[str, set[str]] = {}
        for rec in self.records.values():
            for name in rec.syscalls:
                entries.setdefault(name, set()).add(rec.entry_function)
        return entries, {name: set(fns) for name, fns in self.hosts.items()}


def _name_lists(doc: dict, key: str) -> dict[str, list[str]]:
    """`doc[key]` when it is an object of string arrays."""
    table = expect_json(doc.get(key, MISSING), dict, "mapping {}", key)
    for name, names in table.items():
        expect_names(names, "mapping {}[{!r}]", key, name)
    return table


@dataclass
class SeccompProfile:
    allowed: list[str]
    suspicious_indirect: set[str]
    suspicious_rare: set[str]
    unmapped: list[str] = field(default_factory=list)  # imports left out
    fallback: str = ""  # why the whole table is allowed, when it is

    def to_docker_document(self) -> dict:
        return {
            "defaultAction": "SCMP_ACT_ERRNO",
            "architectures": ["SCMP_ARCH_X86_64"],
            "syscalls": [{"names": self.allowed, "action": "SCMP_ACT_ALLOW"}],
        }

    @staticmethod
    def allowed_in_docker_document(doc, names: set[str]) -> set[str]:
        """The syscall names that a Docker profile lets run: those that a
        rule with an action in RUN_ACTIONS names and, when the default
        action is one of them, every name of `names` that no other rule
        stops.  A rule with `args` conditions stops only the calls that
        meet them, so it stops no name."""
        doc = expect_json(doc, dict, "profile")
        default = expect_json(doc.get("defaultAction", MISSING), str, "profile defaultAction")
        rules = expect_json(doc.get("syscalls", []), list, "profile syscalls")
        run: set[str] = set()
        stop: set[str] = set()
        for i, rule in enumerate(rules):
            rule = expect_json(rule, dict, "profile syscalls[{}]", i)
            listed = expect_names(rule.get("names", []), "profile syscalls[{}] names", i)
            conditions = expect_json(rule.get("args", []), list, "profile syscalls[{}] args", i)
            if rule.get("action") in RUN_ACTIONS:
                run.update(listed)
            elif not conditions:
                stop.update(listed)
        return run | (names - stop) if default in RUN_ACTIONS else run

    def sidecar_document(self, mapping_sha256: list[str]) -> dict:
        """The sidecar of a profile made from mappings whose files have the
        sha256 digests `mapping_sha256`, in `--mapping` order."""
        return {
            "mapping_sha256": mapping_sha256,
            "suspicious_indirect": sorted(self.suspicious_indirect),
            "suspicious_rare": sorted(self.suspicious_rare),
        }


def read_sidecar(sidecar, key: str) -> tuple[set[str], list[str]]:
    """The syscall names that a sidecar document lists under `key`, and the
    sha256 of each mapping file that it was made from, in order."""
    doc = expect_json(sidecar, dict, "sidecar")
    return (set(expect_names(doc.get(key, MISSING), "sidecar {}", key)),
            expect_names(doc.get("mapping_sha256", MISSING), "sidecar mapping_sha256"))


def build_mapping(
    graph: CallGraph,
    resolved_sites: list[ResolvedSyscallSite],
    apis: dict[str, str],
) -> ApiSyscallMapping:
    """One record per exported API; `apis` maps api_name -> graph node.
    A record holds the syscalls invoked in the functions that the node
    reaches, tainted unless an all-direct path reaches a host (direct
    evidence from any host wins), and the number of those functions'
    sites whose number was not recovered."""
    adj = graph.successors()
    direct_adj = graph.successors(direct_only=True)
    sites: dict[str, list[str | None]] = {}  # host -> its sites' names, None if not recovered
    hosts: dict[str, set[str]] = {}
    for rsite in resolved_sites:
        sites.setdefault(rsite.site.function, []).append(rsite.name)
        if rsite.name is not None:
            hosts.setdefault(rsite.name, set()).add(rsite.site.function)
    mapping = ApiSyscallMapping(
        call_graph={node: succ for node, succ in adj.items() if succ},
        hosts={name: sorted(fns) for name, fns in hosts.items()},
    )
    for api_name, node in sorted(apis.items()):
        if node not in adj:
            raise AnalysisError(f"API {node} is not a call-graph node")
        full = bfs_reachable(adj, node)
        direct = bfs_reachable(direct_adj, node)
        record = mapping.records[api_name] = ApiRecord(entry_function=node)
        for host in sites.keys() & full:  # walks the smaller of the two
            for name in sites[host]:
                if name is None:
                    record.unresolved_sites += 1
                else:
                    record.syscalls[name] = record.syscalls.get(name, True) and host not in direct
    return mapping


def load_trace(texts: list[str]) -> Counter:
    """Per-syscall counts over strace-style outputs; the leading [a-z0-9_]+
    token of a line is the syscall name, other lines are skipped."""
    counts: Counter = Counter()
    for text in texts:
        counts.update(TRACE_TOKEN_RE.findall(text))
    return counts


def generate_profile(
    mapping: ApiSyscallMapping,
    imported_apis: set[str],
    embedded_syscall_names: Iterable[str | None],
    table: SyscallTable,
    trace: Counter | None = None,
    strict: bool = True,
    min_count: int = 1,
) -> SeccompProfile:
    """The profile of a target that imports `imported_apis` and issues
    `embedded_syscall_names` itself, None for a site whose number was not
    recovered.  An import that no mapping defines is left out, and an
    unresolved site of the target or of an import allows the whole table;
    the profile says so.  Strict, either is an AnalysisError."""
    unknown = sorted(imported_apis - set(mapping.records))
    if unknown and strict:
        raise AnalysisError(f"unknown API(s): {', '.join(unknown)}")
    imported_apis = imported_apis - set(unknown)
    embedded = set(embedded_syscall_names)
    unresolved = ["the target itself"] if None in embedded else []
    embedded.discard(None)

    tainted: dict[str, bool] = {}  # False once any import reaches a host directly
    unresolved_apis = []
    for api in sorted(imported_apis):
        record = mapping.records[api]
        if record.unresolved_sites > 0:
            unresolved_apis.append(api)
        for name, flag in record.syscalls.items():
            tainted[name] = tainted.get(name, True) and flag
    allowed = embedded.union(tainted)

    if unresolved_apis:
        unresolved.append(f"API(s): {', '.join(unresolved_apis)}")
    fallback = f"unresolved syscall sites in {' and '.join(unresolved)}" if unresolved else ""
    if fallback:
        if strict:
            raise AnalysisError(fallback)
        # Conservative fallback: unresolved syscall sites may issue
        # anything, so allow the whole table rather than break the target.
        allowed = set(table.names)

    suspicious_indirect = {
        name for name, flag in tainted.items()
        if flag and name in allowed and name not in embedded
    }
    suspicious_rare = ({name for name in allowed if trace[name] < min_count}
                       if trace is not None else set())

    return SeccompProfile(
        allowed=sorted(allowed),
        suspicious_indirect=suspicious_indirect,
        suspicious_rare=suspicious_rare,
        unmapped=unknown,
        fallback=fallback,
    )


def dump_json(doc: dict) -> str:
    """One line of compact JSON with sorted keys; no indent keeps the C encoder."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
