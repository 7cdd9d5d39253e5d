"""Command-line driver for the analysis pipeline.

Exit codes: 0 success, 1 usage error, 2 parse error, 3 analysis error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import packaged_data
from .callgraph import build_direct_fcg, build_indirect_edges, merge
from .cve import load_cve_dataset, report_document
from .disasm import extract_plt_imports, parse_disassembly
from .errors import AnalysisError, ParseError, UnknownApi
from .profilegen import (
    ApiSyscallMapping,
    build_mapping,
    dump_json,
    generate_profile,
    load_trace,
    suspicious_names,
)
from .srcfacts import load_source_facts
from .sysnum import load_syscall_table, resolve_sites
from .verifier import (
    DEFAULT_SCAN_LIMIT,
    POLICY_INDIRECT,
    POLICY_RARE,
    VerifierContext,
    format_verdict_log,
    locate_functions,
    parse_memory_map,
    run_event_trace,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_ANALYSIS = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class UsageError(Exception):
    pass


def positive_int(text: str) -> int:
    """argparse type for a limit: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _read(path: str) -> str:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"input file not found: {path}")
    return p.read_text(encoding="utf-8")


def _read_table(path: str | None):
    text = _read(path) if path else packaged_data("syscall_64.tbl")
    return load_syscall_table(text)


def _parse_unit(path: str):
    return parse_disassembly(_read(path), unit_name=Path(path).stem)


def _load_mappings(paths: list[str]) -> ApiSyscallMapping:
    mapping = ApiSyscallMapping()
    for path in paths:
        mapping.merge_from(ApiSyscallMapping.from_document(json.loads(_read(path))))
    return mapping


def _write(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def cmd_analyze(args) -> int:
    unit = _parse_unit(args.lib_disasm)
    facts = load_source_facts(_read(args.facts))
    table = _read_table(args.table)
    graph = merge(build_direct_fcg(unit), build_indirect_edges(facts))
    resolved = resolve_sites(unit.functions, unit.syscall_sites, table)
    apis = {
        fn.api_name: fn.canonical_name for fn in unit.functions if fn.is_api_export
    }
    mapping = build_mapping(graph, resolved, apis)
    _write(args.output, dump_json(mapping.to_document()))
    return EXIT_OK


def cmd_profile(args) -> int:
    unit = _parse_unit(args.target_disasm)
    table = _read_table(args.table)
    mapping = _load_mappings(args.mapping)
    imports = extract_plt_imports(unit)
    unknown = imports - set(mapping.records)
    if unknown:
        if args.strict:
            raise UnknownApi(", ".join(sorted(unknown)))
        print(
            f"warning: ignoring unmapped APIs: {', '.join(sorted(unknown))}",
            file=sys.stderr,
        )
        imports -= unknown
    embedded = {
        r.name for r in resolve_sites(unit.functions, unit.syscall_sites, table)
        if r.name is not None
    }
    trace = None
    if args.trace:
        trace = load_trace([_read(p) for p in args.trace])
    profile = generate_profile(
        mapping,
        imports,
        embedded,
        table,
        trace=trace,
        strict=args.strict,
        min_count=args.min_count,
    )
    _write(args.output, dump_json(profile.to_docker_document()))
    mapping_ref = Path(args.mapping[0]).name
    _write(args.sidecar, dump_json(profile.sidecar_document(mapping_ref=mapping_ref)))
    return EXIT_OK


def cmd_verify(args) -> int:
    sidecar = json.loads(_read(args.sidecar))
    mapping = _load_mappings(args.mapping)
    memmap = parse_memory_map(_read(args.memmap))
    table = _read_table(args.table)

    offsets: dict[str, list[tuple[str, int, int]]] = {}
    for path in args.lib_disasm:
        unit = _parse_unit(path)
        offsets[unit.unit_name] = [
            (fn.canonical_name, fn.start, fn.end) for fn in unit.functions
        ]
    fat = locate_functions(memmap, offsets)

    suspicious_key = (
        "suspicious_indirect" if args.policy == POLICY_INDIRECT else "suspicious_rare"
    )
    entries, hosts = mapping.walk_ends()
    ctx = VerifierContext(
        target_tag=args.target,
        suspicious=suspicious_names(sidecar, suspicious_key),
        known_syscalls=table.names,
        call_graph=mapping.call_graph,
        entries=entries,
        hosts=hosts,
        table=fat,
        memmap=memmap,
    )
    verdicts, summary = run_event_trace(_read(args.events), ctx, args.scan_limit)
    log = format_verdict_log(verdicts)
    if args.output:
        _write(args.output, log)
    else:
        sys.stdout.write(log)
    for reason in sorted(summary):
        print(f"# {reason}: {summary[reason]}", file=sys.stderr)
    return EXIT_OK


def cmd_cve(args) -> int:
    table = _read_table(args.table)
    text = _read(args.dataset) if args.dataset else packaged_data("cve_seed.tsv")
    records = load_cve_dataset(text, table_names=table.names, strict=args.strict)
    profile = json.loads(_read(args.profile))
    allowed: set[str] = set()
    for rule in profile.get("syscalls", []):
        if rule.get("action") == "SCMP_ACT_ALLOW":
            allowed.update(rule.get("names", []))
    blocked = table.names - allowed
    doc = report_document(records, blocked)
    if args.output:
        _write(args.output, dump_json(doc))
    else:
        sys.stdout.write(dump_json(doc))
    return EXIT_OK


def cmd_trace_merge(args) -> int:
    summary = load_trace([_read(p) for p in args.traces])
    doc = {"runs": summary.runs, "counts": dict(sorted(summary.counts.items()))}
    if args.output:
        _write(args.output, dump_json(doc))
    else:
        sys.stdout.write(dump_json(doc))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="syscage")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="build an API->syscall mapping for a library")
    p.add_argument("lib_disasm", help="library disassembly (SDIS)")
    p.add_argument("facts", help="source facts (JSON)")
    p.add_argument("--table", help="syscall table file (default: bundled)")
    p.add_argument("-o", "--output", required=True, help="mapping output (JSON)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("profile", help="generate a Seccomp profile for a target")
    p.add_argument("target_disasm", help="target binary disassembly (SDIS)")
    p.add_argument("--mapping", action="append", required=True,
                   help="mapping file; repeatable")
    p.add_argument("--table", help="syscall table file (default: bundled)")
    p.add_argument("--trace", action="append", default=[],
                   help="strace output to derive the frequent set; repeatable")
    p.add_argument("-o", "--output", required=True, help="profile output (JSON)")
    p.add_argument("--sidecar", required=True, help="suspicious-sets output (JSON)")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--min-count", type=int, default=1)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("verify", help="replay a syscall event trace")
    p.add_argument("--sidecar", required=True)
    p.add_argument("--mapping", action="append", required=True)
    p.add_argument("--memmap", required=True)
    p.add_argument("--events", required=True)
    p.add_argument("--lib-disasm", action="append", required=True,
                   help="library SDIS providing function offsets; repeatable")
    p.add_argument("--table", help="syscall table file (default: bundled)")
    p.add_argument("--policy", choices=["indirect", "rare"], default="indirect")
    p.add_argument("--target", default="target", help="target process tag")
    p.add_argument("--scan-limit", type=positive_int, default=DEFAULT_SCAN_LIMIT)
    p.add_argument("-o", "--output", help="verdict log output")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("cve", help="report CVEs mitigated by a profile")
    p.add_argument("profile", help="Seccomp profile (JSON)")
    p.add_argument("--dataset", help="CVE dataset (default: bundled seed)")
    p.add_argument("--table", help="syscall table file (default: bundled)")
    p.add_argument("--strict", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_cve)

    p = sub.add_parser("trace-merge", help="merge strace outputs into counts")
    p.add_argument("traces", nargs="+")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_trace_merge)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "policy"):
        args.policy = POLICY_INDIRECT if args.policy == "indirect" else POLICY_RARE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"syscage: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, json.JSONDecodeError) as exc:
        print(f"syscage: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except AnalysisError as exc:
        print(f"syscage: analysis error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS


if __name__ == "__main__":
    sys.exit(main())
