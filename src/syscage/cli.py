"""Command-line driver for the analysis pipeline.

Exit codes, all set in `main`: 0 success, 1 usage error (bad options, or a
path that cannot be read or written), 2 parse error, 3 analysis error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import mmap
import os
import sys
from pathlib import Path

from . import packaged_data
from .callgraph import build_direct_fcg, build_indirect_edges, merge
from .cve import load_cve_dataset, report_document
from .disasm import extract_plt_imports, header_extents, parse_disassembly
from .errors import AnalysisError, ParseError
from .profilegen import (
    ApiSyscallMapping,
    SeccompProfile,
    build_mapping,
    dump_json,
    generate_profile,
    load_trace,
    read_sidecar,
)
from .srcfacts import load_source_facts
from .sysnum import load_syscall_table, resolve_sites
from .verifier import (
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

# a smaller file is read faster than mapped: read() fills a heap buffer that
# the allocator reuses, while every page of a map is faulted in afresh
MAP_MIN_BYTES = 1 << 20


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def positive_int(text: str) -> int:
    """argparse type for a limit: an integer of at least 1, in ASCII digits."""
    if not (text.isascii() and text.isdigit()) or int(text) < 1:  # no sign, space or "_"
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    return int(text)


def event_tag(text: str) -> str:
    """argparse type for `--target`: a tag that an event line can carry."""
    if text.split() != [text]:  # empty, or holds whitespace
        raise argparse.ArgumentTypeError(f"must be non-empty with no whitespace, got {text!r}")
    return text


def _read(path: str, sha256=None) -> str:
    """The UTF-8 text of `path`, its line ends as they are in the file.  A
    large file is decoded straight from a read-only map, so that its bytes
    are never copied into a buffer of their own.  `sha256`, a hashlib
    object, is given the same bytes."""
    try:
        with open(path, "rb") as file:  # open(""), unlike Path(""), finds no file
            # st_size is 0 for a pipe or a file of /proc, which cannot be mapped
            if os.fstat(file.fileno()).st_size < MAP_MIN_BYTES:
                data = file.read()
                if sha256 is not None:
                    sha256.update(data)
                return data.decode("utf-8")
            with mmap.mmap(file.fileno(), 0, access=mmap.ACCESS_READ) as view:
                if sha256 is not None:
                    sha256.update(view)
                return str(view, "utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def _json(text: str):
    """The value of the JSON `text`; what the decoder rejects is a parse error."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad, too deep, or too long an integer
        raise ParseError(str(exc)) from exc


def _parsed(name: str, parse, text: str):
    """`parse` applied to `text`, the text of the file `name`; a parse error
    names the file."""
    try:
        return parse(text)
    except ParseError as exc:
        raise ParseError(f"{name}: {exc}") from exc


def _load(path: str | None, parse, bundled: str | None = None, sha256=None):
    """`parse` applied to the text of `path`, read as `_read` does with
    `sha256`, or of the bundled data file `bundled` when no path is given;
    a parse error names the file."""
    if path is None:
        return _parsed(bundled, parse, packaged_data(bundled))
    return _parsed(path, parse, _read(path, sha256))


def _read_table(path: str | None):
    return _load(path, load_syscall_table, "syscall_64.tbl")


def _load_mappings(paths: list[str]) -> tuple[ApiSyscallMapping, list[str]]:
    """The merge of the mappings in `paths`, read in order onto the first,
    and the sha256 of each file."""
    digests = []

    def load(path):
        sha256 = hashlib.sha256()
        mapping = _load(path, lambda text: ApiSyscallMapping.from_document(_json(text)),
                        sha256=sha256)
        digests.append(sha256.hexdigest())
        return mapping

    first = load(paths[0])
    for path in paths[1:]:
        first.merge_from(load(path))
    return first, digests


def _library_offsets(args, memmap, mapping: ApiSyscallMapping):
    """Library stem -> the function extents of its `--lib-disasm` file.  A
    library is named by its file stem, so two files may not share one, and
    each needs a `lib` line; both are checked before any file is parsed.
    When a file's sha256 is the one that the mappings list for its library,
    `analyze` validated its text, and the headers alone give the extents;
    any other file is rejected unparsed."""
    paths: dict[str, str] = {}
    for path in args.lib_disasm:
        stem = Path(path).stem
        if paths.setdefault(stem, path) != path:
            raise AnalysisError(
                f"--lib-disasm {paths[stem]} and {path} share the library name {stem!r}")
    texts = {}  # stem -> (text, sha256); read first, so an unreadable path is exit 1
    for stem, path in paths.items():
        sha256 = hashlib.sha256()
        texts[stem] = (_read(path, sha256), sha256.hexdigest())
    unmatched = sorted(paths.keys() - {name for name, _ in memmap.libraries})
    if unmatched:
        raise AnalysisError(f"no `lib` line in the memory map for: {', '.join(unmatched)}")
    offsets = {}
    for stem, path in paths.items():
        (text, digest), listed = texts[stem], mapping.libraries.get(stem)
        if digest != listed:
            where = f"--mapping {', '.join(args.mapping)}"
            if listed is None:
                raise ParseError(f"{path}: no sha256 of library {stem!r} in {where}; "
                                 "re-run `syscage analyze` on this file")
            raise ParseError(f"{path}: sha256 {digest}, not {listed} as in {where}: "
                             "not the SDIS that `syscage analyze` read")
        offsets[stem] = _parsed(path, header_extents, text)
    return offsets


def _probe(paths: list[str]) -> None:
    """Open each of `paths` for appending, which creates a missing file but
    empties none; when one cannot be opened, remove the files that this
    created before raising, so that a command writes all its outputs or
    none."""
    created = []
    try:
        for path in paths:
            new = not os.path.lexists(path)
            open(path, "a", encoding="utf-8").close()
            if new:
                created.append(path)
    except OSError:
        for path in created:
            os.remove(path)
        raise


def _write(path: str | None, text: str) -> None:
    """Write `text` to the file `path`, or to stdout when there is none."""
    if path is not None:
        with open(path, "w", encoding="utf-8") as file:
            file.write(text)
    else:
        sys.stdout.write(text)


def cmd_analyze(args) -> int:
    sha256 = hashlib.sha256()
    unit = _load(args.lib_disasm, parse_disassembly, sha256=sha256)
    facts = _load(args.facts, load_source_facts)
    table = _read_table(args.table)
    graph = merge(build_direct_fcg(unit), build_indirect_edges(facts))
    resolved = resolve_sites(unit, table)
    apis: dict[str, str] = {}
    for fn in unit.functions:
        if fn.api_name is not None:
            first = apis.setdefault(fn.api_name, fn.canonical_name)
            if first != fn.canonical_name:
                raise AnalysisError(f"API {fn.api_name!r} defined by more than one "
                                    f"function: {first}, {fn.canonical_name}")
    mapping = build_mapping(graph, resolved, apis)
    mapping.libraries[Path(args.lib_disasm).stem] = sha256.hexdigest()
    _write(args.output, dump_json(mapping.to_document()))
    return EXIT_OK


def cmd_profile(args) -> int:
    unit = _load(args.target_disasm, parse_disassembly)
    table = _read_table(args.table)
    mapping, digests = _load_mappings(args.mapping)
    imports = extract_plt_imports(unit)
    embedded = [r.name for r in resolve_sites(unit, table)]
    trace = load_trace([_read(p) for p in args.trace]) if args.trace else None
    profile = generate_profile(
        mapping,
        imports,
        embedded,
        table,
        trace=trace,
        strict=args.strict,
        min_count=args.min_count,
    )
    if profile.unmapped:
        print(f"warning: ignoring unmapped APIs: {', '.join(profile.unmapped)}",
              file=sys.stderr)
    if profile.fallback:
        print(f"warning: allowing every syscall: {profile.fallback}", file=sys.stderr)
    docker, sidecar = (dump_json(profile.to_docker_document()),
                       dump_json(profile.sidecar_document(digests)))
    _probe([args.output, args.sidecar])
    _write(args.output, docker)
    _write(args.sidecar, sidecar)
    return EXIT_OK


def cmd_verify(args) -> int:
    suspicious, made_from = _load(args.sidecar, lambda text: read_sidecar(
        _json(text), f"suspicious_{args.policy}"))
    mapping, digests = _load_mappings(args.mapping)
    if digests != made_from:
        raise ParseError(f"{args.sidecar}: mapping_sha256 {made_from}, not {digests} as of "
                         f"--mapping {', '.join(args.mapping)}; re-run `syscage profile`")
    memmap = _load(args.memmap, parse_memory_map)
    table = _read_table(args.table)

    fat = locate_functions(memmap, _library_offsets(args, memmap, mapping))

    entries, hosts = mapping.walk_ends()
    ctx = VerifierContext(
        target_tag=args.target,
        suspicious=suspicious,
        known_syscalls=table.names,
        call_graph=mapping.call_graph,
        entries=entries,
        hosts=hosts,
        table=fat,
        memmap=memmap,
    )
    verdicts, summary = _load(args.events, lambda text: run_event_trace(text, ctx))
    log = format_verdict_log(verdicts)
    _write(args.output, log)
    for reason in sorted(summary):
        print(f"# {reason}: {summary[reason]}", file=sys.stderr)
    return EXIT_OK


def cmd_cve(args) -> int:
    table = _read_table(args.table)
    records = _load(args.dataset, lambda text: load_cve_dataset(
        text, table_names=table.names, strict=args.strict), "cve_seed.tsv")
    allowed = _load(args.profile, lambda text: SeccompProfile.allowed_in_docker_document(
        _json(text), table.names))
    blocked = table.names - allowed
    _write(args.output, dump_json(report_document(records, blocked)))
    return EXIT_OK


def _analyze_options(p: _Parser) -> None:
    p.add_argument("lib_disasm", help="library disassembly (SDIS)")
    p.add_argument("facts", help="source facts (JSON)")
    p.add_argument("--table", help="syscall table file (default: bundled)")
    p.add_argument("-o", "--output", required=True, help="mapping output (JSON)")
    p.set_defaults(func=cmd_analyze)


def _profile_options(p: _Parser) -> None:
    p.add_argument("target_disasm", help="target binary disassembly (SDIS)")
    p.add_argument("--mapping", action="append", required=True,
                   help="mapping file; repeatable")
    p.add_argument("--table", help="syscall table file (default: bundled)")
    p.add_argument("--trace", action="append", default=[],
                   help="strace output to derive the frequent set; repeatable")
    p.add_argument("-o", "--output", required=True, help="profile output (JSON)")
    p.add_argument("--sidecar", required=True, help="suspicious-sets output (JSON)")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--min-count", type=positive_int, default=1)
    p.set_defaults(func=cmd_profile)


def _verify_options(p: _Parser) -> None:
    p.add_argument("--sidecar", required=True)
    p.add_argument("--mapping", action="append", required=True)
    p.add_argument("--memmap", required=True)
    p.add_argument("--events", required=True)
    p.add_argument("--lib-disasm", action="append", required=True,
                   help="library SDIS providing function offsets; repeatable")
    p.add_argument("--table", help="syscall table file (default: bundled)")
    p.add_argument("--policy", choices=["indirect", "rare"], default="indirect")
    p.add_argument("--target", type=event_tag, default="target",
                   help="target process tag: a non-empty run of non-whitespace characters")
    p.add_argument("-o", "--output", help="verdict log output")
    p.set_defaults(func=cmd_verify)


def _cve_options(p: _Parser) -> None:
    p.add_argument("profile", help="Seccomp profile (JSON)")
    p.add_argument("--dataset", help="CVE dataset (default: bundled seed)")
    p.add_argument("--table", help="syscall table file (default: bundled)")
    p.add_argument("--strict", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_cve)


# each subcommand's name -> (its help line, the function that adds its options)
COMMANDS = {
    "analyze": ("build an API->syscall mapping for a library", _analyze_options),
    "profile": ("generate a Seccomp profile for a target", _profile_options),
    "verify": ("replay a syscall event trace", _verify_options),
    "cve": ("report CVEs mitigated by a profile", _cve_options),
}


def build_parser(command: str | None = None) -> _Parser:
    """The parser of every subcommand, or of `command` alone: a command
    parses with the same results either way, and builds no other command's
    parser.  The usage line names every subcommand either way."""
    parser = _Parser(prog="syscage")
    # a parser of one command names every command in its usage line, as the
    # full parser does by default; a metavar there would change its errors
    metavar = "{" + ",".join(COMMANDS) + "}" if command is not None else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in COMMANDS if command is None else [command]:
        help_line, options = COMMANDS[name]
        options(sub.add_parser(name, help=help_line))
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:  # an input or output path that cannot be used
        reason = f"{exc.filename}: {exc.strerror}" if exc.filename else exc
        print(f"syscage: error: {reason}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"syscage: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except AnalysisError as exc:
        print(f"syscage: analysis error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS


if __name__ == "__main__":
    sys.exit(main())
