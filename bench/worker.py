"""Runs the syscage pipeline on pre-generated inputs, round after round.

    python3 bench/worker.py PLAN.json

Started by run.py in the work directory.  This process imports syscage, the
tracer and the verdict names, never the generator.  Every round runs the
same commands in-process through `syscage.cli.main`.

Untraced rounds wrap only `run_event_trace`, to split `verify` into set-up
and replay.  The wrapper hands the event text to the program in
REPLAY_BLOCKS blocks of consecutive lines and times each block, so that one
round gives many replay samples.  Every block shares the verifier's
context, which holds its cache, so the verdicts are those of one call.
Every other block also runs with `verify_event` wrapped, to time the events
that reach secure-path matching; which blocks alternates from one untraced
round to the next.  That probe slows a short event, so replay rates come
from the blocks without it.  Traced rounds wrap the public names of every
module.  Each output is
stored once under its sha256 for run.py to check.

The host's speed is sampled between every two commands and every two replay
blocks: `calibrate` times a fixed piece of Python work that belongs to the
benchmark, not the program.  Every sample and every timed interval is kept
with its start time, and run.py scales each interval by the samples taken
around it (see README.md).  The cyclic garbage of one command is
collected before the next starts, outside its timing, as it would be by the
exit of a separate process.

The peak RSS is VmHWM, the high-water mark of this process's own address
space, read at the end of round 0, when the process has run the pipeline
once as a fresh process would.  getrusage's ru_maxrss would carry the
parent's peak over through fork and exec, and over later rounds the heap of
one reused process drifts upward by about 10 %, by a random amount.
"""

from __future__ import annotations

import gc
import hashlib
import json
import signal
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

from reference import NO_PATH_MATCH, PATH_MATCHED, REASONS
from tracing import Patches, Tracer

CHECKED = {PATH_MATCHED, NO_PATH_MATCH}
REPLAY_BLOCKS = 20

# the host sample's work: the kinds of work the program spends its time on
# (JSON, sorting, sets and dicts of names, string splitting), in code that the
# program does not share.  A first sample that only parsed lines took 1.9
# times as long in the host's slow stretches while `analyze` took 1.6 times
# as long, so it overcorrected.
SAMPLE_NAMES = [f"fn_{i * 2654435761 % (1 << 40):x}_{i}" for i in range(3000)]
SAMPLE_DOC = {"apis": {name: {"syscalls": [
    {"syscall": SAMPLE_NAMES[(7 * i + k) % 3000],
     "paths": [[name, SAMPLE_NAMES[(i + k) % 3000]]]} for k in range(3)]}
    for i, name in enumerate(SAMPLE_NAMES[:300])}}


def calibrate() -> float:
    """Seconds taken by a fixed amount of the benchmark's own Python work,
    about 4 ms on the host described in README.md.  The garbage collector is
    off meanwhile: a collection would cost in proportion to whatever the
    worker holds at that moment, not to the host's speed."""
    gc.disable()
    try:
        start = perf_counter()
        json.loads(json.dumps(SAMPLE_DOC))
        ranked = sorted(SAMPLE_NAMES, key=lambda name: name[::-1])
        set(SAMPLE_NAMES[:2000]).intersection(SAMPLE_NAMES[1000:])
        {name: i for i, name in enumerate(ranked)}
        [name.split("_") for name in SAMPLE_NAMES]
        return perf_counter() - start
    finally:
        gc.enable()


class CapExceeded(BaseException):
    """Raised by the alarm when a command runs past its wall-clock cap."""


def _alarm(signum, frame):
    raise CapExceeded()


def peak_rss_mib() -> float:
    """High-water RSS of this process's address space since its exec."""
    for line in Path("/proc/self/status").read_text(encoding="ascii").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _store(path: Path, outputs: Path) -> str:
    data = path.read_bytes() if path.is_file() else b""
    digest = hashlib.sha256(data).hexdigest()
    dest = outputs / digest
    if not dest.exists():
        dest.write_bytes(data)
    return digest


class Pipeline:
    def __init__(self, plan: dict):
        sys.path.insert(0, plan["src"])
        import syscage.callgraph as callgraph
        import syscage.cli as cli
        import syscage.profilegen as profilegen
        import syscage.verifier as verifier

        self.cli, self.callgraph = cli, callgraph
        self.profilegen, self.verifier = profilegen, verifier
        self.plan = plan
        self.outputs = Path("outputs")
        self.outputs.mkdir(exist_ok=True)
        self.tracer = Tracer()
        self.t0 = perf_counter()
        self.host: list[tuple[float, float]] = []  # (start, seconds) of each sample

    def sample_host(self) -> float:
        """Take one host sample; returns the time it took."""
        start = perf_counter()
        self.host.append((start, calibrate()))
        return perf_counter() - start

    # --- untraced probes ------------------------------------------------
    def _probes(self, patches: Patches, probe: dict, parity: int) -> None:
        vf = self.verifier
        plain_event = vf.verify_event
        checked = probe["checked_ms"]  # one list per replay block

        def timed_event(event, ctx):
            start = perf_counter()
            verdict = plain_event(event, ctx)
            if verdict.reason in CHECKED:
                checked[-1].append((perf_counter() - start) * 1e3)
            return verdict

        def sample_host() -> None:
            probe["cal_inside_s"] += self.sample_host()

        def around_replay(fn):
            def replay(text, ctx, *args, **kwargs):
                probe["replay_start"] = perf_counter()
                lines = text.splitlines(keepends=True)
                size = max(1, -(-len(lines) // REPLAY_BLOCKS))
                blocks = ["".join(lines[i:i + size]) for i in range(0, len(lines), size)]
                verdicts, summary = [], Counter()
                try:
                    for b, block in enumerate(blocks):
                        sample_host()
                        probed = (b + parity) % 2 == 1
                        vf.verify_event = timed_event if probed else plain_event
                        probe["probed"].append(probed)
                        checked.append([])
                        start = perf_counter()
                        got, counts = fn(block, ctx, *args, **kwargs)
                        probe["blocks"].append((start, perf_counter()))
                        verdicts += got
                        summary += counts
                finally:
                    vf.verify_event = plain_event
                sample_host()
                return verdicts, summary
            return replay

        patches.replace(self.cli, "run_event_trace", around_replay)

    # --- traced wrappers --------------------------------------------------
    def _trace(self, patches: Patches) -> None:
        tr = self.tracer
        cli, pg, vf = self.cli, self.profilegen, self.verifier

        def unit_counts(args, unit, seconds, own):
            tr.add("disasm.lines", args[0].count("\n"))
            tr.add("disasm.functions", len(unit.functions))
            tr.add("disasm.callsites", len(unit.callsites))
            tr.add("disasm.syscall_sites", len(unit.syscall_sites))

        def site_counts(args, resolved, seconds, own):
            unresolved = sum(1 for r in resolved if r.name is None)
            tr.add("sysnum.sites_resolved", len(resolved) - unresolved)
            tr.add("sysnum.sites_unresolved", unresolved)

        def graph_counts(args, graph, seconds, own):
            tr.add("callgraph.nodes", len(graph.nodes))
            tr.add("callgraph.edges", len(graph.edges))

        def enum_counts(args, enum, seconds, own):
            tr.add("callgraph.paths_emitted", len(enum.paths))
            tr.add("callgraph.truncated", int(enum.truncated))

        def profile_counts(args, profile, seconds, own):
            tr.add("profilegen.allowed", len(profile.allowed))
            tr.add("profilegen.suspicious",
                   len(profile.suspicious_indirect) + len(profile.suspicious_rare))

        def verdict_counts(args, verdict, seconds, own):
            tr.add(f"verifier.events.{verdict.reason}", 1)
            if verdict.reason in CHECKED:
                # verify_event's own time, less path reconstruction
                tr.add("verifier.subseq_s", own)

        def wrap(name, keep=True, observe=None):
            return lambda fn: tr.wrap(fn, name, keep, observe)

        for attr, name, observe in [
            ("parse_disassembly", "disasm.parse", unit_counts),
            ("extract_plt_imports", "disasm.imports", None),
            ("load_source_facts", "srcfacts.load", None),
            ("build_indirect_edges", "srcfacts.resolve",
             lambda a, edges, s, o: tr.add("srcfacts.indirect_edges", len(edges))),
            ("build_direct_fcg", "callgraph.build_direct", None),
            ("merge", "callgraph.merge", graph_counts),
            ("load_syscall_table", "sysnum.table", None),
            ("resolve_sites", "sysnum.resolve", site_counts),
            ("build_mapping", "profilegen.build_mapping", None),
            ("dump_json", "profilegen.dump_json", None),
            ("load_trace", "profilegen.load_trace", None),
            ("generate_profile", "profilegen.generate_profile", profile_counts),
            ("parse_memory_map", "verifier.memmap", None),
            ("locate_functions", "verifier.locate", None),
            ("run_event_trace", "verifier.run_event_trace", None),
            ("format_verdict_log", "verifier.format_log", None),
            ("load_cve_dataset", "cve.load", None),
            ("report_document", "cve.report",
             lambda a, doc, s, o: tr.add("cve.mitigated", doc["count"])),
        ]:
            patches.replace(cli, attr, wrap(name, observe=observe))
        mapping_cls = pg.ApiSyscallMapping
        patches.replace(mapping_cls, "to_document", wrap("profilegen.to_document"))
        patches.replace(mapping_cls, "from_document", wrap("profilegen.from_document"))
        patches.replace(mapping_cls, "merge_from", wrap("profilegen.merge_from"))
        patches.replace(pg.SeccompProfile, "to_docker_document", wrap("profilegen.documents"))
        patches.replace(pg.SeccompProfile, "sidecar_document", wrap("profilegen.documents"))
        patches.replace(self.callgraph.CallGraph, "successors",
                        wrap("callgraph.successors", keep=False))
        patches.replace(pg, "bfs_reachable", wrap("callgraph.bfs", keep=False))
        patches.replace(pg, "enumerate_secure_paths",
                        wrap("callgraph.enumerate", keep=False, observe=enum_counts))
        patches.replace(vf, "parse_event_line", wrap("verifier.parse_event", keep=False))
        patches.replace(vf, "verify_event",
                        wrap("verifier.verify_event", keep=False, observe=verdict_counts))
        patches.replace(vf, "reconstruct_path", wrap("verifier.reconstruct", keep=False))
        patches.replace(vf, "is_subsequence", lambda fn: tr.counted(fn, "verifier.subseq"))

    def layers(self) -> dict[str, float]:
        tr = self.tracer
        s, c = tr.seconds, tr.counts.get
        glue = sum(own for name, (_, _, own) in tr.totals.items() if name.startswith("cli."))
        suspicious_target = sum(c(f"verifier.events.{r}", 0) for r in REASONS[2:])
        out = {
            "disasm.parse_s": s("disasm.parse"),
            "srcfacts.load_s": s("srcfacts.load"),
            "srcfacts.resolve_s": s("srcfacts.resolve"),
            "callgraph.build_s": s("callgraph.build_direct") + s("callgraph.merge"),
            "callgraph.successors_calls": tr.calls("callgraph.successors"),
            "callgraph.successors_s": s("callgraph.successors"),
            "callgraph.bfs_s": s("callgraph.bfs"),
            "callgraph.enumerate_calls": tr.calls("callgraph.enumerate"),
            "callgraph.enumerate_s": s("callgraph.enumerate"),
            "sysnum.resolve_s": s("sysnum.resolve"),
            "profilegen.build_mapping_s": s("profilegen.build_mapping"),
            "profilegen.build_mapping_self_s": tr.self_seconds("profilegen.build_mapping"),
            "profilegen.dump_s": s("profilegen.to_document") + s("profilegen.dump_json"),
            "profilegen.load_mapping_s": s("profilegen.from_document"),
            "profilegen.load_trace_s": s("profilegen.load_trace"),
            "profilegen.generate_profile_s": s("profilegen.generate_profile"),
            "verifier.memmap_s": s("verifier.memmap"),
            "verifier.locate_s": s("verifier.locate"),
            "verifier.parse_event_s": s("verifier.parse_event"),
            "verifier.verify_event_s": s("verifier.verify_event"),
            "verifier.reconstruct_s": s("verifier.reconstruct"),
            "verifier.subseq_calls": tr.calls("verifier.subseq"),
            "verifier.subseq_s": c("verifier.subseq_s", 0.0),
            "verifier.cache_hit_ratio": (c("verifier.events.CacheHit", 0) / suspicious_target
                                         if suspicious_target else 0.0),
            "cve.report_s": s("cve.load") + s("cve.report"),
            "cli.glue_s": glue,
        }
        for name in ("disasm.lines", "disasm.functions", "disasm.callsites",
                     "disasm.syscall_sites", "srcfacts.indirect_edges", "callgraph.nodes",
                     "callgraph.edges", "callgraph.paths_emitted", "callgraph.truncated",
                     "sysnum.sites_resolved", "sysnum.sites_unresolved",
                     "profilegen.allowed", "profilegen.suspicious", "cve.mitigated"):
            out[name] = c(name, 0)
        for reason in REASONS:
            out[f"verifier.events.{reason}"] = c(f"verifier.events.{reason}", 0)
        return out

    # --- rounds -----------------------------------------------------------
    def run_op(self, op: dict, traced: bool, probe: dict) -> dict:
        main = self.cli.main
        if traced:
            main = self.tracer.wrap(main, f"cli.{op['kind']}")
        cap = self.plan["caps"][op["kind"]]
        probe["cal_inside_s"] = 0.0
        signal.setitimer(signal.ITIMER_REAL, cap)
        start = perf_counter()
        try:
            code = main(op["argv"])
        except CapExceeded:
            code = "cap"
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash of the program is a failed operation
            traceback.print_exc()
            code = "exception"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        end = perf_counter()
        if op["kind"] == "verify" and not traced and "replay_start" in probe:
            probe["setup"] = (start, probe["replay_start"])
        outputs = {role: _store(Path(p), self.outputs) for role, p in op["outputs"].items()}
        # host samples taken between replay blocks are not the program's time
        return {"kind": op["kind"], "index": op.get("index", 0), "exit": code,
                "start": start, "end": end, "seconds": end - start - probe["cal_inside_s"],
                "outputs": outputs}

    def run_round(self, mode: str, parity: int = 0) -> dict:
        """One round; `mode` is "plain" or "traced", and `parity` picks the
        replay blocks that a plain round times event by event."""
        traced = mode == "traced"
        patches = Patches()
        probe: dict = {"checked_ms": [], "blocks": [], "probed": []}
        if traced:
            self.tracer.reset()
            self._trace(patches)
        else:
            self._probes(patches, probe, parity)
        ops = []
        try:
            for op in self.plan["ops"]:
                gc.collect()
                self.sample_host()
                ops.append(self.run_op(op, traced, probe))
        finally:
            patches.undo()
        rnd = {"mode": mode, "ops": ops,
               "mapping_bytes": Path(self.plan["mapping"]).stat().st_size
               if Path(self.plan["mapping"]).is_file() else 0}
        if traced:
            rnd["layers"] = self.layers()
        else:
            rnd["verify"] = {k: probe[k] for k in ("setup", "blocks", "probed", "checked_ms")
                             if k in probe}
        return rnd

    def run(self) -> dict:
        plan = self.plan
        deadline = perf_counter() + plan["seconds"]
        rounds = []
        # round 0 warms caches and is not timed; with tracing on, plain
        # rounds alternate with traced rounds, so that both kinds see the
        # same machine state
        plain = 0
        while True:
            if plan["trace"] and len(rounds) % 2 == 1:
                rnd = self.run_round("traced")
            else:
                rnd = self.run_round("plain", plain % 2)
                plain += 1
            rounds.append(rnd)
            if len(rounds) == 1:
                peak = peak_rss_mib()
            capped = any(op["exit"] == "cap" for op in rnd["ops"])
            if capped or (len(rounds) >= plan["min_rounds"] and perf_counter() >= deadline):
                break
        self.sample_host()
        if plan["trace"]:
            self.tracer.dump("spans.jsonl", self.t0)
        return {"rounds": rounds, "peak_rss_mib": peak, "host": self.host}


def main(argv: list[str]) -> int:
    plan = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    signal.signal(signal.SIGALRM, _alarm)
    report = Pipeline(plan).run()
    Path("report.json").write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
