"""The syscage benchmark: analyze -> profile -> verify on seeded inputs.

    python3 bench/run.py --workload libc-rare --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Generates the workload's inputs from the
seed, runs the pipeline on them in a separate worker process for about
`--seconds` seconds of whole rounds, checks every output against the
reference computed from the generator's model, and prints each metric by
name with its unit.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  `attempted` and `failed` are
per round: every round runs the same operations, and a round whose failures
differ from another round's is reported as unexpected.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer ones
and the tracing overhead.
"""

from __future__ import annotations

import argparse
import bisect
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import reference as ref

WORK = Path(".bench_work")
SRC = Path("src")
BUDGET_S = 170.0  # the whole run, generation and checking included
# a time of worker.calibrate() between those of the fast and the slow
# stretches of the host the README's figures come from; timings are reported
# in seconds at the host speed where the sample takes this long
REF_CALIBRATION_S = 0.005


class HostSpeed:
    """The worker's host samples, for scaling intervals to the reference
    host speed."""

    def __init__(self, samples: list[list[float]]):
        self.starts = [start for start, _ in samples]
        self.seconds = [seconds for _, seconds in samples]

    def factor(self, start: float, end: float) -> float:
        """REF_CALIBRATION_S over the median of the samples taken within
        one interval length of [start, end], and at least the last sample
        before it and the first after it.  A short interval is scaled by its
        neighbours; a long one, during which the host may change speed more
        than once, by the samples of a stretch three times as long."""
        span = end - start
        lo = min(bisect.bisect_left(self.starts, start - span),
                 bisect.bisect_left(self.starts, start) - 1)
        hi = max(bisect.bisect_right(self.starts, end + span),
                 bisect.bisect_right(self.starts, end) + 1)
        return REF_CALIBRATION_S / statistics.median(self.seconds[max(lo, 0):hi])


def plan_ops(wl: gen.Workload) -> list[dict]:
    """The commands of one round, with the outputs each one writes."""
    lib = wl.lib.stem
    ops = [{"kind": "analyze",
            "argv": ["analyze", f"in/{lib}.sdis", f"in/{lib}.facts.json",
                     "-o", "out/mapping.json"],
            "outputs": {"mapping": "out/mapping.json"}}]
    for i, t in enumerate(wl.targets):
        argv = ["profile", f"in/target{i}.sdis", "--mapping", "out/mapping.json",
                "-o", f"out/profile{i}.json", "--sidecar", f"out/sidecar{i}.json"]
        for j in range(len(t.traces)):
            argv += ["--trace", f"in/target{i}.{j}.trace"]
        ops.append({"kind": "profile", "index": i, "argv": argv,
                    "outputs": {"profile": f"out/profile{i}.json",
                                "sidecar": f"out/sidecar{i}.json"}})
    for i in range(len(wl.targets)):
        ops.append({"kind": "cve", "index": i,
                    "argv": ["cve", f"out/profile{i}.json", "-o", f"out/cve{i}.json"],
                    "outputs": {"cve": f"out/cve{i}.json"}})
    ops.append({"kind": "verify",
                "argv": ["verify", "--sidecar", "out/sidecar0.json",
                         "--mapping", "out/mapping.json", "--memmap", "in/memmap.txt",
                         "--events", "in/events.txt", "--lib-disasm", f"in/{lib}.sdis",
                         "--policy", wl.policy, "--target", wl.targets[0].tag,
                         "-o", "out/verdicts.log"],
                "outputs": {"verdicts": "out/verdicts.log"}})
    return ops


class Checker:
    """Compares stored outputs with the reference, once per distinct output."""

    def __init__(self, wl: gen.Workload, outputs: Path):
        self.wl = wl
        self.expected = ref.Expected(wl)
        self.outputs = outputs
        self._cache: dict[tuple, tuple] = {}
        self.fault_events = {i for i, ev in enumerate(wl.events) if ev.fault}

    def _text(self, digest: str) -> str:
        return (self.outputs / digest).read_text(encoding="utf-8", errors="replace")

    def op(self, op: dict) -> tuple[list[str], list[int]]:
        """(problems of the command, indices of events with a wrong verdict)."""
        key = (op["kind"], op["index"], tuple(sorted(op["outputs"].items())))
        if key not in self._cache:
            out = op["outputs"]
            if op["kind"] == "verify":
                wrong, problems = ref.check_verdicts(self._text(out["verdicts"]),
                                                     self.expected.verdicts)
                self._cache[key] = (problems, wrong)
            else:
                role = {"analyze": "mapping"}.get(op["kind"], op["kind"])
                extra = self._text(out["sidecar"]) if role == "profile" else None
                problems = ref.check_output(role, self._text(out[role]), self.expected,
                                            op["index"], extra)
                self._cache[key] = (problems, [])
        return self._cache[key]


def run_worker(work: Path, timeout: float) -> int:
    """Run worker.py on work/plan.json; its output goes to work/worker.err."""
    worker = Path(__file__).resolve().parent / "worker.py"
    with open(work / "worker.err", "w", encoding="utf-8") as err:
        return subprocess.run([sys.executable, str(worker), "plan.json"], cwd=work,
                              stdout=err, stderr=err, timeout=timeout).returncode


def tally(report: dict, wl: gen.Workload,
          checker: Checker) -> tuple[list[tuple[int, int]], list[str]]:
    """(attempted, failed) operations of each round, and every failure that
    is not one of the known faults the workload is built to hit."""
    per_round: list[tuple[int, int]] = []
    unexpected: list[str] = []
    for r, rnd in enumerate(report["rounds"]):
        attempted = failed = 0
        for op in rnd["ops"]:
            problems, wrong = checker.op(op)
            if op["exit"] != 0:
                problems = [f"exit {op['exit']}"] + problems
            if op["seconds"] > wl.caps[op["kind"]]:
                problems.append(f"took {op['seconds']:.1f}s, over its cap")
            if op["kind"] == "cve":  # reported for reference, not an operation
                unexpected += [f"round {r} cve{op['index']}: {p}" for p in problems]
                continue
            attempted += 1
            if problems:
                failed += 1
                unexpected += [f"round {r} {op['kind']}{op['index']}: {p}" for p in problems]
            if op["kind"] == "verify":
                attempted += len(wl.events)
                if op["exit"] != 0:
                    wrong = list(range(len(wl.events)))
                failed += len(wrong)
                stray = sorted(set(wrong) - checker.fault_events)
                if stray:
                    unexpected.append(f"round {r}: {len(stray)} events with a wrong "
                                      f"verdict outside the known faults, first {stray[:5]}")
        per_round.append((attempted, failed))
    for r, counts in enumerate(per_round):
        if counts != per_round[0]:
            unexpected.append(f"round {r}: {counts[1]} of {counts[0]} operations failed, "
                              f"round 0: {per_round[0][1]} of {per_round[0][0]}")
    return per_round, unexpected


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "syscage" / "cli.py").is_file():
        print("bench: run from the root of a syscage checkout (src/syscage missing)",
              file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    wl = gen.BUILDERS[args.workload](args.seed)
    wl.write(work / "in")
    plan = {"src": str(SRC.resolve()), "ops": plan_ops(wl), "caps": wl.caps,
            "seconds": args.seconds, "trace": args.trace,
            "min_rounds": 4 if args.trace else 3, "mapping": "out/mapping.json"}
    (work / "plan.json").write_text(json.dumps(plan, indent=1), encoding="utf-8")
    checker = Checker(wl, work / "outputs")

    try:
        code = run_worker(work, max(10.0, BUDGET_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        print(f"bench: worker passed the time budget; see {work}/worker.err",
              file=sys.stderr)
        return 1
    if code != 0:
        sys.stderr.write((work / "worker.err").read_text(encoding="utf-8"))
        print(f"bench: worker exited {code}", file=sys.stderr)
        return 1
    report = json.loads((work / "report.json").read_text(encoding="utf-8"))
    per_round, unexpected = tally(report, wl, checker)
    attempted, failed = max(per_round, key=lambda counts: counts[1])

    # round 0 warms caches; it is timed only when a cap cut the run short
    measured = report["rounds"][1:] or report["rounds"]
    plain = [r for r in measured if r["mode"] == "plain"]
    traced = [r for r in measured if r["mode"] == "traced"]

    host = HostSpeed(report["host"])

    def op_sum(rnd, kind, scaled=True):
        return sum(op["seconds"] * (host.factor(op["start"], op["end"]) if scaled else 1)
                   for op in rnd["ops"] if kind in (None, op["kind"]))

    med = statistics.median
    metrics: dict[str, tuple[float, str]] = {}
    notes = []
    if args.trace:
        layers = {k: med(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
        for name, value in sorted(layers.items()):
            unit = "s" if name.endswith("_s") else (
                "ratio" if name.endswith("_ratio") else "count")
            metrics[name] = (value, unit)
        overhead = med(op_sum(r, None) for r in traced) / med(op_sum(r, None) for r in plain) - 1
        metrics["trace.overhead_pct"] = (100 * overhead, "%")
    else:
        def setup(rnd):
            start, end = rnd["verify"]["setup"]
            return (end - start) * host.factor(start, end)

        # each replay block's time, and the times of its checked events, are
        # scaled by the factor of the block
        unprobed: dict[int, list[float]] = {}
        checked = []
        for v in (r["verify"] for r in plain):
            for i, (start, end) in enumerate(v["blocks"]):
                factor = host.factor(start, end)
                if not v["probed"][i]:
                    unprobed.setdefault(i, []).append((end - start) * factor)
                checked += [ms * factor for ms in v["checked_ms"][i]]
        checked.sort()
        metrics["setup_s"] = (med(map(setup, plain)), "s")
        metrics["analyze_s"] = (med(op_sum(r, "analyze") for r in plain), "s")
        metrics["profile_s"] = (med(op_sum(r, "profile") for r in plain), "s")
        # each block of events at its median time over the rounds that
        # replayed it without the per-event probe
        metrics["verify_eps"] = (len(wl.events) / sum(map(med, unprobed.values())), "1/s")
        metrics["checked_ms"] = (med(checked), "ms")
        metrics["mapping_mib"] = (report["rounds"][0]["mapping_bytes"] / 2**20, "MiB")
        metrics["peak_rss_mib"] = (report["peak_rss_mib"], "MiB")
        cal = med(host.seconds)
        raw = [med(op_sum(r, kind, scaled=False) for r in plain)
               for kind in ("analyze", "profile")]
        notes.append(f"checked_ms p99={checked[int(0.99 * len(checked))]:.4f} ms "
                     f"over {len(checked)} events")
        notes.append(f"host calibration median {cal * 1e3:.3f} ms against "
                     f"{REF_CALIBRATION_S * 1e3:.3f} ms; unscaled analyze_s={raw[0]:.4f} s, "
                     f"profile_s={raw[1]:.4f} s")

    print(f"workload {args.workload} seed {args.seed}: {len(report['rounds'])} rounds "
          f"({len(measured)} measured), {len(wl.events)} events per round, "
          f"{wl.fault_events()} built to hit a known fault")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    print(f"  operations per round: attempted {attempted}, failed {failed}; "
          f"over the run's {len(per_round)} rounds: attempted "
          f"{sum(a for a, _ in per_round)}, failed {sum(f for _, f in per_round)}")
    for line in unexpected[:20]:
        print(f"  UNEXPECTED {line}")
    for sub in ("in", "out", "outputs"):
        shutil.rmtree(work / sub, ignore_errors=True)
    result = {"correct": not unexpected, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
