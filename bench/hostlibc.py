"""Host-libc reference figure: `objdump -d` -> SDIS, then `analyze` once.

    python3 bench/hostlibc.py [--lib /lib/x86_64-linux-gnu/libc.so.6]

Not a workload and never gated on: the input depends on the host.  The
figures (library sha256, objdump version, counts, stage times) justify the
shape of the generated libc-rare workload.  Confine (Ghavamnia et al.,
RAID 2020) recovers libc's call graph from objdump output the same way.
No source facts exist for a binary library, so only direct edges are used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import run

CAP_S = 900.0  # wall-clock cap of one analyze; this libc took 33 s
HEADER = re.compile(r"^([0-9a-f]+) <(.+)>:$")
LINE = re.compile(r"^\s+([0-9a-f]+):\t[0-9a-f ]+\t(.+)$")
MNEMONIC = re.compile(r"^[a-z0-9.]+$")
PREFIXES = {"lock", "rep", "repz", "repe", "repnz", "repne", "bnd", "notrack", "cs",
            "ds", "es", "ss", "fs", "gs", "data16", "addr32", "xacquire", "xrelease"}


def to_sdis(objdump_text: str) -> tuple[str, dict[str, int]]:
    """SDIS text plus counts of what was kept and dropped."""
    lines = objdump_text.splitlines()
    headers = {m.group(2) for m in map(HEADER.match, lines) if m}
    out: list[str] = []
    stats = {"functions": 0, "instructions": 0, "dropped": 0}
    in_function = False
    for line in lines:
        m = HEADER.match(line)
        if m:
            out.append("")
            out.append(f"{int(m.group(1), 16):016x} <{m.group(2)}>:")
            stats["functions"] += 1
            in_function = True
            continue
        if line.startswith("Disassembly of section"):
            in_function = False
            continue
        m = LINE.match(line)
        if not m or not in_function:
            continue
        text = m.group(2).split("#", 1)[0].strip()
        words = text.split()
        while words and words[0] in PREFIXES:
            words.pop(0)
        if not words or not MNEMONIC.match(words[0]):
            stats["dropped"] += 1
            continue
        mnemonic, rest = words[0], " ".join(words[1:])
        comment = None
        sym = re.search(r"\s*<([^>]+)>$", rest)
        if sym:
            rest = rest[:sym.start()]
            comment = sym.group(1)
            # a call into the middle of a function is not a call edge
            if mnemonic.startswith("call") and comment not in headers:
                comment = None
        if " " in rest:
            stats["dropped"] += 1
            continue
        addr = m.group(1)
        entry = f"    {addr}:\t{mnemonic}"
        if rest:
            entry += f"\t{rest}"
        if comment and rest:
            entry += f" <{comment}>"
        out.append(entry)
        stats["instructions"] += 1
    return "\n".join(out).lstrip("\n") + "\n", stats


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--lib", default="/lib/x86_64-linux-gnu/libc.so.6")
    args = parser.parse_args(argv)
    lib = Path(args.lib)
    work = run.WORK / "hostlibc"
    (work / "in").mkdir(parents=True, exist_ok=True)
    (work / "out").mkdir(parents=True, exist_ok=True)
    version = subprocess.run(["objdump", "--version"], capture_output=True,
                             text=True, check=True).stdout.splitlines()[0]
    dump = subprocess.run(["objdump", "-d", "-w", str(lib)],
                          capture_output=True, text=True, check=True).stdout
    sdis, stats = to_sdis(dump)
    (work / "in" / "libc.sdis").write_text(sdis, encoding="utf-8")
    (work / "in" / "libc.facts.json").write_text("{}\n", encoding="utf-8")
    plan = {"src": str(run.SRC.resolve()),
            "ops": [{"kind": "analyze",
                     "argv": ["analyze", "in/libc.sdis", "in/libc.facts.json",
                              "-o", "out/mapping.json"],
                     "outputs": {}}],
            "caps": {"analyze": CAP_S}, "seconds": 0, "trace": 1, "min_rounds": 2,
            "mapping": "out/mapping.json"}
    (work / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    if run.run_worker(work, timeout=2 * CAP_S + 60) != 0:
        sys.stderr.write((work / "worker.err").read_text(encoding="utf-8"))
        return 1
    report = json.loads((work / "report.json").read_text(encoding="utf-8"))
    untraced, traced = report["rounds"][0], report["rounds"][1]
    figure = {
        "library": str(lib),
        "sha256": hashlib.sha256(lib.read_bytes()).hexdigest(),
        "objdump": version,
        "converter": stats,
        "analyze_exit": untraced["ops"][0]["exit"],
        "analyze_s": untraced["ops"][0]["seconds"],
        "analyze_traced_s": traced["ops"][0]["seconds"],
        "mapping_mib": untraced["mapping_bytes"] / 2**20,
        "peak_rss_mib": report["peak_rss_mib"],
        "layers": {k: v for k, v in traced["layers"].items()
                   if not k.startswith(("verifier", "cve", "profilegen.load",
                                        "profilegen.generate", "profilegen.allowed",
                                        "profilegen.suspicious"))},
    }
    print(json.dumps(figure, indent=1))
    for sub in ("in", "out", "outputs"):
        shutil.rmtree(work / sub, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
