"""Seeded input generator for the syscage benchmark.

    python3 bench/gen.py libc-rare --seed 1 --out DIR
    python3 bench/gen.py indirect-attack --seed 1 --out DIR
    python3 bench/gen.py cyclic --functions 60 --edges 145 --seed 1 --out DIR

A workload is a model (library functions with their call edges, indirect
sites and syscall sites; target binaries; strace traces; an event trace)
rendered as the files the pipeline reads: SDIS disassembly, a source-facts
JSON, target SDIS, traces, a memory map and an event file.  The same seed
gives byte-identical files.  The model is what `reference.py` computes the
expected outputs from.

Each workload keeps one fixed part that does not depend on the seed: a
handful of functions and events that hit a known fault of the program, so
the number of failed events per round is the same in every run.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import reference as ref

MAX_PATHS = 4096  # the program's default --max-paths

CODE_BASE = 0x555555554000
CODE_SIZE = 0x100000
STACK_LO = 0x7FFD3A000000
STACK_HI = 0x7FFD3A200000
HEAP_LO = 0x555556000000

VERSIONS = ["GLIBC_2.2.5"] * 7 + ["GLIBC_2.3.4", "GLIBC_2.14", "GLIBC_2.17", "GLIBC_2.34"]
WORDS = ["buf", "file", "lock", "str", "mem", "io", "sock", "proc", "sig", "time",
         "path", "dir", "env", "fmt", "num", "list", "hash", "ctx", "stream", "map",
         "res", "net", "user", "group", "tty", "pipe", "poll", "cache", "locale", "wide"]
VERBS = ["open", "read", "write", "init", "free", "alloc", "get", "set", "find", "scan",
         "parse", "flush", "seek", "copy", "fill", "lookup", "check", "reset", "push", "pop"]
TYPES = ["int", "long", "size_t", "char *", "const char *", "void *", "const void *",
         "struct stat *", "struct sockaddr *", "socklen_t *", "FILE *", "unsigned int",
         "off_t", "struct iovec *", "struct timespec *", "pid_t", "mode_t", "struct pollfd *"]

# filler that writes neither the accumulator nor the relay registers used by
# the syscall-number set-up sequences below, so the resolver's slice is exact
SAFE_FILL = [
    ("mov", "%rdi,%rsi", 3), ("mov", "%r8,%r9", 3), ("lea", "0x10(%rsp),%rsi", 5),
    ("mov", "$0x1,%esi", 5), ("mov", "%rsi,%rdi", 3), ("lea", "0x8(%rbx),%r8", 4),
]
FILL = SAFE_FILL + [
    ("push", "%rbp", 1), ("push", "%rbx", 1), ("sub", "$0x28,%rsp", 4),
    ("mov", "%rsp,%rbp", 3), ("test", "%eax,%eax", 2), ("cmp", "$0x1,%rdx", 4),
    ("mov", "0x18(%rsp),%rcx", 5), ("movzbl", "(%rdi),%edx", 3), ("nop", "", 1),
    ("add", "$0x28,%rsp", 4), ("pop", "%rbx", 1), ("and", "$0xf,%ecx", 3),
]


@dataclass
class Insn:
    mnemonic: str
    operands: str
    size: int
    callee: str | None = None    # direct call target
    site: str | None = None      # indirect site id
    number: int | None = None    # syscall number loaded for a syscall insn
    is_syscall: bool = False
    jump: bool = False
    addr: int = 0


class Func:
    def __init__(self, name: str, rank: int):
        self.name = name
        self.rank = rank
        self.insns: list[Insn] = []
        self.start = 0
        self.end = 0  # one past the last byte of the last instruction

    @property
    def api(self) -> str | None:
        return self.name.split("@@", 1)[0] if "@@" in self.name else None

    def ordinal(self) -> int:
        return sum(1 for i in self.insns if i.callee or i.site)


class Library:
    """A library model; functions are laid out in list order."""

    def __init__(self, stem: str, base: int, size: int):
        self.stem = stem
        self.base = base
        self.size = size
        self.funcs: list[Func] = []
        self.by_name: dict[str, Func] = {}
        self.classes: dict[str, tuple[tuple[str, ...], list[str]]] = {}
        self.sites: list[tuple[str, str, str]] = []  # (site id, caller, class)
        self.aliases: dict[str, str] = {}             # alias -> canonical
        self.noise_signatures: dict[str, tuple[str, ...]] = {}
        self.untyped_taken: list[str] = []
        self.forged_targets: list[str] = []          # syscalls only forged stacks use
        self._adj = None

    def add(self, name: str, rank: int) -> Func:
        if name in self.by_name:
            raise ValueError(f"duplicate function {name}")
        fn = Func(name, rank)
        self.funcs.append(fn)
        self.by_name[name] = fn
        return fn

    # --- instruction builders -------------------------------------------
    def fill(self, fn: Func, rng: random.Random, n: int, safe: bool = False) -> None:
        pool = SAFE_FILL if safe else FILL
        for _ in range(n):
            if not safe and rng.random() < 0.08:
                fn.insns.append(Insn(rng.choice(["je", "jne", "jle"]), "", 2, jump=True))
                continue
            mnem, ops, size = rng.choice(pool)
            fn.insns.append(Insn(mnem, ops, size))

    def call(self, fn: Func, callee: str) -> None:
        fn.insns.append(Insn("callq", "", 5, callee=callee))

    def icall(self, fn: Func, cls: str, rng: random.Random) -> None:
        site_id = f"{fn.name}#{fn.ordinal()}"
        ops, size = rng.choice([("*%rax", 2), ("*0x18(%rax)", 3), ("*%rdx", 2),
                                ("*0x40(%rbx)", 3)])
        fn.insns.append(Insn("callq", ops, size, site=site_id))
        self.sites.append((site_id, fn.name, cls))

    def syscall(self, fn: Func, number: int | None, rng: random.Random,
                style: str | None = None) -> None:
        """A syscall site whose number the resolver recovers exactly when
        `number` is not None."""
        if number is None:
            style = style or rng.choice(["arg", "mem", "xor"])
            if style == "arg":    # the syscall() wrapper: number is an argument
                fn.insns.append(Insn("mov", "%rdi,%rax", 3))
                fn.insns.append(Insn("mov", "%rsi,%rdi", 3))
            elif style == "mem":
                fn.insns.append(Insn("mov", "0x8(%rsp),%eax", 4))
            else:                 # xor zeroing is outside the modelled subset
                fn.insns.append(Insn("xor", "%eax,%eax", 2))
        else:
            style = style or rng.choice(["mov"] * 6 + ["relay", "add"])
            if style == "relay":
                fn.insns.append(Insn("mov", f"${number:#x},%edx", 5))
                self.fill(fn, rng, rng.randint(0, 2), safe=True)
                fn.insns.append(Insn("mov", "%edx,%eax", 2))
            elif style == "add" and number > 4:
                low = rng.randint(1, min(number - 1, 16))
                fn.insns.append(Insn("mov", f"${number - low:#x},%eax", 5))
                fn.insns.append(Insn("add", f"${low:#x},%eax", 3))
            else:
                fn.insns.append(Insn("mov", f"${number:#x},%eax", 5))
        self.fill(fn, rng, rng.randint(0, 2), safe=True)
        fn.insns.append(Insn("syscall", "", 2, number=number, is_syscall=True))

    def ret(self, fn: Func) -> None:
        fn.insns.append(Insn("retq", "", 1))

    # --- layout and rendering -------------------------------------------
    def layout(self) -> None:
        addr = 0x1000
        for fn in self.funcs:
            addr = (addr + 15) & ~15
            fn.start = addr
            for ins in fn.insns:
                ins.addr = addr
                addr += ins.size
            fn.end = addr
            # at least one byte of padding: a return address that follows
            # a trailing call then lies in no function
            addr += 1 + (fn.start % 7)
        if addr > self.size // 2:
            raise ValueError(f"{self.stem}: text {addr:#x} exceeds half of {self.size:#x}")
        self.text_end = addr

    def sdis(self) -> str:
        out = []
        for fn in self.funcs:
            out.append(f"{fn.start:016x} <{fn.name}>:")
            last = fn.insns[-1].addr
            for ins in fn.insns:
                if ins.callee is not None:
                    tgt = self.by_name[ins.callee].start
                    out.append(f"    {ins.addr:x}:\tcallq\t{tgt:x} <{ins.callee}>")
                elif ins.jump:
                    out.append(f"    {ins.addr:x}:\t{ins.mnemonic}\t{last:x} "
                               f"<{fn.name}+{last - fn.start:#x}>")
                elif ins.operands:
                    out.append(f"    {ins.addr:x}:\t{ins.mnemonic}\t{ins.operands}")
                else:
                    out.append(f"    {ins.addr:x}:\t{ins.mnemonic}")
            out.append("")
        return "\n".join(out)

    def facts(self) -> str:
        taken: list[str] = []
        signatures = []
        canon_to_alias = {c: a for a, c in self.aliases.items()}
        for cls, (params, members) in sorted(self.classes.items()):
            for m in members:
                taken.append(canon_to_alias.get(m, m))
                signatures.append({"function": m, "param_types": list(params)})
        taken += self.untyped_taken
        for fn, params in sorted(self.noise_signatures.items()):
            signatures.append({"function": fn, "param_types": list(params)})
        doc = {
            "address_taken": taken,
            "aliases": [{"alias": a, "canonical": c} for a, c in sorted(self.aliases.items())],
            "signatures": signatures,
            "indirect_sites": [
                {"site_id": sid, "caller": caller,
                 "param_types": list(self.classes[cls][0])}
                for sid, caller, cls in self.sites
            ],
        }
        return json.dumps(doc, indent=1) + "\n"

    # --- model queries ----------------------------------------------------
    def adjacency(self) -> tuple[dict[str, set[str]], dict[str, set[str]]]:
        """(full, direct-only) successor sets, by construction."""
        if self._adj is None:
            direct = {fn.name: set() for fn in self.funcs}
            for fn in self.funcs:
                for ins in fn.insns:
                    if ins.callee is not None:
                        direct[fn.name].add(ins.callee)
            full = {n: set(s) for n, s in direct.items()}
            for _, caller, cls in self.sites:
                full[caller].update(self.classes[cls][1])
            self._adj = (full, direct)
        return self._adj

    def syscall_sites(self) -> list[tuple[str, int | None]]:
        return [(fn.name, ins.number) for fn in self.funcs
                for ins in fn.insns if ins.is_syscall]

    def hosts_by_name(self, table: dict[int, str]) -> dict[str, set[str]]:
        hosts: dict[str, set[str]] = {}
        for host, number in self.syscall_sites():
            if number is not None:
                hosts.setdefault(table[number], set()).add(host)
        return hosts

    def return_addrs(self, caller: str, callee: str) -> list[int]:
        """Absolute return addresses of every call from caller to callee."""
        key = (caller, callee)
        if key not in self._returns:
            self._returns[key] = [
                self.base + ins.addr + ins.size
                for ins in self.by_name[caller].insns
                if ins.callee == callee or (
                    ins.site and callee in self.classes[self._site_cls[ins.site]][1])
            ]
        return self._returns[key]

    def freeze(self) -> None:
        self._site_cls = {sid: cls for sid, _, cls in self.sites}
        self._returns: dict[tuple[str, str], list[int]] = {}
        self._adj = None
        self.layout()

    def syscall_addr(self, host: str, number: int) -> int:
        for ins in self.by_name[host].insns:
            if ins.is_syscall and ins.number == number:
                return self.base + ins.addr
        raise KeyError((host, number))


@dataclass
class Target:
    tag: str
    imports: list[str]                 # API names called through the PLT
    embedded: list[int]                # syscall numbers of embedded sites
    sdis: str = ""
    traces: list[str] = field(default_factory=list)
    trace_counts: Counter = field(default_factory=Counter)
    call_returns: list[int] = field(default_factory=list)  # in the code segment


@dataclass
class Event:
    tag: str
    syscall: str
    rip: int
    rsp: int
    words: list[tuple[int, str | None, bool]]  # (value, model frame, in code)
    rip_fn: str | None          # None: RIP lies in no function and not in code
    rsp_ok: bool = True
    fault: str | None = None  # named program fault this event is built to hit

    def line(self) -> str:
        stack = ",".join(f"{w:x}" for w, _, _ in self.words)
        return f"{self.tag} {self.syscall} rip={self.rip:x} rsp={self.rsp:x} stack={stack}"


@dataclass
class Workload:
    table: dict[int, str]
    lib: Library
    targets: list[Target]
    events: list[Event]
    policy: str               # "rare" or "indirect"
    caps: dict[str, float]    # per-command wall-clock cap, seconds

    def memmap(self) -> str:
        return (f"# process layout of {self.targets[0].tag}\n"
                f"lib {self.lib.stem} {self.lib.base:x} {self.lib.size:x}\n"
                f"stack {STACK_LO:x} {STACK_HI:x}\n"
                f"code {CODE_BASE:x} {CODE_BASE + CODE_SIZE:x}\n")

    def files(self) -> dict[str, str]:
        """Relative path -> content of every input the program receives."""
        files = {
            f"{self.lib.stem}.sdis": self.lib.sdis(),
            f"{self.lib.stem}.facts.json": self.lib.facts(),
            "memmap.txt": self.memmap(),
            "events.txt": "".join(ev.line() + "\n" for ev in self.events),
        }
        for i, t in enumerate(self.targets):
            files[f"target{i}.sdis"] = t.sdis
            for j, text in enumerate(t.traces):
                files[f"target{i}.{j}.trace"] = text
        return files

    def write(self, out: Path) -> None:
        out.mkdir(parents=True, exist_ok=True)
        for rel, text in self.files().items():
            (out / rel).write_text(text, encoding="utf-8")

    def fault_events(self) -> int:
        return sum(1 for ev in self.events if ev.fault)

    def describe(self) -> dict:
        full, _ = self.lib.adjacency()
        sites = self.lib.syscall_sites()
        return {
            "functions": len(self.lib.funcs),
            "apis": sum(1 for f in self.lib.funcs if f.api),
            "callsites": sum(1 for f in self.lib.funcs for i in f.insns
                             if i.callee or i.site),
            "indirect_sites": len(self.lib.sites),
            "candidates": sum(len(self.lib.classes[c][1]) for _, _, c in self.lib.sites),
            "syscall_sites": len(sites),
            "unresolved_sites": sum(1 for _, n in sites if n is None),
            "edges": sum(len(s) for s in full.values()),
            "targets": len(self.targets),
            "events": len(self.events),
            "fault_events": self.fault_events(),
            "sdis_lines": self.lib.sdis().count("\n"),
        }


# --------------------------------------------------------------------------
# shared helpers


def _word(rng: random.Random, lib: Library) -> tuple[int, str | None, bool]:
    """A stack word that is not a return address: a stack, heap or library
    data pointer, or a small integer."""
    r = rng.random()
    if r < 0.35:
        return (rng.randrange(STACK_LO, STACK_HI) & ~7, None, False)
    if r < 0.6:
        return (HEAP_LO + rng.randrange(0, 1 << 24) * 16, None, False)
    if r < 0.8:
        lo = lib.base + ((lib.text_end + 0xFFF) & ~0xFFF)
        return (rng.randrange(lo, lib.base + lib.size) & ~7, None, False)
    return (rng.randrange(0, 0x10000), None, False)


def _ancestors(full: dict[str, set[str]], hosts: set[str]) -> set[str]:
    rev: dict[str, set[str]] = {}
    for a, succ in full.items():
        for b in succ:
            rev.setdefault(b, set()).add(a)
    seen = set(hosts)
    stack = list(hosts)
    while stack:
        for p in rev.get(stack.pop(), ()):
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return seen


class Chains:
    """Random real call chains api -> ... -> host in the model graph."""

    def __init__(self, lib: Library):
        self.full, _ = lib.adjacency()
        self._anc: dict[str, set[str]] = {}
        self._count: dict[tuple[str, str], int] = {}

    def ancestors(self, host: str) -> set[str]:
        if host not in self._anc:
            self._anc[host] = _ancestors(self.full, {host})
        return self._anc[host]

    def count(self, node: str, host: str) -> int:
        """Number of paths node -> host (the graph is acyclic)."""
        key = (node, host)
        if key not in self._count:
            if node == host:
                self._count[key] = 1
            else:
                anc = self.ancestors(host)
                self._count[key] = sum(self.count(n, host)
                                       for n in self.full[node] if n in anc)
        return self._count[key]

    def walk(self, rng: random.Random, api: str, host: str) -> list[str]:
        anc = self.ancestors(host)
        chain = [api]
        while chain[-1] != host:
            chain.append(rng.choice(sorted(n for n in self.full[chain[-1]] if n in anc)))
        return chain


def _stack(rng: random.Random, lib: Library, chain: list[str], code_ret: int,
           length: int, junk: tuple[int, int] = (0, 2), ptr_rate: float = 0.1) -> list:
    """Stack words, innermost first, for a call chain ending in its host."""
    words = []
    for caller, callee in reversed(list(zip(chain, chain[1:]))):
        for _ in range(rng.randint(*junk)):
            words.append(_word(rng, lib))
        if rng.random() < ptr_rate:
            fn = rng.choice(lib.funcs)
            words.append((lib.base + fn.start, fn.name, False))
        words.append((rng.choice(lib.return_addrs(caller, callee)), caller, False))
    words.append((code_ret, None, True))
    return _pad(rng, lib, words, length)


def _pad(rng: random.Random, lib: Library, words: list, length: int) -> list:
    """Exactly `length` words: junk is dropped from the scanned part or
    added after the code-segment word, so every event costs the parser the
    same and the seed does not change the amount of work."""
    while len(words) > length:
        junk = [i for i, w in enumerate(words) if w[1] is None and not w[2]]
        if not junk:
            raise ValueError("call chain longer than the stack length")
        del words[rng.choice(junk)]
    while len(words) < length:  # the caller's frame, never scanned
        words.append(_word(rng, lib))
    return words


def _rsp(rng: random.Random) -> int:
    return rng.randrange(STACK_LO + 0x100000, STACK_HI - 0x1000) & ~15


def _target_sdis(rng: random.Random, target: Target, n_funcs: int) -> None:
    """Render a target binary: PLT stubs, then functions calling them."""
    lines = []
    addr = 0x1020
    plt = {}
    for name in sorted(target.imports):
        plt[name] = addr
        lines.append(f"{addr:016x} <{name}@plt>:")
        lines.append(f"    {addr:x}:\tjmpq\t*0x{rng.randrange(0x2000, 0x9000):x}(%rip)")
        lines.append(f"    {addr + 6:x}:\tpushq\t$0x{len(plt):x}")
        lines.append("")
        addr += 16
    addr = 0x2000
    calls = list(target.imports) * 3
    rng.shuffle(calls)
    embedded = list(target.embedded)
    for k in range(n_funcs):
        name = "main" if k == 0 else f"{rng.choice(VERBS)}_{rng.choice(WORDS)}_{k}"
        lines.append(f"{addr:016x} <{name}>:")
        for _ in range(rng.randint(12, 40)):
            r = rng.random()
            if r < 0.12 and calls:
                api = calls.pop()
                lines.append(f"    {addr:x}:\tcallq\t{plt[api]:x} <{api}@plt>")
                addr += 5
                target.call_returns.append(CODE_BASE + addr)
            elif r < 0.14 and embedded:
                number = embedded.pop()
                lines.append(f"    {addr:x}:\tmov\t${number:#x},%eax")
                lines.append(f"    {addr + 5:x}:\tsyscall")
                addr += 7
            else:
                mnem, ops, size = rng.choice(FILL)
                lines.append(f"    {addr:x}:\t{mnem}\t{ops}" if ops else f"    {addr:x}:\t{mnem}")
                addr += size
        lines.append(f"    {addr:x}:\tretq")
        lines.append("")
        addr = (addr + 16) & ~15
    if calls or embedded:
        raise ValueError("target too small for its imports")
    target.sdis = "\n".join(lines)


STRACE_ARGS = {
    "read": '3, "\\177ELF\\2\\1\\1", 832', "write": '1, "ok\\n", 3', "close": "3",
    "openat": 'AT_FDCWD, "/etc/ld.so.cache", O_RDONLY|O_CLOEXEC', "mmap": "NULL, 8192, PROT_READ",
}


def _traces(rng: random.Random, target: Target, counts: dict[str, int], files: int) -> None:
    """strace-like output with exactly `counts` syscall lines in total."""
    lines = [[] for _ in range(files)]
    for name, n in sorted(counts.items()):
        for _ in range(n):
            args = STRACE_ARGS.get(name, f"{rng.randrange(0, 64)}, 0x{rng.randrange(1 << 20):x}")
            lines[rng.randrange(files)].append(f"{name}({args}) = {rng.randrange(0, 5)}")
        target.trace_counts[name] += n
    for chunk in lines:
        rng.shuffle(chunk)
        chunk.insert(rng.randrange(len(chunk) + 1),
                     "--- SIGCHLD {si_signo=SIGCHLD, si_code=CLD_EXITED} ---")
        chunk.append("+++ exited with 0 +++")
        target.traces.append("\n".join(chunk) + "\n")


def _numbers(table: dict[int, str]) -> dict[str, int]:
    return {name: number for number, name in table.items()}


# --------------------------------------------------------------------------
# libc-rare


LIBC_FIXTURE_SYSCALL = "tgkill"
LIBC_PAIRS = 950
LIBC_APIS = 430
LIBC_ATTACK_SYSCALLS = 8
LIBC_ATTACK_FANOUT = 4  # APIs per attack host, and helpers each of them calls
LIBC_STACK_WORDS = 14


def _libc_fixture(lib: Library, nr: dict[str, int]) -> None:
    """Seed-independent functions hitting the trailing-call fault: each API
    ends in a call to a noreturn function, so its return address lies past
    the function's last instruction."""
    rng = random.Random(0)
    host = lib.add("__pthread_kill_implementation", 0)
    lib.fill(host, rng, 6)
    lib.syscall(host, nr[LIBC_FIXTURE_SYSCALL], rng, style="mov")
    lib.ret(host)
    fatal = lib.add("__fortify_fail", 1)
    lib.fill(fatal, rng, 4)
    lib.call(fatal, host.name)
    fatal.insns.append(Insn("ud2", "", 2))
    for name in ("__chk_fail@@GLIBC_2.3.4", "__stack_chk_fail@@GLIBC_2.4"):
        api = lib.add(name, 3)
        lib.fill(api, rng, 3)
        lib.call(api, fatal.name)  # trailing call: no instruction follows


def _name(rng: random.Random, taken: set[str], style: str) -> str:
    while True:
        w, v = rng.choice(WORDS), rng.choice(VERBS)
        if style == "internal":
            pre = rng.choice(["__", "__libc_", "_IO_", "__GI_", "__nss_", "_dl_"])
            name = f"{pre}{w}_{v}{rng.choice(['', '_internal', '_unlocked', '_r'])}"
        else:
            name = f"{rng.choice(['', '', 'f', 'x', 'p'])}{v}{w}{rng.choice(['', '', '64', '_r'])}"
        if name not in taken:
            taken.add(name)
            return name


def _libc_library(rng: random.Random, table: dict[int, str], nr: dict[str, int]) -> Library:
    lib = Library("libc", 0x7F3A1C000000, 0x800000)
    _libc_fixture(lib, nr)
    taken = {f.split("@@")[0] for f in lib.by_name} | {"syscall"}

    numbers = sorted(n for n, s in table.items() if s != LIBC_FIXTURE_SYSCALL)
    rng.shuffle(numbers)
    host_numbers = numbers[:230]
    attack_numbers = numbers[230:230 + LIBC_ATTACK_SYSCALLS]

    # rank 0: syscall hosts; 100 are exported wrappers named after the
    # syscall, like read@@GLIBC_2.2.5, and 28 internal ones host a second
    # syscall.  Fixed counts keep the amount of work the same in every seed.
    exported = set(rng.sample(range(len(host_numbers)), 100))
    second = set(rng.sample(sorted(set(range(len(host_numbers))) - exported), 28))
    hosts = []
    for k, number in enumerate(host_numbers):
        sysname = table[number]
        if k in exported:
            taken.add(sysname)
            name = f"{sysname}@@{rng.choice(VERSIONS)}"
        else:
            name = f"__{sysname}_{rng.choice(['nocancel', 'internal', 'sys', 'chk'])}"
            taken.add(name)
        fn = lib.add(name, 0)
        lib.fill(fn, rng, rng.randint(6, 40))
        lib.syscall(fn, number, rng)
        if k in second:
            lib.fill(fn, rng, rng.randint(1, 6))
            lib.syscall(fn, rng.choice([n for n in host_numbers if n != number]), rng)
        lib.fill(fn, rng, rng.randint(1, 12))
        lib.ret(fn)
        hosts.append(fn.name)
    # hosts whose syscall number the resolver cannot recover, the way the
    # syscall() wrapper takes it as an argument
    for name, style in (("syscall@@GLIBC_2.2.5", "arg"), ("__syscall_cancel_arch", "arg"),
                        ("__libc_read_fast", "xor"), ("__ioctl_time64_sys", "mem")):
        fn = lib.add(name, 0)
        for _ in range(rng.randint(4, 12)):  # must not define %rdi
            fn.insns.append(Insn(*rng.choice([("mov", "%r8,%r9", 3), ("nop", "", 1),
                                              ("lea", "0x8(%rbx),%r8", 4)])))
        lib.syscall(fn, None, rng, style=style)
        lib.ret(fn)

    def internal(rank: int, n: int) -> list[str]:
        out = []
        for _ in range(n):
            fn = lib.add(_name(rng, taken, "internal"), rank)
            out.append(fn.name)
        return out

    rank1 = internal(1, 220)
    rank2 = internal(2, 140)
    exported_hosts = [h for h in hosts if "@@" in h]

    # few indirect sites with small candidate sets among rank-1 helpers
    taken_pool = rng.sample(rank1, 36)  # disjoint: one signature per function
    for k in range(6):
        params = tuple(rng.sample(TYPES, rng.randint(1, 3))) + (f"struct ops{k} *",)
        members = [taken_pool.pop() for _ in range(rng.randint(3, 6))]
        lib.classes[f"c{k}"] = (params, members)
    for m in rng.sample([m for _, ms in lib.classes.values() for m in ms], 3):
        lib.aliases[f"__{m.lstrip('_')}_alias"] = m
    lib.untyped_taken += rng.sample(rank2, 4)
    for name in rng.sample(rank2, 20):
        lib.noise_signatures[name] = tuple(rng.sample(TYPES, 2))

    def body(name: str, callees: list[str], icalls: list[str]) -> None:
        fn = lib.by_name[name]
        lib.fill(fn, rng, rng.randint(4, 20))
        for c in callees:
            lib.call(fn, c)
            lib.fill(fn, rng, rng.randint(2, 24))
        for cls in icalls:
            lib.icall(fn, cls, rng)
            lib.fill(fn, rng, rng.randint(2, 10))
        lib.ret(fn)

    for name in rank1:
        body(name, rng.sample(hosts, rng.choice([1, 1, 2])), [])
    classes = sorted(lib.classes)
    for i, name in enumerate(rank2):
        callees = rng.sample(rank1, rng.choice([1, 2, 2]))
        if rng.random() < 0.3:
            callees.append(rng.choice(hosts))
        body(name, callees, [classes[i % len(classes)]] if i < 8 else [])

    # rank 3: exported APIs over the helpers; a few reach the syscall()
    # wrapper and so carry unresolved sites.  APIs are added until
    # `analyze` has exactly LIBC_PAIRS (API, host, syscall) path searches
    # to make, then the attack APIs below, then leaf APIs up to LIBC_APIS,
    # whatever the seed.
    full, _ = lib.adjacency()
    lib._adj = None
    names_at: dict[str, int] = {}
    for host, number in lib.syscall_sites():
        if number is not None:
            names_at[host] = names_at.get(host, 0) + 1
    below: dict[str, frozenset] = {}

    def hosts_below(fn: str) -> frozenset:
        if fn not in below:
            found = {fn} if fn in names_at else set()
            for callee in full.get(fn, ()):
                found |= hosts_below(callee)
            below[fn] = frozenset(found)
        return below[fn]

    single = [h for h in exported_hosts if names_at[h] == 1]
    searches = 0
    i = 0
    while searches < LIBC_PAIRS:
        for _ in range(50):
            r = rng.random()
            if i < 8:
                callees = [rng.choice(["syscall@@GLIBC_2.2.5", "__syscall_cancel_arch",
                                       "__libc_read_fast", "__ioctl_time64_sys"])]
                callees += rng.sample(rank2, 1)
            elif r < 0.6:
                callees = rng.sample(rank2, rng.choice([1, 1, 2]))
            elif r < 0.9:
                callees = rng.sample(rank1, rng.choice([1, 2]))
            else:
                callees = rng.sample(exported_hosts, 1) + rng.sample(rank1, 1)
            cost = sum(names_at[h] for h in frozenset().union(*map(hosts_below, callees)))
            if searches + cost <= LIBC_PAIRS:
                break
        else:
            callees, cost = [rng.choice(single)], 1
        name = f"{_name(rng, taken, 'api')}@@{rng.choice(VERSIONS)}"
        lib.add(name, 3)
        body(name, callees, [])
        searches += cost
        i += 1
    # the hosts of the syscalls that only forged stacks use.  Each is called
    # by its own LIBC_ATTACK_FANOUT helpers, and each of its own
    # LIBC_ATTACK_FANOUT APIs calls every one of them, so `verify` pools
    # exactly 16 secure paths for each of these syscalls whatever the seed,
    # and the events that reach matching cost the same in every seed
    for number in attack_numbers:
        host = lib.add(f"__{table[number]}_{rng.choice(['nocancel', 'internal', 'sys'])}", 0)
        taken.add(host.name)
        lib.fill(host, rng, rng.randint(6, 40))
        lib.syscall(host, number, rng)
        lib.fill(host, rng, rng.randint(1, 12))
        lib.ret(host)
        helpers = internal(1, LIBC_ATTACK_FANOUT)
        for name in helpers:
            body(name, [host.name], [])
        for _ in range(LIBC_ATTACK_FANOUT):
            name = f"{_name(rng, taken, 'api')}@@{rng.choice(VERSIONS)}"
            lib.add(name, 3)
            body(name, helpers, [])
        lib.forged_targets.append(table[number])
    i += LIBC_ATTACK_SYSCALLS * LIBC_ATTACK_FANOUT
    if i > LIBC_APIS:
        raise ValueError(f"libc-rare: {i} APIs for {LIBC_PAIRS} path searches")
    for _ in range(LIBC_APIS - i):  # leaf APIs without syscalls, like strlen
        fn = lib.add(f"{_name(rng, taken, 'api')}@@{rng.choice(VERSIONS)}", 3)
        lib.fill(fn, rng, rng.randint(10, 60))
        lib.ret(fn)
    lib.freeze()
    return lib


def _libc_fault_events(lib: Library, nr: dict[str, int], tag: str) -> list[Event]:
    """The trailing-call fault events; identical in every seed."""
    fx = lib.by_name["__pthread_kill_implementation"]
    fx_rip = lib.syscall_addr(fx.name, nr[LIBC_FIXTURE_SYSCALL])
    ff_ret = lib.return_addrs("__fortify_fail", fx.name)[0]
    events = []
    for k in range(40):
        api = ("__chk_fail@@GLIBC_2.3.4", "__stack_chk_fail@@GLIBC_2.4")[k % 2]
        api_ret = lib.return_addrs(api, "__fortify_fail")[0]
        words = [(STACK_LO + 0x1FF000 + 8 * k, None, False), (ff_ret, "__fortify_fail", False),
                 (0x10 + k, None, False), (api_ret, api, False),
                 (CODE_BASE + 0x2105, None, True), (0x0, None, False)]
        events.append(Event(tag, LIBC_FIXTURE_SYSCALL, fx_rip, STACK_LO + 0x1FEF00,
                            words, fx.name, fault="trailing-call"))
    return events


def build_libc_rare(seed: int) -> Workload:
    rng = random.Random(seed)
    table = ref.load_table()
    nr = _numbers(table)
    lib = _libc_library(rng, table, nr)
    fixture_names = {"__pthread_kill_implementation", "__fortify_fail",
                     "__chk_fail@@GLIBC_2.3.4", "__stack_chk_fail@@GLIBC_2.4"}
    wl = Workload(table, lib, [], [], "rare",
                  {"analyze": 60.0, "profile": 30.0, "verify": 60.0, "cve": 30.0})
    summary = ref.api_summary(lib, table)
    clean_apis = sorted(a for a, r in summary.items()
                        if r["unresolved"] == 0 and r["syscalls"]
                        and a not in ("__chk_fail", "__stack_chk_fail"))
    fallback_apis = sorted(a for a, r in summary.items() if r["unresolved"] > 0)

    hosts_of = lib.hosts_by_name(table)
    full, _ = lib.adjacency()
    attack = lib.forged_targets
    attack_apis = {n: sorted(a for a in clean_apis if hosts_of[n] & ref._reach(
        full, summary[a]["entry"])) for n in attack}
    tags = ["nginx", "redis-server", "sshd", "postgres", "memcached"]
    for i, tag in enumerate(tags):
        if i == 0:  # one API over each attack host, so its syscall is allowed
            imports = rng.sample(sorted(set(clean_apis).difference(*attack_apis.values())), 70)
            imports += [rng.choice(attack_apis[n]) for n in attack]
            imports += ["__chk_fail", "__stack_chk_fail"]
        else:
            imports = rng.sample(clean_apis, rng.randint(30, 60))
        if i in (1, 3):
            imports.append(rng.choice(fallback_apis))
        imports += rng.sample(["__cxa_finalize", "_ITM_deregisterTMCloneTable",
                               "__gmon_start__", "sqrt"], 2)
        embedded = [nr["getpid"]] if i in (2, 4) else []
        wl.targets.append(Target(tag, imports, embedded))
    for t in wl.targets:
        _target_sdis(rng, t, 200)

    # target 0's traces cover all its allowed syscalls but 32: 24 of those
    # are invoked legitimately and rarely, 8 only by forged stacks
    prof0 = ref.expected_profile(summary, wl.targets[0], table)
    chains = Chains(lib)
    imports0 = sorted(a for a in wl.targets[0].imports if a in summary)
    # (api, host) pairs of target 0 per syscall name
    pairs: dict[str, list[tuple[str, str]]] = {}
    for api in imports0:
        entry = summary[api]["entry"]
        reach = ref._reach(full, entry)
        for name, hs in hosts_of.items():
            for h in sorted(hs & reach):
                if chains.count(entry, h) <= MAX_PATHS:
                    pairs.setdefault(name, []).append((entry, h))
    candidates = sorted(n for n in prof0["allowed"]
                        if n != LIBC_FIXTURE_SYSCALL and n in pairs)
    rest = sorted(set(candidates) - set(attack))
    if not set(attack) <= set(candidates) or len(rest) < 24:
        raise ValueError("libc-rare: too few syscalls for the rare set")
    legit_rare = rng.sample(rest, 24)
    chosen = legit_rare + attack
    frequent = sorted(prof0["allowed"] - set(chosen) - {LIBC_FIXTURE_SYSCALL})
    _traces(rng, wl.targets[0], {n: rng.randint(1, 40) for n in frequent}, 2)
    for t in wl.targets[1:]:
        p = ref.expected_profile(summary, t, table)
        allowed = sorted(p["allowed"] - {LIBC_FIXTURE_SYSCALL})
        _traces(rng, t, {n: rng.randint(1, 30)
                         for n in rng.sample(allowed, int(len(allowed) * 0.7))},
                rng.randint(1, 3))
    all_pairs: list[tuple[str, str, str]] = []
    for fn in lib.funcs:
        if fn.api and fn.name not in fixture_names and fn.api not in fallback_apis:
            reach = ref._reach(full, fn.name)
            for name, hs in hosts_of.items():
                for h in sorted(hs & reach):
                    all_pairs.append((name, fn.name, h))

    def legit(tag: str, name: str, api: str, host: str, target: Target) -> Event:
        chain = chains.walk(rng, api, host)
        rip = lib.syscall_addr(host, nr[name])
        return Event(tag, name, rip, _rsp(rng),
                     _stack(rng, lib, chain, rng.choice(target.call_returns),
                            LIBC_STACK_WORDS), host)

    # the verdict mix of a round is chosen, not measured from a real event
    # trace; README.md says so and what it weighs
    events: list[Event] = []
    t0 = wl.targets[0]
    for _ in range(12000):  # other processes
        name, api, host = rng.choice(all_pairs)
        t = rng.choice(wl.targets[1:])
        events.append(legit(t.tag, name, api, host, t))
    freq_pairs = [n for n in frequent if n in pairs]
    for _ in range(16000):
        name = rng.choice(freq_pairs)
        events.append(legit(t0.tag, name, *rng.choice(pairs[name]), t0))
    for _ in range(5000):
        name = rng.choice(legit_rare)
        events.append(legit(t0.tag, name, *rng.choice(pairs[name]), t0))

    apis_set = {f.name for f in lib.funcs if f.api}
    callers = [f.name for f in lib.funcs if f.rank > 0 and any(i.callee or i.site for i in f.insns)]
    pools: dict[str, list[str]] = {}
    for k in range(1400):
        name = attack[k % len(attack)]
        hs = hosts_of[name]
        host = rng.choice(sorted(h for h in hs if "@@" not in h))
        if name not in pools:
            anc = set().union(*(chains.ancestors(h) for h in hs))
            pools[name] = [f for f in callers if f not in anc]
        pool = pools[name]
        while True:
            frames = rng.sample(pool, rng.randint(2, 4))
            if not ref.embeds(frames[::-1] + [host], hs, full, apis_set):
                break
        words = []
        for fr in frames:
            words.append(_word(rng, lib))
            ins = rng.choice([i for i in lib.by_name[fr].insns if i.callee or i.site])
            words.append((lib.base + ins.addr + ins.size, fr, False))
        words.append((rng.choice(t0.call_returns), None, True))
        words = _pad(rng, lib, words, LIBC_STACK_WORDS)
        rip = lib.syscall_addr(host, nr[name])
        ev = Event(t0.tag, name, rip, _rsp(rng), words, host)
        if k % 7 == 3:
            ev.rsp, ev.rsp_ok = HEAP_LO + rng.randrange(1 << 20) * 16, False
        elif k % 7 == 5:
            ev.rip, ev.rip_fn = HEAP_LO + rng.randrange(1 << 20) * 16, None
        events.append(ev)
    rng.shuffle(events)

    for k, ev in enumerate(_libc_fault_events(lib, nr, t0.tag)):
        events.insert((k * 997) % (len(events) + 1), ev)
    wl.events = events
    return wl


# --------------------------------------------------------------------------
# indirect-attack


def _ia_fixture(lib: Library, nr: dict[str, int]) -> str:
    """Seed-independent dispatcher with 9**4 paths to one host: more than
    the default --max-paths, so the lexicographically last chain is never
    enumerated.  Returns the fixture API name."""
    rng = random.Random(0)
    host = lib.add("ev_fx_copy_remote", 0)
    lib.fill(host, rng, 5)
    lib.syscall(host, nr[IA_FIXTURE_SYSCALL], rng, style="mov")
    lib.ret(host)
    layers = []
    for depth in (4, 3, 2, 1):
        layer = [lib.add(f"ev_fx_stage{depth}_{i}", depth) for i in range(9)]
        for fn in layer:
            lib.fill(fn, rng, 2)
            for nxt in (layers[-1] if layers else [host]):
                lib.call(fn, nxt.name)
                lib.fill(fn, rng, 1)
            lib.ret(fn)
        layers.append(layer)
    lib.classes["fx"] = (("struct ev_batch *", "unsigned int", "ev_fx_token_t"),
                         [fn.name for fn in layers[-1]])
    api = lib.add("ev_dispatch_batch@@EVLIB_1.0", 5)
    lib.fill(api, rng, 3)
    lib.icall(api, "fx", rng)
    lib.fill(api, rng, 2)
    lib.ret(api)
    return api.name


IA_FIXTURE_SYSCALL = "process_vm_writev"
IA_STACK_WORDS = 12


def build_indirect_attack(seed: int) -> Workload:
    rng = random.Random(seed)
    table = ref.load_table()
    nr = _numbers(table)
    lib = Library("libev", 0x7F51A0000000, 0x400000)
    fx_api = _ia_fixture(lib, nr)

    numbers = sorted(n for n, s in table.items() if s != IA_FIXTURE_SYSCALL)
    rng.shuffle(numbers)
    # chosen to give dense indirect calls and a full path budget; not measured
    n_stub, n_back, n_hand, n_disp, n_api, n_util = 8, 16, 96, 24, 24, 8

    def fname(kind: str, i: int) -> str:  # fixed width keeps sizes seed-stable
        return f"ev_{kind}_{rng.randrange(16**4):04x}{i:03d}"

    stubs = [lib.add(fname("stub", i), 0) for i in range(n_stub)]
    backs = [lib.add(fname("back", i), 1) for i in range(n_back)]
    hands = [lib.add(fname("hand", i), 2) for i in range(n_hand)]
    disps = [lib.add(fname("disp", i), 3) for i in range(n_disp)]
    utils = [lib.add(fname("util", i), 3) for i in range(n_util)]
    apis = [lib.add(f"ev_{rng.choice(VERBS)}_{rng.choice(WORDS)}_{i:02d}@@EVLIB_1.0", 4)
            for i in range(n_api)]

    for i, fn in enumerate(stubs):
        lib.fill(fn, rng, rng.randint(10, 30))
        lib.syscall(fn, numbers[i], rng)
        lib.ret(fn)
    # every backend hosts one syscall and calls one stub; stubs are
    # assigned round-robin so each is reachable
    for i, fn in enumerate(backs):
        lib.fill(fn, rng, rng.randint(20, 60))
        lib.syscall(fn, numbers[n_stub + i], rng)
        lib.fill(fn, rng, 2)
        lib.call(fn, stubs[i % n_stub].name)
        lib.ret(fn)
    # handlers: 4 signature classes of 24; within a class the 48 backend
    # calls cover every backend three times, so each API reaches each
    # backend through the same number of paths whatever the seed
    hand_classes = []
    for c in range(4):
        members = hands[c * 24:(c + 1) * 24]
        slots = list(range(n_back)) * 3
        while True:
            rng.shuffle(slots)
            if all(slots[2 * j] != slots[2 * j + 1] for j in range(len(members))):
                break
        for j, fn in enumerate(members):
            a, b = slots[2 * j], slots[2 * j + 1]
            lib.fill(fn, rng, rng.randint(15, 45))
            lib.call(fn, backs[a].name)
            lib.fill(fn, rng, rng.randint(5, 15))
            lib.call(fn, backs[b].name)
            lib.ret(fn)
        params = (f"struct ev_req{c} *", rng.choice(TYPES), "void *")
        lib.classes[f"h{c}"] = (params, [m.name for m in members])
        hand_classes.append(f"h{c}")
    # dispatchers: 3 classes of 8, each with two indirect sites into
    # distinct handler classes
    disp_classes = []
    for c in range(3):
        members = disps[c * 8:(c + 1) * 8]
        for fn in members:
            lib.fill(fn, rng, rng.randint(10, 30))
            for cls in rng.sample(hand_classes, 2):
                lib.icall(fn, cls, rng)
                lib.fill(fn, rng, rng.randint(3, 10))
            lib.ret(fn)
        lib.classes[f"d{c}"] = ((f"struct ev_loop{c} *", "int"), [m.name for m in members])
        disp_classes.append(f"d{c}")
    for fn in utils:
        lib.fill(fn, rng, rng.randint(8, 20))
        lib.call(fn, rng.choice(stubs).name)
        lib.ret(fn)
    for i, fn in enumerate(apis):
        lib.fill(fn, rng, rng.randint(10, 30))
        lib.call(fn, utils[i % n_util].name)
        lib.fill(fn, rng, 2)
        lib.icall(fn, disp_classes[i % 3], rng)
        lib.ret(fn)
    for m in rng.sample(disps, 2):
        lib.aliases[f"__{m.name}_impl"] = m.name
    for fn in rng.sample(backs, 6):
        lib.noise_signatures[fn.name] = ("struct ev_req0 *", "int", "void *")
    lib.freeze()

    wl = Workload(table, lib, [], [], "indirect",
                  {"analyze": 90.0, "profile": 30.0, "verify": 90.0, "cve": 30.0})
    summary = ref.api_summary(lib, table)
    api_names = [fn.api for fn in apis]
    for i, tag in enumerate(["evproxy", "evcache", "evgate"]):
        imports = rng.sample(api_names, 6 if i == 0 else 8)
        if i == 0:
            imports.append(fx_api.split("@@")[0])
        wl.targets.append(Target(tag, imports + ["__cxa_finalize"], []))
    for t in wl.targets:
        _target_sdis(rng, t, 40)
        p = ref.expected_profile(summary, t, table)
        allowed = sorted(p["allowed"])
        _traces(rng, t, {n: rng.randint(1, 20) for n in rng.sample(allowed, len(allowed) // 2)}, 1)

    prof0 = ref.expected_profile(summary, wl.targets[0], table)
    hosts_of = lib.hosts_by_name(table)
    full, _ = lib.adjacency()
    apis_set = {f.name for f in lib.funcs if f.api}
    chains = Chains(lib)
    t0 = wl.targets[0]
    imported = [lib.by_name[summary[a]["entry"]].name for a in t0.imports
                if a in summary and a != fx_api.split("@@")[0]]
    suspicious = sorted(n for n in prof0["indirect"] if n != IA_FIXTURE_SYSCALL)
    back_hosts = {fn.name for fn in backs}
    targets_by_name = {n: sorted(h for h in hosts_of[n] if h in back_hosts)
                       for n in suspicious}
    suspicious = [n for n in suspicious if targets_by_name[n]]
    if len(suspicious) < 12:
        raise ValueError("indirect-attack: too few suspicious syscalls")

    events: list[Event] = []
    for k in range(360):
        name = suspicious[k % len(suspicious)]
        host = rng.choice(targets_by_name[name])
        rip = lib.syscall_addr(host, nr[name])
        api = rng.choice([a for a in imported if host in ref._reach(full, a)] or imported)
        if k % 6 == 1:
            ev = Event(t0.tag, name, rip, HEAP_LO + rng.randrange(1 << 20) * 16,
                       [_word(rng, lib) for _ in range(IA_STACK_WORDS)], host, rsp_ok=False)
        elif k % 6 == 4:
            ev = Event(t0.tag, name, HEAP_LO + rng.randrange(1 << 20) * 16, _rsp(rng),
                       [_word(rng, lib) for _ in range(IA_STACK_WORDS)], None)
        else:
            # a real chain with its dispatcher frame cut out: the handler
            # was reached through a forged function pointer
            while True:
                chain = chains.walk(rng, api, host)
                forged = [f for f in chain if lib.by_name[f].rank != 3]
                if not ref.embeds(forged, hosts_of[name], full, apis_set):
                    break
            words = _stack(rng, lib, chain, rng.choice(t0.call_returns), IA_STACK_WORDS,
                           junk=(0, 1), ptr_rate=0.0)
            words = [w for w in words if w[1] is None or lib.by_name[w[1]].rank != 3]
            words = _pad(rng, lib, words, IA_STACK_WORDS)
            ev = Event(t0.tag, name, rip, _rsp(rng), words, host)
        events.append(ev)
    rng.shuffle(events)

    # the fixed fault events: the lexicographically last chain through the
    # fixture, which enumeration cuts off at --max-paths
    fx_host = "ev_fx_copy_remote"
    chain = [fx_api] + [f"ev_fx_stage{d}_8" for d in (1, 2, 3, 4)] + [fx_host]
    fx_rip = lib.syscall_addr(fx_host, nr[IA_FIXTURE_SYSCALL])
    fx_words = []
    for caller, callee in reversed(list(zip(chain, chain[1:]))):
        fx_words.append((STACK_LO + 0x1FF800, None, False))
        fx_words.append((lib.return_addrs(caller, callee)[0], caller, False))
    fx_words.append((CODE_BASE + 0x2105, None, True))
    for k in range(20):
        events.insert((k * 61) % (len(events) + 1),
                      Event(t0.tag, IA_FIXTURE_SYSCALL, fx_rip, STACK_LO + 0x1FF000,
                            list(fx_words), fx_host, fault="path-budget"))
    wl.events = events
    return wl


# --------------------------------------------------------------------------
# cyclic graphs (not a workload: reproduces exponential path enumeration)


def build_cyclic(seed: int, functions: int, edges: int) -> tuple[str, str]:
    """A random cyclic library: `functions` functions and `edges` distinct
    direct call edges.  The exported API reaches the syscall host through
    one helper, and also calls into a cyclic component that cannot reach
    the host at all, so a search that never prunes walks every simple path
    of that component."""
    rng = random.Random(seed)
    names = [f"f{i:03d}" for i in range(functions)]
    api, tail, host = "api@@V1", names[-2], names[-1]
    names[0] = api
    component = names[1:-2]
    pairs = {(api, component[0]), (api, tail), (tail, host)}
    while len(pairs) < edges:
        a, b = rng.sample(component, 2)
        pairs.add((a, b))
    calls: dict[str, list[str]] = {n: [] for n in names}
    for a, b in sorted(pairs):
        calls[a].append(b)
    lines = []
    for k, n in enumerate(names):
        addr = 0x1000 + 0x100 * k
        lines.append(f"{addr:016x} <{n}>:")
        for callee in calls[n]:
            tgt = 0x1000 + 0x100 * names.index(callee)
            lines.append(f"    {addr:x}:\tcallq\t{tgt:x} <{callee}>")
            addr += 5
        if n == host:
            lines.append(f"    {addr:x}:\tmov\t$0x1,%eax")
            lines.append(f"    {addr + 5:x}:\tsyscall")
            addr += 7
        lines.append(f"    {addr:x}:\tretq")
        lines.append("")
    return "\n".join(lines), "{}\n"


BUILDERS = {"libc-rare": build_libc_rare, "indirect-attack": build_indirect_attack}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=[*BUILDERS, "cyclic"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", required=True)
    parser.add_argument("--functions", type=int, default=60)
    parser.add_argument("--edges", type=int, default=145)
    args = parser.parse_args(argv)
    out = Path(args.out)
    if args.workload == "cyclic":
        sdis, facts = build_cyclic(args.seed, args.functions, args.edges)
        out.mkdir(parents=True, exist_ok=True)
        (out / "cyclic.sdis").write_text(sdis, encoding="utf-8")
        (out / "cyclic.facts.json").write_text(facts, encoding="utf-8")
        return 0
    wl = BUILDERS[args.workload](args.seed)
    wl.write(out)
    verdicts = Counter(ref.Expected(wl).verdicts)
    json.dump({**wl.describe(), "verdicts": dict(sorted(verdicts.items()))},
              sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
