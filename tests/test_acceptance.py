"""Acceptance gate: one test per criterion, each printing a PASS line."""

import json
import random
import time

from syscage import packaged_data
from syscage.callgraph import CallGraph
from syscage.cli import main
from syscage.cve import load_cve_dataset, mitigation_report
from syscage.disasm import (
    DIRECT,
    INDIRECT,
    CallSite,
    SyscallSite,
    header_extents,
    parse_disassembly,
)
from syscage.profilegen import ApiSyscallMapping, generate_profile
from syscage.srcfacts import resolve_indirect_targets
from syscage.sysnum import ResolvedSyscallSite, load_syscall_table, resolve_numbers
from syscage.verifier import (
    CACHE_HIT,
    NO_PATH_MATCH,
    PATH_MATCHED,
    RSP_OUT_OF_RANGE,
    run_event_trace,
    VerifierContext,
    locate_functions,
    parse_memory_map,
)

from oracles import closure_floyd_warshall
from test_callgraph import _reachable
from test_cve import SEED_COUNTS
from test_sysnum import _check_every_site, _function, _random_body
from test_verifier import walk_sets


def _passed(name):
    print(f"ACCEPTANCE {name}: PASS")


def test_reachability_oracle():
    rng = random.Random(20240815)
    started = time.monotonic()
    for _ in range(100):
        n = rng.randint(2, 50)
        nodes = [f"n{i}" for i in range(n)]
        graph = CallGraph(nodes=set(nodes))
        pairs = []
        direct_pairs = []
        for a in nodes:
            for b in nodes:
                if a == b:
                    continue
                r = rng.random()
                if r < 0.05:
                    graph.edges.add(CallSite(a, b, DIRECT))
                    pairs.append((a, b))
                    direct_pairs.append((a, b))
                elif r < 0.09:
                    graph.edges.add(CallSite(a, b, INDIRECT))
                    pairs.append((a, b))
        sites = [
            ResolvedSyscallSite(SyscallSite(h, 0), f"sys{i}")
            for i, h in enumerate(nodes)
            if rng.random() < 0.4
        ]
        full = closure_floyd_warshall(nodes, pairs)
        donly = closure_floyd_warshall(nodes, direct_pairs)
        for api in rng.sample(nodes, min(5, n)):
            expected = {
                (s.name, s.site.function not in donly[api])
                for s in sites
                if s.site.function in full[api]
            }
            assert _reachable(graph, api, sites) == expected
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _passed("reachability-oracle")


def test_syscall_number_oracle():
    rng = random.Random(20240816)
    for _ in range(1000):
        _check_every_site(_random_body(rng, rng.randint(1, 8), rng.randint(0, 3)))
    # unsupported writes to a live tracked register never produce a number
    for _ in range(200):
        body = _random_body(rng, rng.randint(0, 4))[:-1]
        body.append((rng.choice(["xor", "imul", "lea", "pop"]),
                     ["%ebx", "%eax"][-2 if rng.random() < 0.5 else -1:]))
        body.append(("add", ["$1", "%eax"]))
        body.append(("syscall", []))
        fn, site = _function(body)
        assert resolve_numbers(fn)[site.site_address] is None
    _passed("syscall-number-oracle")


def test_indirect_resolution_oracle():
    from test_srcfacts import _oracle, _random_facts

    rng = random.Random(20240817)
    for _ in range(200):
        facts, site = _random_facts(rng)
        assert resolve_indirect_targets(site, facts) == _oracle(site, facts)
    _passed("indirect-resolution-oracle")


def test_profile_partition_on_fixture_targets():
    table = load_syscall_table(packaged_data("syscall_64.tbl"))
    assert len(table.number_to_name) == 335
    rng = random.Random(20240818)
    pool = sorted(table.names)
    apis = {}
    for i in range(40):
        syscalls = [
            (rng.choice(pool), rng.random() < 0.4)
            for _ in range(rng.randint(0, 6))
        ]
        apis[f"api{i}"] = syscalls
    doc = {"format": 4, "libraries": {}, "call_graph": {}, "hosts": {}, "apis": {
        api: {
            "entry_function": api,
            "unresolved_sites": 0,
            "syscalls": [
                {"syscall": n, "tainted": t}
                for n, t in dict(syscalls).items()
            ],
        }
        for api, syscalls in apis.items()
    }}
    mapping = ApiSyscallMapping.from_document(doc)
    for _ in range(20):
        imported = set(rng.sample(sorted(apis), rng.randint(0, 8)))
        embedded = set(rng.sample(pool, rng.randint(0, 3)))
        profile = generate_profile(mapping, imported, embedded, table)
        allowed = set(profile.allowed)  # every other table entry is blocked
        assert allowed <= table.names
        assert profile.suspicious_indirect <= allowed
        assert profile.suspicious_rare <= allowed
    _passed("profile-partition")


def test_cve_seed_counts():
    records = load_cve_dataset(packaged_data("cve_seed.tsv"))
    mitigated, per = mitigation_report(records, {"ioctl"})
    assert len(mitigated) == 29
    mitigated2, _ = mitigation_report(records, {"unshare", "waitid"})
    assert len(mitigated2) == 4
    _, per_all = mitigation_report(records, set(SEED_COUNTS))
    assert per_all == SEED_COUNTS
    _passed("cve-seed-counts")


def test_verifier_conformance(data_dir):
    memmap = parse_memory_map((data_dir / "memmap.txt").read_text())
    table = locate_functions(
        memmap, {"minilib": header_extents((data_dir / "minilib.sdis").read_text())})
    base = 0x7F0000000000
    secure = walk_sets({"open": [("open@@GLIBC_2.2.5", "dispatch", "open_handler")]})
    ctx = VerifierContext(
        target_tag="target",
        suspicious={"open"},
        known_syscalls={"open"},
        **secure,
        table=table,
        memmap=memmap,
    )
    good = (
        f"target open rip={base + 0x1085:x} rsp=7ffc00001000 "
        f"stack={base + 0x107a:x},deadbeef,{base + 0x1055:x},400014\n"
    )
    scrambled = (
        f"target open rip={base + 0x1085:x} rsp=7ffc00001000 "
        f"stack={base + 0x1055:x},{base + 0x107a:x}\n"
    )
    pivot = f"target open rip={base + 0x1085:x} rsp=600000000000 stack=\n"
    verdicts, _ = run_event_trace(pivot + good + good, ctx)
    assert [v.reason for v in verdicts] == [RSP_OUT_OF_RANGE, PATH_MATCHED, CACHE_HIT]
    fresh = VerifierContext(
        target_tag="target", suspicious={"open"}, known_syscalls={"open"},
        **secure, table=table, memmap=memmap,
    )
    verdicts, _ = run_event_trace(scrambled, fresh)
    assert [v.reason for v in verdicts] == [NO_PATH_MATCH]
    _passed("verifier-conformance")


def test_end_to_end_pipeline(data_dir, tmp_path):
    started = time.monotonic()
    outputs = []
    for run in ("r1", "r2"):
        d = tmp_path / run
        d.mkdir()
        mapping = d / "mapping.json"
        profile = d / "profile.json"
        sidecar = d / "sidecar.json"
        log = d / "verdicts.log"
        assert main([
            "analyze", str(data_dir / "minilib.sdis"),
            str(data_dir / "minilib.facts.json"), "-o", str(mapping),
        ]) == 0
        assert main([
            "profile", str(data_dir / "target.sdis"),
            "--mapping", str(mapping),
            "--trace", str(data_dir / "target.trace"),
            "-o", str(profile), "--sidecar", str(sidecar),
        ]) == 0
        assert main([
            "verify", "--sidecar", str(sidecar), "--mapping", str(mapping),
            "--memmap", str(data_dir / "memmap.txt"),
            "--events", str(data_dir / "events.txt"),
            "--lib-disasm", str(data_dir / "minilib.sdis"),
            "--target", "target", "-o", str(log),
        ]) == 0
        outputs.append(tuple(p.read_bytes() for p in (mapping, profile, sidecar, log)))
    elapsed = time.monotonic() - started
    assert outputs[0] == outputs[1], "outputs differ across runs"
    assert elapsed / 2 < 1.0, f"pipeline took {elapsed / 2:.2f}s per run"

    unit = parse_disassembly((data_dir / "minilib.sdis").read_text())
    assert len(unit.functions) >= 10
    assert sum(f.api_name is not None for f in unit.functions) >= 2
    assert sum(c.kind == INDIRECT for c in unit.callsites) >= 1
    assert len(unit.syscall_sites) >= 3
    doc = json.loads(outputs[0][1].decode())
    assert set(doc["syscalls"][0]["names"]) == {
        "read", "write", "open", "ioctl", "close",
    }
    _passed("end-to-end-pipeline")
