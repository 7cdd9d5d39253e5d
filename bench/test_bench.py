"""Self-tests of the benchmark: seeded generation and the reference checks."""

import functools
import json

import gen
import reference as ref


@functools.lru_cache(maxsize=None)
def _built(name, seed):
    workload = gen.BUILDERS[name](seed)
    return workload, ref.Expected(workload)


def _mapping_doc(summary):
    return {"apis": {
        api: {"entry_function": rec["entry"], "unresolved_sites": rec["unresolved"],
              "syscalls": [{"syscall": n, "tainted": t, "paths": []}
                           for n, t in sorted(rec["syscalls"].items())]}
        for api, rec in summary.items()}}


def _profile_docs(want):
    profile = {"defaultAction": "SCMP_ACT_ERRNO",
               "syscalls": [{"names": sorted(want["allowed"]), "action": "SCMP_ACT_ALLOW"}]}
    sidecar = {"suspicious_indirect": sorted(want["indirect"]),
               "suspicious_rare": sorted(want["rare"])}
    return profile, sidecar


def _verdict_log(reasons):
    return "".join(
        f"{i} {'Allow' if r in ref.ALLOW_REASONS else 'Deny'} {r} path=\n"
        for i, r in enumerate(reasons))


def test_generation_is_deterministic():
    for name, build in gen.BUILDERS.items():
        first, again, other = _built(name, 11)[0], build(11), build(12)
        assert first.files() == again.files()
        assert first.files() != other.files()
        # the events built to hit a known fault do not depend on the seed
        fixed = [ev.line() for ev in first.events if ev.fault]
        assert fixed and fixed == [ev.line() for ev in other.events if ev.fault]
        assert first.memmap() == other.memmap()


def test_reference_rejects_a_dropped_syscall():
    expected = _built("indirect-attack", 11)[1]
    doc = _mapping_doc(expected.summary)
    assert ref.check_mapping(doc, expected.summary) == []
    api = next(a for a, rec in sorted(doc["apis"].items()) if rec["syscalls"])
    doc["apis"][api]["syscalls"].pop()
    assert ref.check_output("mapping", json.dumps(doc), expected, 0)


def test_reference_rejects_a_moved_profile_name():
    expected = _built("indirect-attack", 11)[1]
    want = expected.profiles[0]
    profile, sidecar = _profile_docs(want)
    assert ref.check_profile(profile, sidecar, want, expected.table_names) == []
    moved = sorted(want["blocked"])[0]
    profile["syscalls"][0]["names"].append(moved)
    assert ref.check_profile(profile, sidecar, want, expected.table_names)
    profile, sidecar = _profile_docs(want)
    sidecar["suspicious_indirect"] = sidecar["suspicious_indirect"][1:]
    assert ref.check_profile(profile, sidecar, want, expected.table_names)


def test_reference_rejects_a_flipped_verdict():
    expected = _built("indirect-attack", 11)[1]
    log = _verdict_log(expected.verdicts)
    assert ref.check_verdicts(log, expected.verdicts) == ([], [])
    lines = log.splitlines(keepends=True)
    k = next(i for i, r in enumerate(expected.verdicts) if r == ref.NO_PATH_MATCH)
    lines[k] = f"{k} Allow {ref.PATH_MATCHED} path=\n"
    assert ref.check_verdicts("".join(lines), expected.verdicts) == ([k], [])
    truncated = "".join(log.splitlines(keepends=True)[:-1])
    wrong, problems = ref.check_verdicts(truncated, expected.verdicts)
    assert wrong == [len(lines) - 1] and problems


def test_fault_events_have_a_matching_reference_verdict():
    # the reference must expect these events to pass; the program denies them
    for name in gen.BUILDERS:
        wl, expected = _built(name, 11)
        reasons = {expected.verdicts[i] for i, ev in enumerate(wl.events) if ev.fault}
        assert reasons <= {ref.PATH_MATCHED, ref.CACHE_HIT}
        assert ref.PATH_MATCHED in reasons


def test_reference_takes_the_non_strict_fallback():
    expected = _built("libc-rare", 11)[1]
    fallback = [p for p in expected.profiles if p["fallback"]]
    assert fallback and all(p["blocked"] == set() for p in fallback)
    assert not expected.profiles[0]["fallback"]


def test_forged_stack_syscalls_pool_sixteen_paths():
    # every event that reaches matching on libc-rare is tested against the
    # same number of secure paths, whatever the seed
    for seed in (11, 12):
        wl, expected = _built("libc-rare", seed)
        lib = wl.lib
        chains = gen.Chains(lib)
        hosts_of = lib.hosts_by_name(wl.table)
        apis = [f.name for f in lib.funcs if f.api]
        assert len(lib.forged_targets) == gen.LIBC_ATTACK_SYSCALLS
        assert set(lib.forged_targets) <= expected.profiles[0]["rare"]
        for name in lib.forged_targets:
            (host,) = hosts_of[name]
            anc = chains.ancestors(host)
            assert sum(chains.count(a, host) for a in apis if a in anc) == 16
