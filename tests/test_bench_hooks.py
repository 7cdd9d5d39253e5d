"""The benchmark wraps program names by attribute (bench/worker.py): every
name it wraps must still exist, or only a traced benchmark run would fail."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_hooks_resolve_and_undo(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # Pipeline prepends src
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    monkeypatch.chdir(tmp_path)
    import tracing
    import worker

    pipeline = worker.Pipeline({"src": str(ROOT / "src")})
    vf, pg = pipeline.verifier, pipeline.profilegen
    before = (pipeline.cli.run_event_trace, vf.verify_event, vf.is_subsequence,
              pg.enumerate_secure_paths, pg.ApiSyscallMapping.__dict__["from_document"])
    for apply in (pipeline._trace,
                  lambda patches: pipeline._probes(patches, {"checked_ms": []}, 0)):
        patches = tracing.Patches()
        try:
            apply(patches)
            assert patches._saved
        finally:
            patches.undo()
    after = (pipeline.cli.run_event_trace, vf.verify_event, vf.is_subsequence,
             pg.enumerate_secure_paths, pg.ApiSyscallMapping.__dict__["from_document"])
    assert after == before


def test_benchmark_hooks_see_every_replayed_event(tmp_path, monkeypatch):
    """`verify` on the fixtures under the untraced probe records a timed
    checked event and a replay block, and under the tracer one event parse
    and check per event line that may walk: `run_event_trace` must reach
    `parse_event_line` and `verify_event` through the verifier module, where
    the hooks swap them.  Every PathMatched or NoPathMatch event arrives
    with integer words."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # Pipeline prepends src
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    monkeypatch.chdir(tmp_path)
    import tracing
    import worker

    data = ROOT / "tests" / "data"
    argv = ["verify", "--sidecar", str(data / "golden" / "sidecar.json"),
            "--mapping", str(data / "golden" / "mapping.json"),
            "--memmap", str(data / "memmap.txt"), "--events", str(data / "events.txt"),
            "--lib-disasm", str(data / "minilib.sdis"), "--target", "target",
            "-o", str(tmp_path / "verdicts.log")]
    # the verdict log's events 2, 4 and 5 may walk (PathMatched,
    # RspOutOfRange, NoPathMatch); the others read no stack word
    walking = 3
    pipeline = worker.Pipeline({"src": str(ROOT / "src")})
    vf = pipeline.verifier
    verify_event, checked_words = vf.verify_event, []

    def spy(event, ctx):
        verdict = verify_event(event, ctx)
        if verdict.reason in worker.CHECKED:
            checked_words.append(event.stack_words)
        return verdict

    # under the hooks, so that they see it as the program's verify_event
    monkeypatch.setattr(vf, "verify_event", spy)
    probe = {"checked_ms": [], "blocks": [], "probed": [], "cal_inside_s": 0.0}
    for apply in (lambda patches: pipeline._probes(patches, probe, 1), pipeline._trace):
        patches = tracing.Patches()
        try:
            apply(patches)
            assert pipeline.cli.main(argv) == 0
        finally:
            patches.undo()
    assert probe["blocks"]
    assert sum(map(len, probe["checked_ms"])) >= 1
    assert pipeline.tracer.calls("verifier.parse_event") == walking
    assert pipeline.tracer.calls("verifier.verify_event") == walking
    # the two names bound to None for the hooks are never called
    assert pipeline.tracer.calls("callgraph.enumerate") == 0
    assert pipeline.tracer.calls("verifier.subseq") == 0
    # a checked event reaches verify_event with its words converted, so
    # checked_ms times path matching and no parsing
    assert checked_words
    assert all(words and all(type(w) is int for w in words) for words in checked_words)
