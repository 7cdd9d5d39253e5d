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
