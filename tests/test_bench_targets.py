"""The benchmark's traced run must find every function it wraps.

`perfbench/worker.py` lists in `TARGETS` the module attributes whose
calls the traced run records.  A rename in `src/` that drops one of them
makes `perfbench/run.py --trace 1` fail, so the names are checked here,
with the benchmark's own instrumentation code.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_benchmark_target_resolves_and_is_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import cavitycool.cli  # noqa: F401  (its globals bind wrapped functions too)
    import spans
    import worker

    # An owner or attribute that no longer exists raises AttributeError here.
    with spans.instrumented(spans.Tracer(), "cavitycool", worker.TARGETS) as patches:
        patched = {name for _, name, _ in patches}
        assert {attr for _, attr, _, _ in worker.TARGETS} <= patched
    assert spans.leftover_wrappers("cavitycool") == []
