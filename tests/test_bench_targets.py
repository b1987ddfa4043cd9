"""The benchmark's traced run must find every function it wraps.

`perfbench/worker.py` lists in `TARGETS` the module attributes whose
calls the traced run records.  A rename in `src/` that drops one of them
makes `perfbench/run.py --trace 1` fail, so the names are checked here,
with the benchmark's own instrumentation code.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = PERFBENCH.parent / "src"


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


def test_no_wrapper_is_left_when_the_array_layer_loads_inside_the_traced_run():
    # A fresh `steady` or `sweep` process has not imported `pipeline` or
    # `synth` when tracing starts; importing them inside the traced run
    # must bind no wrapper that outlives it.
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(PERFBENCH)!r})\n"
        "import cavitycool.cli, spans, worker\n"
        "with spans.instrumented(spans.Tracer(), 'cavitycool', worker.TARGETS):\n"
        "    pass\n"
        "print(json.dumps(spans.leftover_wrappers('cavitycool')))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=False
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_the_benchmark_s_file_round_trip_checks_its_outputs():
    # One default 600-shot CLI simulate and analyze: the benchmark checks
    # the porcelain against in-process `analyze_run` and that the output
    # digests repeat, and exits 0 only when every check passed.
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", "file_roundtrip",
         "--seed", "1", "--seconds", "0.5", "--trace", "0"],
        capture_output=True, text=True, cwd=PERFBENCH.parent, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
