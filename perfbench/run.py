"""cavitycool benchmark: one command, three workloads, checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload closure --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each exists):

  closure         seeded simulate_run -> analyze_run closures in one process
  file_roundtrip  fresh-process `cavitycool simulate --out` then `analyze`
  cold_predict    fresh-process `cavitycool steady` and `cavitycool sweep`

With `--trace 0` the end-to-end metrics are measured with nothing
instrumented; `--trace 1` runs the separate traced run and reports the
per-layer metrics.  Human-readable lines come first; the last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  The exit code is 0 only when every correctness check passed.

This script never imports cavitycool: everything that does runs in
child interpreters (`worker.py`, the CLI) with the checkout's `src/` on
PYTHONPATH, so each child pays interpreter start and import as a user
does, and a checkout without `src/` fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from refkernel import reference_seconds
from worker import BIAS_CLOSURES, cli_steps

clock = time.perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKER = BENCH_DIR / "worker.py"
WORK_DIR = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("closure", "file_roundtrip", "cold_predict")
# Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_REPEATS = 5
# setup_s is in seconds at the speed where one reference-kernel pass
# takes this long (its typical time on the machine in README.md).
REF_PASS_S = 0.035
# `-X importtime` children per traced run; import.* are their medians.
IMPORTTIME_REPEATS = 3
# Period of the reference-kernel passes taken while a CLI child runs.
PROBE_INTERVAL_S = 0.5
# No single child may run longer than this; the whole run must end in 180 s.
CHILD_TIMEOUT_S = 120.0
# Acceptance criterion 6: |dP + 3.5| <= 0.4 dB and |tau - 9.0| <= 1.5 us,
# met by at least 90 % of seeded closures.
DELTAP_WINDOW_DB = (-3.5, 0.4)
TAU_WINDOW_S = (9.0e-6, 1.5e-6)
MAX_MISSED_CLOSURE_FRAC = 0.10
SWEEP_ROWS = 25 * 25
SWEEP_HEADER = "coupling,load_temperature_k,mode_temperature_k"
# Percentiles tried for the tail, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
IMPORT_MODULES = ("cavitycool", "scipy.signal", "scipy.optimize", "scipy.stats", "numpy")

# Names of each workload's two timed steps and whole operation, in raw seconds.
STEP_NAMES = {
    "closure": ("simulate_run_s", "analyze_run_s", "closure_s"),
    "file_roundtrip": ("simulate_cli_s", "analyze_cli_s", "roundtrip_s"),
    "cold_predict": ("steady_cli_s", "sweep_cli_s", "predict_s"),
}

# Operation times are reported in units of the reference kernel's time
# measured around them ("ref"), which is steady on a shared host; the
# raw seconds are printed alongside.
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_ref.p50": "ref",
    "step1_ref.p50": "ref",
    "step2_ref.p50": "ref",
}

# Layer metrics read from the span summary: name -> (layer, field).
SPAN_METRICS = {
    "synth.ensemble.s": ("synth.ensemble", "s"),
    "synth.ensemble.self_s": ("synth.ensemble", "self_s"),
    "synth.trace.calls": ("synth.trace", "calls"),
    "synth.slice.s": ("synth.slice", "s"),
    "synth.slice.calls": ("synth.slice", "calls"),
    "receiver.output_noise.s": ("receiver.output_noise", "s"),
    "receiver.output_noise.calls": ("receiver.output_noise", "calls"),
    "analysis.mean_subtract.s": ("analysis.mean_subtract", "s"),
    "analysis.boxcar.s": ("analysis.boxcar", "s"),
    "analysis.boxcar.calls": ("analysis.boxcar", "calls"),
    "analysis.levels.s": ("analysis.levels", "s"),
    "analysis.psd.s": ("analysis.psd", "s"),
    "analysis.series.s": ("analysis.series", "s"),
    "analysis.fit.s": ("analysis.fit", "s"),
    "pipeline.simulate.self_s": ("pipeline.simulate", "self_s"),
    "pipeline.analyze.self_s": ("pipeline.analyze", "self_s"),
    "tracefile.write.s": ("tracefile.write", "s"),
    "tracefile.write.files": ("tracefile.write", "calls"),
    "tracefile.read.s": ("tracefile.read", "s"),
    "tracefile.read.files": ("tracefile.read", "calls"),
    "dynamics.evolve.s": ("dynamics.evolve", "s"),
    "receiver.infer.s": ("receiver.infer", "s"),
    "thermal.sweep.s": ("thermal.sweep", "s"),
    "cli.steady.self_s": ("cli.steady", "self_s"),
    "cli.sweep.self_s": ("cli.sweep", "self_s"),
    "cli.simulate.self_s": ("cli.simulate", "self_s"),
    "cli.analyze.self_s": ("cli.analyze", "self_s"),
}
# Counters kept by the wrappers, reported per traced operation.
COUNTER_METRICS = (
    "synth.samples",
    "dynamics.evolve.samples",
    "tracefile.write.bytes",
    "tracefile.read.bytes",
)


def _unit(name: str) -> str:
    if name.endswith((".calls", ".files", ".samples", "_n")) or name == "trace.spans":
        return "count"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(("_ratio", "_coverage", "_bias")):
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_db"):
        return "dB"
    return "s"


LAYER_NAMES = (
    list(SPAN_METRICS)
    + list(COUNTER_METRICS)
    + ["analysis.fit.converged_ratio", "analysis.fit.collapsed_ratio", "config.load.s"]
    + [f"import.{m}.s" for m in IMPORT_MODULES]
    + ["op_s.p50", "op_s.tail", "op_s.tail_pct", "op_s.tail_n", "tau_rel_bias", "deltap_bias_db"]
    + ["trace.overhead_ratio", "trace.self_coverage", "trace.spans", "criterion6.miss_ratio"]
)
LAYER_UNITS = {name: _unit(name) for name in LAYER_NAMES}


# ---------------------------------------------------------------- statistics


def tail(samples) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest percentile of
    TAIL_LADDER with at least TAIL_MIN_BEYOND samples above it.

    Percentiles use the nearest-rank rule.  When even the median has
    fewer samples beyond it, the median is returned with its count.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= TAIL_MIN_BEYOND:
            return pct, xs[rank - 1], n - rank
    rank = max(1, math.ceil(0.5 * n))
    return 50.0, xs[rank - 1], n - rank


# -------------------------------------------------------------- child runs


@dataclass
class Child:
    code: int
    stdout: str
    stderr: str
    elapsed_s: float
    ready_s: "float | None"
    max_rss_mb: float

    def last_json(self) -> dict:
        return json.loads(self.stdout.strip().splitlines()[-1])


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # BLAS pools no larger than the CPUs this process may use.
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = nproc
    return env


def run_child(argv, *, ready: bool = False) -> Child:
    """Run one child to completion and collect its own resource usage.

    `elapsed_s` runs from just before the spawn to the reap.  With
    `ready`, `ready_s` is the time at which the child printed READY.
    """
    with tempfile.TemporaryFile(dir=WORK_DIR) as err:
        t0 = clock()
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=err, env=child_env(), cwd=ROOT
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            ready_s = None
            lines = []
            for line in proc.stdout:
                if ready and ready_s is None and line.strip() == b"READY":
                    ready_s = clock() - t0
                else:
                    lines.append(line)
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = clock() - t0
        finally:
            timer.cancel()
            proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return Child(
        proc.returncode,
        b"".join(lines).decode(errors="replace"),
        stderr,
        elapsed,
        ready_s,
        usage.ru_maxrss / 1024.0,
    )


def worker(*args: str, ready: bool = False) -> Child:
    return run_child([sys.executable, str(WORKER), *args], ready=ready)


def cli(*args: str) -> Child:
    return run_child([sys.executable, "-m", "cavitycool.cli", *args])


class SpeedProbe:
    """Passes of the reference kernel before, during and after a child
    process that runs on the same CPU; `ref_s` is their mean.

    A pass during the child takes the CPU from it for a few percent of
    the time, on every commit alike.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(PROBE_INTERVAL_S):
            self.samples.append(reference_seconds())

    def __enter__(self) -> "SpeedProbe":
        self.samples.append(reference_seconds())
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.samples.append(reference_seconds())

    @property
    def ref_s(self) -> float:
        return statistics.fmean(self.samples)


def probed_cli(*args: str) -> tuple[Child, float]:
    """A CLI child and the reference-kernel seconds sampled while it ran."""
    with SpeedProbe() as probe:
        child = cli(*args)
    return child, probe.ref_s


class BenchError(RuntimeError):
    """A child failed in a way that leaves nothing to measure."""


def checked(child: Child, what: str) -> Child:
    if child.code != 0:
        raise BenchError(f"{what} exited {child.code}: {child.stderr.strip()[-2000:]}")
    return child


def setup_times(warmup: bool, repeats: int) -> list[tuple[float, float]]:
    """(spawn-to-READY seconds, reference-kernel seconds sampled while
    it ran) of fresh set-up-only children."""
    extra = ["--warmup"] if warmup else []
    times = []
    for _ in range(repeats):
        with SpeedProbe() as probe:
            child = checked(worker("setup", *extra, ready=True), "setup")
        times.append((child.ready_s, probe.ref_s))
    return times


def parse_importtime(text: str, namespaces=IMPORT_MODULES) -> dict[str, float]:
    """Seconds spent importing each namespace, from `python -X importtime` stderr.

    A module's cumulative time counts toward a namespace when it is the
    namespace's package or one of its submodules and no enclosing import
    already belongs to that namespace.  Summing such top-most entries
    also covers packages loaded through `importlib` (scipy's lazy
    submodules), which importtime does not log under their own name.
    Time goes to the first importer, so a namespace first imported while
    importing another (scipy.stats under scipy.signal) counts in both.
    """
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        try:
            cumulative_us = int(parts[1])
        except ValueError:
            continue  # the column header
        label = parts[2]
        level = (len(label) - len(label.lstrip(" ")) - 1) // 2
        rows.append((level, label.strip(), cumulative_us))
    totals = dict.fromkeys(namespaces, 0.0)
    enclosing: list[str] = []
    # importtime prints an import after everything it imported, so in
    # reverse order each line's enclosing imports come before it.
    for level, name, cumulative_us in reversed(rows):
        del enclosing[level:]
        for ns in namespaces:
            if _in_namespace(name, ns) and not any(_in_namespace(m, ns) for m in enclosing):
                totals[ns] += cumulative_us / 1e6
        enclosing.append(name)
    return totals


def _in_namespace(module: str, namespace: str) -> bool:
    return module == namespace or module.startswith(namespace + ".")


def import_times() -> dict[str, float]:
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        child = checked(
            run_child([sys.executable, "-X", "importtime", "-c", "import cavitycool"]),
            "import",
        )
        runs.append(parse_importtime(child.stderr))
    return {f"import.{m}.s": statistics.median(r[m] for r in runs) for m in IMPORT_MODULES}


def porcelain(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def tree_digest(path: Path) -> str:
    """sha256 over the relative names and bytes of every file under `path`."""
    h = hashlib.sha256()
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(file.relative_to(path)).encode() + b"\0")
        h.update(file.read_bytes())
    return h.hexdigest()


def first_run_seed(seed: int) -> int:
    """Master seed of a workload's first run; later closures count up."""
    return 1000 + (100_000 * seed) % (2**31)


# ------------------------------------------------------------ outcomes


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)

    def fail(self, message: str, count: bool = True) -> None:
        self.failed += count
        self.problems.append(message)


def differences(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    """Keys whose porcelain text differs from the in-process value."""
    return [
        f"{k}: {actual.get(k)!r} != {v!r}" for k, v in expected.items() if actual.get(k) != v
    ]


def misses_criterion_6(op: dict) -> bool:
    """True when a closure misses criterion 6: its warm-up fit did not
    converge, an estimate is not finite, or one is outside the windows."""
    return (
        not op["converged"]
        or not (math.isfinite(op["deltap_db"]) and math.isfinite(op["tau_s"]))
        or abs(op["deltap_db"] - DELTAP_WINDOW_DB[0]) > DELTAP_WINDOW_DB[1]
        or abs(op["tau_s"] - TAU_WINDOW_S[0]) > TAU_WINDOW_S[1]
    )


def check_closures(ops: list[dict], out: Outcome) -> None:
    """Criterion 6 applied to a run's closures.

    Like criterion 6 itself, which asks that 90 of 100 seeded closures
    pass, misses are judged over the whole run: the run fails when more
    than 10 % of its closures miss.  Only a closure that raised, an
    output the program never gave, counts in `failed`, and it always
    fails the run.
    """
    misses = 0
    for op in ops:
        out.attempted += 1
        if "error" in op:
            out.fail(f"closure seed {op['seed']}: {op['error']}")
        elif misses_criterion_6(op):
            misses += 1
    if ops and misses / len(ops) > MAX_MISSED_CLOSURE_FRAC:
        out.fail(f"{misses}/{len(ops)} closures missed criterion 6", count=False)
    out.lines.append(f"criterion_6_misses = {misses} of {len(ops)} closures")


def biases(ops: list[dict], truth: dict) -> dict[str, float]:
    """Bias of the first closures' mean estimates against the ground truth."""
    good = [
        op for op in ops[:BIAS_CLOSURES]
        if "error" not in op and math.isfinite(op["tau_s"]) and math.isfinite(op["deltap_db"])
    ]
    if not good:
        return {"tau_rel_bias": 0.0, "deltap_bias_db": 0.0}
    tau = statistics.fmean(op["tau_s"] for op in good)
    deltap = statistics.fmean(op["deltap_db"] for op in good)
    return {
        "tau_rel_bias": abs(tau / truth["tau_s"] - 1.0),
        "deltap_bias_db": abs(deltap - truth["deltap_db"]),
    }


def e2e_metrics(setups, rss_mb, step1, step2, ref1, ref2) -> dict[str, float]:
    """End-to-end metrics from per-operation step seconds and the
    reference-kernel seconds measured around each step.

    Set-up times are scaled the same way and then read in seconds at a
    host speed of REF_PASS_S per reference pass, because the contract
    asks for `setup_s` in seconds.
    """
    r1 = [s / r for s, r in zip(step1, ref1)]
    r2 = [s / r for s, r in zip(step2, ref2)]
    return {
        "setup_s": statistics.median(s / r for s, r in setups) * REF_PASS_S,
        "peak_rss_mb": rss_mb,
        "op_ref.p50": statistics.median(a + b for a, b in zip(r1, r2)),
        "step1_ref.p50": statistics.median(r1),
        "step2_ref.p50": statistics.median(r2),
    }


def seconds_lines(workload: str, setups, step1, step2) -> list[str]:
    """Raw wall-time medians under the workload's own step names."""
    name1, name2, name_op = STEP_NAMES[workload]
    ops = [a + b for a, b in zip(step1, step2)]
    return [
        f"setup_wall_s.p50 = {statistics.median(s for s, _ in setups):.6f} s",
        f"{name1}.p50 = {statistics.median(step1):.6f} s",
        f"{name2}.p50 = {statistics.median(step2):.6f} s",
        f"{name_op}.p50 = {statistics.median(ops):.6f} s",
    ]


# ------------------------------------------------------------ workloads


def closure_run(seed: int, seconds: float) -> Outcome:
    out = Outcome()
    first = first_run_seed(seed)
    setups = setup_times(True, SETUP_REPEATS)
    child = checked(
        worker("closure", "--first-seed", str(first), "--seconds", str(seconds), ready=True),
        "closure worker",
    )
    data = child.last_json()
    ops, truth = data["ops"], data["truth"]
    check_closures(ops, out)
    timed = [op for op in ops if "error" not in op]
    step1 = [op["step1_s"] for op in timed]
    step2 = [op["step2_s"] for op in timed]
    ref = [op["ref_s"] for op in timed]
    out.metrics = e2e_metrics(setups, child.max_rss_mb, step1, step2, ref, ref)
    closures = [a + b for a, b in zip(step1, step2)]
    pct, value, beyond = tail(closures)
    extra = biases(ops, truth)
    out.lines += seconds_lines("closure", setups, step1, step2) + [
        f"closure_s.tail = {value:.6f} s (p{pct:g}, {beyond} of {len(timed)} samples beyond)",
        f"closure_shots_per_s = {truth['n_shots'] * len(closures) / sum(closures):.1f} 1/s",
        f"tau_rel_bias = {extra['tau_rel_bias']:.6f} ratio",
        f"deltap_bias_db = {extra['deltap_bias_db']:.6f} dB",
    ]
    return out


def check_cli_op(workload: str, steps, children, reference: dict, out_dir: Path) -> list[str]:
    """Problems with one CLI operation; empty when it is correct."""
    for argv, child in zip(steps, children):
        if child.code != 0:
            return [f"`cavitycool {' '.join(argv)}` exited {child.code}: {child.stderr.strip()[-500:]}"]
    if workload == "file_roundtrip":
        diff = differences(reference["analyze"], porcelain(children[1].stdout))
        return ["analyze porcelain differs from in-process analyze_run: " + "; ".join(diff)] if diff else []
    problems = []
    diff = differences(reference["steady"], porcelain(children[0].stdout))
    if diff:
        problems.append("steady porcelain differs from the in-process values: " + "; ".join(diff))
    sweep = (out_dir / "sweep.csv").read_text().splitlines()
    if sweep[:1] != [SWEEP_HEADER] or len(sweep) - 1 != SWEEP_ROWS:
        problems.append(f"sweep.csv has {len(sweep) - 1} data rows, expected {SWEEP_ROWS}")
    return problems


def reference_values(workload: str, run_seed: int) -> dict:
    extra = ["--analyze-seed", str(run_seed)] if workload == "file_roundtrip" else []
    return checked(worker("reference", *extra), "reference").last_json()


def cli_run(workload: str, seed: int, seconds: float, tmp: Path) -> Outcome:
    """Fresh-process CLI operations, each checked; the output digest must repeat."""
    out = Outcome()
    run_seed = first_run_seed(seed)
    setups = setup_times(False, SETUP_REPEATS)
    reference = reference_values(workload, run_seed)
    out_dir = tmp / "out"
    steps = cli_steps(workload, run_seed, str(out_dir))
    step1, step2, ref1, ref2, rss, digests = [], [], [], [], 0.0, set()
    start = clock()
    while not step1 or clock() - start < seconds:
        shutil.rmtree(out_dir, ignore_errors=True)
        children = []
        for argv, refs in zip(steps, (ref1, ref2)):
            child, ref = probed_cli(*argv)
            children.append(child)
            refs.append(ref)
        out.attempted += 1
        step1.append(children[0].elapsed_s)
        step2.append(children[1].elapsed_s)
        rss = max([rss] + [c.max_rss_mb for c in children])
        problems = check_cli_op(workload, steps, children, reference, out_dir)
        if problems:
            out.fail(problems[0])
            out.problems += problems[1:]
        else:
            digests.add(tree_digest(out_dir))
    if len(digests) > 1:
        out.fail(f"output digest differs between iterations ({len(digests)} digests)", count=False)
    out.metrics = e2e_metrics(setups, rss, step1, step2, ref1, ref2)
    out.lines += seconds_lines(workload, setups, step1, step2)
    return out


# ------------------------------------------------------------ traced run


def layer_metrics(data: dict, imports: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from a worker's trace summary, per traced operation.

    Layers a workload never reaches read 0, and so do the bias figures
    and the criterion 6 miss ratio on workloads without closure estimates.
    """
    n = max(1, len(data["traced_s"]))
    layers, counts = data["layers"], data["counts"]
    m = {
        name: layers.get(layer, {}).get(key, 0.0) / n
        for name, (layer, key) in SPAN_METRICS.items()
    }
    m.update({name: counts.get(name, 0) / n for name in COUNTER_METRICS})
    fits = layers.get("analysis.fit", {}).get("calls", 0)
    m["analysis.fit.converged_ratio"] = counts.get("analysis.fit.converged", 0) / fits if fits else 0.0
    m["analysis.fit.collapsed_ratio"] = counts.get("analysis.fit.collapsed", 0) / fits if fits else 0.0
    config = layers.get("config.load", {})
    m["config.load.s"] = config["s"] / config["calls"] if config.get("calls") else 0.0
    m.update(imports)
    pct, value, beyond = tail(data["untraced_s"])
    m["op_s.p50"] = statistics.median(data["untraced_s"])
    m.update({"op_s.tail": value, "op_s.tail_pct": pct, "op_s.tail_n": beyond})
    self_sum = sum(layer["self_s"] for layer in layers.values())
    m["trace.overhead_ratio"] = statistics.median(data["traced_s"]) / statistics.median(
        data["untraced_s"]
    )
    m["trace.self_coverage"] = self_sum / data["traced_wall_s"]
    m["trace.spans"] = data["span_count"]
    if "truth" in data:
        m.update(biases(data["ops"], data["truth"]))
        ops = [op for op in data["ops"] if "error" not in op]
        m["criterion6.miss_ratio"] = sum(map(misses_criterion_6, ops)) / max(1, len(ops))
    else:
        m.update(tau_rel_bias=0.0, deltap_bias_db=0.0, **{"criterion6.miss_ratio": 0.0})
    return m


def hot_layers(data: dict, top: int = 8) -> list[str]:
    """Human-readable table of the layers with the most self time per operation."""
    n = max(1, len(data["traced_s"]))
    op = statistics.median(data["traced_s"])
    rows = sorted(((v["self_s"] / n, name) for name, v in data["layers"].items()), reverse=True)
    return [f"  {name:24s} {s:10.6f} s  {100 * s / op:5.1f} % of a traced op" for s, name in rows[:top]]


def trace_run(workload: str, seed: int, seconds: float, tmp: Path) -> Outcome:
    out = Outcome()
    first = first_run_seed(seed)
    imports = import_times()
    spans_path = WORK_DIR / f"spans-{workload}.jsonl"
    child = checked(
        worker(
            "trace", "--workload", workload, "--first-seed", str(first),
            "--seconds", str(seconds), "--dir", str(tmp), "--spans", str(spans_path),
        ),
        "trace worker",
    )
    data = child.last_json()
    if data["leftover"]:
        out.fail("wrappers left behind after the traced run: " + ", ".join(data["leftover"]))
    if workload == "closure":
        check_closures(data["ops"] + data["traced_ops"], out)
        key = lambda op: (op.get("deltap_db"), op.get("tau_s"), op.get("error"))  # noqa: E731
        changed = [
            op["seed"] for op, plain in zip(data["traced_ops"], data["ops"]) if key(op) != key(plain)
        ]
        if changed:
            out.fail(f"tracing changed the estimates of seeds {changed}", count=False)
    else:
        reference = {"steady": data["expected_steady"], "analyze": data.get("expected_analyze")}
        digests = set()
        for pair in data["outputs"]:
            for label, results in pair.items():
                out.attempted += 1
                out_dir = tmp / label
                steps = cli_steps(workload, first, str(out_dir))
                children = [Child(r["code"], r["stdout"], r["stderr"], 0.0, None, 0.0) for r in results]
                problems = check_cli_op(workload, steps, children, reference, out_dir)
                if problems:
                    out.fail(f"{label}: {problems[0]}")
                else:
                    digests.add(tree_digest(out_dir))
        if len(digests) > 1:
            out.fail("traced and untraced runs wrote different files", count=False)
    metrics = layer_metrics(data, imports)
    coverage = metrics["trace.self_coverage"]
    if not 0.95 <= coverage <= 1.0 + 1e-9:
        out.fail(f"span self times cover {coverage:.4f} of the traced wall time", count=False)
    out.metrics = metrics
    out.lines += [
        f"traced ops = {len(data['traced_s'])}, untraced ops = {len(data['untraced_s'])}, "
        f"spans = {data['span_count']} written to {spans_path.relative_to(ROOT)}",
        f"traced op median = {statistics.median(data['traced_s']):.6f} s, "
        f"untraced = {statistics.median(data['untraced_s']):.6f} s",
        f"import cavitycool = {imports['import.cavitycool.s']:.6f} s per fresh process",
        "layers with the most self time:",
        *hot_layers(data),
    ]
    return out


# ------------------------------------------------------------------ main


def spec_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(workload: str, seed: int, seconds: float, trace: bool, tmp: Path) -> Outcome:
    if trace:
        return trace_run(workload, seed, seconds, tmp)
    if workload == "closure":
        return closure_run(seed, seconds)
    return cli_run(workload, seed, seconds, tmp)


def report_lines(outcome: Outcome, units: dict[str, str]) -> list[str]:
    lines = []
    for name, value in outcome.metrics.items():
        lines.append(f"{name} = {value:.6g} {units[name]}")
    lines += outcome.lines
    lines.append(f"failed_frac = {outcome.failed / max(1, outcome.attempted):.4f}"
                 f" ({outcome.failed} of {outcome.attempted})")
    lines += [f"CHECK FAILED: {p}" for p in outcome.problems]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "cavitycool" / "__init__.py").is_file():
        print(f"error: no cavitycool sources under {SRC}", file=sys.stderr)
        return 2

    # One CPU for this process and every child, so the reference kernel
    # runs on the core the operation it calibrates ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    units = spec_units(bool(args.trace))
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    expected = E2E_UNITS if not args.trace else LAYER_UNITS
    if units != expected or set(outcome.metrics) != set(units):
        print("error: emitted metrics do not match BENCHMARK.json", file=sys.stderr)
        return 1

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for line in report_lines(outcome, units):
        print(line)
    correct = not outcome.problems
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
