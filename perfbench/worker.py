"""Child process of the benchmark: everything that imports cavitycool.

`run.py` starts this script in a fresh interpreter with the checkout's
`src/` on PYTHONPATH, so each child pays interpreter start and import
exactly as a user does.  Subcommands:

  setup      import, build the default config, optionally run one
             warm-up closure, print READY and exit
  closure    as setup with warm-up, print READY, then time seeded
             simulate_run -> analyze_run closures for --seconds, each
             between two passes of the reference kernel
  reference  print the porcelain values the CLI must reproduce,
             computed in-process
  trace      run one workload's operations in-process, untraced and then
             traced, and print the per-layer summary

Every subcommand prints its result as one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import sys
import time

from refkernel import reference_seconds
from spans import Tracer, instrumented, layer_summary, leftover_wrappers, write_spans

clock = time.perf_counter

# Traced operations per trace run; bounds span memory and the spans file.
MAX_TRACED_OPS = 20
# Closures whose estimates enter the bias figures; a fixed count keeps
# those figures a function of the seed alone.
BIAS_CLOSURES = 20
# Seed of the untimed warm-up closure (criterion 6's first seed).  It is
# fixed because a closure's cost depends on its seed, up to threefold,
# and the warm-up is part of `setup_s`.
WARMUP_SEED = 1000


def _size(counts, args, result, key):
    counts[key] += os.path.getsize(args[0])


def _write_bytes(counts, args, result):
    _size(counts, args, result, "tracefile.write.bytes")


def _read_bytes(counts, args, result):
    _size(counts, args, result, "tracefile.read.bytes")


def _trace_samples(counts, args, result):
    counts["synth.samples"] += len(result)


def _evolve_samples(counts, args, result):
    counts["dynamics.evolve.samples"] += len(result)


def _fit_outcome(counts, args, result):
    counts["analysis.fit.converged"] += bool(result.converged)
    counts["analysis.fit.collapsed"] += bool(result.collapsed_single)


# (owner, attribute, layer, counter) for every wrapped public function.
TARGETS = [
    ("cavitycool.config", "default_run_config", "config.load", None),
    ("cavitycool.config", "load_run_config", "config.load", None),
    ("cavitycool.thermal", "sweep_mode_temperature", "thermal.sweep", None),
    ("cavitycool.receiver", "system_output_noise_kelvin", "receiver.output_noise", None),
    ("cavitycool.receiver", "infer_mode_temperature", "receiver.infer", None),
    ("cavitycool.dynamics", "evolve_occupancy", "dynamics.evolve", _evolve_samples),
    ("cavitycool.synth", "synthesize_shot_ensemble", "synth.ensemble", None),
    ("cavitycool.synth", "synthesize_trace", "synth.trace", _trace_samples),
    ("cavitycool.synth.NoiseTrace", "slice_time", "synth.slice", None),
    ("cavitycool.analysis", "subtract_mean_artifact", "analysis.mean_subtract", None),
    ("cavitycool.analysis", "extract_noise", "analysis.boxcar", None),
    ("cavitycool.analysis", "segment_deltap", "analysis.levels", None),
    ("cavitycool.analysis", "pooled_mean_square", "analysis.levels", None),
    ("cavitycool.analysis", "ensemble_spectral_density", "analysis.psd", None),
    ("cavitycool.analysis", "windowed_deltap_timeseries", "analysis.series", None),
    ("cavitycool.analysis", "fit_biexponential", "analysis.fit", _fit_outcome),
    ("cavitycool.pipeline", "simulate_run", "pipeline.simulate", None),
    ("cavitycool.pipeline", "analyze_run", "pipeline.analyze", None),
    ("cavitycool.tracefile", "write_trace_csv", "tracefile.write", _write_bytes),
    ("cavitycool.tracefile", "write_trajectory_csv", "tracefile.write", _write_bytes),
    ("cavitycool.tracefile", "write_table_csv", "tracefile.write", _write_bytes),
    ("cavitycool.tracefile", "write_key_values", "tracefile.write", _write_bytes),
    ("cavitycool.tracefile", "read_trace_csv", "tracefile.read", _read_bytes),
    ("cavitycool.tracefile", "read_key_values", "tracefile.read", _read_bytes),
    ("cavitycool.cli", "cmd_steady", "cli.steady", None),
    ("cavitycool.cli", "cmd_sweep", "cli.sweep", None),
    ("cavitycool.cli", "cmd_simulate", "cli.simulate", None),
    ("cavitycool.cli", "cmd_analyze", "cli.analyze", None),
]


def _fmt(value) -> str:
    return repr(float(value))


def closure(cc, base, seed: int) -> dict:
    """One seeded simulate_run -> analyze_run closure, timed per step.

    Functions are looked up through their modules on every call so that
    the traced run sees its wrappers.
    """
    cfg = cc.config.with_seed(base, seed)
    t0 = clock()
    sim = cc.pipeline.simulate_run(cfg)
    t1 = clock()
    report = cc.pipeline.analyze_run(sim.traces, cfg, sim.disconnect_time_s)
    t2 = clock()
    return {
        "seed": seed,
        "step1_s": t1 - t0,
        "step2_s": t2 - t1,
        "deltap_db": report.deltap_direct.value_db,
        "tau_s": report.warmup_time_s,
        "converged": bool(report.fit is not None and report.fit.converged),
    }


def _safe_closure(cc, base, seed: int) -> dict:
    try:
        return closure(cc, base, seed)
    except Exception as exc:  # a failed operation is counted, not fatal
        return {"seed": seed, "error": f"{type(exc).__name__}: {exc}"}


def truth(cc, cfg) -> dict:
    """Seeded ground truth the closure estimates are compared against."""
    ambient_baths = cfg.baths.subset(cfg.persistent_port_indices())
    cooled = cc.thermal.mode_temperature(cfg.baths)
    ambient = cc.thermal.mode_temperature(ambient_baths)
    return {
        "tau_s": cc.dynamics.relaxation_time(cfg.mode, ambient_baths),
        "deltap_db": cc.receiver.noise_power_reduction_db(cfg.receiver, cooled, ambient),
        "n_shots": cfg.n_shots,
    }


def expected_steady(cc, cfg) -> dict:
    """`steady --porcelain` values computed with the library functions."""
    ambient_baths = cfg.baths.subset(cfg.persistent_port_indices())
    cooled = cc.thermal.mode_temperature(cfg.baths)
    ambient = cc.thermal.mode_temperature(ambient_baths)
    f0 = cfg.mode.frequency_hz
    return {
        "t_mode_cooled_k": _fmt(cooled),
        "occupancy_cooled": _fmt(cc.thermal.photon_occupancy(f0, cooled)),
        "t_mode_ambient_k": _fmt(ambient),
        "occupancy_ambient": _fmt(cc.thermal.photon_occupancy(f0, ambient)),
        "deltap_predicted_db": _fmt(
            cc.receiver.noise_power_reduction_db(cfg.receiver, cooled, ambient)
        ),
    }


def expected_analyze(cc, base, seed: int) -> dict:
    """`analyze --porcelain` values of an in-process analyze_run on `seed`."""
    cfg = cc.config.with_seed(base, seed)
    sim = cc.pipeline.simulate_run(cfg)
    report = cc.pipeline.analyze_run(sim.traces, cfg, sim.disconnect_time_s)
    out = {
        "n_shots": str(report.n_shots),
        "deltap_direct_db": _fmt(report.deltap_direct.value_db),
        "deltap_direct_stderr_db": _fmt(report.deltap_direct.stderr_db),
    }
    if report.deltap_band is not None:
        out["deltap_band_db"] = _fmt(report.deltap_band.value_db)
        out["deltap_band_stderr_db"] = _fmt(report.deltap_band.stderr_db)
    fit = report.fit
    if fit is not None:
        out.update(
            fit_a1_db=_fmt(fit.a1_db),
            fit_a2_db=_fmt(fit.a2_db),
            fit_tau1_s=_fmt(fit.tau1_s),
            fit_tau2_s=_fmt(fit.tau2_s),
            fit_residual_rms_db=_fmt(fit.residual_rms_db),
            fit_converged=str(fit.converged).lower(),
            fit_collapsed_single=str(fit.collapsed_single).lower(),
            warmup_time_s=_fmt(report.warmup_time_s),
            warmup_stderr_s=_fmt(report.warmup_stderr_s),
        )
    if report.depth_db is not None:
        out["depth_fit_db"] = _fmt(report.depth_db.value_db)
        out["depth_fit_stderr_db"] = _fmt(report.depth_db.stderr_db)
    out["t_mode_inferred_k"] = _fmt(report.t_mode_inferred_k)
    out["t_ambient_reference_k"] = _fmt(report.t_ambient_reference_k)
    return out


def cli_steps(workload: str, seed: int, out_dir: str) -> list[list[str]]:
    """argv of the two CLI steps of one operation of a CLI workload."""
    if workload == "file_roundtrip":
        return [
            ["simulate", "--seed", str(seed), "--out", out_dir, "--porcelain"],
            ["analyze", os.path.join(out_dir, "run.meta"), "--porcelain"],
        ]
    return [["steady", "--porcelain"], ["sweep", "--porcelain", "--out", out_dir]]


def _cli_op(cc, steps) -> list[dict]:
    results = []
    for argv in steps:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cc.cli.main(argv)
        results.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
    return results


def _setup(warmup: bool):
    import cavitycool as cc

    base = cc.config.default_run_config()
    if warmup:
        closure(cc, base, WARMUP_SEED)
    return cc, base


def cmd_setup(args) -> dict:
    _setup(args.warmup)
    print("READY", flush=True)
    return {}


def cmd_closure(args) -> dict:
    cc, base = _setup(True)
    print("READY", flush=True)
    ops = []
    start = clock()
    ref_before = reference_seconds()
    while len(ops) < BIAS_CLOSURES or clock() - start < args.seconds:
        op = _safe_closure(cc, base, args.first_seed + len(ops))
        ref_after = reference_seconds()
        op["ref_s"] = 0.5 * (ref_before + ref_after)
        ref_before = ref_after
        ops.append(op)
    return {"ops": ops, "truth": truth(cc, base)}


def cmd_reference(args) -> dict:
    cc, base = _setup(None)
    out = {"steady": expected_steady(cc, base)}
    if args.analyze_seed is not None:
        out["analyze"] = expected_analyze(cc, base, args.analyze_seed)
    return out


def _timed(tracer: "Tracer | None", fn):
    """Run `fn` inside a root span when tracing; return (seconds, result)."""
    t0 = clock()
    if tracer is None:
        result = fn()
    else:
        with tracer.span("bench.op"):
            result = fn()
    return clock() - t0, result


def cmd_trace(args) -> dict:
    """Untraced operations, then the same operations traced.

    Closures: the untraced phase takes 60 % of --seconds, the traced
    phase repeats its first seeds.  CLI workloads: after one untimed
    operation, untraced and traced operations alternate, each in a fresh
    output directory.
    """
    cc, base = _setup(args.workload == "closure")
    import cavitycool.cli  # noqa: F401  (not imported by the package itself)

    tracer = Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    result: dict = {"expected_steady": expected_steady(cc, base)}
    if args.workload == "file_roundtrip":
        result["expected_analyze"] = expected_analyze(cc, base, args.first_seed)
    start = clock()

    if args.workload == "closure":
        ops = []
        while len(ops) < BIAS_CLOSURES or clock() - start < 0.6 * args.seconds:
            seed = args.first_seed + len(ops)
            seconds, op = _timed(None, lambda: _safe_closure(cc, base, seed))
            untraced.append(seconds)
            ops.append(op)
        traced_ops = []
        with instrumented(tracer, "cavitycool", TARGETS):
            wall0 = clock()
            # The CLI loads its configuration on every call; a closure
            # loop does it once, here.
            cc.config.default_run_config()
            while len(traced_ops) < min(MAX_TRACED_OPS, len(ops)) and (
                len(traced_ops) < 3 or clock() - start < args.seconds
            ):
                seed = args.first_seed + len(traced_ops)
                seconds, op = _timed(tracer, lambda: _safe_closure(cc, base, seed))
                traced.append(seconds)
                traced_ops.append(op)
            traced_wall = clock() - wall0
        result.update(ops=ops, traced_ops=traced_ops, truth=truth(cc, base))
    else:
        # An untimed first operation, as the closure loop's warm-up.
        warmup_dir = os.path.join(args.dir, "warmup")
        _cli_op(cc, cli_steps(args.workload, args.first_seed, warmup_dir))
        shutil.rmtree(warmup_dir)
        start = clock()
        outputs = []
        pair_s = 0.0
        while not traced or (
            len(traced) < MAX_TRACED_OPS and clock() - start + pair_s <= args.seconds
        ):
            pair0 = clock()
            pair = {}
            for label, targets, times in (("untraced", [], untraced), ("traced", TARGETS, traced)):
                out_dir = os.path.join(args.dir, label)
                shutil.rmtree(out_dir, ignore_errors=True)
                steps = cli_steps(args.workload, args.first_seed, out_dir)
                with instrumented(tracer, "cavitycool", targets):
                    seconds, pair[label] = _timed(
                        tracer if targets else None, lambda: _cli_op(cc, steps)
                    )
                times.append(seconds)
            outputs.append(pair)
            pair_s = clock() - pair0
        traced_wall = sum(traced)
        result["outputs"] = outputs

    write_spans(args.spans, tracer.spans)
    summary = layer_summary(tracer.spans)
    result.update(
        layers=summary,
        counts=dict(tracer.counts),
        untraced_s=untraced,
        traced_s=traced,
        traced_wall_s=traced_wall,
        span_count=len(tracer.spans),
        leftover=leftover_wrappers("cavitycool"),
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--warmup", action="store_true")
    p.set_defaults(func=cmd_setup)
    p = sub.add_parser("closure")
    p.add_argument("--first-seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.set_defaults(func=cmd_closure)
    p = sub.add_parser("reference")
    p.add_argument("--analyze-seed", type=int)
    p.set_defaults(func=cmd_reference)
    p = sub.add_parser("trace")
    p.add_argument("--workload", required=True)
    p.add_argument("--first-seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--spans", required=True)
    p.set_defaults(func=cmd_trace)
    args = parser.parse_args(argv)
    result = args.func(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
