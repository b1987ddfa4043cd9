"""Command-line interface.

Four subcommands cover the workflow: `steady` for closed-form mode
temperatures and occupancies, `sweep` for a (coupling, cold-load) grid,
`simulate` for protocol trace generation, `analyze` for trace
reduction.  Exit codes: 0 success, 2 configuration problem, 3 I/O
failure, 4 malformed data file, 5 an estimate that does not count: a
failed, unconverged or uncooled warm-up fit, or a failed inversion.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

from . import __version__
from .config import (
    _MASK64,
    PORT_ROLE_COOLING,
    RunConfig,
    _key_names,
    _named,
    _refuse_non_finite,
    _steady_temperatures,
    config_digest,
    config_items,
    default_run_config,
    load_run_config,
    with_seed,
)
from .errors import AnalysisError, ConfigError, DataFormatError, DomainError
from .receiver import noise_power_reduction_db
from .thermal import photon_occupancy, sweep_mode_temperature

def _fmt(value: float) -> str:
    return repr(float(value))


def _finite_float(text: str) -> float:
    """Type of every float option: NaN and +-inf would pass its range checks."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"invalid finite float value: {text!r}")
    return value


def _seed(text: str) -> int:
    """Type of --seed: a 64-bit master seed."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if not 0 <= value <= _MASK64:
        raise argparse.ArgumentTypeError(f"invalid seed: {text!r} (need 0 to {_MASK64})")
    return value


# One row of command output: its porcelain (key, value) items and the human
# text that shows them, one line or (with a "\n") a few.
_Row = tuple[list[tuple[str, str]], str]


def _emit(args, rows: list[_Row]) -> None:
    """Print each row's items as `key=value` lines with --porcelain, else its line."""
    for items, line in rows:
        if args.porcelain:
            for key, value in items:
                print(f"{key}={value}")
        else:
            print(line)


def _outpath(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _sidecar(args) -> "str | None":
    """The run.meta path when `analyze` reads one sidecar, else None."""
    inputs = getattr(args, "inputs", [])
    return inputs[0] if len(inputs) == 1 and inputs[0].endswith(".meta") else None


def _where(args, field: "str | None" = None) -> str:
    """The prefix that names, in a refusal, the file that set `field`: a
    sidecar sets every key but the [analysis] keys that --config gives."""
    path, sidecar = args.config, _sidecar(args)
    if sidecar and not (path and _key_names(f"analysis.{field}")):
        path = sidecar
    return f"{path}: " if path else ""


def cmd_steady(args, cfg: RunConfig) -> None:
    cooled, ambient = _steady_temperatures(cfg)
    f0 = cfg.mode.frequency_hz
    n_cooled = photon_occupancy(f0, cooled)
    n_ambient = photon_occupancy(f0, ambient)
    deltap = noise_power_reduction_db(cfg.receiver, cooled, ambient)
    occupancies = [("occupancy_cooled", n_cooled), ("occupancy_ambient", n_ambient)]
    _refuse_non_finite(cfg, occupancies, "mode.frequency_hz", "baths")
    _refuse_non_finite(cfg, [("deltap_predicted_db", deltap)], "receiver", "baths")

    total = 1.0 + cfg.baths.total_coupling()
    rows = [
        ([("t_mode_cooled_k", _fmt(cooled)), ("occupancy_cooled", _fmt(n_cooled))],
         f"mode temperature, all ports connected : {cooled:10.3f} K  ({n_cooled:9.1f} photons)"),
        ([("t_mode_ambient_k", _fmt(ambient)), ("occupancy_ambient", _fmt(n_ambient))],
         f"mode temperature, monitoring only     : {ambient:10.3f} K  ({n_ambient:9.1f} photons)"),
        ([("deltap_predicted_db", _fmt(deltap))],
         f"predicted receiver noise level change : {deltap:10.3f} dB"),
        ([("weight_intrinsic", _fmt(1.0 / total))], "\nper-port delivered noise temperatures:"),
    ]
    for port in cfg.baths.ports:
        delivered = port.delivered_temperature_k()
        weight = port.coupling / total
        items = [(f"port.{port.name}.delivered_k", _fmt(delivered)),
                 (f"port.{port.name}.weight", _fmt(weight))]
        rows.append((items, f"  {port.name:12s} ({port.role:10s}) coupling {port.coupling:7.3f}"
                            f"  delivers {delivered:9.3f} K  weight {weight:6.3f}"))
    _emit(args, rows)


def _linear_axis(start: float, stop: float, num: int) -> list[float]:
    """`num` evenly spaced points from `start` to `stop` in numpy.linspace's
    operation order, so bit for bit its values: point i is `i * step + start`,
    or `i / div * delta + start` when the step underflows to 0, and the last
    point is `stop`."""
    div = num - 1
    delta = stop - start
    if div < 1:
        return [0.0 * delta + start] * num
    step = delta / div
    if step == 0:
        points = [i / div * delta + start for i in range(num)]
    else:
        points = [i * step + start for i in range(num)]
    points[-1] = stop
    return points


def _geometric_axis(start: float, stop: float, num: int) -> list[float]:
    """`num` >= 1 points from `start` to `stop`, both > 0, evenly spaced in
    log10 as numpy.geomspace spaces them: `10.0 ** y` over the linear axis
    from log10(start) to log10(stop), with the endpoints set back to
    `start` and `stop`."""
    points = [10.0**y for y in _linear_axis(math.log10(start), math.log10(stop), num)]
    points[0] = start
    if num > 1:
        points[-1] = stop
    return points


def cmd_sweep(args, cfg: RunConfig) -> None:
    from . import textformat

    if args.coupling_min <= 0 or args.coupling_max < args.coupling_min:
        raise ConfigError("need 0 < coupling-min <= coupling-max")
    if args.cold_min < 0 or args.cold_max < args.cold_min:
        raise ConfigError("need 0 <= cold-min <= cold-max")
    if args.coupling_points < 1 or args.cold_points < 1:
        raise ConfigError("point counts must be >= 1")

    # The named port, or else the first cooling port, or else the first port.
    field, wanted = ("role", PORT_ROLE_COOLING) if args.port is None else ("name", args.port)
    found = [i for i, port in enumerate(cfg.baths.ports) if getattr(port, field) == wanted]
    if not found and args.port is not None:
        raise ConfigError(f"no port named '{args.port}' in the configuration")
    port_index = (found or [0])[0]

    couplings = _geometric_axis(args.coupling_min, args.coupling_max, args.coupling_points)
    colds = _linear_axis(args.cold_min, args.cold_max, args.cold_points)
    grid = sweep_mode_temperature(cfg.baths, port_index, couplings, colds)
    overflows = [
        (f"mode_temperature_k at coupling {coupling!r}, load {cold!r} K", value)
        for coupling, row in zip(couplings, grid)
        for cold, value in zip(colds, row)
        if not math.isfinite(value)
    ]
    options = "--coupling-min, --coupling-max, --cold-min, --cold-max"
    _refuse_non_finite(cfg, overflows[:1], options, "baths")

    path = _outpath(args, "sweep.csv")
    table = (
        (coupling, cold, temperature)
        for coupling, row in zip(couplings, grid)
        for cold, temperature in zip(colds, row)
    )
    textformat.write_table_csv(
        path, ("coupling", "load_temperature_k", "mode_temperature_k"), table
    )
    size = len(couplings) * len(colds)
    items = [
        ("sweep_csv", path),
        ("swept_port", cfg.baths.ports[port_index].name),
        ("rows", str(size)),
    ]
    _emit(args, [(items, f"wrote {size} grid points to {path}")])


def cmd_simulate(args, cfg: RunConfig) -> None:
    from . import tracefile
    from .pipeline import simulate_run

    if args.seed is not None:
        cfg = with_seed(cfg, args.seed)
    result = simulate_run(cfg)
    # A run without noise has no level for `analyze` to form.
    variances = result.sample_variances
    _refuse_non_finite(cfg, variances, "voltage_scale", "receiver", "baths", positive=True)
    meta_path = tracefile.write_run(args.out, cfg, result)
    trajectory = tracefile.TRAJECTORY_FILE
    digest = config_digest(cfg)
    items = [
        ("run_meta", meta_path),
        ("config_digest", digest),
        ("n_traces", str(cfg.n_shots)),
        ("trajectory_csv", os.path.join(args.out, trajectory)),
    ]
    line = (
        f"wrote {cfg.n_shots} traces and {trajectory} to {args.out}\n"
        f"run sidecar: {meta_path}  (config digest {digest[:12]})"
    )
    _emit(args, [(items, line)])


def _load_analysis_inputs(args, cfg: RunConfig):
    """Resolve analyze inputs: either one .meta sidecar or trace CSVs.

    A sidecar supplies the run and its configuration: `--config` may
    change only its [analysis] keys.
    """
    from . import tracefile

    meta_path = _sidecar(args)
    if meta_path is None:
        return tracefile.read_trace_ensemble(args.inputs), cfg
    recorded, traces = tracefile.read_run(meta_path)
    if args.config is None:
        return traces, recorded
    run, given = dict(config_items(recorded)), dict(config_items(cfg))
    for key in dict.fromkeys([*run, *given]):
        if not key.startswith("analysis.") and run.get(key) != given.get(key):
            raise ConfigError(
                f"{meta_path} records {key}={run.get(key, '(none)')}, but "
                f"--config gives {given.get(key, '(none)')}; only "
                "[analysis] keys may differ from the run"
            )
    return traces, replace(recorded, analysis=cfg.analysis)


def _deltap_row(prefix: str, label: str, estimate) -> _Row:
    """The `<prefix>_db`/`<prefix>_stderr_db` items of a level estimate and
    its human line."""
    items = [(f"{prefix}_db", _fmt(estimate.value_db)),
             (f"{prefix}_stderr_db", _fmt(estimate.stderr_db))]
    return items, f"{label:34s}: {estimate.value_db:8.3f} +/- {estimate.stderr_db:.3f} dB"


def cmd_analyze(args, cfg: RunConfig) -> None:
    from . import textformat
    from .pipeline import analyze_run

    traces, cfg = _load_analysis_inputs(args, cfg)
    # Samples no level can be formed from (too large to square, or without
    # noise power) are refused, by what set them, before any level is printed.
    try:
        report = analyze_run(traces, cfg)
    except AnalysisError as exc:
        if _sidecar(args):
            raise DomainError(
                f"= {cfg.synth.voltage_scale!r} gives {exc}", field="voltage_scale"
            ) from None
        raise DataFormatError(f"{', '.join(args.inputs)}: {exc}") from None

    rows = [
        ([("n_shots", str(report.n_shots))], f"{'shots analyzed':34s}: {report.n_shots}"),
        _deltap_row("deltap_direct", "cooled vs ambient level (direct)", report.deltap_direct),
    ]
    if report.deltap_band is not None:
        rows.append(
            _deltap_row("deltap_band", "cooled vs ambient level (banded)", report.deltap_band)
        )
    if report.fit is not None:
        fit = report.fit
        items = [
            ("fit_a1_db", _fmt(fit.a1_db)),
            ("fit_a2_db", _fmt(fit.a2_db)),
            ("fit_tau1_s", _fmt(fit.tau1_s)),
            ("fit_tau2_s", _fmt(fit.tau2_s)),
            ("fit_residual_rms_db", _fmt(fit.residual_rms_db)),
            ("fit_converged", str(fit.converged).lower()),
            ("fit_collapsed_single", str(fit.collapsed_single).lower()),
            ("warmup_time_s", _fmt(report.warmup_time_s)),
            ("warmup_stderr_s", _fmt(report.warmup_stderr_s)),
            ("fit_nfev", str(fit.nfev)),
        ]
        rows.append((
            items,
            f"warm-up time constant             : {report.warmup_time_s * 1e6:8.3f}"
            f" +/- {report.warmup_stderr_s * 1e6:.3f} us",
        ))
        if report.depth_db is not None:
            rows.append(
                _deltap_row("depth_fit", "cooling depth (fit, at disconnect)", report.depth_db)
            )
    t_mode, t_ambient = report.t_mode_inferred_k, report.t_ambient_reference_k
    rows.append((
        [("t_mode_inferred_k", _fmt(t_mode)), ("t_ambient_reference_k", _fmt(t_ambient))],
        f"inferred cooled mode temperature  : {t_mode:8.3f} K"
        f"  (ambient reference {t_ambient:.3f} K)",
    ))
    rows += [([(f"note.{i}", note)], f"note: {note}") for i, note in enumerate(report.notes)]

    # (file name, header, table rows, what the human line calls the file)
    tables = []
    if args.emit_series:
        tables.append((
            "warmup_series.csv", ("time_since_disconnect_s", "deltap_db"),
            zip(report.deltap_series_times_s, report.deltap_series_db), "warm-up series",
        ))
    if args.emit_psd:
        tables += [
            (name, ("frequency_hz", "density_v2_per_hz"),
             zip(psd.frequencies_hz, psd.density), "spectral density")
            for name, psd in (("psd_cold.csv", report.cold_psd),
                              ("psd_ambient.csv", report.ambient_psd))
            if psd is not None
        ]
    if args.emit_deltap_curve:
        t_grid = _linear_axis(0.0, t_ambient, 256)
        curve = [noise_power_reduction_db(cfg.receiver, t, t_ambient) for t in t_grid]
        bad = [(f"deltap_db at t_mode_k {t!r}", value)
               for t, value in zip(t_grid, curve) if not math.isfinite(value)]
        _refuse_non_finite(cfg, bad[:1], "receiver")
        tables.append((
            "deltap_curve.csv", ("t_mode_k", "deltap_db"), zip(t_grid, curve),
            "level-vs-temperature curve",
        ))
    for name, header, table, label in tables:
        path = _outpath(args, name)
        textformat.write_table_csv(path, header, table)
        rows.append(([(name.replace(".csv", "_csv"), path)], f"{label} written to {path}"))

    _emit(args, rows)
    # A run that fails exits 5 after its rows, naming its input and the note.
    if report.failure is not None:
        raise AnalysisError(f"{', '.join(args.inputs)}: {report.failure}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavitycool",
        description=(
            "Predict, simulate, and analyze switched pre-cooling of a "
            "microwave cavity mode."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config",
        metavar="PATH",
        help="run configuration file (defaults to the built-in bench calibration)",
    )
    common.add_argument(
        "--porcelain",
        action="store_true",
        help="stable machine-readable key=value output",
    )
    writes = argparse.ArgumentParser(add_help=False)
    writes.add_argument(
        "--out", metavar="DIR", default=".", help="directory for generated files"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "steady",
        parents=[common],
        help="closed-form mode temperatures and photon occupancies",
    )
    p.set_defaults(func=cmd_steady)

    p = sub.add_parser(
        "sweep",
        parents=[common, writes],
        help="mode temperature over a (coupling, cold load) grid",
    )
    p.add_argument("--coupling-min", type=_finite_float, default=0.1)
    p.add_argument("--coupling-max", type=_finite_float, default=100.0)
    p.add_argument("--coupling-points", type=int, default=25)
    p.add_argument("--cold-min", type=_finite_float, default=2.0, metavar="K")
    p.add_argument("--cold-max", type=_finite_float, default=290.0, metavar="K")
    p.add_argument("--cold-points", type=int, default=25)
    p.add_argument("--port", metavar="NAME", help="port to sweep (default: first cooling port)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "simulate",
        parents=[common, writes],
        help="run the switching protocol and write trace CSVs",
    )
    p.add_argument("--seed", type=_seed, metavar="N", help="override the master RNG seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "analyze",
        parents=[common, writes],
        help="recover cooling depth and warm-up time from traces",
    )
    p.add_argument(
        "inputs", nargs="+", metavar="FILE",
        help="trace CSV files, or a single run.meta sidecar (which also "
        "supplies the run's configuration); the disconnect is the run's "
        "protocol.cool_duration_s",
    )
    p.add_argument("--emit-series", action="store_true",
                   help="write the windowed warm-up series CSV")
    p.add_argument("--emit-psd", action="store_true",
                   help="write cooled and ambient spectral density CSVs")
    p.add_argument("--emit-deltap-curve", action="store_true",
                   help="write the receiver level-vs-temperature curve CSV")
    p.set_defaults(func=cmd_analyze)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    """Run one command; the one place that turns its outcome into an exit code."""
    args = build_parser().parse_args(argv)
    try:
        cfg = load_run_config(args.config) if args.config else default_run_config()
        args.func(args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"config error: {_where(args, exc.field)}{_named(exc)}", file=sys.stderr)
        return 2
    except DataFormatError as exc:
        print(f"data format error: {exc}", file=sys.stderr)
        return 4
    except AnalysisError as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return 5
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
