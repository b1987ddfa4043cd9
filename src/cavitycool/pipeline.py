"""End-to-end protocol runs: configuration in, traces and estimates out.

`simulate_run` turns a full run configuration into a mode-temperature
trajectory plus an ensemble of receiver traces; `analyze_run` reduces
such an ensemble back to cooling depth, warm-up time, and an inferred
mode temperature.  The CLI subcommands are thin wrappers over these.
"""

from __future__ import annotations

import numpy as np

# The stages are called through their modules, so a replaced module
# attribute (a test's monkeypatch, a tracing wrapper) reaches every call,
# also when this module is first imported while the attribute is replaced.
from . import analysis, dynamics, receiver, synth
from .config import RunConfig, _steady_temperatures
from .dynamics import PhotonTrajectory, SwitchSchedule, build_protocol
from .errors import AnalysisError, DomainError, Record
from .synth import NoiseTrace


class SimulationResult(Record):
    """One simulated run: the mode-temperature trajectory, the shot
    ensemble drawn on its grid, the switch schedule and the disconnect time."""

    trajectory: PhotonTrajectory
    traces: NoiseTrace
    schedule: SwitchSchedule
    disconnect_time_s: float


def simulate_run(cfg: RunConfig) -> SimulationResult:
    """Run the canonical protocol described by a full configuration.

    All ports cool from t = 0; at the end of the cooling window the
    non-persistent ports disconnect and the trace continues to its
    configured length.  Each schedule event gets one switch transient:
    two, or one when the cooling time is 0.  Draws that overflow raise
    `DomainError` before anything is drawn; a run without noise is drawn.
    """
    synth._sample_variances(cfg)
    proto = cfg.protocol
    all_ports = tuple(range(len(cfg.baths.ports)))
    schedule = build_protocol(proto, all_ports, cfg.persistent_port_indices())
    trajectory = dynamics.evolve_occupancy(
        cfg.mode,
        cfg.baths,
        schedule,
        proto.trace_length_s,
        cfg.synth.sample_interval_s,
    )
    switch_times_s = [event.time_s for event in schedule.events]
    traces = synth.synthesize_shot_ensemble(
        trajectory, cfg.receiver, cfg.synth, cfg.n_shots, switch_times_s
    )
    return SimulationResult(trajectory, traces, schedule, proto.cool_duration_s)


# The warm-up fit counts only when the direct level lies this many standard
# errors below 0 dB (one-sided Wald test of "no cooling").  Uncooled, level /
# stderr had sd <= 1.40 and none of 3,000 seeded 2- to 150-shot runs fell below
# -4.34 (a Gaussian of sd 1.40 passes -6 once in 1e5); with the default
# cooling the highest of 200 seeds was -7.4 at one shot and -10.3 at two.
_COOLING_Z = 6.0


class AnalysisReport(Record):
    """Everything the reduction recovers from one shot ensemble.

    `notes` says, in order, what the run could not give and why.
    `failure` is the first of them that fails the run, or None when every
    estimate counts: a warm-up fit that did not return, did not converge
    or times a run whose direct level shows no cooling (then `depth_db` is
    None and the warm-up time NaN), else a failed mode-temperature
    inversion (then `t_mode_inferred_k` is NaN).
    """

    deltap_direct: analysis.DeltaPEstimate
    deltap_band: "analysis.DeltaPEstimate | None"
    cold_psd: "analysis.SpectralDensity | None"
    ambient_psd: "analysis.SpectralDensity | None"
    deltap_series_times_s: np.ndarray
    deltap_series_db: np.ndarray
    fit: "analysis.BiExpFit | None"
    depth_db: "analysis.DeltaPEstimate | None"
    warmup_time_s: float
    warmup_stderr_s: float
    t_mode_inferred_k: float
    t_ambient_reference_k: float
    n_shots: int
    notes: list[str]
    failure: "str | None"


def analyze_run(
    traces: NoiseTrace,
    cfg: RunConfig,
    disconnect_time_s: float | None = None,
) -> AnalysisReport:
    """Reduce a shot ensemble to cooling-depth and warm-up estimates.

    The shot-ensemble mean is subtracted when two or more shots are
    available (removing switch transients and any coherent signal).
    Every estimate, the time-domain levels, the warm-up series and the
    two spectra, works on those residuals.

    One pass over blocks of shots (`analysis.tabulate_shots`) yields
    every shot's sums of squares over the cooled and ambient spans and
    each warm-up window, and its two spectra, so besides the input only
    per-shot tables and one block of residuals are held.  Each estimate
    pools its table in shot order, and the report is that of the public
    stages composed on the whole ensemble, bit for bit.

    The ambient reference is the run's steady ambient mode temperature;
    steady temperatures that overflow are refused first, with the
    `DomainError` of `config._steady_temperatures`.  Each section must
    start inside the trace and hold a sample, the warm-up section one
    `window_samples` window.  The ambient, cooled and warm-up sections,
    then the window, are checked in that order before any sample is read:
    the first that fails is refused with a `DomainError` on its field.
    Samples whose sums of squares overflow, or whose cooled or ambient
    section holds no power or only the rounding error of identical shots,
    then raise `AnalysisError`.  `disconnect_time_s` defaults to the
    configured cooling duration.
    """
    _, t_ambient_ref = _steady_temperatures(cfg)
    acfg = cfg.analysis
    if disconnect_time_s is None:
        disconnect_time_s = cfg.protocol.cool_duration_s
    notes: list[str] = []

    if traces.n_shots < 2:
        notes.append(
            "single shot: deterministic transients cannot be separated from noise"
        )

    d, t_end = disconnect_time_s, float(traces.times_s[-1])
    sections = []
    for name, field, start, stop in (
        ("settled ambient section after", "ambient_settle_s",
         d + acfg.ambient_settle_s, t_end + 1e-12),
        ("cooled section before", "cooled_window_s", d - acfg.cooled_window_s, d),
        ("warm-up section after", "fit_window_s", d, min(d + acfg.fit_window_s, t_end)),
    ):
        columns = traces.time_columns(start, stop)
        if not 0 <= start < t_end or columns.stop == columns.start:
            raise DomainError(
                f"= {getattr(acfg, field)!r} s leaves no {name} the disconnect at {d!r} s "
                f"(the trace ends at {t_end!r} s)", field=field
            )
        sections.append(columns)
    ambient, cooled, warmup = sections
    n_cooled, n_ambient = cooled.stop - cooled.start, ambient.stop - ambient.start
    n_warmup = warmup.stop - warmup.start
    if acfg.window_samples > n_warmup:
        raise DomainError(
            f"= {acfg.window_samples} must not exceed the {n_warmup} samples of the "
            "warm-up section", field="window_samples"
        )

    seg = acfg.psd_segment_samples
    psd_fits = seg <= min(n_cooled, n_ambient)
    band = (acfg.band_low_hz, acfg.band_high_hz)
    deltap_band = None
    # Finite samples can still square past the float range: the first sum
    # that overflows is refused before any level is formed.
    try:
        with np.errstate(over="raise", invalid="raise"):
            tables = analysis.tabulate_shots(
                traces, cooled, ambient, warmup, acfg.window_samples, seg if psd_fits else None
            )
            cooled_level = analysis.pooled_level(tables.cooled_sums, n_cooled)
            ambient_level = analysis.pooled_level(tables.ambient_sums, n_ambient)
            deltap_direct = analysis.segment_deltap(cooled_level, ambient_level)
            # The mean of n copies of a value is off by at most about n eps of
            # it, so copies of one shot leave a residual power of at most
            # (n eps)^2 that of their mean, where noise leaves about n - 1 times it.
            floor = (traces.n_shots * np.finfo(float).eps) ** 2
            for name, (power, count), mean_sum in zip(
                ("cooled", "ambient"), (cooled_level, ambient_level), tables.mean_sums
            ):
                if power * count <= floor * traces.n_shots * mean_sum:
                    raise AnalysisError(
                        f"identical shots: the {name} section's residual power is at "
                        "the rounding floor of the shot mean; cannot form a level ratio"
                    )
            if psd_fits:
                try:
                    deltap_band = analysis.band_averaged_deltap(
                        tables.cold_psd, tables.ambient_psd, band
                    )
                except (DomainError, AnalysisError) as exc:
                    notes.append(f"band-averaged level unavailable: {exc}")
            else:
                notes.append(
                    "sections shorter than one spectral segment; band-averaged level skipped"
                )
            series_t, series_db = analysis.deltap_series(
                traces.times_s[warmup], tables.warmup_sums, ambient_level[0],
                acfg.window_samples,
            )
    except FloatingPointError as exc:
        raise AnalysisError(f"samples too large to analyse ({exc})") from None

    # The one test of whether the warm-up fit counts: it returned and
    # converged, and the direct level shows cooling.  Otherwise the depth
    # is None, the warm-up time NaN, and its note is the run's failure.
    fit = None
    depth = None
    failure = None
    warmup_time = warmup_stderr = float("nan")
    try:
        fit = analysis.fit_biexponential(series_t, series_db, acfg.exclude_before_s)
        if not fit.converged:
            raise AnalysisError("exponential fit did not converge")
        value, stderr = deltap_direct
        if not value <= -_COOLING_Z * stderr:
            raise AnalysisError(
                f"no cooling detected (deltap_direct_db = {value:.3f} +/- {stderr:.3f}, "
                f"need <= -{_COOLING_Z:g} standard errors)"
            )
        depth = analysis.DeltaPEstimate(fit.a1_db, fit.a1_stderr_db)
        warmup_time, warmup_stderr = fit.tau1_s, fit.tau1_stderr_s
    except AnalysisError as exc:
        failure = f"warm-up fit unavailable: {exc}"
        notes.append(failure)

    try:
        t_mode = receiver.infer_mode_temperature(
            cfg.receiver, deltap_direct.value_db, t_ambient_ref
        )
    except DomainError as exc:
        t_mode = float("nan")
        note = f"mode temperature inversion unavailable: {exc}"
        notes.append(note)
        failure = failure or note

    return AnalysisReport(
        deltap_direct=deltap_direct,
        deltap_band=deltap_band,
        cold_psd=tables.cold_psd,
        ambient_psd=tables.ambient_psd,
        deltap_series_times_s=series_t,
        deltap_series_db=series_db,
        fit=fit,
        depth_db=depth,
        warmup_time_s=warmup_time,
        warmup_stderr_s=warmup_stderr,
        t_mode_inferred_k=t_mode,
        t_ambient_reference_k=t_ambient_ref,
        n_shots=traces.n_shots,
        notes=notes,
        failure=failure,
    )
