"""End-to-end protocol runs: configuration in, traces and estimates out.

`simulate_run` turns a full run configuration into a mode-temperature
trajectory plus an ensemble of receiver traces; `analyze_run` reduces
such an ensemble back to cooling depth, warm-up time, and an inferred
mode temperature.  The CLI subcommands are thin wrappers over these.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The stages are called through their modules, so a replaced module
# attribute (a test's monkeypatch, a tracing wrapper) reaches every call,
# also when this module is first imported while the attribute is replaced.
from . import analysis, dynamics, receiver, synth
from .config import RunConfig
from .dynamics import PhotonTrajectory, SwitchSchedule, build_protocol
from .errors import AnalysisError, DomainError
from .synth import NoiseTrace
from .thermal import mode_temperature


@dataclass
class SimulationResult:
    trajectory: PhotonTrajectory
    traces: NoiseTrace
    schedule: SwitchSchedule
    disconnect_time_s: float


def simulate_run(cfg: RunConfig) -> SimulationResult:
    """Run the canonical protocol described by a full configuration.

    All ports cool from t = 0; at the end of the cooling window the
    non-persistent ports disconnect and the trace continues to its
    configured length.  Each schedule event gets one switch transient:
    two, or one when the cooling time is 0.
    """
    proto = cfg.protocol
    cool_ports = tuple(range(len(cfg.baths.ports)))
    hold_ports = cfg.persistent_port_indices()
    schedule = build_protocol(
        proto.cool_duration_s,
        proto.trace_length_s,
        cool_ports=cool_ports,
        hold_ports=hold_ports,
    )
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


@dataclass
class AnalysisReport:
    """Everything the reduction recovers from one shot ensemble."""

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
    warmup_note: "str | None"  # the note saying why the warm-up fit does not count
    t_mode_inferred_k: float
    t_ambient_reference_k: float
    n_shots: int
    notes: list[str]


def analyze_run(
    traces: NoiseTrace,
    cfg: RunConfig,
    disconnect_time_s: float | None = None,
) -> AnalysisReport:
    """Reduce a shot ensemble to cooling-depth and warm-up estimates.

    The shot-ensemble mean is subtracted when two or more shots are
    available (removing switch transients and any coherent signal).
    Time-domain level estimates work on those residuals directly, since
    a mean-square ratio needs the full noise variance.  The spectral
    path additionally applies the configured boxcar extraction when its
    window spans at least two samples; the extraction transfer function
    is common to both spectra and cancels in the band ratio.

    One pass over blocks of shots (`analysis.tabulate_shots`) yields
    every shot's sums of squares over the cooled and ambient spans and
    each warm-up window, and its two spectra, so besides the input only
    per-shot tables and one block of residuals are held.  Each estimate
    pools its table in shot order, and the report is that of the public
    stages composed on the whole ensemble, bit for bit.

    Each section must start inside the trace and hold a sample, the warm-up
    section one `window_samples` window.  The ambient, cooled and warm-up
    sections, then the window, are checked in that order before any sample
    is read: the first that fails is refused with a `DomainError` on its
    field.  `disconnect_time_s` defaults to the configured cooling duration.
    """
    acfg = cfg.analysis
    if disconnect_time_s is None:
        disconnect_time_s = cfg.protocol.cool_duration_s
    notes: list[str] = []

    if traces.n_shots < 2:
        notes.append(
            "single shot: deterministic transients cannot be separated from noise"
        )
    width = max(1, round(acfg.boxcar_width_s / traces.sample_interval_s))
    if width < 2:
        notes.append(
            "boxcar width rounds to one sample; spectral extraction skipped"
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
    tables = analysis.tabulate_shots(
        traces, cooled, ambient, warmup, acfg.window_samples, width, seg if psd_fits else None
    )
    ambient_level = analysis.pooled_level(tables.ambient_sums, n_ambient)
    deltap_direct = analysis.segment_deltap(
        analysis.pooled_level(tables.cooled_sums, n_cooled), ambient_level
    )

    deltap_band = None
    if psd_fits:
        try:
            deltap_band = analysis.band_averaged_deltap(
                tables.cold_psd, tables.ambient_psd, (acfg.band_low_hz, acfg.band_high_hz)
            )
        except (DomainError, AnalysisError) as exc:
            notes.append(f"band-averaged level unavailable: {exc}")
    else:
        notes.append(
            "sections shorter than one spectral segment; band-averaged level skipped"
        )

    series_t, series_db = analysis.deltap_series(
        traces.times_s[warmup], tables.warmup_sums, ambient_level[0], acfg.window_samples
    )
    # The one test of whether the warm-up fit counts: it returned and
    # converged.  Otherwise the depth is None, the warm-up time NaN, and
    # `warmup_note` says why.
    fit = None
    depth = None
    warmup_note = None
    warmup_time = warmup_stderr = float("nan")
    try:
        fit = analysis.fit_biexponential(series_t, series_db, acfg.exclude_before_s)
        if not fit.converged:
            raise AnalysisError("exponential fit did not converge")
        depth = analysis.DeltaPEstimate(fit.a1_db, fit.a1_stderr_db)
        warmup_time, warmup_stderr = fit.tau1_s, fit.tau1_stderr_s
    except AnalysisError as exc:
        warmup_note = f"warm-up fit unavailable: {exc}"
        notes.append(warmup_note)

    t_ambient_ref = mode_temperature(cfg.baths.subset(cfg.persistent_port_indices()))
    try:
        t_mode = receiver.infer_mode_temperature(
            cfg.receiver, deltap_direct.value_db, t_ambient_ref
        )
    except DomainError as exc:
        t_mode = float("nan")
        notes.append(f"mode temperature inversion unavailable: {exc}")

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
        warmup_note=warmup_note,
        t_mode_inferred_k=t_mode,
        t_ambient_reference_k=t_ambient_ref,
        n_shots=traces.n_shots,
        notes=notes,
    )
