"""Estimators that recover cooling depth and warm-up time from traces.

The pipeline mirrors how switched-cooling measurements are actually
reduced: average repeated shots to isolate and subtract deterministic
transients, strip slow structure with a short boxcar so only noise
remains, then compare mean-square levels between the cooled and ambient
sections, either broadband in time, band-averaged in frequency, or
window-by-window through the warm-up, with a two-exponential fit tying
the warm-up curve back to the moment the cold path disconnects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import optimize, signal, stats

from .errors import AnalysisError, DomainError
from .synth import NoiseTrace

_DB = 10.0 / math.log(10.0)

# Fitted time constants closer than this are one physical constant.
_TAU_COLLAPSE_FRACTION = 0.05

# Significance level at which a second exponential component must beat
# the single-component fit (extra-sum-of-squares F-test) to be kept.
_SECOND_COMPONENT_ALPHA = 0.01


@dataclass(frozen=True)
class NoiseExtractionConfig:
    """Boxcar residual extraction: subtract a centered running mean.

    A width that rounds to a single sample makes the smoother an
    identity and the residual identically zero; widths of at least two
    samples are needed for a meaningful extraction.
    """

    boxcar_width_s: float

    def __post_init__(self) -> None:
        if self.boxcar_width_s <= 0:
            raise DomainError("boxcar width must be positive")

    def width_samples(self, sample_interval_s: float) -> int:
        return max(1, int(round(self.boxcar_width_s / sample_interval_s)))


def extract_noise(trace: NoiseTrace, cfg: NoiseExtractionConfig) -> NoiseTrace:
    """Every shot's residual after subtracting a centered boxcar running mean.

    Windows truncate at the trace edges rather than padding, so the
    first and last few samples are smoothed over fewer points.
    """
    width = cfg.width_samples(trace.sample_interval_s)
    v = trace.voltages_v
    n = len(trace)
    idx = np.arange(n)
    left = np.maximum(0, idx - (width - 1) // 2)
    right = np.minimum(n - 1, idx + width // 2)
    csum = np.zeros((trace.n_shots, n + 1))
    np.cumsum(v, axis=1, out=csum[:, 1:])
    smooth = csum[:, right + 1]
    smooth -= csum[:, left]
    smooth /= right - left + 1
    return NoiseTrace(trace.times_s, v - smooth)


def subtract_mean_artifact(trace: NoiseTrace) -> NoiseTrace:
    """Remove the shot-ensemble mean from every shot.

    Coherent content (switch transients, any injected waveform) repeats
    across shots and survives averaging, while noise averages down, so
    the per-sample ensemble mean estimates the deterministic component.
    The residual variance is biased low by the factor (1 - 1/n_shots);
    the bias is common to every section of every shot and cancels in
    level ratios.
    """
    if trace.n_shots < 2:
        raise DomainError("need at least two shots to estimate the mean transient")
    return NoiseTrace(trace.times_s, trace.voltages_v - trace.voltages_v.mean(axis=0))


class SpectralDensity(NamedTuple):
    frequencies_hz: np.ndarray
    density: np.ndarray  # one-sided, V^2/Hz


def ensemble_spectral_density(
    trace: NoiseTrace, segment_samples: int = 256, window: str = "hann"
) -> SpectralDensity:
    """Mean of the shots' Welch estimates of the one-sided power spectral density."""
    if segment_samples < 8:
        raise DomainError("segment length must be at least 8 samples")
    if segment_samples > len(trace):
        raise DomainError(
            f"segment length {segment_samples} exceeds trace length {len(trace)}"
        )
    freqs, psd = signal.welch(
        trace.voltages_v,
        fs=1.0 / trace.sample_interval_s,
        window=window,
        nperseg=segment_samples,
        noverlap=segment_samples // 2,
        detrend=False,
        scaling="density",
    )
    return SpectralDensity(freqs, psd.mean(axis=0))


class DeltaPEstimate(NamedTuple):
    value_db: float
    stderr_db: float


def band_averaged_deltap(
    cold: SpectralDensity,
    ambient: SpectralDensity,
    band_hz: tuple[float, float],
) -> DeltaPEstimate:
    """Cooled-vs-ambient level from band-averaged spectral densities.

    The uncertainty is propagated from the bin-to-bin scatter of each
    density inside the band, which overstates the error when bins are
    correlated (overlapping Welch segments) but is a serviceable scale.
    """
    lo, hi = band_hz
    if not 0 <= lo < hi:
        raise DomainError(f"bad band {band_hz}")
    if len(cold.frequencies_hz) != len(ambient.frequencies_hz) or not np.allclose(
        cold.frequencies_hz, ambient.frequencies_hz
    ):
        raise DomainError("spectra are not on a common frequency grid")
    f = cold.frequencies_hz
    # Band edges may fall on a bin (the default band does); the slack
    # keeps that bin whatever the last bit of the sample spacing.
    slack = 1e-9 * f[-1]
    if hi > f[-1] + slack:
        raise DomainError(
            f"band upper edge {hi} Hz extends past the spectrum ({f[-1]} Hz)"
        )
    mask = (f >= lo - slack) & (f <= hi + slack)
    count = int(mask.sum())
    if count == 0:
        raise DomainError("no spectral bins inside the band")
    mc = float(cold.density[mask].mean())
    ma = float(ambient.density[mask].mean())
    if mc <= 0 or ma <= 0:
        raise AnalysisError("non-positive band power; cannot form a level ratio")
    value = 10.0 * math.log10(mc / ma)
    if count >= 2:
        vc = float(cold.density[mask].var(ddof=1))
        va = float(ambient.density[mask].var(ddof=1))
        stderr = _DB * math.sqrt(vc / (count * mc**2) + va / (count * ma**2))
    else:
        stderr = float("nan")
    return DeltaPEstimate(value, stderr)


def pooled_mean_square(
    trace: NoiseTrace, t_start_s: float, t_stop_s: float
) -> tuple[float, int]:
    """Mean square voltage pooled over shots within [t_start_s, t_stop_s).

    Returns (mean square, total sample count).
    """
    section = trace.slice_time(t_start_s, t_stop_s)
    # Shot sums added in shot order (cumsum is sequential), not one
    # pairwise sum over the block, so the pooled value does not depend
    # on how the shots are blocked.
    per_shot = np.sum(section.voltages_v**2, axis=1)
    count = section.voltages_v.size
    return float(np.cumsum(per_shot)[-1]) / count, count


def segment_deltap(
    trace: NoiseTrace,
    cooled_span_s: tuple[float, float],
    ambient_span_s: tuple[float, float],
) -> DeltaPEstimate:
    """Broadband cooled-vs-ambient level from two time sections.

    The standard error uses the Gaussian mean-square scatter 2/n per
    section; mild sample correlation from boxcar extraction makes it a
    slight underestimate.
    """
    ms_cold, n_cold = pooled_mean_square(trace, *cooled_span_s)
    ms_amb, n_amb = pooled_mean_square(trace, *ambient_span_s)
    if ms_cold <= 0 or ms_amb <= 0:
        raise AnalysisError("non-positive section power; cannot form a level ratio")
    value = 10.0 * math.log10(ms_cold / ms_amb)
    stderr = _DB * math.sqrt(2.0 / n_cold + 2.0 / n_amb)
    return DeltaPEstimate(value, stderr)


def windowed_deltap_timeseries(
    section: NoiseTrace,
    ambient_mean_square: float,
    window_samples: int = 10,
) -> tuple[np.ndarray, np.ndarray]:
    """Level versus time through a section, in consecutive sample windows.

    Pools the squared voltage across shots, averages it over each block
    of `window_samples` samples, and references the result to
    `ambient_mean_square`.  Times are window centers measured from the
    first sample of the section.  Windows with non-positive pooled power
    come back as NaN; a trailing partial window is dropped.
    """
    if window_samples < 1:
        raise DomainError("window must be at least one sample")
    if ambient_mean_square <= 0:
        raise DomainError("ambient reference mean square must be positive")
    n_windows = len(section) // window_samples
    if n_windows < 1:
        raise AnalysisError("section shorter than one window")
    used = n_windows * window_samples
    pooled = np.mean(section.voltages_v**2, axis=0)[:used]
    window_ms = pooled.reshape(n_windows, window_samples).mean(axis=1)
    rel_times = section.times_s[:used] - section.times_s[0]
    centers = rel_times.reshape(n_windows, window_samples).mean(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        deltap = np.where(
            window_ms > 0, 10.0 * np.log10(window_ms / ambient_mean_square), np.nan
        )
    return centers, deltap


@dataclass(frozen=True)
class BiExpFit:
    """Result of the two-exponential warm-up fit.

    Parameter order everywhere is (a1, a2, tau1, tau2) with
    tau1 <= tau2.  When the data support only one exponential the fit
    collapses to it: a2 = 0, tau2 = tau1, collapsed_single = True.
    """

    a1_db: float
    a2_db: float
    tau1_s: float
    tau2_s: float
    stderr: tuple[float, float, float, float]
    covariance: np.ndarray
    residual_rms_db: float
    n_points: int
    converged: bool
    collapsed_single: bool


def _scaled_covariance(
    result: "optimize.OptimizeResult", tau_scales: np.ndarray, n_points: int
) -> tuple[np.ndarray, float]:
    """Parameter covariance from an LM solution in log-tau coordinates."""
    n_params = result.jac.shape[1]
    dof = n_points - n_params
    ssr = 2.0 * result.cost
    rms = math.sqrt(ssr / n_points)
    if dof <= 0:
        return np.full((n_params, n_params), np.nan), rms
    jtj = result.jac.T @ result.jac
    try:
        cov_theta = np.linalg.inv(jtj) * (ssr / dof)
    except np.linalg.LinAlgError:
        cov_theta = np.linalg.pinv(jtj) * (ssr / dof)
    scale = np.diag(tau_scales)
    return scale @ cov_theta @ scale, rms


def _fit_exponentials(
    t: np.ndarray, y: np.ndarray, tau_guesses: tuple[float, ...], max_nfev: int
) -> "optimize.OptimizeResult":
    """Damped least squares for y = sum_i a_i exp(-t/tau_i), tau in log space."""

    n_comp = len(tau_guesses)

    def unpack(theta):
        return theta[:n_comp], np.exp(theta[n_comp:])

    def residual(theta):
        # Extreme trial steps overflow exp(log tau) to inf or underflow
        # to 0; both give finite residuals (flat or instant decay), so
        # let them through silently and let the optimizer back off.
        with np.errstate(over="ignore", divide="ignore"):
            amps, taus = unpack(theta)
            return (np.exp(-t[:, None] / taus[None, :]) @ amps) - y

    design = np.exp(-t[:, None] / np.asarray(tau_guesses)[None, :])
    amp0, *_ = np.linalg.lstsq(design, y, rcond=None)
    theta0 = np.concatenate([amp0, np.log(tau_guesses)])
    return optimize.least_squares(
        residual,
        theta0,
        method="lm",
        ftol=1e-10,
        xtol=1e-10,
        gtol=1e-12,
        max_nfev=max_nfev,
    )


def fit_biexponential(
    times_s: np.ndarray,
    values_db: np.ndarray,
    exclude_before_s: float = 2e-6,
    max_nfev: int = 2500,
) -> BiExpFit:
    """Fit a1 exp(-t/tau1) + a2 exp(-t/tau2) to a warm-up level series.

    Points earlier than `exclude_before_s` (switch transient territory)
    and non-finite values are dropped.  Both a two-component and a
    single-component fit are run; the two-component solution is kept
    only when it beats the single under an extra-sum-of-squares F-test
    and its time constants are genuinely distinct.  Otherwise the single
    fit is reported with `collapsed_single` set: a free second
    exponential on marginal data tends to wander off into a
    small-amplitude, long-tau component that says nothing about the
    underlying decay.

    The two-component search starts from tau guesses at {0.3x, 3x} of a
    third of the series span, and retries seeded by the single fit's
    time constant, keeping the lower-residual solution.

    Raises
    ------
    AnalysisError
        Fewer than 8 usable points.
    """
    t_all = np.asarray(times_s, dtype=float)
    y_all = np.asarray(values_db, dtype=float)
    if t_all.shape != y_all.shape or t_all.ndim != 1:
        raise DomainError("times and values must be matching 1-D arrays")
    keep = (t_all >= exclude_before_s) & np.isfinite(y_all)
    t = t_all[keep]
    y = y_all[keep]
    if len(t) < 8:
        raise AnalysisError(
            f"need at least 8 usable points after exclusion, have {len(t)}"
        )
    span = float(t[-1] - t[0])
    if span <= 0:
        raise AnalysisError("degenerate time axis")

    single = _fit_exponentials(t, y, (0.3 * span,), max_nfev)
    double = _fit_exponentials(t, y, (0.1 * span, span), max_nfev)
    tau_single = float(math.exp(single.x[1]))
    if tau_single > 0 and math.isfinite(tau_single):
        retry = _fit_exponentials(t, y, (tau_single / 3.0, tau_single), max_nfev)
        if retry.cost < double.cost:
            double = retry

    amps = double.x[:2]
    taus = np.exp(double.x[2:])
    scale = max(np.max(np.abs(amps)), 1e-300)
    tau_close = abs(taus[0] - taus[1]) <= _TAU_COLLAPSE_FRACTION * max(taus)
    amp_negligible = np.min(np.abs(amps)) < 1e-8 * scale

    ssr_single = 2.0 * single.cost
    ssr_double = 2.0 * double.cost
    if ssr_double <= 0.0:
        second_component_earned = ssr_single > 0.0
    else:
        f_stat = ((ssr_single - ssr_double) / 2.0) / (ssr_double / (len(t) - 4))
        f_crit = stats.f.ppf(1.0 - _SECOND_COMPONENT_ALPHA, 2, len(t) - 4)
        second_component_earned = f_stat > f_crit

    if tau_close or amp_negligible or not second_component_earned:
        a = float(single.x[0])
        tau = float(math.exp(single.x[1]))
        cov2, rms = _scaled_covariance(single, np.array([1.0, tau]), len(t))
        cov = np.zeros((4, 4))
        cov[0, 0] = cov2[0, 0]
        cov[2, 2] = cov2[1, 1]
        cov[3, 3] = cov2[1, 1]
        cov[0, 2] = cov[2, 0] = cov2[0, 1]
        stderr = (
            math.sqrt(max(cov2[0, 0], 0.0)),
            0.0,
            math.sqrt(max(cov2[1, 1], 0.0)),
            math.sqrt(max(cov2[1, 1], 0.0)),
        )
        return BiExpFit(
            a1_db=a,
            a2_db=0.0,
            tau1_s=tau,
            tau2_s=tau,
            stderr=stderr,
            covariance=cov,
            residual_rms_db=rms,
            n_points=len(t),
            converged=single.status > 0,
            collapsed_single=True,
        )

    order = np.argsort(taus)
    a_sorted = amps[order]
    tau_sorted = taus[order]
    cov, rms = _scaled_covariance(
        double, np.array([1.0, 1.0, taus[0], taus[1]]), len(t)
    )
    # Covariance rows follow (a1, a2, log tau1, log tau2); reorder to the
    # sorted parameter order (a1, a2, tau1, tau2).
    perm = np.concatenate([order, order + 2])
    cov = cov[np.ix_(perm, perm)]
    stderr = tuple(math.sqrt(max(cov[i, i], 0.0)) for i in range(4))
    return BiExpFit(
        a1_db=float(a_sorted[0]),
        a2_db=float(a_sorted[1]),
        tau1_s=float(tau_sorted[0]),
        tau2_s=float(tau_sorted[1]),
        stderr=stderr,
        covariance=cov,
        residual_rms_db=rms,
        n_points=len(t),
        converged=double.status > 0,
        collapsed_single=False,
    )


def cooling_depth_from_fit(fit: BiExpFit) -> DeltaPEstimate:
    """Warm-up curve extrapolated back to the disconnect instant:
    a1 + a2, with the error propagated through their covariance."""
    if not fit.converged:
        raise AnalysisError("exponential fit did not converge")
    var = fit.covariance[0, 0] + fit.covariance[1, 1] + 2.0 * fit.covariance[0, 1]
    stderr = math.sqrt(var) if var >= 0 and math.isfinite(var) else float("nan")
    return DeltaPEstimate(fit.a1_db + fit.a2_db, stderr)
