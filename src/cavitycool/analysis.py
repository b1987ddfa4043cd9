"""Estimators that recover cooling depth and warm-up time from traces.

The pipeline mirrors how switched-cooling measurements are actually
reduced: average repeated shots to isolate and subtract deterministic
transients, strip slow structure with a short boxcar so only noise
remains, then compare mean-square levels between the cooled and ambient
sections, either broadband in time, band-averaged in frequency, or
window-by-window through the warm-up.  The warm-up series is fitted with
the exact single-relaxation model, a level ratio 1 + A exp(-t/tau) against
ambient, which ties the curve back to the moment the cold path
disconnects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import AnalysisError, DomainError
from .synth import NoiseTrace

_DB = 10.0 / math.log(10.0)

# Shots per block of the `tabulate_shots` pass; results do not depend on it.
_BLOCK_SHOTS = 32


class _Boxcar:
    """Centered running mean over `width` samples of rows of `n_samples`.

    Sample i is averaged over [i - (width - 1)//2, i + width//2], and
    windows truncate at the row edges.  The running-sum scratch holds up
    to `block_shots` rows and is reused from one block to the next.
    """

    def __init__(self, n_samples: int, width: int, block_shots: int):
        self.width = width
        self.lead, trail = (width - 1) // 2, width // 2
        idx = np.arange(n_samples)
        self.counts = (
            np.minimum(idx + trail, n_samples - 1) - np.maximum(idx - self.lead, 0) + 1
        )
        # Running sum with `lead` zeros in front and the row total repeated
        # `trail` times behind, so every window sum, truncated ones
        # included, is csum[:, i + width] - csum[:, i].
        self.csum = np.zeros((block_shots, n_samples + width))

    def residual(self, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write each row minus its running mean into `out`, and return it."""
        n, lead = rows.shape[1], self.lead
        csum = self.csum[: len(rows)]
        np.cumsum(rows, axis=1, out=csum[:, lead + 1 : lead + 1 + n])
        csum[:, lead + 1 + n :] = csum[:, lead + n, None]
        np.subtract(csum[:, self.width :], csum[:, :n], out=out)
        out /= self.counts
        return np.subtract(rows, out, out=out)


def extract_noise(trace: NoiseTrace, width: int) -> NoiseTrace:
    """Every shot's residual after subtracting a centered running mean
    over `width` samples.

    Sample i is averaged over [i - (width - 1)//2, i + width//2].  Windows
    truncate at the trace edges rather than padding, so the first and
    last few samples are smoothed over fewer points.  A width of one
    makes the smoother an identity and the residual zero.
    """
    if width < 1:
        raise DomainError("boxcar width must be at least one sample")
    v = trace.voltages_v
    boxcar = _Boxcar(len(trace), width, trace.n_shots)
    return NoiseTrace(trace.times_s, boxcar.residual(v, out=np.empty(v.shape)))


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


class _WelchTable:
    """Each shot's Hann-window Welch density of one section, filled one
    block of shots at a time; the ensemble density is their mean."""

    def __init__(self, times_s: np.ndarray, segment_samples: int, n_shots: int):
        m = segment_samples
        if m < 8:
            raise DomainError("segment length must be at least 8 samples")
        if m > len(times_s):
            raise DomainError(f"segment length {m} exceeds trace length {len(times_s)}")
        self.sample_interval_s = float(times_s[1] - times_s[0])
        # Periodic Hann window, sampled as scipy.signal.get_window("hann", m).
        self.window = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, m + 1)[:-1])
        self.scale = self.sample_interval_s / np.sum(self.window**2)
        self.per_shot = np.empty((n_shots, m // 2 + 1))

    def add(self, start: int, rows: np.ndarray) -> None:
        """Fill the densities of shots start, start + 1, ... from `rows`."""
        m = len(self.window)
        segments = sliding_window_view(rows, m, axis=1)[:, :: m - m // 2]
        spectra = np.fft.rfft(segments * self.window, axis=-1)
        power = spectra.real**2 + spectra.imag**2
        power *= self.scale
        # One-sided: fold in the negative frequencies, which DC and (for
        # even m) the Nyquist bin do not have.
        power[..., 1 : (m + 1) // 2] *= 2.0
        power.mean(axis=1, out=self.per_shot[start : start + len(rows)])

    def density(self) -> SpectralDensity:
        freqs = np.fft.rfftfreq(len(self.window), self.sample_interval_s)
        return SpectralDensity(freqs, _shot_total(self.per_shot) / len(self.per_shot))


def ensemble_spectral_density(trace: NoiseTrace, segment_samples: int) -> SpectralDensity:
    """Mean over shots of the Hann-window Welch estimate of the one-sided PSD.

    Each shot is cut into segments of `segment_samples` that overlap by
    half, after Welch (IEEE Trans. Audio Electroacoust. 15, 70 (1967)).
    Every segment's windowed periodogram is scaled to a density, the
    segments of a shot are averaged, and then the shots.
    """
    table = _WelchTable(trace.times_s, segment_samples, trace.n_shots)
    table.add(0, trace.voltages_v)
    return table.density()


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


def _shot_total(table: np.ndarray) -> np.ndarray:
    """Column totals of a table of one row per shot, adding the shots in
    order: cumsum does so whatever the table's shape, so the totals do not
    depend on any blocking, while `.sum(axis=0)` sums one column pairwise."""
    return np.cumsum(table, axis=0)[-1]


def _window_sums(rows: np.ndarray, window_samples: int, out: np.ndarray) -> None:
    """Each row's sum of squares over each of its first `out.shape[1]`
    windows of `window_samples` samples, into `out`."""
    n_windows = out.shape[1]
    whole = rows[:, : n_windows * window_samples]
    np.sum(whole.reshape(len(rows), n_windows, window_samples) ** 2, axis=2, out=out)


def pooled_level(square_sums: np.ndarray, samples_per_shot: int) -> tuple[float, int]:
    """(mean square, total sample count) pooled over shots from each
    shot's sum of squares over a section of `samples_per_shot` samples,
    added in shot order (`_shot_total`)."""
    count = len(square_sums) * samples_per_shot
    return float(_shot_total(square_sums)) / count, count


def pooled_mean_square(
    trace: NoiseTrace, t_start_s: float, t_stop_s: float
) -> tuple[float, int]:
    """Mean square voltage pooled over shots within [t_start_s, t_stop_s).

    Returns (mean square, total sample count).
    """
    v = trace.slice_time(t_start_s, t_stop_s).voltages_v
    return pooled_level(np.sum(v**2, axis=1), v.shape[1])


def segment_deltap(
    cooled: tuple[float, int], ambient: tuple[float, int]
) -> DeltaPEstimate:
    """Broadband cooled-vs-ambient level from two pooled time sections.

    Each section is its `pooled_mean_square` result, (mean square,
    sample count).  The standard error uses the Gaussian mean-square
    scatter 2/n per section; mild sample correlation from boxcar
    extraction makes it a slight underestimate.
    """
    ms_cold, n_cold = cooled
    ms_amb, n_amb = ambient
    if ms_cold <= 0 or ms_amb <= 0:
        raise AnalysisError("non-positive section power; cannot form a level ratio")
    value = 10.0 * math.log10(ms_cold / ms_amb)
    stderr = _DB * math.sqrt(2.0 / n_cold + 2.0 / n_amb)
    return DeltaPEstimate(value, stderr)


def windowed_deltap_timeseries(
    section: NoiseTrace,
    ambient_mean_square: float,
    window_samples: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Level versus time through a section, in consecutive sample windows.

    Tabulates each shot's sum of squares over each whole window, as
    `tabulate_shots` does, and passes the table to `deltap_series`.
    """
    if window_samples < 1:
        raise DomainError("window must be at least one sample")
    table = np.empty((section.n_shots, len(section) // window_samples))
    _window_sums(section.voltages_v, window_samples, table)
    return deltap_series(section.times_s, table, ambient_mean_square, window_samples)


def deltap_series(
    times_s: np.ndarray,
    window_sums: np.ndarray,
    ambient_mean_square: float,
    window_samples: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Level versus time from a section's per-shot window table.

    `window_sums` holds each shot's sum of squares over each whole window
    of `window_samples` samples of the section sampled at `times_s` (a
    trailing partial window has no column).  Pooled over shots in shot
    order, each window's mean square is referenced to
    `ambient_mean_square`.  Times are window centers measured from the
    first sample.  Windows with non-positive pooled power come back as NaN.
    """
    if ambient_mean_square <= 0:
        raise DomainError("ambient reference mean square must be positive")
    n_windows = window_sums.shape[1]
    if n_windows < 1:
        raise AnalysisError(
            f"section of {len(times_s)} samples is shorter than one window"
        )
    window_ms = _shot_total(window_sums) / (len(window_sums) * window_samples)
    rel_times = times_s[: n_windows * window_samples] - times_s[0]
    centers = rel_times.reshape(n_windows, window_samples).mean(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        deltap = np.where(
            window_ms > 0, 10.0 * np.log10(window_ms / ambient_mean_square), np.nan
        )
    return centers, deltap


class ShotTables(NamedTuple):
    """What one pass over a shot ensemble keeps (see `tabulate_shots`)."""

    cooled_sums: np.ndarray  # each shot's sum of squares over the cooled span
    ambient_sums: np.ndarray  # the same over the ambient span
    warmup_sums: np.ndarray  # the same over each whole warm-up window
    cold_psd: "SpectralDensity | None"  # as ensemble_spectral_density
    ambient_psd: "SpectralDensity | None"


def tabulate_shots(
    trace: NoiseTrace,
    cooled: slice,
    ambient: slice,
    warmup: slice,
    window_samples: int,
    width: int,
    segment_samples: "int | None",
) -> ShotTables:
    """One pass over the shots, a block of them at a time, in shot order.

    Each block is reduced to residuals by subtracting the shot mean
    (with two or more shots), as `subtract_mean_artifact` does.  Their
    sums of squares over the `cooled` and `ambient` sample columns fill
    one entry per shot, and over each whole `window_samples` window of
    the `warmup` columns one row per shot of the table `deltap_series`
    takes.  With `segment_samples`, the block passes through the boxcar
    of `extract_noise` when `width` is two or more, and the Welch
    densities of its cooled and ambient columns fill one row per shot
    each.  Every result equals, bit for bit, that of the public stage
    run on the whole ensemble, and no ensemble-sized array is made.
    """
    v = trace.voltages_v
    n_shots = trace.n_shots
    block_shots = min(n_shots, _BLOCK_SHOTS)
    mean = v.mean(axis=0) if n_shots >= 2 else None
    residuals = np.empty((block_shots, len(trace)))
    boxcar = None
    if segment_samples is not None and width >= 2:
        boxcar = _Boxcar(len(trace), width, block_shots)
        extracted = np.empty((block_shots, len(trace)))
    cooled_sums = np.empty(n_shots)
    ambient_sums = np.empty(n_shots)
    warmup_sums = np.empty((n_shots, (warmup.stop - warmup.start) // window_samples))
    psds = []
    if segment_samples is not None:
        psds = [
            _WelchTable(trace.times_s[span], segment_samples, n_shots)
            for span in (cooled, ambient)
        ]
    for start in range(0, n_shots, _BLOCK_SHOTS):
        rows = v[start : start + _BLOCK_SHOTS]
        shots = slice(start, start + len(rows))
        if mean is not None:
            rows = np.subtract(rows, mean, out=residuals[: len(rows)])
        np.sum(rows[:, cooled] ** 2, axis=1, out=cooled_sums[shots])
        np.sum(rows[:, ambient] ** 2, axis=1, out=ambient_sums[shots])
        _window_sums(rows[:, warmup], window_samples, warmup_sums[shots])
        if boxcar is not None:
            rows = boxcar.residual(rows, out=extracted[: len(rows)])
        for table, span in zip(psds, (cooled, ambient)):
            table.add(start, rows[:, span])
    cold_psd, ambient_psd = [table.density() for table in psds] or [None, None]
    return ShotTables(cooled_sums, ambient_sums, warmup_sums, cold_psd, ambient_psd)


@dataclass(frozen=True)
class BiExpFit:
    """Result of the warm-up fit of 1 + A exp(-t/tau) to the level ratio.

    `a1_db` is the fitted level at the disconnect, 10 log10(1 + A), and
    `tau1_s` the relaxation time; their standard errors come from the
    fit covariance by the delta method.  `nfev` counts the tau values
    the scan and the golden section tried.  The warm-up has one
    relaxation rate, so the second-component fields are constants:
    a2_db = 0, tau2_s = tau1_s and collapsed_single = True.
    """

    a1_db: float
    tau1_s: float
    a1_stderr_db: float
    tau1_stderr_s: float
    residual_rms_db: float
    n_points: int
    converged: bool
    nfev: int

    a2_db = 0.0
    collapsed_single = True

    @property
    def tau2_s(self) -> float:
        return self.tau1_s


# The profile is scanned over tau = span * 10^[-3, 3], ten points a
# decade, and refined by golden section until the log-tau bracket is
# narrower than _LOG_TAU_TOL.
_SCAN_LOG_TAU = np.log(10.0) * np.linspace(-3.0, 3.0, 61)
_LOG_TAU_TOL = 1e-10
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def fit_biexponential(
    times_s: np.ndarray,
    values_db: np.ndarray,
    exclude_before_s: float,
) -> BiExpFit:
    """Fit the warm-up level ratio r = 10^(dB/10) with 1 + A exp(-t/tau).

    The receiver output is affine in the mode temperature and the mode
    relaxes with one rate once the cold path is off, so this model is
    exact.  The residual is relative, (1 + A exp(-t/tau)) / r - 1: it
    weights the points so that the reported standard errors match the
    scatter of refits.  Points earlier than `exclude_before_s` (switch
    transient territory) and non-finite values are dropped.

    The residual is linear in A, so A is profiled out in closed form
    (variable projection, Golub & Pereyra, SIAM J. Numer. Anal. 10, 413
    (1973)) and the sum of squares is minimised over log tau alone: a
    coarse scan, then golden section, which closes the bracket of two
    scan steps in a fixed number of evaluations.  The fit has converged
    when the scan's minimum is interior (or the profile is flat).

    Raises
    ------
    AnalysisError
        Fewer than 8 usable points, a fitted curve with no positive level
        at the disconnect, or a negative or non-finite variance.
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
    inv_r = 10.0 ** (-y / 10.0)
    b = 1.0 - inv_r
    # Decays are taken from the first kept point, so u cannot underflow
    # for a short tau late in the record; A carries exp(-t0/tau) there.
    dt = t - t[0]

    def profile(log_tau):
        """A(tau) e^(-t0/tau) and the residual sum of squares, for a
        scalar log tau or a 1-D array of them."""
        u = np.exp(np.multiply.outer(-np.exp(-log_tau), dt)) * inv_r
        a = (u @ b) / np.sum(u * u, axis=-1)
        res = a[..., None] * u - b
        return a, np.sum(res * res, axis=-1)

    grid = math.log(span) + _SCAN_LOG_TAU
    _, costs = profile(grid)
    nfev = len(grid)
    k = int(np.argmin(costs))
    interior = 0 < k < len(grid) - 1 or costs.min() == costs.max()
    k = min(max(k, 1), len(grid) - 2)
    lo, hi = grid[k - 1], grid[k + 1]
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = profile(x1)[1], profile(x2)[1]
    nfev += 2
    while hi - lo > _LOG_TAU_TOL:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = profile(x1)[1]
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = profile(x2)[1]
        nfev += 1
    log_tau = x1 if f1 <= f2 else x2
    tau = math.exp(log_tau)
    with np.errstate(over="ignore"):
        a = float(profile(log_tau)[0] * np.exp(t[0] / tau))
    if not 0.0 < 1.0 + a < math.inf:
        raise AnalysisError(
            "fitted warm-up curve has no positive level at the disconnect"
        )
    decay = np.exp(-t / tau)
    res = (1.0 + a * decay) * inv_r - 1.0
    # Covariance of (A, log tau) from the analytic Jacobian, scaled by
    # the residual variance.
    jac = np.column_stack([decay * inv_r, a * decay * inv_r * t / tau])
    cov = np.linalg.pinv(jac.T @ jac) * (float(res @ res) / (len(t) - 2))
    var_a, var_log_tau = float(cov[0, 0]), float(cov[1, 1])
    # A tau at the edge of the scan can make jac.T @ jac numerically singular;
    # a variance of 0 is an exact fit's.
    if not (0.0 <= var_a < math.inf and 0.0 <= var_log_tau < math.inf):
        raise AnalysisError(
            f"fit covariance has a negative or non-finite variance at tau = {tau!r} s"
        )
    model_db = 10.0 * np.log10(1.0 + a * decay)
    return BiExpFit(
        a1_db=10.0 * math.log10(1.0 + a),
        tau1_s=tau,
        a1_stderr_db=_DB * math.sqrt(var_a) / (1.0 + a),
        tau1_stderr_s=tau * math.sqrt(var_log_tau),
        residual_rms_db=float(np.sqrt(np.mean((y - model_db) ** 2))),
        n_points=len(t),
        converged=bool(interior),
        nfev=nfev,
    )
