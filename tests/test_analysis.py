"""Trace reduction estimators: artifact subtraction, boxcar extraction,
spectra, level ratios, and the warm-up fit.
"""

import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from cavitycool.analysis import (
    _BLOCK_SHOTS,
    SpectralDensity,
    band_averaged_deltap,
    ensemble_spectral_density,
    extract_noise,
    fit_biexponential,
    pooled_mean_square,
    segment_deltap,
    subtract_mean_artifact,
    windowed_deltap_timeseries,
)
from cavitycool.errors import AnalysisError, DomainError
from cavitycool.synth import NoiseTrace


def _trace(volts, dt=1e-7):
    """Ensemble of the given rows; a 1-D record is a one-row ensemble."""
    volts = np.atleast_2d(np.asarray(volts, dtype=float))
    return NoiseTrace(np.arange(volts.shape[1]) * dt, volts)


def _white(n, sigma, seed, dt=1e-7):
    rng = np.random.default_rng(seed)
    return _trace(sigma * rng.standard_normal(n), dt=dt)


# The warm-up level curve used throughout: the receiver sees
# 10 log10(1 + beta exp(-t/tau)) relative to ambient while the mode
# relaxes, with beta the fractional output-noise drop at full depth.
_BETA = -0.5505587089765935
_TAU = 9.0035911235152932e-6


def _warmup_db(t, beta=_BETA, tau_s=_TAU):
    return 10.0 * np.log10(1.0 + beta * np.exp(-t / tau_s))


def test_subtract_mean_artifact_identical_traces():
    base = np.sin(np.linspace(0.0, 6.0, 500))
    out = subtract_mean_artifact(_trace([base] * 4))
    assert out.n_shots == 4
    assert np.allclose(out.voltages_v, 0.0, atol=1e-15)


def test_subtract_mean_artifact_two_traces():
    a = np.linspace(0.0, 1.0, 100)
    b = np.linspace(1.0, 0.0, 100)
    out = subtract_mean_artifact(_trace([a, b]))
    assert np.allclose(out.voltages_v[0], (a - b) / 2.0, atol=1e-15)
    assert np.allclose(out.voltages_v[1], (b - a) / 2.0, atol=1e-15)


def test_subtract_mean_artifact_suppresses_coherent_part():
    n, n_shots, sigma = 2000, 40, 0.5
    rng = np.random.default_rng(101)
    artifact = 2.0 * np.exp(-np.arange(n) / 80.0) * np.sin(np.arange(n) / 5.0)
    traces = _trace(
        [artifact + sigma * rng.standard_normal(n) for _ in range(n_shots)]
    )
    cleaned = subtract_mean_artifact(traces)
    # Correlate the residual with the artifact template: the surviving
    # coherent power must be below artifact power / n_shots.
    template = artifact / math.sqrt(float(np.sum(artifact**2)))
    residual_power = np.mean((cleaned.voltages_v @ template) ** 2)
    artifact_power = float(np.sum(artifact**2))
    assert residual_power < artifact_power / n_shots
    # Ensemble mean of the output is zero by construction.
    mean = cleaned.voltages_v.mean(axis=0)
    assert np.allclose(mean, 0.0, atol=1e-12)


def test_subtract_mean_artifact_validation():
    with pytest.raises(DomainError):
        subtract_mean_artifact(_white(100, 1.0, 0))
    # Shots longer than the common grid cannot form one ensemble (files
    # on different grids are rejected where they are read).
    with pytest.raises(DomainError):
        NoiseTrace(np.arange(100) * 1e-7, np.zeros((2, 101)))


def test_extract_noise_constant_maps_to_zero():
    out = extract_noise(_trace(np.full(300, 2.5)), 10)
    assert np.allclose(out.voltages_v, 0.0, atol=1e-12)


@pytest.mark.parametrize("n_shots, n", [(1, 1), (1, 2), (3, 5), (2, 17), (4, 40)])
def test_extract_noise_matches_direct_truncated_mean(n_shots, n):
    # Sample i minus the plain mean over [i - (w-1)//2, i + w//2] cut to
    # the record, for widths up to and past the record length.
    rng = np.random.default_rng(n_shots * 100 + n)
    trace = _trace(rng.standard_normal((n_shots, n)))
    v = trace.voltages_v
    for width in (1, 2, 3, 7, n, n + 3):
        expected = np.array([
            [v[s, i] - v[s, max(0, i - (width - 1) // 2): i + width // 2 + 1].mean()
             for i in range(n)]
            for s in range(n_shots)
        ])
        out = extract_noise(trace, width)
        assert out.voltages_v.shape == (n_shots, n)
        assert np.allclose(out.voltages_v, expected, rtol=0.0, atol=1e-12)
        assert np.array_equal(out.times_s, trace.times_s)


def test_extract_noise_windows_past_twice_the_record_are_the_whole_record():
    # From 2 n - 1 samples on, every window holds the whole row; a width of
    # 1e300 s over 50 ns samples was a running sum too large to allocate.
    trace = _white(40, 1.0, 5)
    whole = extract_noise(trace, 79).voltages_v
    for width in (80, 85, 10**300):
        assert np.array_equal(extract_noise(trace, width).voltages_v, whole)
    assert np.allclose(whole, trace.voltages_v - trace.voltages_v.mean(), rtol=0, atol=1e-12)


def test_extract_noise_single_sample_width_is_identity_smoother():
    trace = _white(500, 1.0, 3)
    out = extract_noise(trace, 1)
    # Zero up to the round-off of the running-sum smoother.
    assert np.max(np.abs(out.voltages_v)) < 1e-12


def test_extract_noise_ramp_plus_white():
    # Slow ramp under a wide boxcar: the residual keeps the white power.
    n, sigma = 200_000, 0.7
    rng = np.random.default_rng(11)
    ramp = np.linspace(0.0, 5.0, n)
    trace = _trace(ramp + sigma * rng.standard_normal(n))
    out = extract_noise(trace, 50)
    assert abs(float(np.var(out.voltages_v)) - sigma**2) / sigma**2 < 0.05


def test_extract_noise_idempotent_in_distribution():
    n, sigma = 500_000, 1.0
    trace = _white(n, sigma, 13)
    once = extract_noise(trace, 200)
    twice = extract_noise(once, 200)
    v1 = float(np.var(once.voltages_v))
    v2 = float(np.var(twice.voltages_v))
    assert abs(v2 - v1) / v1 < 0.01


def test_extract_noise_validation():
    with pytest.raises(DomainError, match="at least one sample"):
        extract_noise(_white(100, 1.0, 0), 0)
    with pytest.raises(DomainError):
        extract_noise(_white(100, 1.0, 0), -3)


def test_spectral_density_parseval():
    trace = _white(65536, 0.9, 17)
    freqs, psd = ensemble_spectral_density(trace, segment_samples=256)
    df = float(freqs[1] - freqs[0])
    integral = float(np.sum(psd) * df)
    variance = float(np.var(trace.voltages_v))
    assert abs(integral - variance) / variance < 0.01


def test_spectral_density_white_is_flat():
    sigma, dt = 0.8, 1e-7
    trace = _white(262144, sigma, 19, dt=dt)
    freqs, psd = ensemble_spectral_density(trace, segment_samples=256)
    level = 2.0 * dt * sigma**2  # one-sided white density
    interior = psd[1:-1]
    assert abs(float(interior.mean()) - level) / level < 0.01
    scatter = float(interior.std())
    assert np.max(np.abs(interior - level)) < 4.0 * scatter
    # No trend across the band.
    slope = np.polyfit(freqs[1:-1], interior, 1)[0]
    assert abs(slope * freqs[-1]) < 0.05 * level


def test_spectral_density_sinusoid_concentrates():
    dt = 1e-7
    n = 65536
    nperseg = 256
    k = 20  # exact bin index
    f0 = k / (nperseg * dt)
    times = np.arange(n) * dt
    amp = 0.3
    trace = _trace(amp * np.sin(2.0 * math.pi * f0 * times), dt=dt)
    freqs, psd = ensemble_spectral_density(trace, segment_samples=nperseg)
    df = float(freqs[1] - freqs[0])
    assert int(np.argmax(psd)) == k
    # Hann leakage confines the line to the peak bin and its neighbours.
    in_band = float(np.sum(psd[k - 1 : k + 2]) * df)
    assert abs(in_band - amp**2 / 2.0) / (amp**2 / 2.0) < 0.02
    outside = np.delete(psd, [k - 1, k, k + 1])
    assert float(np.max(outside) * df) < 1e-6 * in_band


def test_spectral_density_validation():
    trace = _white(100, 1.0, 2)
    with pytest.raises(DomainError):
        ensemble_spectral_density(trace, segment_samples=4)
    with pytest.raises(DomainError):
        ensemble_spectral_density(trace, segment_samples=128)


def test_ensemble_spectral_density_matches_mean_of_shots():
    rows = [_white(4096, 1.0, 100 + i).voltages_v[0] for i in range(6)]
    ens = ensemble_spectral_density(_trace(rows), segment_samples=256)
    individual = [ensemble_spectral_density(_trace(r), segment_samples=256) for r in rows]
    assert np.array_equal(ens.frequencies_hz, individual[0].frequencies_hz)
    assert np.allclose(
        ens.density, np.mean([s.density for s in individual], axis=0), rtol=1e-12
    )


@pytest.mark.parametrize("n_shots", [1, 6])
@pytest.mark.parametrize("segment", [8, 9, 255, 256])
@pytest.mark.parametrize("whole_trace", [False, True])
def test_spectral_density_matches_scipy_welch(n_shots, segment, whole_trace):
    # Odd segments have no Nyquist bin, so every bin but DC is doubled.
    from scipy import signal

    n = segment if whole_trace else 4 * segment + 3
    rng = np.random.default_rng(segment + 10 * n_shots)
    trace = _trace(rng.standard_normal((n_shots, n)), dt=5e-8)
    freqs, psd = ensemble_spectral_density(trace, segment_samples=segment)
    ref_freqs, ref = signal.welch(
        trace.voltages_v, fs=1.0 / (trace.times_s[1] - trace.times_s[0]), window="hann",
        nperseg=segment, noverlap=segment // 2, detrend=False,
    )
    np.testing.assert_allclose(freqs, ref_freqs, rtol=1e-12, atol=0)
    np.testing.assert_allclose(psd, ref.mean(axis=0), rtol=1e-12, atol=0)


def _whole_ensemble_extract_noise(v, width):
    """extract_noise as one pass over the whole ensemble."""
    n_shots, n = v.shape
    lead, trail = (width - 1) // 2, width // 2
    csum = np.zeros((n_shots, n + width))
    np.cumsum(v, axis=1, out=csum[:, lead + 1 : lead + 1 + n])
    csum[:, lead + 1 + n :] = csum[:, lead + n, None]
    smooth = csum[:, width:] - csum[:, :n]
    idx = np.arange(n)
    smooth /= np.minimum(idx + trail, n - 1) - np.maximum(idx - lead, 0) + 1
    return v - smooth


def _whole_ensemble_density(v, m, dt):
    """ensemble_spectral_density's density as one pass over the ensemble."""
    window = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, m + 1)[:-1])
    segments = sliding_window_view(v, m, axis=1)[:, :: m - m // 2]
    spectra = np.fft.rfft(segments * window, axis=-1)
    power = spectra.real**2 + spectra.imag**2
    power *= dt / np.sum(window**2)
    power[..., 1 : (m + 1) // 2] *= 2.0
    return power.mean(axis=1).mean(axis=0)


_BLOCK_EDGE_SHOTS = (1, _BLOCK_SHOTS - 1, _BLOCK_SHOTS, _BLOCK_SHOTS + 1, 2 * _BLOCK_SHOTS + 5)


@pytest.mark.parametrize("n_shots", _BLOCK_EDGE_SHOTS)
def test_blocked_passes_match_the_whole_ensemble_bytes(n_shots):
    # The reference stages must give, bit for bit, the single pass over
    # the whole ensemble, at the shot counts around `tabulate_shots`'
    # block edges that the composed-stage tests compare it at.
    n = 300
    rng = np.random.default_rng(n_shots)
    trace = _trace(rng.standard_normal((n_shots, n)), dt=5e-8)
    v = trace.voltages_v
    for width in (2, 3, 7, n + 3):
        out = extract_noise(trace, width).voltages_v
        assert out.tobytes() == _whole_ensemble_extract_noise(v, width).tobytes()
    for segment in (8, 9, 256):
        density = ensemble_spectral_density(trace, segment).density
        expected = _whole_ensemble_density(v, segment, trace.times_s[1] - trace.times_s[0])
        assert density.tobytes() == expected.tobytes()
    # The series pools the per-shot window table over shots in shot order,
    # also over a section of one sample, where `.mean(axis=0)` would sum
    # pairwise rather than row after row.
    for stop, window in ((n, 1), (n, 7), (1, 1)):
        section = NoiseTrace(trace.times_s[:stop], v[:, :stop])
        _, levels = windowed_deltap_timeseries(section, 1.0, window_samples=window)
        used = stop // window * window
        table = (v[:, :used] ** 2).reshape(n_shots, -1, window).sum(axis=2)
        pooled = np.cumsum(table, axis=0)[-1] / (n_shots * window)
        assert levels.tobytes() == (10.0 * np.log10(pooled)).tobytes()


def test_ensemble_spectral_density_validation():
    # A segment may span a whole shot of a multi-shot ensemble, not more.
    trace = _trace(np.ones((3, 256)))
    assert ensemble_spectral_density(trace, segment_samples=256).density.shape == (129,)
    with pytest.raises(DomainError):
        ensemble_spectral_density(trace, segment_samples=257)
    with pytest.raises(DomainError):
        ensemble_spectral_density(trace, segment_samples=4)


def test_band_deltap_identical_spectra():
    f = np.linspace(0.0, 5e6, 200)
    d = np.full(200, 3.3e-9)
    est = band_averaged_deltap(SpectralDensity(f, d), SpectralDensity(f, d.copy()), (1e6, 4e6))
    assert est.value_db == pytest.approx(0.0, abs=1e-12)


def test_band_deltap_factor_two():
    f = np.linspace(0.0, 5e6, 200)
    d = np.full(200, 1e-9)
    est = band_averaged_deltap(
        SpectralDensity(f, d), SpectralDensity(f, 2.0 * d), (1e6, 4e6)
    )
    assert est.value_db == pytest.approx(10.0 * math.log10(0.5), abs=1e-12)


def test_band_deltap_rescale_invariance():
    rng = np.random.default_rng(23)
    f = np.linspace(0.0, 5e6, 300)
    cold = 1e-9 * (1.0 + 0.1 * rng.standard_normal(300)) ** 2
    amb = 2e-9 * (1.0 + 0.1 * rng.standard_normal(300)) ** 2
    base = band_averaged_deltap(
        SpectralDensity(f, cold), SpectralDensity(f, amb), (1e6, 4e6)
    )
    scaled = band_averaged_deltap(
        SpectralDensity(f, 7.3 * cold), SpectralDensity(f, 7.3 * amb), (1e6, 4e6)
    )
    assert scaled.value_db == pytest.approx(base.value_db, abs=1e-12)
    assert scaled.stderr_db == pytest.approx(base.stderr_db, rel=1e-9)


def test_band_deltap_validation():
    f = np.linspace(0.0, 5e6, 100)
    d = np.full(100, 1e-9)
    sd = SpectralDensity(f, d)
    with pytest.raises(DomainError):
        band_averaged_deltap(sd, sd, (4e6, 1e6))
    with pytest.raises(DomainError):
        band_averaged_deltap(sd, sd, (1e6, 9e6))
    other = SpectralDensity(np.linspace(0.0, 4e6, 100), d)
    with pytest.raises(DomainError):
        band_averaged_deltap(sd, other, (1e6, 3e6))


def test_band_deltap_needs_a_bin_and_gives_no_stderr_from_one():
    f = np.linspace(0.0, 5e6, 6)  # a bin every 1 MHz
    sd = SpectralDensity(f, np.full(6, 1e-9))
    with pytest.raises(DomainError, match="no spectral bins inside the band"):
        band_averaged_deltap(sd, sd, (1.2e6, 1.8e6))
    # One bin has no scatter to estimate an uncertainty from.
    est = band_averaged_deltap(sd, SpectralDensity(f, np.full(6, 2e-9)), (1.5e6, 2.5e6))
    assert est.value_db == pytest.approx(10.0 * math.log10(0.5), abs=1e-12)
    assert math.isnan(est.stderr_db)


def test_band_deltap_refuses_zero_band_power():
    f = np.linspace(0.0, 5e6, 100)
    sd = SpectralDensity(f, np.full(100, 1e-9))
    silent = SpectralDensity(f, np.zeros(100))
    for cold, ambient in ((silent, sd), (sd, silent)):
        with pytest.raises(AnalysisError, match="^non-positive band power; cannot form"):
            band_averaged_deltap(cold, ambient, (1e6, 3e6))


def test_band_deltap_edge_bins_do_not_hang_on_the_last_bit_of_the_spacing():
    # The default band [5, 10] MHz falls exactly on bins 64 and 128 of a
    # 256-point segment at 20 MS/s.  Identical spectra on the grids of
    # three spacings one rounding apart must give identical estimates.
    rng = np.random.default_rng(47)
    cold = 1e-9 * (1.0 + 0.3 * rng.standard_normal(129)) ** 2
    amb = 2e-9 * (1.0 + 0.3 * rng.standard_normal(129)) ** 2
    estimates = []
    for dt in (5e-08, 5.0000000000001215e-08, 4.9999999999999e-08):
        probe = NoiseTrace(np.arange(256) * dt, np.zeros((1, 256)))
        f = ensemble_spectral_density(probe, segment_samples=256).frequencies_hz
        estimates.append(band_averaged_deltap(
            SpectralDensity(f, cold), SpectralDensity(f, amb), (5e6, 10e6)
        ))
    assert estimates[1] == estimates[0]
    assert estimates[2] == estimates[0]


def test_pooled_mean_square():
    # Integer-step grid keeps the half-open slice boundaries exact.
    traces = _trace([np.full(100, 2.0), np.full(100, 4.0)], dt=1.0)
    ms, count = pooled_mean_square(traces, 0.0, 50.0)
    assert count == 100
    assert ms == pytest.approx((50 * 4.0 + 50 * 16.0) / 100.0)


def test_pooled_mean_square_sums_blocked_shots_in_shot_order():
    # The pooled value is each shot's sum of squares, added one shot after
    # another, as `tabulate_shots` pools its blocks of shots.
    assert 70 % _BLOCK_SHOTS
    v = np.random.default_rng(41).standard_normal((70, 300))
    ms, count = pooled_mean_square(_trace(v, dt=1.0), 50.0, 250.0)
    section = v[:, 50:250]
    assert count == section.size
    assert ms == float(np.cumsum(np.sum(section**2, axis=1))[-1]) / section.size


def test_segment_deltap_exact_levels():
    # Alternating-sign constant magnitudes make the mean squares exact.
    n = 400
    volts = np.where(np.arange(n) % 2 == 0, 1.0, -1.0).astype(float)
    volts[: n // 2] *= 0.5
    trace = _trace(volts)
    est = segment_deltap(
        pooled_mean_square(trace, 0.0, n // 2 * 1e-7),
        pooled_mean_square(trace, n // 2 * 1e-7, n * 1e-7),
    )
    assert est.value_db == pytest.approx(10.0 * math.log10(0.25), abs=1e-12)
    assert est.stderr_db == pytest.approx(
        (10.0 / math.log(10.0)) * math.sqrt(2.0 / 200 + 2.0 / 200), rel=1e-12
    )


def test_segment_deltap_recovers_known_ratio():
    rng = np.random.default_rng(29)
    n = 100_000
    volts = rng.standard_normal(n)
    volts[: n // 2] *= 10.0 ** (-3.5 / 20.0)  # -3.5 dB power step
    trace = _trace(volts)
    est = segment_deltap(
        pooled_mean_square(trace, 0.0, n // 2 * 1e-7),
        pooled_mean_square(trace, n // 2 * 1e-7, n * 1e-7),
    )
    assert abs(est.value_db + 3.5) < 4.0 * est.stderr_db
    assert est.stderr_db < 0.06


def test_windowed_deltap_constant_level():
    volts = np.where(np.arange(60) % 2 == 0, 3.0, -3.0).astype(float)
    times, dp = windowed_deltap_timeseries(_trace(volts), 9.0, window_samples=10)
    assert len(dp) == 6
    assert np.allclose(dp, 0.0, atol=1e-12)
    # Centers sit mid-window, measured from the section start.
    assert times[0] == pytest.approx(4.5e-7)
    assert times[1] == pytest.approx(14.5e-7)


def test_windowed_deltap_drops_partial_window():
    volts = np.ones(25)
    times, dp = windowed_deltap_timeseries(_trace(volts), 1.0, window_samples=10)
    assert len(dp) == 2


def test_windowed_deltap_zero_window_is_nan():
    volts = np.ones(30)
    volts[10:20] = 0.0
    _, dp = windowed_deltap_timeseries(_trace(volts), 1.0, window_samples=10)
    assert np.isnan(dp[1])
    assert np.isfinite(dp[0]) and np.isfinite(dp[2])


def test_windowed_deltap_pools_shots():
    shots = _trace([np.full(20, 1.0), np.full(20, 3.0)])
    _, dp = windowed_deltap_timeseries(shots, 5.0, window_samples=10)
    assert np.allclose(dp, 0.0, atol=1e-12)  # pooled ms = (1+9)/2 = 5


def test_windowed_deltap_validation():
    with pytest.raises(DomainError):
        windowed_deltap_timeseries(_trace(np.ones(20)), 1.0, window_samples=0)
    with pytest.raises(DomainError):
        windowed_deltap_timeseries(_trace(np.ones(20)), 0.0, window_samples=10)
    with pytest.raises(AnalysisError):
        windowed_deltap_timeseries(_trace(np.ones(5)), 1.0, window_samples=10)


def test_fit_noiseless_single_exponential():
    t = np.linspace(2e-6, 32e-6, 120)
    y = _warmup_db(t, 10.0 ** -0.32 - 1.0, 9e-6)
    fit = fit_biexponential(t, y, 2e-6)
    assert fit.converged
    assert fit.collapsed_single
    assert abs(fit.tau1_s - 9e-6) / 9e-6 < 1e-6
    assert fit.tau2_s == fit.tau1_s
    assert abs(fit.a1_db + 3.2) < 1e-6
    assert fit.a2_db == 0.0
    assert fit.residual_rms_db < 1e-9


def test_fit_degenerate_pair_collapses():
    # Two relaxations three percent apart are one physical constant.
    t = np.linspace(2e-6, 40e-6, 150)
    beta = 10.0 ** (-0.15) - 1.0
    y = 10.0 * np.log10(
        1.0 + beta * np.exp(-t / 9e-6) + beta * np.exp(-t / 9.27e-6)
    )
    fit = fit_biexponential(t, y, 2e-6)
    assert fit.converged
    assert fit.collapsed_single
    assert 8.5e-6 < fit.tau1_s < 9.7e-6


def test_fit_respects_exclusion_window():
    t = np.linspace(0.0, 32e-6, 160)
    y = _warmup_db(t, 10.0 ** -0.3 - 1.0, 9e-6)
    # Corrupt the switching period; default exclusion must ignore it.
    y[t < 2e-6] = 25.0
    fit = fit_biexponential(t, y, 2e-6)
    assert fit.collapsed_single
    assert abs(fit.tau1_s - 9e-6) / 9e-6 < 1e-6
    assert fit.n_points == int(np.sum(t >= 2e-6))


def test_fit_refuses_equal_times():
    t = np.full(20, 5e-6)
    with pytest.raises(AnalysisError, match="^degenerate time axis$"):
        fit_biexponential(t, np.full(20, -1.0), 2e-6)


def test_fit_drops_non_finite_points():
    t = np.linspace(2e-6, 32e-6, 120)
    y = _warmup_db(t, 10.0 ** -0.3 - 1.0, 9e-6)
    y[::10] = np.nan
    fit = fit_biexponential(t, y, 2e-6)
    assert fit.converged
    assert abs(fit.tau1_s - 9e-6) / 9e-6 < 1e-6
    assert fit.n_points == 108


def test_fit_of_a_warmup_seen_only_late_in_the_record():
    # exp(-t/tau) underflows at the short end of the tau scan this far
    # into the record; the fit must still find the relaxation.
    t = np.linspace(20e-6, 40e-6, 80)
    fit = fit_biexponential(t, _warmup_db(t, 10.0 ** -0.3 - 1.0, 9e-6), 2e-6)
    assert fit.converged
    assert abs(fit.tau1_s - 9e-6) / 9e-6 < 1e-6
    assert abs(fit.a1_db + 3.0) < 1e-5


def test_fit_validation():
    with pytest.raises(DomainError):
        fit_biexponential(np.arange(10.0), np.arange(9.0), 2e-6)
    with pytest.raises(AnalysisError):
        fit_biexponential(np.linspace(0, 1e-6, 20), np.ones(20), 2e-6)  # all excluded
    with pytest.raises(AnalysisError):
        fit_biexponential(np.linspace(3e-6, 4e-6, 5), np.ones(5), 2e-6)  # too few


def test_fit_refuses_curve_without_level_at_disconnect():
    # A steep relaxation seen only from 2 us on extrapolates to
    # 1 + A <= 0 at the disconnect, where no level exists.
    t = np.linspace(2e-6, 32e-6, 120)
    y = _warmup_db(t - 2e-6, -0.9, 1e-6)
    with pytest.raises(AnalysisError):
        fit_biexponential(t, y, 2e-6)


def test_fit_zero_series_gives_zero_depth():
    t = np.linspace(2e-6, 32e-6, 100)
    fit = fit_biexponential(t, np.zeros(100), 2e-6)
    assert fit.converged
    assert fit.a1_db == 0.0


def test_fit_nfev_counts_profile_evaluations():
    # the 61-point scan, the two golden-section starts, and the 47 steps
    # that close a two-step log-tau bracket to _LOG_TAU_TOL
    t = np.linspace(2e-6, 32e-6, 120)
    rng = np.random.default_rng(31)
    y = _warmup_db(t) + 0.05 * rng.standard_normal(120)
    fit = fit_biexponential(t, y, 2e-6)
    assert fit.converged
    assert fit.nfev == 61 + 2 + 47


def test_fit_without_warmup_is_not_converged():
    # A constant level is best fitted by an ever slower relaxation, so the
    # profile's minimum sits on the edge of the tau scan.
    t = np.linspace(2e-6, 32e-6, 50)
    fit = fit_biexponential(t, np.full(50, -1.0), 2e-6)
    assert not fit.converged


def _lm_oracle(t, y):
    """The Levenberg-Marquardt fit over (A, log tau) that variable
    projection replaced: A, tau and the residual sum of squares."""
    from scipy import optimize

    inv_r = 10.0 ** (-y / 10.0)
    span = float(t[-1] - t[0])

    def residual(theta):
        with np.errstate(over="ignore", divide="ignore"):
            return (1.0 + theta[0] * np.exp(-t / np.exp(theta[1]))) * inv_r - 1.0

    decay = np.exp(-t / (0.3 * span)) * inv_r
    a0 = float(decay @ (1.0 - inv_r) / (decay @ decay))
    result = optimize.least_squares(
        residual, [a0, math.log(0.3 * span)], method="lm",
        ftol=1e-10, xtol=1e-10, gtol=1e-12, max_nfev=2500,
    )
    return float(result.x[0]), math.exp(result.x[1]), 2.0 * result.cost


@pytest.mark.parametrize("seed", range(40))
def test_fit_matches_levenberg_marquardt_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(9, 150))
    t = np.linspace(2e-6, rng.uniform(15e-6, 40e-6), n)
    sigma_db = (0.005, 0.02, 0.05, 0.1, 0.2)[seed % 5]
    y = _warmup_db(t, rng.uniform(-0.7, -0.05), rng.uniform(3e-6, 15e-6))
    y += sigma_db * rng.standard_normal(n)
    fit = fit_biexponential(t, y, 2e-6)
    a_ref, tau_ref, cost_ref = _lm_oracle(t, y)
    a = 10.0 ** (fit.a1_db / 10.0) - 1.0
    res = (1.0 + a * np.exp(-t / fit.tau1_s)) * 10.0 ** (-y / 10.0) - 1.0
    assert fit.converged
    assert float(res @ res) <= cost_ref * (1.0 + 1e-12)
    # Above 0.05 dB the profile is so flat at its minimum that the
    # oracle's ftol stop leaves tau up to 1.5e-5 off, at a larger cost.
    if sigma_db <= 0.05:
        assert fit.tau1_s == pytest.approx(tau_ref, rel=1e-6)
        assert a == pytest.approx(a_ref, rel=1e-6)


def test_fit_warmup_curve_at_low_noise():
    # The fit must report the relaxation constant near the true tau and
    # extrapolate to the true depth.
    rng = np.random.default_rng(37)
    t = np.arange(2e-6, 30e-6, 0.3e-6)
    y = _warmup_db(t) + 0.005 * rng.standard_normal(len(t))
    fit = fit_biexponential(t, y, 2e-6)
    assert fit.converged
    assert abs(fit.tau2_s - _TAU) < 1.0e-6
    assert abs(fit.a1_db - 10.0 * math.log10(1.0 + _BETA)) < 0.4
    assert 0.0 < fit.a1_stderr_db < 0.2


def test_fit_residual_whiteness_on_correct_model():
    rng = np.random.default_rng(41)
    t = np.linspace(2e-6, 32e-6, 300)
    y = _warmup_db(t, 10.0 ** -0.35 - 1.0, 9e-6) + 0.05 * rng.standard_normal(300)
    fit = fit_biexponential(t, y, 2e-6)
    model = _warmup_db(t, 10.0 ** (fit.a1_db / 10.0) - 1.0, fit.tau1_s)
    r = y - model
    r = r - r.mean()
    rho1 = float(np.sum(r[1:] * r[:-1]) / np.sum(r * r))
    assert abs(rho1) < 0.1


def test_depth_error_propagation_against_monte_carlo():
    # Reported standard error versus the scatter of 200 refits on fresh
    # noise realizations of a correctly specified relaxation curve.
    rng = np.random.default_rng(43)
    t = np.linspace(2e-6, 30e-6, 95)
    clean = _warmup_db(t, 10.0 ** -0.35 - 1.0, 9e-6)
    depths = []
    stderrs = []
    for _ in range(200):
        fit = fit_biexponential(t, clean + 0.05 * rng.standard_normal(95), 2e-6)
        assert fit.converged
        depths.append(fit.a1_db)
        stderrs.append(fit.a1_stderr_db)
    mc_scatter = float(np.std(depths, ddof=1))
    reported = float(np.mean(stderrs))
    assert abs(reported - mc_scatter) / mc_scatter < 0.3
    # And the estimator is unbiased at this noise level.
    assert abs(float(np.mean(depths)) + 3.5) < 3.0 * mc_scatter / math.sqrt(200)


def test_fit_converges_at_seed_10401014():
    # A two-exponential fit in dB runs away on this seed's 9-point series
    # (a1 near -1.6e8 dB, tau1 near 0.22 us).
    from cavitycool.config import default_run_config, with_seed
    from cavitycool.pipeline import analyze_run, simulate_run

    cfg = with_seed(default_run_config(), 10401014)
    sim = simulate_run(cfg)
    report = analyze_run(sim.traces, cfg, sim.disconnect_time_s)
    assert report.fit is not None and report.fit.converged


def test_closure_warmup_estimates_unbiased():
    # Seeded closures against the ground truth: the monitoring-only
    # relaxation time and the predicted level change.
    from cavitycool.config import default_run_config, with_seed
    from cavitycool.dynamics import relaxation_time
    from cavitycool.pipeline import analyze_run, simulate_run
    from cavitycool.receiver import noise_power_reduction_db
    from cavitycool.thermal import mode_temperature

    base = default_run_config()
    ambient_baths = base.baths.subset(base.persistent_port_indices())
    tau_true = relaxation_time(base.mode, ambient_baths)
    predicted_db = noise_power_reduction_db(
        base.receiver, mode_temperature(base.baths), mode_temperature(ambient_baths)
    )
    taus = []
    depths = []
    for seed in range(1000, 1020):
        cfg = with_seed(base, seed)
        sim = simulate_run(cfg)
        report = analyze_run(sim.traces, cfg, sim.disconnect_time_s)
        taus.append(report.warmup_time_s)
        depths.append(report.depth_db.value_db)
    assert abs(np.mean(taus) / tau_true - 1.0) < 0.03
    assert abs(np.mean(depths) - predicted_db) < 0.1


def test_closure_band_level_unbiased():
    # The band level reads the same mean-subtracted residuals as the direct
    # level: over 12 seeds of 150 shots at the bench default (1/f off) its
    # mean lies within 3 standard errors of the predicted level change.
    from dataclasses import replace

    from cavitycool.config import default_run_config, with_seed
    from cavitycool.pipeline import analyze_run, simulate_run
    from cavitycool.receiver import noise_power_reduction_db
    from cavitycool.thermal import mode_temperature

    base = replace(default_run_config(), n_shots=150)
    assert base.synth.one_over_f_corner_hz == 0.0
    ambient_baths = base.baths.subset(base.persistent_port_indices())
    predicted_db = noise_power_reduction_db(
        base.receiver, mode_temperature(base.baths), mode_temperature(ambient_baths)
    )
    assert predicted_db == pytest.approx(-3.47327, abs=5e-6)
    levels = []
    for seed in range(900, 912):
        cfg = with_seed(base, seed)
        sim = simulate_run(cfg)
        levels.append(analyze_run(sim.traces, cfg, sim.disconnect_time_s).deltap_band.value_db)
    stderr = np.std(levels, ddof=1) / math.sqrt(len(levels))
    assert abs(np.mean(levels) - predicted_db) < 3.0 * stderr


@pytest.mark.parametrize("reference", [
    0.5 + 0j,
    pytest.param(0j, marks=pytest.mark.xfail(strict=True, reason=(
        "synth draws the ambient state with the cooled-state match "
        "cavity_reflection, where steady and analyze read "
        "cavity_reflection_reference: the level lies 35 or more standard errors "
        "above the predicted one and the inferred temperature near 143 K"
    ))),
])
def test_closure_with_a_port_match_that_changes_between_states(reference):
    # The cooled state sees cavity_reflection = 0.5, the ambient state the
    # reference match.  With equal matches seeds 100-104 of 150 shots lie
    # within 2.5 standard errors of the predicted level.
    from dataclasses import replace

    from cavitycool.config import _steady_temperatures, default_run_config, with_seed
    from cavitycool.pipeline import analyze_run, simulate_run
    from cavitycool.receiver import noise_power_reduction_db

    base = replace(default_run_config(), n_shots=150)
    chain = replace(
        base.receiver, cavity_reflection=0.5 + 0j, cavity_reflection_reference=reference
    )
    cfg = with_seed(replace(base, receiver=chain), 100)
    cooled, ambient = _steady_temperatures(cfg)
    predicted_db = noise_power_reduction_db(chain, cooled, ambient)
    report = analyze_run(simulate_run(cfg).traces, cfg)
    level, stderr = report.deltap_direct
    assert abs(level - predicted_db) < 5.0 * stderr
    assert report.t_mode_inferred_k == pytest.approx(cooled, rel=0.05)
