"""Voltage trace synthesis: reproducibility, noise statistics, the 1/f
component, and switch transients.
"""

import hashlib
import math

import numpy as np
import pytest
from scipy import signal, stats

from cavitycool.dynamics import PhotonTrajectory
from cavitycool.errors import DomainError, replace
from cavitycool.receiver import LnaNoiseParameters, ReceiverChain, system_output_noise_kelvin
from cavitycool.synth import (
    NoiseTrace,
    SynthConfig,
    sample_sigma,
    shot_seed,
    switch_artifact_waveform,
    synthesize_shot_ensemble,
    synthesize_trace,
)


def _chain():
    return ReceiverChain(
        lna=LnaNoiseParameters(
            t_min_k=11.6, noise_resistance_ohm=2.0, gamma_opt=0.073 + 0.125j
        ),
        lna_gain_linear=166.0,
        post_stage_noise_k=36.1,
    )


def _flat_trajectory(cfg: SynthConfig, n: int, temperature_k: float) -> PhotonTrajectory:
    times = np.arange(n) * cfg.sample_interval_s
    temps = np.full(n, temperature_k)
    return PhotonTrajectory(times, temps)


def _step_trajectory(
    cfg: SynthConfig, n: int, t_first_k: float, t_second_k: float
) -> PhotonTrajectory:
    times = np.arange(n) * cfg.sample_interval_s
    temps = np.full(n, t_first_k)
    temps[n // 2 :] = t_second_k
    return PhotonTrajectory(times, temps)


def test_shot_seed_golden_value():
    # First SplitMix64 output for state 0: pinned so the stream can be
    # reproduced by any independent implementation.
    assert shot_seed(0, 0) == 0xE220A8397B1DCDAF


def test_shot_seeds_distinct_and_reproducible():
    seeds = [shot_seed(20260817, i) for i in range(500)]
    assert len(set(seeds)) == 500
    assert seeds == [shot_seed(20260817, i) for i in range(500)]
    assert all(0 <= s <= (1 << 64) - 1 for s in seeds)


def test_shot_seed_validation():
    with pytest.raises(DomainError):
        shot_seed(-1, 0)
    with pytest.raises(DomainError):
        shot_seed(1 << 64, 0)
    with pytest.raises(DomainError):
        shot_seed(0, -1)


def test_trace_reproducible_bit_for_bit():
    cfg = SynthConfig(
        sample_interval_s=1e-7,
        rng_seed=99,
        one_over_f_corner_hz=1e6,
        artifact_amplitude_v=0.01,
        voltage_scale=1e-3,
    )
    traj = _flat_trajectory(cfg, 1001, 290.0)
    chain = _chain()
    a = synthesize_trace(traj, chain, cfg, (40e-6,))
    b = synthesize_trace(traj, chain, cfg, (40e-6,))
    assert np.array_equal(a.voltages_v, b.voltages_v)
    assert a.n_shots == 1


def test_different_seeds_differ():
    cfg = SynthConfig(
        sample_interval_s=1e-7, rng_seed=1, voltage_scale=1e-3,
        one_over_f_corner_hz=0.0,
    )
    traj = _flat_trajectory(cfg, 1001, 290.0)
    chain = _chain()
    a = synthesize_trace(traj, chain, cfg)
    b = synthesize_trace(traj, chain, replace(cfg, rng_seed=2))
    assert not np.array_equal(a.voltages_v, b.voltages_v)


def test_constant_temperature_variance_tracks_system_noise():
    # 1e6 samples: the sample variance must land within 0.5% of
    # voltage_scale^2 * system output noise.
    cfg = SynthConfig(
        sample_interval_s=1e-7,
        rng_seed=7,
        one_over_f_corner_hz=0.0,
        voltage_scale=1e-3,
    )
    traj = _flat_trajectory(cfg, 1_000_000, 290.0)
    chain = _chain()
    trace = synthesize_trace(traj, chain, cfg)
    assert len(trace) >= 10**6
    expected = 1e-6 * system_output_noise_kelvin(chain, 290.0)
    measured = float(np.var(trace.voltages_v))
    assert abs(measured - expected) / expected < 0.005


def test_white_noise_is_gaussian():
    # Jarque-Bera moment test on 1e6 samples at the 1e-3 level:
    # the statistic is chi-squared with 2 dof under normality.
    cfg = SynthConfig(
        sample_interval_s=1e-7,
        rng_seed=11,
        one_over_f_corner_hz=0.0,
        voltage_scale=1e-3,
    )
    trace = synthesize_trace(_flat_trajectory(cfg, 1_000_000, 290.0), _chain(), cfg)
    jb = stats.jarque_bera(trace.voltages_v[0]).statistic
    assert jb < stats.chi2.ppf(1.0 - 1e-3, 2)


def test_zero_voltage_scale_leaves_only_injected():
    # A coherent waveform is injected by adding it to the synthesized
    # voltages; with no noise that sum is the waveform itself.
    n = 1000
    injected = 0.5 * np.sin(np.linspace(0.0, 8.0, n))
    cfg = SynthConfig(
        sample_interval_s=1e-7,
        rng_seed=3,
        voltage_scale=0.0,
        one_over_f_corner_hz=0.0,
    )
    trace = synthesize_trace(_flat_trajectory(cfg, n, 290.0), _chain(), cfg)
    assert len(trace) == n
    assert np.all(trace.voltages_v == 0.0)
    assert np.array_equal(trace.voltages_v[0] + injected, injected)


def test_segment_variance_ratio_matches_prediction():
    # Cooled first half, ambient second half: the variance ratio in dB
    # must reproduce the receiver prediction for those two temperatures.
    cfg = SynthConfig(
        sample_interval_s=1e-7,
        rng_seed=17,
        one_over_f_corner_hz=0.0,
        voltage_scale=1e-3,
    )
    chain = _chain()
    traj = _step_trajectory(cfg, 100_000, 108.217470804590, 256.279052430086)
    trace = synthesize_trace(traj, chain, cfg)
    half = len(trace) // 2
    volts = trace.voltages_v[0]
    ratio_db = 10.0 * math.log10(float(np.var(volts[:half]) / np.var(volts[half:])))
    assert abs(ratio_db - (-3.4733)) < 0.2


def test_artifact_waveform_shape():
    cfg = SynthConfig(sample_interval_s=1e-7, artifact_amplitude_v=0.25)
    wave = switch_artifact_waveform(cfg)
    # Default transient duration is 2 us.
    assert len(wave) == 20
    assert wave[0] == 0.0
    assert np.max(np.abs(wave)) <= 0.25
    assert np.max(np.abs(wave)) > 0.05
    # Amplitude scales the waveform linearly.
    twice = switch_artifact_waveform(replace(cfg, artifact_amplitude_v=0.5))
    assert np.allclose(twice, 2.0 * wave, rtol=1e-15)


def test_artifact_deterministic_and_seed_independent():
    base = SynthConfig(
        sample_interval_s=1e-7,
        rng_seed=5,
        one_over_f_corner_hz=0.0,
        voltage_scale=1e-3,
    )
    traj = _flat_trajectory(base, 1001, 290.0)
    chain = _chain()

    def artifact_part(seed):
        with_art = synthesize_trace(
            traj, chain, replace(base, rng_seed=seed, artifact_amplitude_v=0.02), (40e-6,)
        )
        without = synthesize_trace(traj, chain, replace(base, rng_seed=seed), (40e-6,))
        return with_art.voltages_v[0] - without.voltages_v[0]

    part_a = artifact_part(5)
    part_b = artifact_part(1234)
    assert np.allclose(part_a, part_b, atol=1e-15)
    # Placed at the switch instant, zero elsewhere.
    i0 = int(round(40e-6 / 1e-7))
    assert np.all(part_a[:i0] == 0.0)
    assert np.all(part_a[i0 + 20 :] == 0.0)
    assert np.any(part_a[i0 : i0 + 20] != 0.0)


def test_zero_amplitude_disables_artifact():
    cfg = SynthConfig(
        sample_interval_s=1e-7,
        rng_seed=5,
        one_over_f_corner_hz=0.0,
        voltage_scale=1e-3,
        artifact_amplitude_v=0.0,
    )
    traj = _flat_trajectory(cfg, 1001, 290.0)
    chain = _chain()
    with_switches = synthesize_trace(traj, chain, cfg, (40e-6,))
    without = synthesize_trace(traj, chain, cfg)
    assert np.array_equal(with_switches.voltages_v, without.voltages_v)


def test_switch_artifact_placement_and_cropping():
    cfg = SynthConfig(
        sample_interval_s=1e-7,
        artifact_amplitude_v=0.1,
        voltage_scale=0.0,
        one_over_f_corner_hz=0.0,
    )
    traj = _flat_trajectory(cfg, 1001, 290.0)

    def at(*switch_times_s):
        return synthesize_trace(traj, _chain(), cfg, switch_times_s).voltages_v[0]

    out = at(50e-6)
    wave = switch_artifact_waveform(cfg)
    i0 = 500
    assert np.allclose(out[i0 : i0 + 20], wave, atol=1e-15)
    assert np.all(out[:i0] == 0.0)
    assert np.all(out[i0 + 20 :] == 0.0)
    # Beyond the end of the record the transient is cropped, not an error.
    tail = at(99.5e-6)
    assert np.any(tail != 0.0)
    assert np.count_nonzero(tail) < np.count_nonzero(out)
    assert np.all(at(200e-6) == 0.0)
    # Each switch instant gets its own copy of the transient.
    assert np.array_equal(at(10e-6, 50e-6)[i0:], out[i0:])


def test_ensemble_single_shot_equals_direct_call():
    cfg = SynthConfig(
        sample_interval_s=1e-7,
        rng_seed=20260817,
        one_over_f_corner_hz=1e6,
        voltage_scale=1e-3,
    )
    traj = _flat_trajectory(cfg, 1001, 290.0)
    chain = _chain()
    shot = synthesize_shot_ensemble(traj, chain, cfg, 1)
    direct = synthesize_trace(
        traj, chain, replace(cfg, rng_seed=shot_seed(20260817, 0))
    )
    assert shot.n_shots == 1
    assert np.array_equal(shot.voltages_v, direct.voltages_v)
    assert np.array_equal(shot.times_s, direct.times_s)


def test_ensemble_row_i_is_the_shot_i_stream():
    # Flicker and transients on: every row is the record synthesize_trace
    # draws from shot i's seed, bit for bit.
    cfg = SynthConfig(
        sample_interval_s=1e-7,
        rng_seed=20260817,
        one_over_f_corner_hz=1e6,
        artifact_amplitude_v=0.02,
        voltage_scale=1e-3,
    )
    traj = _step_trajectory(cfg, 1001, 108.0, 256.0)
    chain = _chain()
    shots = synthesize_shot_ensemble(traj, chain, cfg, 4, (0.0, 40e-6))
    assert shots.voltages_v.shape == (4, 1001)
    for i, row in enumerate(shots.voltages_v):
        direct = synthesize_trace(
            traj, chain, replace(cfg, rng_seed=shot_seed(20260817, i)), (0.0, 40e-6)
        )
        assert np.array_equal(row, direct.voltages_v[0])


def test_ensemble_rows_match_an_independent_philox_oracle(monkeypatch):
    # 1/f and transients off, so row i is sigma times the first n normals
    # of a freshly built Philox keyed with shot i's seed; and the ensemble
    # builds one bit generator, however many shots it has.
    cfg = SynthConfig(
        sample_interval_s=1e-7,
        rng_seed=20260817,
        one_over_f_corner_hz=0.0,
        voltage_scale=1e-3,
    )
    n, n_shots = 301, 41
    traj = _step_trajectory(cfg, n, 108.0, 256.0)
    chain = _chain()
    sigma = sample_sigma(chain, cfg, traj.temperature_k)
    philox = np.random.Philox
    built = []

    def counting_philox(*args, **kwargs):
        built.append(kwargs)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting_philox)
    shots = synthesize_shot_ensemble(traj, chain, cfg, n_shots)
    monkeypatch.undo()
    assert len(built) == 1
    for i in (0, 1, n_shots - 1):
        draws = np.random.Generator(philox(key=shot_seed(cfg.rng_seed, i))).standard_normal(n)
        assert shots.voltages_v[i].tobytes() == (sigma * draws).tobytes()


def test_ensemble_shots_are_independent_and_reproducible():
    cfg = SynthConfig(
        sample_interval_s=1e-7,
        rng_seed=8,
        one_over_f_corner_hz=0.0,
        voltage_scale=1e-3,
    )
    traj = _flat_trajectory(cfg, 201, 290.0)
    chain = _chain()
    shots = synthesize_shot_ensemble(traj, chain, cfg, 8)
    again = synthesize_shot_ensemble(traj, chain, cfg, 8)
    assert np.array_equal(shots.voltages_v, again.voltages_v)
    rows = shots.voltages_v
    for i in range(shots.n_shots):
        for j in range(i + 1, shots.n_shots):
            assert not np.array_equal(rows[i], rows[j])


def test_ensemble_mean_recovers_deterministic_part():
    n_shots = 400
    injected = 0.5 * signal.sawtooth(np.linspace(0.0, 20.0, 200), width=0.5)
    cfg = SynthConfig(
        sample_interval_s=1e-7,
        rng_seed=31,
        one_over_f_corner_hz=0.0,
        voltage_scale=1e-3,
    )
    traj = _flat_trajectory(cfg, 200, 290.0)
    chain = _chain()
    shots = synthesize_shot_ensemble(traj, chain, cfg, n_shots)
    mean = (shots.voltages_v + injected).mean(axis=0)
    sigma = 1e-3 * math.sqrt(system_output_noise_kelvin(chain, 290.0))
    tol = 5.0 * sigma / math.sqrt(n_shots)
    assert np.max(np.abs(mean - injected)) < tol


def test_flicker_corner_frequency():
    # The summed 1/f bank is normalised to equal the white floor at the
    # corner, so the averaged PSD must cross twice the floor there.
    corner = 1e6
    cfg = SynthConfig(
        sample_interval_s=1e-7,
        rng_seed=23,
        one_over_f_corner_hz=corner,
        voltage_scale=1e-3,
    )
    traj = _flat_trajectory(cfg, 65_537, 290.0)
    chain = _chain()
    shots = synthesize_shot_ensemble(traj, chain, cfg, 12)
    freqs, psd = signal.welch(
        shots.voltages_v, fs=1e7, nperseg=8192, noverlap=4096, axis=-1, scaling="density"
    )
    psd = psd.mean(axis=0)
    sigma2 = 1e-6 * system_output_noise_kelvin(chain, 290.0)
    floor = 2.0 * 1e-7 * sigma2
    excess = psd / floor - 1.0  # flicker part in units of the floor
    sel = (freqs > 1e4) & (freqs < 4.9e6)
    f_sel, e_sel = freqs[sel], excess[sel]
    # Smooth in log space, then locate the downward crossing of 1.
    kernel = np.ones(15) / 15.0
    smooth = np.convolve(np.log(np.maximum(e_sel, 1e-12)), kernel, mode="same")
    above = smooth > 0.0
    idx = np.nonzero(above[:-1] & ~above[1:])[0]
    assert idx.size > 0
    i = idx[-1]
    # Linear interpolation of the log-excess zero crossing.
    frac = smooth[i] / (smooth[i] - smooth[i + 1])
    f_cross = f_sel[i] + frac * (f_sel[i + 1] - f_sel[i])
    assert 0.8 * corner < f_cross < 1.2 * corner


# Bytes of a small 1/f-on ensemble with switch transients: the flicker
# bank's draw order and filter are part of the reproducibility contract.
_FLICKER_ENSEMBLE_SHA256 = "934ba000c7fc5e55aaaa6d086989b934c2379d3d01a5056dd1936fdeba4d6f58"


def test_flicker_ensemble_bytes_pinned():
    cfg = SynthConfig(
        sample_interval_s=1e-7,
        rng_seed=20260817,
        one_over_f_corner_hz=1e6,
        artifact_amplitude_v=0.02,
        voltage_scale=1e-3,
    )
    traj = _step_trajectory(cfg, 1001, 108.0, 256.0)
    shots = synthesize_shot_ensemble(traj, _chain(), cfg, 5, (0.0, 40e-6))
    digest = hashlib.sha256(shots.voltages_v.tobytes()).hexdigest()
    assert digest == _FLICKER_ENSEMBLE_SHA256


def test_flicker_raises_low_frequency_power():
    cfg = SynthConfig(
        sample_interval_s=1e-7,
        rng_seed=29,
        one_over_f_corner_hz=1e6,
        voltage_scale=1e-3,
    )
    traj = _flat_trajectory(cfg, 10_000, 290.0)
    chain = _chain()
    with_f = synthesize_trace(traj, chain, cfg)
    without = synthesize_trace(traj, chain, replace(cfg, one_over_f_corner_hz=0.0))
    freqs, psd_f = signal.welch(with_f.voltages_v[0], fs=1e7, nperseg=2048)
    _, psd_w = signal.welch(without.voltages_v[0], fs=1e7, nperseg=2048)
    low = freqs < 2e5
    high = freqs > 4e6
    assert psd_f[low].mean() > 3.0 * psd_w[low].mean()
    assert psd_f[high].mean() < 1.5 * psd_w[high].mean()


def test_flicker_of_a_one_sample_record_uses_one_source():
    # No octave fits one sample: the bank falls back to one source at
    # half Nyquist, normalised as any other.
    cfg = SynthConfig(sample_interval_s=1e-7, one_over_f_corner_hz=1e6, rng_seed=3)
    trace = synthesize_trace(_flat_trajectory(cfg, 1, 100.0), _chain(), cfg)
    assert trace.voltages_v.shape == (1, 1)
    assert np.isfinite(trace.voltages_v).all()


def test_artifact_waveform_cut_to_a_record_is_its_head():
    # A transient longer than the record is sampled only where the record
    # holds it: 1e300 s of it was an array too large to allocate.
    cfg = SynthConfig(artifact_duration_s=2e-6, artifact_amplitude_v=1.0)
    assert np.array_equal(switch_artifact_waveform(cfg, 7), switch_artifact_waveform(cfg)[:7])
    assert len(switch_artifact_waveform(cfg, 100)) == 20
    endless = replace(cfg, artifact_duration_s=1e300)
    assert len(switch_artifact_waveform(endless, 50)) == 50
    traj = _flat_trajectory(endless, 50, 100.0)
    trace = synthesize_trace(traj, _chain(), endless, switch_times_s=(0.0,))
    assert np.isfinite(trace.voltages_v).all()


def test_trajectory_grid_must_match_config():
    # The trace takes its length from the trajectory, whose samples must
    # sit on k * sample_interval_s.
    cfg = SynthConfig(sample_interval_s=1e-7, voltage_scale=1e-3)
    chain = _chain()
    n = 1001
    assert len(synthesize_trace(_flat_trajectory(cfg, n, 290.0), chain, cfg)) == n
    shifted = PhotonTrajectory(np.arange(n) * 1e-7 + 1e-9, np.full(n, 290.0))
    with pytest.raises(DomainError):
        synthesize_trace(shifted, chain, cfg)


def test_config_validation():
    with pytest.raises(DomainError):
        SynthConfig(sample_interval_s=0.0)
    with pytest.raises(DomainError):
        SynthConfig(rng_seed=-1)
    with pytest.raises(DomainError):
        SynthConfig(rng_seed=1 << 64)
    with pytest.raises(DomainError):
        SynthConfig(sample_interval_s=1e-7, one_over_f_corner_hz=5e6)
    with pytest.raises(DomainError):
        SynthConfig(artifact_duration_s=0.0)
    with pytest.raises(DomainError):
        SynthConfig(artifact_amplitude_v=-0.1)
    with pytest.raises(DomainError):
        SynthConfig(voltage_scale=-1.0)
    cfg = SynthConfig(voltage_scale=1e-3)
    with pytest.raises(DomainError, match="switch times must be >= 0"):
        synthesize_trace(_flat_trajectory(cfg, 100, 290.0), _chain(), cfg, (-1e-6,))


def test_synthesis_takes_switch_times_from_a_generator():
    cfg = SynthConfig(sample_interval_s=1e-7, artifact_amplitude_v=0.1, voltage_scale=1e-3)
    traj = _flat_trajectory(cfg, 101, 290.0)
    listed = synthesize_shot_ensemble(traj, _chain(), cfg, 2, (1e-6, 5e-6))
    generated = synthesize_shot_ensemble(traj, _chain(), cfg, 2, (t for t in (1e-6, 5e-6)))
    assert np.array_equal(generated.voltages_v, listed.voltages_v)
    with pytest.raises(DomainError, match="switch times must be >= 0"):
        synthesize_shot_ensemble(traj, _chain(), cfg, 2, (t for t in (1e-6, -5e-6)))


def test_noise_trace_validation_and_slicing():
    times = np.arange(100) * 1e-7
    volts = np.ones((3, 100))
    with pytest.raises(DomainError):
        NoiseTrace(times, np.ones((3, 99)))
    with pytest.raises(DomainError):
        NoiseTrace(times, np.ones(100))  # a record is a one-row ensemble
    with pytest.raises(DomainError):
        NoiseTrace(times, np.ones((0, 100)))
    with pytest.raises(DomainError):
        NoiseTrace(times[::-1].copy(), volts)
    trace = NoiseTrace(times, volts)
    assert trace.n_shots == 3
    assert len(trace) == 100
    # Exactly representable grid (steps of 0.5) for crisp half-open slicing.
    exact = NoiseTrace(np.arange(100) * 0.5, np.arange(300.0).reshape(3, 100))
    part = exact.slice_time(10.0, 25.0)
    assert len(part) == 30
    assert part.n_shots == 3
    assert part.times_s[0] == 10.0
    assert part.times_s[-1] == 24.5
    assert np.array_equal(part.voltages_v, exact.voltages_v[:, 20:50])
    with pytest.raises(DomainError):
        exact.slice_time(25.0, 10.0)
    with pytest.raises(DomainError):
        exact.slice_time(1000.0, 2000.0)


def test_noise_trace_sections_are_read_only_views():
    source = np.zeros((2, 100))
    trace = NoiseTrace(np.arange(100) * 0.5, source)
    part = trace.slice_time(10.0, 25.0)
    assert np.shares_memory(part.voltages_v, source)
    assert np.shares_memory(part.times_s, trace.times_s)
    for array in (trace.voltages_v, trace.times_s, part.voltages_v, part.times_s):
        with pytest.raises(ValueError):
            array += 1.0
    # The caller's own array stays writable; only the views are locked.
    source[0, 0] = 1.0
    assert trace.voltages_v[0, 0] == 1.0
