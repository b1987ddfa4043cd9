"""Receiver output voltage trace synthesis.

Generates the baseband noise a square-law-free homodyne receiver would
deliver while the mode temperature follows a given trajectory: white
Gaussian noise whose per-sample variance tracks the receiver output
noise for the instantaneous mode temperature, an optional 1/f component
pinned to a corner frequency, a deterministic switch transient at each
switching instant, and an optional injected waveform.

Reproducibility contract: an ensemble is a pure function of the
configuration (seed included), the shot count and the trajectory.
Per-shot seeds are derived from the master seed with SplitMix64 (output
element i of the sequence seeded by the master), and row i of the
ensemble comes from a Philox counter-based generator keyed with shot
i's derived seed, so a row does not depend on the other shots.  Both
steps are documented so the stream can be reproduced outside Python.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import PhotonTrajectory
from .errors import DomainError
from .receiver import ReceiverChain, system_output_noise_kelvin

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15

# Octave-spaced relaxation sources below Nyquist build the 1/f slope;
# capped so pathological corner/duration combinations stay bounded.
_MAX_FLICKER_SOURCES = 24


def shot_seed(master_seed: int, shot_index: int) -> int:
    """Derived 64-bit seed for one shot of an ensemble.

    Returns output element `shot_index` of the SplitMix64 sequence whose
    state starts at `master_seed`:

        z = (master + (i+1) * 0x9E3779B97F4A7C15) mod 2**64
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 mod 2**64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB mod 2**64
        return z ^ (z >> 31)
    """
    if not 0 <= master_seed <= _MASK64:
        raise DomainError("master seed must fit in 64 bits")
    if shot_index < 0:
        raise DomainError("shot index must be >= 0")
    z = (master_seed + (shot_index + 1) * _SPLITMIX_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for trace synthesis.

    The record length is not one of them: a trace takes its grid, and
    so its sample count, from the mode-temperature trajectory it is
    drawn for, which must be sampled every sample_interval_s from t = 0.
    voltage_scale is the detector calibration in volts per sqrt(kelvin)
    of receiver output noise; the per-sample standard deviation is
    voltage_scale * sqrt(system output noise in K).  A corner frequency
    of 0 disables the 1/f component.  switch_times_s lists the instants
    that receive the deterministic switch transient.
    """

    sample_interval_s: float = 100e-9
    rng_seed: int = 0
    one_over_f_corner_hz: float = 1e6
    artifact_duration_s: float = 2e-6
    artifact_amplitude_v: float = 0.0
    voltage_scale: float = 1.0
    switch_times_s: tuple[float, ...] = ()
    injected_signal: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.sample_interval_s <= 0:
            raise DomainError("sample interval must be positive")
        if not 0 <= self.rng_seed <= _MASK64:
            raise DomainError("seed must fit in 64 bits")
        if self.one_over_f_corner_hz < 0:
            raise DomainError("corner frequency must be >= 0")
        nyquist = 0.5 / self.sample_interval_s
        if self.one_over_f_corner_hz >= nyquist:
            raise DomainError(
                f"corner frequency {self.one_over_f_corner_hz} Hz must sit "
                f"below Nyquist ({nyquist} Hz)"
            )
        if self.artifact_duration_s <= 0:
            raise DomainError("artifact duration must be positive")
        if self.artifact_amplitude_v < 0:
            raise DomainError("artifact amplitude must be >= 0")
        if self.voltage_scale < 0:
            raise DomainError("voltage scale must be >= 0")
        if any(t < 0 for t in self.switch_times_s):
            raise DomainError("switch times must be >= 0")
        object.__setattr__(self, "switch_times_s", tuple(self.switch_times_s))


@dataclass
class NoiseTrace:
    """A shot ensemble: row i of `voltages_v`, shape (n_shots, n_samples),
    is shot i sampled on the common 1-D grid `times_s`.  A single record
    is a one-row ensemble.

    Both arrays are stored as read-only views, so sections can share one
    buffer and a stray in-place operation raises instead of corrupting it.
    """

    times_s: np.ndarray
    voltages_v: np.ndarray

    def __post_init__(self) -> None:
        self.times_s = _read_only(self.times_s)
        self.voltages_v = _read_only(self.voltages_v)
        if self.voltages_v.ndim != 2 or self.voltages_v.shape[1:] != self.times_s.shape:
            raise DomainError("voltages must be (n_shots, n_samples) on a 1-D time grid")
        if self.n_shots < 1:
            raise DomainError("need at least one shot")
        # Cheap ordering check only; the CSV reader does the full grid
        # validation, and internal producers construct sorted grids.
        n = len(self.times_s)
        if n >= 2 and (
            self.times_s[0] >= self.times_s[1]
            or self.times_s[-2] >= self.times_s[-1]
            or (n > 2 and self.times_s[n // 2] >= self.times_s[n // 2 + 1])
        ):
            raise DomainError("sample times must be strictly increasing")

    def __len__(self) -> int:
        """Samples per shot."""
        return len(self.times_s)

    @property
    def n_shots(self) -> int:
        return self.voltages_v.shape[0]

    @property
    def sample_interval_s(self) -> float:
        if len(self.times_s) < 2:
            raise DomainError("need at least two samples for an interval")
        return float(self.times_s[1] - self.times_s[0])

    def slice_time(self, t_start_s: float, t_stop_s: float) -> "NoiseTrace":
        """View of every shot's samples with t_start_s <= t < t_stop_s."""
        if t_stop_s <= t_start_s:
            raise DomainError("empty time slice")
        lo = int(np.searchsorted(self.times_s, t_start_s, side="left"))
        hi = int(np.searchsorted(self.times_s, t_stop_s, side="left"))
        if hi <= lo:
            raise DomainError(f"no samples in [{t_start_s}, {t_stop_s}) s")
        return NoiseTrace(self.times_s[lo:hi], self.voltages_v[:, lo:hi])


def _read_only(values) -> np.ndarray:
    view = np.asarray(values, dtype=float).view()
    view.flags.writeable = False
    return view


def switch_artifact_waveform(cfg: SynthConfig) -> np.ndarray:
    """The deterministic transient added at each switch instant.

    A critically damped two-cycle ring, identical for every seed:
    A * sin(4 pi u / d) * exp(-3 u / d) sampled on the trace grid
    for 0 <= u < d.
    """
    n = max(1, int(round(cfg.artifact_duration_s / cfg.sample_interval_s)))
    u = np.arange(n) * cfg.sample_interval_s / cfg.artifact_duration_s
    return cfg.artifact_amplitude_v * np.sin(4.0 * math.pi * u) * np.exp(-3.0 * u)


def _flicker_component(
    rng: np.random.Generator, n: int, dt: float, corner_hz: float, white_variance: float
) -> np.ndarray:
    """1/f-like voltage component from a bank of octave-spaced relaxation
    (first-order filtered) sources.

    Normalised so the summed one-sided power spectral density equals the
    white floor `2 * dt * white_variance` at the corner frequency.
    """
    from scipy import signal

    nyquist = 0.5 / dt
    lowest_useful = 1.0 / (n * dt)
    freqs = []
    f = nyquist / 2.0
    while f >= lowest_useful / 2.0 and len(freqs) < _MAX_FLICKER_SOURCES:
        freqs.append(f)
        f /= 2.0
    if not freqs:
        freqs = [nyquist / 2.0]

    total = np.zeros(n)
    for f_k in freqs:
        a = math.exp(-2.0 * math.pi * f_k * dt)
        s = math.sqrt(1.0 - a * a)
        x0 = rng.standard_normal()
        drive = rng.standard_normal(n)
        # x[j] = a x[j-1] + s w[j], started from a stationary draw.
        x, _ = signal.lfilter([s], [1.0, -a], drive, zi=np.array([a * x0]))
        total += x

    # One-sided PSD of the summed bank at the corner, for unit sources.
    density = 0.0
    for f_k in freqs:
        a = math.exp(-2.0 * math.pi * f_k * dt)
        s2 = 1.0 - a * a
        z = 2.0 * math.pi * corner_hz * dt
        density += s2 * 2.0 * dt / (1.0 - 2.0 * a * math.cos(z) + a * a)
    white_floor = 2.0 * dt * white_variance
    return math.sqrt(white_floor / density) * total


def _synthesize(
    trajectory: PhotonTrajectory, chain: ReceiverChain, cfg: SynthConfig, seeds: list[int]
) -> NoiseTrace:
    """Row i from the Philox stream keyed by seeds[i], drawn in a fixed
    order (part of the reproducibility contract): white samples first,
    then, if enabled, one stationary start plus n drive samples per
    flicker source from lowest octave index up.  The deterministic
    components (switch transients, injected signal) follow, identical
    in every row.  The rows share the trajectory's grid, which must sit
    on k * cfg.sample_interval_s.
    """
    n = len(trajectory)
    times = np.arange(n) * cfg.sample_interval_s
    if not np.allclose(trajectory.times_s, times, rtol=0.0, atol=cfg.sample_interval_s * 1e-6):
        raise DomainError("trajectory grid is not k * sample_interval_s")

    sysnoise_k = system_output_noise_kelvin(chain, trajectory.temperature_k)
    sigma = cfg.voltage_scale * np.sqrt(sysnoise_k)
    reference_variance = float(sigma[-1] ** 2)

    volts = np.empty((len(seeds), n))
    for row, seed in zip(volts, seeds):
        rng = np.random.Generator(np.random.Philox(key=seed))
        rng.standard_normal(out=row)
        row *= sigma
        if cfg.one_over_f_corner_hz > 0:
            row += _flicker_component(
                rng, n, cfg.sample_interval_s, cfg.one_over_f_corner_hz, reference_variance
            )

    if cfg.artifact_amplitude_v > 0:
        wave = switch_artifact_waveform(cfg)
        for t_switch in cfg.switch_times_s:
            start = int(np.searchsorted(times, t_switch - 1e-15, side="left"))
            stop = min(start + len(wave), n)
            if start < n:
                volts[:, start:stop] += wave[: stop - start]

    if cfg.injected_signal is not None:
        injected = np.asarray(cfg.injected_signal, dtype=float).ravel()
        m = min(len(injected), n)
        volts[:, :m] += injected[:m]

    return NoiseTrace(times, volts)


def synthesize_trace(
    trajectory: PhotonTrajectory, chain: ReceiverChain, cfg: SynthConfig
) -> NoiseTrace:
    """One receiver output record (a one-row ensemble) for a
    mode-temperature trajectory, from the stream keyed by cfg.rng_seed."""
    return _synthesize(trajectory, chain, cfg, [cfg.rng_seed])


def synthesize_shot_ensemble(
    trajectory: PhotonTrajectory,
    chain: ReceiverChain,
    cfg: SynthConfig,
    n_shots: int,
) -> NoiseTrace:
    """Independent repetitions of the same protocol: row i is the record
    `synthesize_trace` draws from the SplitMix64-derived seed
    `shot_seed(cfg.rng_seed, i)`."""
    return _synthesize(
        trajectory, chain, cfg, [shot_seed(cfg.rng_seed, i) for i in range(n_shots)]
    )
