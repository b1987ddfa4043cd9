"""Receiver output voltage trace synthesis.

Generates the baseband noise a square-law-free homodyne receiver would
deliver while the mode temperature follows a given trajectory: white
Gaussian noise whose per-sample variance tracks the receiver output
noise for the instantaneous mode temperature, an optional 1/f component
pinned to a corner frequency, and a deterministic switch transient at
each switching instant.

Reproducibility contract: an ensemble is a pure function of the
configuration (seed included), the shot count, the trajectory and the
switch instants.
Per-shot seeds are derived from the master seed with SplitMix64 (output
element i of the sequence seeded by the master), and row i of the
ensemble comes from a Philox counter-based generator keyed with shot
i's derived seed, so a row does not depend on the other shots.  Both
steps are documented so the stream can be reproduced outside Python.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import receiver
from .config import _MASK64, RunConfig, SynthConfig, _refuse_non_finite, _steady_temperatures
from .dynamics import PhotonTrajectory
from .errors import DomainError
from .receiver import ReceiverChain

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

    def time_columns(self, t_start_s: float, t_stop_s: float) -> slice:
        """The sample columns with t_start_s <= t < t_stop_s, perhaps none."""
        lo, hi = np.searchsorted(self.times_s, (t_start_s, t_stop_s)).tolist()
        return slice(lo, max(lo, hi))

    def slice_time(self, t_start_s: float, t_stop_s: float) -> "NoiseTrace":
        """View of every shot's samples with t_start_s <= t < t_stop_s."""
        columns = self.time_columns(t_start_s, t_stop_s)
        if columns.stop == columns.start:
            raise DomainError(f"no samples in [{t_start_s}, {t_stop_s}) s")
        return NoiseTrace(self.times_s[columns], self.voltages_v[:, columns])


def _read_only(values) -> np.ndarray:
    view = np.asarray(values, dtype=float).view()
    view.flags.writeable = False
    return view


def switch_artifact_waveform(cfg: SynthConfig, max_samples: "int | None" = None) -> np.ndarray:
    """The deterministic transient added at each switch instant.

    A critically damped two-cycle ring, identical for every seed:
    A * sin(4 pi u / d) * exp(-3 u / d) sampled on the trace grid
    for 0 <= u < d, or over its first `max_samples` samples.
    """
    n = max(1, int(round(cfg.artifact_duration_s / cfg.sample_interval_s)))
    n = n if max_samples is None else min(n, max_samples)
    u = np.arange(n) * cfg.sample_interval_s / cfg.artifact_duration_s
    return cfg.artifact_amplitude_v * np.sin(4.0 * math.pi * u) * np.exp(-3.0 * u)


def sample_sigma(chain: ReceiverChain, cfg: SynthConfig, t_mode_k):
    """The run's one white-noise model: the per-sample standard deviation in
    volts at mode temperature t_mode_k, a float (giving a float) or an array,
    voltage_scale * sqrt(S) with S the receiver output noise in kelvin."""
    # Through the module, as `pipeline` calls its stages.
    noise_k = receiver.system_output_noise_kelvin(chain, t_mode_k)
    sqrt = np.sqrt if isinstance(noise_k, np.ndarray) else math.sqrt
    return cfg.voltage_scale * sqrt(noise_k)


def _sample_variances(cfg: RunConfig) -> list[tuple[str, float]]:
    """The (label, value) sample variances of a run, `sample_sigma` squared at
    its cooled and ambient mode temperatures, refused, as the receiver output
    noise there, when not finite.  Both bound every sample: the noise is affine
    in the mode temperature, which stays between its two steady values."""
    noise, variance = [], []
    for name, t_mode in zip(("cooled", "ambient"), _steady_temperatures(cfg)):
        s = receiver.system_output_noise_kelvin(cfg.receiver, t_mode)
        sigma = sample_sigma(cfg.receiver, cfg.synth, t_mode)
        noise.append((f"receiver output noise at the {name} mode temperature", s))
        variance.append((f"sample variance at the {name} mode temperature", sigma * sigma))
    _refuse_non_finite(cfg, noise, "receiver", "baths")
    _refuse_non_finite(cfg, variance, "voltage_scale", "receiver", "baths")
    return variance


def _flicker_source(n: int, dt: float, corner_hz: float, white_variance: float):
    """The 1/f-like component of an n-sample record as a function of its
    generator: a bank of octave-spaced relaxation (first-order filtered)
    sources, built once for all records, each drawn as a stationary start
    plus n drive samples.  The bank's summed one-sided power spectral
    density equals the white floor `2 * dt * white_variance` at the corner."""
    from scipy import signal

    nyquist, lowest_useful = 0.5 / dt, 1.0 / (n * dt)
    freqs = [nyquist / 2.0]
    while freqs[-1] / 2.0 >= lowest_useful / 2.0 and len(freqs) < _MAX_FLICKER_SOURCES:
        freqs.append(freqs[-1] / 2.0)
    poles = [math.exp(-2.0 * math.pi * f_k * dt) for f_k in freqs]
    # One-sided PSD of the summed bank at the corner, for unit sources.
    density, z = 0.0, 2.0 * math.pi * corner_hz * dt
    for a in poles:
        density += (1.0 - a * a) * 2.0 * dt / (1.0 - 2.0 * a * math.cos(z) + a * a)
    gain = math.sqrt(2.0 * dt * white_variance / density)

    def draw(rng: np.random.Generator) -> np.ndarray:
        total = np.zeros(n)
        for a in poles:
            x0 = rng.standard_normal()
            # x[j] = a x[j-1] + sqrt(1 - a^2) w[j], started from a stationary draw.
            x, _ = signal.lfilter([math.sqrt(1.0 - a * a)], [1.0, -a],
                                  rng.standard_normal(n), zi=np.array([a * x0]))
            total += x
        return gain * total

    return draw


def _synthesize(
    trajectory: PhotonTrajectory,
    chain: ReceiverChain,
    cfg: SynthConfig,
    seeds: list[int],
    switch_times_s: Iterable[float],
) -> NoiseTrace:
    """Row i from the Philox stream keyed by seeds[i], drawn in a fixed
    order (part of the reproducibility contract): white samples first,
    then, if enabled, one stationary start plus n drive samples per
    flicker source from lowest octave index up.  One switch transient
    per entry of switch_times_s follows, identical in every row.  The
    rows share the trajectory's grid, which must sit on
    k * cfg.sample_interval_s.
    """
    switch_times_s = tuple(switch_times_s)
    if any(t < 0 for t in switch_times_s):
        raise DomainError("switch times must be >= 0")
    n, dt, corner = len(trajectory), cfg.sample_interval_s, cfg.one_over_f_corner_hz
    times = np.arange(n) * dt
    if not np.allclose(trajectory.times_s, times, rtol=0.0, atol=dt * 1e-6):
        raise DomainError("trajectory grid is not k * sample_interval_s")

    sigma = sample_sigma(chain, cfg, trajectory.temperature_k)
    flicker = _flicker_source(n, dt, corner, float(sigma[-1] ** 2)) if corner > 0 else None

    # One generator for the ensemble, re-keyed before each row: a fresh
    # state (counter 0, empty buffer) with key [seed, 0] is the state of
    # Philox(key=seed).  Building one per row costs several times more.
    bits = np.random.Philox(key=0)
    rng = np.random.Generator(bits)
    fresh = bits.state
    volts = np.empty((len(seeds), n))
    for row, seed in zip(volts, seeds):
        fresh["state"]["key"] = (seed, 0)
        bits.state = fresh
        rng.standard_normal(out=row)
        row *= sigma
        if flicker:
            row += flicker(rng)

    if cfg.artifact_amplitude_v > 0:
        wave = switch_artifact_waveform(cfg, n)
        for t_switch in switch_times_s:
            start = int(np.searchsorted(times, t_switch - 1e-15, side="left"))
            stop = min(start + len(wave), n)
            if start < n:
                volts[:, start:stop] += wave[: stop - start]

    return NoiseTrace(times, volts)


def synthesize_trace(
    trajectory: PhotonTrajectory,
    chain: ReceiverChain,
    cfg: SynthConfig,
    switch_times_s: Iterable[float] = (),
) -> NoiseTrace:
    """One receiver output record (a one-row ensemble) for a
    mode-temperature trajectory, from the stream keyed by cfg.rng_seed,
    with a switch transient at each of switch_times_s (each >= 0)."""
    return _synthesize(trajectory, chain, cfg, [cfg.rng_seed], switch_times_s)


def synthesize_shot_ensemble(
    trajectory: PhotonTrajectory,
    chain: ReceiverChain,
    cfg: SynthConfig,
    n_shots: int,
    switch_times_s: Iterable[float] = (),
) -> NoiseTrace:
    """Independent repetitions of the same protocol: row i is the record
    `synthesize_trace` draws from the SplitMix64-derived seed
    `shot_seed(cfg.rng_seed, i)` with the same switch_times_s."""
    seeds = [shot_seed(cfg.rng_seed, i) for i in range(n_shots)]
    return _synthesize(trajectory, chain, cfg, seeds, switch_times_s)
