"""Time evolution of the mode's photon occupancy under switched baths.

Between switching events the occupancy obeys a linear rate equation and
relaxes exponentially toward the steady value set by whichever baths are
connected.  The closed-form piecewise-exponential solution is the
primary path; a Runge-Kutta integrator over the same schedule is kept
alongside it as an independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .thermal import BathSet, CavityMode, mode_temperature, photons_per_kelvin

# Enforced ceiling on the sample interval, as a fraction of the fastest
# relaxation time appearing anywhere in a schedule.
MAX_STEP_FRACTION = 0.1


@dataclass(frozen=True)
class ScheduleEvent:
    """A switching instant: which ports are connected from this time on."""

    time_s: float
    active_ports: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.time_s < 0:
            raise DomainError(f"event time must be >= 0, got {self.time_s}")
        if len(set(self.active_ports)) != len(self.active_ports):
            raise DomainError(f"duplicate port index in {self.active_ports}")


@dataclass(frozen=True)
class SwitchSchedule:
    """Ordered switching events; strictly increasing times, first at t = 0."""

    events: tuple[ScheduleEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        if not self.events:
            return
        if self.events[0].time_s != 0.0:
            raise DomainError("first scheduled event must be at t = 0")
        times = [e.time_s for e in self.events]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise DomainError(f"event times must be strictly increasing: {times}")


def build_protocol(
    cool_duration_s: float,
    trace_length_s: float,
    cool_ports: tuple[int, ...] = (0, 1),
    hold_ports: tuple[int, ...] = (1,),
) -> SwitchSchedule:
    """The canonical schedule: cooling ports from t = 0, hold ports from
    t = cool_duration_s (the hold ports alone when that is 0)."""
    if cool_duration_s < 0:
        raise DomainError("cooling time must be >= 0")
    if trace_length_s <= 0:
        raise DomainError("trace length must be positive")
    if cool_duration_s > trace_length_s:
        raise DomainError(
            "protocol events extend past the trace "
            f"({cool_duration_s} > {trace_length_s} s)"
        )
    cool = [ScheduleEvent(0.0, tuple(cool_ports))] if cool_duration_s > 0 else []
    return SwitchSchedule([*cool, ScheduleEvent(cool_duration_s, tuple(hold_ports))])


def relaxation_rate(mode: CavityMode, baths: BathSet) -> float:
    """Energy relaxation rate (1/s) with the given baths connected:
    omega (1 + sum of couplings) / Q_0."""
    return mode.angular_frequency * (1.0 + baths.total_coupling()) / mode.intrinsic_q


def relaxation_time(mode: CavityMode, baths: BathSet) -> float:
    """1 / relaxation_rate."""
    return 1.0 / relaxation_rate(mode, baths)


def steady_state_occupancy(mode: CavityMode, baths: BathSet) -> float:
    """Occupancy the mode settles at: the equipartition photon number of
    the bath-weighted mode temperature."""
    return photons_per_kelvin(mode.frequency_hz) * mode_temperature(baths)


@dataclass(frozen=True)
class PhotonTrajectory:
    """Sampled occupancy history with the matching mode temperatures,
    occupancy / photons_per_kelvin: the scale of `mode_temperature`, so a
    settled trajectory sits at the closed-form temperature.

    The occupancy is the equipartition number photons_per_kelvin * T, the
    `occupancy` column of `trajectory.csv`.  `thermal.photon_occupancy`,
    which `steady` prints as `occupancy_*`, is Bose-Einstein and about half
    a photon lower: 1555.13 against 1555.63 at the default cooled 108.2 K.
    """

    times_s: np.ndarray
    occupancy: np.ndarray
    temperature_k: np.ndarray

    def __len__(self) -> int:
        return len(self.times_s)


def _segments(
    baths: BathSet, schedule: SwitchSchedule, duration_s: float
) -> list[tuple[float, float, BathSet]]:
    """Resolve the schedule into (t_start, t_end, connected baths) spans."""
    if not schedule.events:
        return [(0.0, duration_s, baths)]
    spans = []
    for i, event in enumerate(schedule.events):
        if event.time_s >= duration_s:
            break
        t_end = (
            schedule.events[i + 1].time_s
            if i + 1 < len(schedule.events)
            else duration_s
        )
        spans.append((event.time_s, min(t_end, duration_s), baths.subset(event.active_ports)))
    if not spans:
        raise DomainError("no schedule event falls inside the trace")
    return spans


def _check_step(
    mode: CavityMode, spans: list[tuple[float, float, BathSet]], dt: float
) -> None:
    fastest = max(relaxation_rate(mode, sub) for _, _, sub in spans)
    limit = MAX_STEP_FRACTION / fastest
    if dt > limit:
        raise DomainError(
            f"sample interval {dt:.3e} s too coarse for the fastest relaxation "
            f"time {1.0 / fastest:.3e} s; need <= {limit:.3e} s"
        )


def _validated_grid(duration_s: float, sample_interval_s: float) -> np.ndarray:
    if duration_s <= 0:
        raise DomainError("duration must be positive")
    if sample_interval_s <= 0:
        raise DomainError("sample interval must be positive")
    # Tolerant count so a duration meant as an exact multiple of the step
    # is not truncated by floating-point dust.
    n = int(math.floor(duration_s / sample_interval_s + 1e-6)) + 1
    if n < 2:
        raise DomainError("duration shorter than one sample interval")
    return np.arange(n) * sample_interval_s


def _prepare(
    mode: CavityMode,
    baths: BathSet,
    schedule: SwitchSchedule,
    duration_s: float,
    sample_interval_s: float,
    q_initial: float | None,
):
    """Shared setup: grid, per-span (start, rate, target, entry occupancy)."""
    times = _validated_grid(duration_s, sample_interval_s)
    spans = _segments(baths, schedule, duration_s)
    _check_step(mode, spans, sample_interval_s)

    if q_initial is None:
        q_initial = steady_state_occupancy(mode, spans[0][2])
    elif q_initial < 0:
        raise DomainError("initial occupancy must be >= 0")

    starts = np.array([s[0] for s in spans])
    rates = np.array([relaxation_rate(mode, sub) for _, _, sub in spans])
    targets = np.array([steady_state_occupancy(mode, sub) for _, _, sub in spans])
    entry = np.empty(len(spans))
    q = float(q_initial)
    for k, (t_start, t_end, _) in enumerate(spans):
        entry[k] = q
        q = targets[k] + (q - targets[k]) * math.exp(-rates[k] * (t_end - t_start))
    return times, starts, rates, targets, entry


def evolve_occupancy(
    mode: CavityMode,
    baths: BathSet,
    schedule: SwitchSchedule,
    duration_s: float,
    sample_interval_s: float,
    q_initial: float | None = None,
) -> PhotonTrajectory:
    """Closed-form occupancy evolution over a switching schedule.

    Within each schedule segment the occupancy relaxes exponentially
    toward that segment's steady state; segment entry values are carried
    exactly, so event times need not fall on the sample grid.

    Parameters
    ----------
    q_initial : float or None
        Starting occupancy; None starts in the steady state of the first
        connected configuration.
    """
    times, starts, rates, targets, entry = _prepare(
        mode, baths, schedule, duration_s, sample_interval_s, q_initial
    )
    idx = np.clip(np.searchsorted(starts, times, side="right") - 1, 0, None)
    occ = targets[idx] + (entry[idx] - targets[idx]) * np.exp(
        -rates[idx] * (times - starts[idx])
    )
    return PhotonTrajectory(times, occ, occ / photons_per_kelvin(mode.frequency_hz))


def evolve_occupancy_rk4(
    mode: CavityMode,
    baths: BathSet,
    schedule: SwitchSchedule,
    duration_s: float,
    sample_interval_s: float,
    q_initial: float | None = None,
) -> PhotonTrajectory:
    """Runge-Kutta (classic fourth-order) cross-check of `evolve_occupancy`.

    Integrates dq/dt = -rate (q - q_steady) on the same sample grid,
    splitting steps exactly at switching times.
    """
    times, starts, rates, targets, entry = _prepare(
        mode, baths, schedule, duration_s, sample_interval_s, q_initial
    )
    n_spans = len(starts)
    occ = np.empty_like(times)
    occ[0] = q = float(entry[0])
    for i in range(1, len(times)):
        t = float(times[i - 1])
        t_stop = float(times[i])
        while t < t_stop:
            k = min(
                n_spans - 1,
                max(0, int(np.searchsorted(starts, t, side="right")) - 1),
            )
            stop = t_stop
            if k + 1 < n_spans and starts[k + 1] < t_stop:
                stop = float(starts[k + 1])
            if stop <= t:  # fp guard: never stall on a boundary
                stop = t_stop
            h = stop - t
            rate, q_star = rates[k], targets[k]
            k1 = -rate * (q - q_star)
            k2 = -rate * (q + 0.5 * h * k1 - q_star)
            k3 = -rate * (q + 0.5 * h * k2 - q_star)
            k4 = -rate * (q + h * k3 - q_star)
            q += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t = stop
        occ[i] = q
    return PhotonTrajectory(times, occ, occ / photons_per_kelvin(mode.frequency_hz))
