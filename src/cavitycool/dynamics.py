"""Time evolution of the mode temperature under switched baths.

Between switching events the mode temperature obeys a linear rate
equation and relaxes exponentially toward the bath-weighted temperature
of whichever baths are connected, so the whole trajectory is a
closed-form piecewise exponential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import grid_sample_count
from .errors import DomainError
from .thermal import BathSet, CavityMode, mode_temperature

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

    events: tuple[ScheduleEvent, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        if not self.events or self.events[0].time_s != 0.0:
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


@dataclass(frozen=True)
class PhotonTrajectory:
    """Sampled mode-temperature history on the scale of `mode_temperature`,
    so a settled trajectory sits at the closed-form temperature."""

    times_s: np.ndarray
    temperature_k: np.ndarray

    def __len__(self) -> int:
        return len(self.times_s)


def _segments(
    baths: BathSet, schedule: SwitchSchedule, duration_s: float
) -> list[tuple[float, float, BathSet]]:
    """Resolve the schedule into (t_start, t_end, connected baths) spans;
    the first starts at t = 0 < duration_s, so there is at least one."""
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
    return spans


def _validated_grid(duration_s: float, sample_interval_s: float) -> np.ndarray:
    if duration_s <= 0:
        raise DomainError("duration must be positive")
    if sample_interval_s <= 0:
        raise DomainError("sample interval must be positive")
    n = grid_sample_count(duration_s, sample_interval_s)
    if n < 2:
        raise DomainError("duration shorter than one sample interval")
    return np.arange(n) * sample_interval_s


def evolve_occupancy(
    mode: CavityMode,
    baths: BathSet,
    schedule: SwitchSchedule,
    duration_s: float,
    sample_interval_s: float,
) -> PhotonTrajectory:
    """Closed-form mode-temperature evolution over a switching schedule.

    The mode starts settled in its first span.  Within each span the
    temperature relaxes exponentially at `relaxation_rate` toward that
    span's `mode_temperature`; span entry values are carried exactly, so
    event times need not fall on the sample grid.
    """
    times = _validated_grid(duration_s, sample_interval_s)
    spans = _segments(baths, schedule, duration_s)
    starts = np.array([t_start for t_start, _, _ in spans])
    rates = np.array([relaxation_rate(mode, sub) for _, _, sub in spans])
    fastest = rates.max()
    limit = MAX_STEP_FRACTION / fastest
    if sample_interval_s > limit:
        raise DomainError(
            f"sample interval {sample_interval_s:.3e} s too coarse for the fastest "
            f"relaxation time {1.0 / fastest:.3e} s; need <= {limit:.3e} s"
        )
    targets = np.array([mode_temperature(sub) for _, _, sub in spans])
    entry = np.empty(len(spans))
    temp = targets[0]
    for k, (t_start, t_end, _) in enumerate(spans):
        entry[k] = temp
        temp = targets[k] + (temp - targets[k]) * math.exp(-rates[k] * (t_end - t_start))
    idx = np.clip(np.searchsorted(starts, times, side="right") - 1, 0, None)
    temperature = targets[idx] + (entry[idx] - targets[idx]) * np.exp(
        -rates[idx] * (times - starts[idx])
    )
    return PhotonTrajectory(times, temperature)
