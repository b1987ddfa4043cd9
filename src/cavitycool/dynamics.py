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

from .config import ProtocolConfig, grid_sample_count
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
    protocol: ProtocolConfig, cool_ports: tuple[int, ...], hold_ports: tuple[int, ...]
) -> SwitchSchedule:
    """The canonical schedule: cooling ports from t = 0, hold ports from
    t = cool_duration_s (the hold ports alone when that is 0).  The timing
    is the one `ProtocolConfig` has checked."""
    cool_s = protocol.cool_duration_s
    cool = [ScheduleEvent(0.0, tuple(cool_ports))] if cool_s > 0 else []
    return SwitchSchedule([*cool, ScheduleEvent(cool_s, tuple(hold_ports))])


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
    if duration_s <= 0:
        raise DomainError("duration must be positive")
    if sample_interval_s <= 0:
        raise DomainError("sample interval must be positive")
    n = grid_sample_count(duration_s, sample_interval_s)
    if n < 2:
        raise DomainError("duration shorter than one sample interval")
    times = np.arange(n) * sample_interval_s
    # One span per event before the end, up to the next one's start; the
    # first is at t = 0, so there is one, and every sample has a span.
    events = [event for event in schedule.events if event.time_s < duration_s]
    starts = np.array([event.time_s for event in events])
    subsets = [baths.subset(event.active_ports) for event in events]
    rates = np.array([relaxation_rate(mode, sub) for sub in subsets])
    fastest = float(rates.max())
    # A rate that underflows to 0 relaxes nothing: no step is too coarse.
    limit = MAX_STEP_FRACTION / fastest if fastest else math.inf
    if sample_interval_s > limit:
        raise DomainError(
            f"must be <= {limit:.3e} s ({MAX_STEP_FRACTION} of the fastest relaxation "
            f"time {1.0 / fastest:.3e} s), got {sample_interval_s!r}",
            field="sample_interval_s",
        )
    targets = np.array([mode_temperature(sub) for sub in subsets])
    entry = np.empty(len(events))
    temp = targets[0]
    for k, t_end in enumerate([*starts[1:], duration_s]):
        entry[k] = temp
        temp = targets[k] + (temp - targets[k]) * math.exp(-rates[k] * (t_end - starts[k]))
    idx = np.searchsorted(starts, times, side="right") - 1
    temperature = targets[idx] + (entry[idx] - targets[idx]) * np.exp(
        -rates[idx] * (times - starts[idx])
    )
    return PhotonTrajectory(times, temperature)
