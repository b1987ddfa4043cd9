"""Switched-bath mode-temperature dynamics: schedules, relaxation times,
and the agreement of the closed form with a Runge-Kutta oracle.
"""

import dataclasses
import math

import numpy as np
import pytest

from cavitycool.config import ProtocolConfig
from cavitycool.dynamics import (
    ScheduleEvent,
    SwitchSchedule,
    build_protocol,
    evolve_occupancy,
    relaxation_rate,
    relaxation_time,
)
from cavitycool.errors import DomainError
from cavitycool.thermal import (
    BathPort,
    BathSet,
    CavityMode,
    LossModel,
    mode_temperature,
)


def _protocol(cool_duration_s, trace_length_s):
    """The bench schedule: both ports cool, then the monitoring port (1) holds."""
    return build_protocol(ProtocolConfig(cool_duration_s, trace_length_s), (0, 1), (1,))


def _rk4_temperature(mode, baths, schedule, times):
    """Classic fourth-order Runge-Kutta oracle for `evolve_occupancy`.

    Integrates dT/dt = -rate (T - T_span) on the grid `times` from the
    settled temperature of the first event's baths, splitting steps
    exactly at switching times.
    """
    starts = np.array([e.time_s for e in schedule.events])
    subsets = [baths.subset(e.active_ports) for e in schedule.events]
    rates = [relaxation_rate(mode, sub) for sub in subsets]
    targets = [mode_temperature(sub) for sub in subsets]
    n_spans = len(starts)
    temperature = np.empty_like(times)
    temperature[0] = temp = targets[0]
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
            rate, t_star = rates[k], targets[k]
            k1 = -rate * (temp - t_star)
            k2 = -rate * (temp + 0.5 * h * k1 - t_star)
            k3 = -rate * (temp + 0.5 * h * k2 - t_star)
            k4 = -rate * (temp + h * k3 - t_star)
            temp += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t = stop
        temperature[i] = temp
    return temperature


def _bench_mode():
    return CavityMode(frequency_hz=1.4495e9, intrinsic_q=164000.0)


def _bench_baths():
    return BathSet(
        intrinsic_temperature_k=290.0,
        ports=(
            BathPort(
                coupling=3.8,
                load_temperature_k=18.4,
                link_loss_db=0.19,
                link_temperature_k=290.0,
                loss_model=LossModel.LINEAR,
                name="cooling",
            ),
            BathPort(
                coupling=1.0,
                load_temperature_k=18.4,
                link_loss_db=6.05,
                link_temperature_k=290.0,
                loss_model=LossModel.EXACT,
                name="monitoring",
            ),
        ),
    )


def test_relaxation_time_references():
    mode = _bench_mode()
    baths = _bench_baths()
    assert math.isclose(
        relaxation_time(mode, baths.subset((1,))), 9.00359112351529e-6, rel_tol=1e-12
    )
    assert math.isclose(
        relaxation_time(mode, baths), 3.10468659431562e-6, rel_tol=1e-12
    )
    assert math.isclose(
        relaxation_time(mode, baths.subset(())), 1.80071822470306e-5, rel_tol=1e-12
    )


def test_relaxation_rate_scales_with_coupling():
    mode = _bench_mode()
    bare = relaxation_rate(mode, BathSet(290.0, ()))
    one = relaxation_rate(
        mode, BathSet(290.0, (BathPort(coupling=1.0, load_temperature_k=18.4),))
    )
    assert one == pytest.approx(2.0 * bare, rel=1e-14)


def test_protocol_is_cool_then_hold():
    schedule = _protocol(40e-6, 160e-6)
    assert [(e.time_s, e.active_ports) for e in schedule.events] == [
        (0.0, (0, 1)),
        (40e-6, (1,)),
    ]
    # With no cooling time only the hold configuration is scheduled.
    schedule = _protocol(0.0, 160e-6)
    assert [(e.time_s, e.active_ports) for e in schedule.events] == [(0.0, (1,))]


def test_protocol_validation():
    # The timing refusals are `ProtocolConfig`'s (tests/test_config_cli.py).
    with pytest.raises(DomainError):
        SwitchSchedule(
            (ScheduleEvent(1e-6, (0,)),)
        )  # first event not at t=0
    with pytest.raises(DomainError, match="first scheduled event must be at t = 0"):
        SwitchSchedule(())
    with pytest.raises(DomainError):
        SwitchSchedule(
            (
                ScheduleEvent(0.0, (0,)),
                ScheduleEvent(0.0, (1,)),
            )
        )


def test_schedule_event_holds_only_time_and_ports():
    import cavitycool
    from cavitycool import dynamics

    assert [f.name for f in dataclasses.fields(ScheduleEvent)] == [
        "time_s", "active_ports",
    ]
    for holder in (cavitycool, dynamics):
        with pytest.raises(AttributeError):
            holder.EventLabel


def test_event_validation():
    with pytest.raises(DomainError):
        ScheduleEvent(-1e-6, (0,))
    with pytest.raises(DomainError):
        ScheduleEvent(0.0, (0, 0))


def test_evolution_reaches_segment_steady_states():
    mode = _bench_mode()
    baths = _bench_baths()
    schedule = _protocol(60e-6, 260e-6)
    traj = evolve_occupancy(mode, baths, schedule, 260e-6, 20e-9)

    cooled = mode_temperature(baths)
    ambient = mode_temperature(baths.subset((1,)))

    # Starts settled in the cooled configuration and stays there until the
    # disconnect.
    assert traj.temperature_k[0] == cooled
    i_mid = np.searchsorted(traj.times_s, 59e-6)
    assert traj.temperature_k[i_mid] == cooled
    # Many monitoring-only time constants later it has warmed to ambient.
    assert traj.temperature_k[-1] == pytest.approx(ambient, rel=1e-6)
    # Warm-up is monotone.
    after = traj.temperature_k[traj.times_s >= 60e-6]
    assert np.all(np.diff(after) >= 0)


def test_evolution_single_segment_is_one_exponential():
    # A leading ambient-only span starts the cooling span at t_on off
    # equilibrium.
    mode = _bench_mode()
    baths = _bench_baths()
    t_on = 10e-6
    schedule = SwitchSchedule(
        (ScheduleEvent(0.0, (1,)), ScheduleEvent(t_on, (0, 1)))
    )
    traj = evolve_occupancy(mode, baths, schedule, 60e-6, 100e-9)
    start = mode_temperature(baths.subset((1,)))
    target = mode_temperature(baths)
    rate = relaxation_rate(mode, baths)
    on = traj.times_s >= t_on
    expected = target + (start - target) * np.exp(-rate * (traj.times_s[on] - t_on))
    assert np.all(traj.temperature_k[~on] == start)
    assert np.allclose(traj.temperature_k[on], expected, rtol=1e-12)


def test_warm_up_tail_time_constant():
    # Fit the late-time warm-up in log space; the slope must equal the
    # monitoring-only relaxation time.
    mode = _bench_mode()
    baths = _bench_baths()
    schedule = _protocol(40e-6, 200e-6)
    traj = evolve_occupancy(mode, baths, schedule, 200e-6, 50e-9)
    ambient = mode_temperature(baths.subset((1,)))
    sel = (traj.times_s >= 45e-6) & (traj.times_s <= 80e-6)
    deficit = ambient - traj.temperature_k[sel]
    slope = np.polyfit(traj.times_s[sel], np.log(deficit), 1)[0]
    assert math.isclose(-1.0 / slope, 9.00359112351529e-6, rel_tol=1e-9)


def test_reversibility_cool_then_warm():
    # From ambient (a leading ambient-only span), cool for 7 tau then warm
    # for 7 tau: back within 0.2% of ambient.
    mode = _bench_mode()
    baths = _bench_baths()
    tau_cool = relaxation_time(mode, baths)
    tau_warm = relaxation_time(mode, baths.subset((1,)))
    t_cool = tau_cool
    t_switch = t_cool + 7.0 * tau_cool
    duration = t_switch + 7.0 * tau_warm
    schedule = SwitchSchedule(
        (
            ScheduleEvent(0.0, (1,)),
            ScheduleEvent(t_cool, (0, 1)),
            ScheduleEvent(t_switch, (1,)),
        )
    )
    ambient = mode_temperature(baths.subset((1,)))
    traj = evolve_occupancy(mode, baths, schedule, duration, tau_cool / 50.0)
    assert traj.temperature_k[0] == ambient
    assert abs(traj.temperature_k[-1] - ambient) / ambient < 0.002


def test_settled_trajectory_reads_mode_temperature():
    # One scale: the cooled plateau is mode_temperature itself, and the
    # warmed end settles at the ambient mode_temperature.
    mode = _bench_mode()
    baths = _bench_baths()
    # 480 us after the disconnect is over 50 relaxation times.
    schedule = _protocol(20e-6, 500e-6)
    traj = evolve_occupancy(mode, baths, schedule, 500e-6, 100e-9)
    plateau = traj.times_s < 20e-6
    assert np.all(traj.temperature_k[plateau] == mode_temperature(baths))
    rk4 = _rk4_temperature(mode, baths, schedule, traj.times_s)
    for temperature_k in (traj.temperature_k, rk4):
        assert math.isclose(
            temperature_k[0], mode_temperature(baths), rel_tol=1e-12
        )
        assert math.isclose(
            temperature_k[-1], mode_temperature(baths.subset((1,))), rel_tol=1e-12
        )


def test_rk4_matches_closed_form():
    mode = _bench_mode()
    baths = _bench_baths()
    schedule = _protocol(40e-6, 160e-6)
    closed = evolve_occupancy(mode, baths, schedule, 160e-6, 100e-9)
    rk4 = _rk4_temperature(mode, baths, schedule, closed.times_s)
    assert np.allclose(rk4, closed.temperature_k, rtol=1e-9, atol=0.0)


def test_rk4_matches_closed_form_off_grid_switch():
    # Switching instants that do not land on sample points must still be
    # handled exactly by both integrators.
    mode = _bench_mode()
    baths = _bench_baths()
    schedule = SwitchSchedule(
        (
            ScheduleEvent(0.0, (0, 1)),
            ScheduleEvent(13.7e-6, (1,)),
            ScheduleEvent(51.3e-6, ()),
        )
    )
    closed = evolve_occupancy(mode, baths, schedule, 90e-6, 250e-9)
    rk4 = _rk4_temperature(mode, baths, schedule, closed.times_s)
    assert np.allclose(rk4, closed.temperature_k, rtol=1e-6, atol=0.0)


def test_step_size_guard():
    mode = _bench_mode()
    baths = _bench_baths()
    schedule = _protocol(40e-6, 160e-6)
    # Fastest tau in this schedule is ~3.1 us; a 1 us step exceeds the
    # enforced tenth-of-tau ceiling.
    with pytest.raises(DomainError):
        evolve_occupancy(mode, baths, schedule, 160e-6, 1e-6)


def test_evolution_validation():
    mode = _bench_mode()
    baths = _bench_baths()
    schedule = _protocol(40e-6, 160e-6)
    with pytest.raises(DomainError):
        evolve_occupancy(mode, baths, schedule, -1.0, 1e-7)
    with pytest.raises(DomainError):
        evolve_occupancy(mode, baths, schedule, 160e-6, -1e-7)
    with pytest.raises(DomainError, match="^duration shorter than one sample interval$"):
        evolve_occupancy(mode, baths, schedule, 1e-7, 2e-7)


def test_an_event_at_the_trace_end_starts_no_span():
    # The disconnect at the last sample: the trace holds the cooled state.
    mode = _bench_mode()
    baths = _bench_baths()
    schedule = _protocol(160e-6, 160e-6)
    traj = evolve_occupancy(mode, baths, schedule, 160e-6, 50e-9)
    assert len(traj) == 3201
    assert np.all(traj.temperature_k == mode_temperature(baths))


def test_a_rate_that_underflows_to_zero_allows_any_step():
    # 2 pi f (1 + couplings) / Q underflows to 0 at f = 5e-324 Hz: the step
    # ceiling divided by it and numpy warned of a division by zero.
    mode = dataclasses.replace(_bench_mode(), frequency_hz=5e-324)
    baths = _bench_baths()
    assert relaxation_rate(mode, baths) == 0.0
    traj = evolve_occupancy(mode, baths, _protocol(40e-6, 160e-6), 160e-6, 1e-6)
    assert np.allclose(traj.temperature_k, mode_temperature(baths), rtol=1e-12, atol=0.0)


def test_evolution_refuses_a_grid_too_fine_to_count():
    # 160 us every 1e-320 s is more samples than a float can count; the
    # refusal comes before any grid is allocated.
    mode = _bench_mode()
    baths = _bench_baths()
    schedule = _protocol(40e-6, 160e-6)
    with pytest.raises(DomainError, match="^no finite sample grid of 0.00016 s every 1e-320 s$"):
        evolve_occupancy(mode, baths, schedule, 160e-6, 1e-320)


def test_all_ports_schedule_holds_the_steady_state():
    mode = _bench_mode()
    baths = _bench_baths()
    schedule = SwitchSchedule((ScheduleEvent(0.0, (0, 1)),))
    traj = evolve_occupancy(mode, baths, schedule, 30e-6, 100e-9)
    assert traj.temperature_k[0] == mode_temperature(baths)
    assert np.allclose(traj.temperature_k, traj.temperature_k[0], rtol=1e-12)


def test_grid_covers_duration_inclusive():
    mode = _bench_mode()
    baths = _bench_baths()
    schedule = SwitchSchedule((ScheduleEvent(0.0, (0, 1)),))
    traj = evolve_occupancy(mode, baths, schedule, 10e-6, 1e-7)
    assert traj.times_s[0] == 0.0
    assert traj.times_s[-1] == pytest.approx(10e-6, rel=1e-12)
    assert len(traj) == 101
