"""Acceptance gate: the ten delivery criteria, one printed line each.

Every test prints `criterion NN: PASS/FAIL` with the measured numbers,
so `pytest tests/test_acceptance.py -v -s` doubles as the sign-off
record.  Runtime budgets are part of the criteria and are asserted
alongside the physics.
"""

import hashlib
import time

import numpy as np
import pytest

from cavitycool import cli
from cavitycool.analysis import fit_biexponential
from cavitycool.config import default_run_config, with_seed
from cavitycool.dynamics import (
    ScheduleEvent,
    SwitchSchedule,
    evolve_occupancy,
    relaxation_time,
)
from cavitycool.pipeline import analyze_run, simulate_run
from cavitycool.receiver import infer_mode_temperature, noise_power_reduction_db
from cavitycool.thermal import (
    LossModel,
    link_output_temperature,
    mode_temperature,
    photon_occupancy,
)
from test_dynamics import _rk4_temperature


def _line(label, ok, detail):
    print(f"criterion {label}: {'PASS' if ok else 'FAIL'}  {detail}")


def test_criterion_01_cooled_mode_temperature():
    t0 = time.perf_counter()
    cfg = default_run_config()
    t_cooled = mode_temperature(cfg.baths)
    elapsed = time.perf_counter() - t0
    ok = 106.0 <= t_cooled <= 111.0 and elapsed < 1.0
    _line(" 1", ok, f"cooled mode temperature {t_cooled:.3f} K in [106, 111] K")
    assert ok


def test_criterion_02_ambient_reference_temperature():
    t0 = time.perf_counter()
    cfg = default_run_config()
    ambient = mode_temperature(cfg.baths.subset(cfg.persistent_port_indices()))
    elapsed = time.perf_counter() - t0
    ok = 254.0 <= ambient <= 257.0 and elapsed < 1.0
    _line(" 2", ok, f"ambient reference temperature {ambient:.3f} K in [254, 257] K")
    assert ok


def test_criterion_03_photon_occupancies():
    t0 = time.perf_counter()
    # occupancies quoted at 1.45 GHz for the reported temperatures
    n_ambient = photon_occupancy(1.45e9, 255.4)
    n_cooled = photon_occupancy(1.45e9, 108.1)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(n_ambient - 3669.0) <= 2.0
        and abs(n_cooled - 1553.0) <= 2.0
        and elapsed < 1.0
    )
    _line(" 3", ok, (
        f"occupancies {n_ambient:.1f} (3669 +/- 2 ambient) and "
        f"{n_cooled:.1f} (1553 +/- 2 cooled)"
    ))
    assert ok


def test_criterion_04_deltap_forward_and_inverse():
    t0 = time.perf_counter()
    chain = default_run_config().receiver
    dp = noise_power_reduction_db(chain, 108.1, 255.4)
    t_back = infer_mode_temperature(chain, dp, 255.4)
    round_trip = abs(noise_power_reduction_db(chain, t_back, 255.4) - dp)
    elapsed = time.perf_counter() - t0
    ok = abs(dp + 3.5) <= 0.1 and round_trip < 1e-6 and elapsed < 1.0
    _line(" 4", ok, (
        f"predicted level change {dp:.4f} dB (-3.5 +/- 0.1 dB), "
        f"inversion round trip {round_trip:.1e} dB"
    ))
    assert ok


def test_criterion_05_warmup_time_constant():
    t0 = time.perf_counter()
    cfg = default_run_config()
    baths = cfg.baths.subset(cfg.persistent_port_indices())
    tau = relaxation_time(cfg.mode, baths)
    q_loaded = cfg.mode.intrinsic_q / (1.0 + baths.total_coupling())
    tau_reference = q_loaded / cfg.mode.angular_frequency
    elapsed = time.perf_counter() - t0
    ok = (
        8.9e-6 <= tau <= 9.1e-6
        and tau == pytest.approx(tau_reference, rel=1e-12)
        and elapsed < 1.0
    )
    _line(" 5", ok, (
        f"monitoring-only warm-up constant {tau * 1e6:.4f} us in [8.9, 9.1] us, "
        f"equal to Q_loaded / omega"
    ))
    assert ok


def test_criterion_06_end_to_end_closure():
    t0 = time.perf_counter()
    base = default_run_config()
    passes = 0
    levels = []
    taus = []
    for k in range(100):
        cfg = with_seed(base, 1000 + k)
        sim = simulate_run(cfg)
        report = analyze_run(sim.traces, cfg, sim.disconnect_time_s)
        dp = report.deltap_direct.value_db
        tau_us = report.warmup_time_s * 1e6
        levels.append(dp)
        taus.append(tau_us)
        if abs(dp + 3.5) <= 0.4 and abs(tau_us - 9.0) <= 1.5:
            passes += 1
    elapsed = time.perf_counter() - t0
    ok = passes >= 90 and elapsed < 60.0
    _line(" 6", ok, (
        f"{passes}/100 seeded runs recover the level within +/-0.4 dB and the "
        f"warm-up time within +/-1.5 us (mean {np.mean(levels):.3f} dB, "
        f"{np.median(taus):.2f} us; {elapsed:.1f} s)"
    ))
    assert ok


def test_criterion_07_integrator_matches_closed_form():
    t0 = time.perf_counter()
    cfg = default_run_config()
    rng = np.random.default_rng(20260817)
    port_menu = ((), (0,), (1,), (0, 1))
    worst = 0.0
    for _ in range(1000):
        n_events = int(rng.integers(1, 4))
        while True:
            times = np.concatenate(
                [[0.0], np.sort(rng.uniform(2e-6, 38e-6, n_events - 1))]
            )
            if len(np.unique(times)) == n_events:
                break
        events = tuple(
            ScheduleEvent(float(t), port_menu[rng.integers(0, len(port_menu))])
            for t in times
        )
        schedule = SwitchSchedule(events)
        closed = evolve_occupancy(cfg.mode, cfg.baths, schedule, 40e-6, 0.15e-6)
        stepped = _rk4_temperature(cfg.mode, cfg.baths, schedule, closed.times_s)
        err = float(
            np.max(np.abs(stepped - closed.temperature_k) / closed.temperature_k)
        )
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 10.0
    _line(" 7", ok, (
        f"worst integrator deviation {worst:.2e} relative over 1000 random "
        f"schedules ({elapsed:.1f} s)"
    ))
    assert ok


def _loss_model_gaps(losses):
    return np.array([
        abs(
            link_output_temperature(L, 18.2, 290.0, LossModel.EXACT)
            - link_output_temperature(L, 18.2, 290.0, LossModel.LINEAR)
        )
        for L in losses
    ])


@pytest.mark.xfail(
    strict=True,
    reason=(
        "with (18.2 K, 290 K) endpoints the exact-vs-linear gap grows "
        "monotonically to 1.755 K at 0.5 dB; it stays below 0.25 K only "
        "for losses up to 0.185 dB"
    ),
)
def test_criterion_08_linear_model_quarter_kelvin_to_half_db():
    t0 = time.perf_counter()
    losses = np.linspace(1e-4, 0.5, 5001)
    worst = float(_loss_model_gaps(losses).max())
    elapsed = time.perf_counter() - t0
    ok = worst < 0.25 and elapsed < 1.0
    _line(" 8", ok, (
        f"max exact-vs-linear link gap {worst:.3f} K for L <= 0.5 dB "
        f"(claimed bound 0.25 K)"
    ))
    assert ok


def test_criterion_08_companion_actual_linear_model_envelope():
    """Pin the envelope the two loss models actually satisfy.

    The half-decibel claim above fails: the gap rises monotonically,
    crosses 0.25 K near 0.185 dB, and reaches 1.755 K at 0.5 dB.  Fixing
    these numbers here makes any future change in either model visible.
    """
    losses = np.linspace(1e-4, 0.5, 5001)
    gaps = _loss_model_gaps(losses)
    assert np.all(np.diff(gaps) > 0)
    assert float(gaps.max()) == pytest.approx(1.7553690400515833, rel=1e-12)
    crossing = float(losses[np.searchsorted(gaps, 0.25)])
    assert crossing == pytest.approx(0.1846, abs=5e-4)
    assert np.all(gaps[losses <= 0.184] < 0.25)
    _line(" 8+", True, (
        f"companion: gap stays below 0.25 K up to {crossing:.3f} dB and "
        f"reaches {float(gaps.max()):.3f} K at 0.5 dB"
    ))


def test_criterion_09_fit_robustness():
    t0 = time.perf_counter()
    t = np.arange(60) * 0.5e-6 + 0.25e-6
    clean = 10.0 * np.log10(1.0 + (10.0 ** -0.35 - 1.0) * np.exp(-t / 9.0e-6))
    fit = fit_biexponential(t, clean, exclude_before_s=0.0)
    tau_err = abs(fit.tau2_s - 9.0e-6) / 9.0e-6
    nearly_equal = 10.0 * np.log10(
        1.0
        + (10.0 ** -0.12 - 1.0) * np.exp(-t / 5.0e-6)
        + (10.0 ** -0.13 - 1.0) * np.exp(-t / 5.05e-6)
    )
    degenerate = fit_biexponential(t, nearly_equal, exclude_before_s=0.0)
    elapsed = time.perf_counter() - t0
    ok = (
        fit.converged
        and fit.collapsed_single
        and tau_err < 1e-6
        and degenerate.converged
        and degenerate.collapsed_single
        and elapsed < 5.0
    )
    _line(" 9", ok, (
        f"noiseless time constant recovered to {tau_err:.1e} relative; "
        f"near-equal pair reported as flagged single exponential"
    ))
    assert ok


def test_criterion_10_simulate_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    ini = tmp_path / "run.ini"
    ini.write_text("[synth]\nn_shots = 6\nrng_seed = 31415\n")
    digests = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        rc = cli.main([
            "simulate", "--config", str(ini), "--out", str(out), "--porcelain",
        ])
        assert rc == 0
        sha = hashlib.sha256()
        for name in sorted(p.name for p in out.iterdir()):
            sha.update(name.encode())
            sha.update((out / name).read_bytes())
        digests.append(sha.hexdigest())
    capsys.readouterr()
    elapsed = time.perf_counter() - t0
    ok = digests[0] == digests[1] and elapsed < 5.0
    _line("10", ok, (
        f"repeated simulate output digest {digests[0][:12]} reproduced exactly "
        f"({elapsed:.1f} s)"
    ))
    assert ok
