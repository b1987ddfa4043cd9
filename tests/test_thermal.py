"""Occupancy conversions, lossy-link transforms, and mode-temperature budgets.

Reference numbers are frozen from an independent 40-digit evaluation of
the same closed-form expressions (mpmath); tolerances reflect double
precision, not model uncertainty.
"""

import math
import warnings

import numpy as np
import pytest

from cavitycool.errors import DomainError
from cavitycool.thermal import (
    BathPort,
    BathSet,
    CavityMode,
    LossModel,
    link_output_temperature,
    mode_temperature,
    photon_occupancy,
    sweep_mode_temperature,
)
from cavitycool.constants import BOLTZMANN_K, PLANCK_H


def test_occupancy_reference_values():
    assert math.isclose(
        photon_occupancy(1.45e9, 255.4), 3669.61900484235, rel_tol=1e-12
    )
    assert math.isclose(
        photon_occupancy(1.45e9, 108.1), 1552.90593449502, rel_tol=1e-12
    )
    assert math.isclose(
        photon_occupancy(1.45e9, 290.0), 4166.82384466236, rel_tol=1e-12
    )
    assert math.isclose(
        photon_occupancy(1.4495e9, 290.0), 4168.26134856187, rel_tol=1e-12
    )


def test_occupancy_inverse_reference():
    # 108.106545926963 K is the temperature of 1553 photons at 1.45 GHz.
    assert math.isclose(
        photon_occupancy(1.45e9, 108.106545926963), 1553.0, rel_tol=1e-12
    )


def test_occupancy_round_trip_random():
    # Inverted with the closed form hf / (k log1p(1/n)): expm1 keeps the
    # occupancy exact to double precision across six decades of hf/kT.
    rng = np.random.default_rng(42)
    for _ in range(200):
        f = 10 ** rng.uniform(6, 11)
        t = 10 ** rng.uniform(-1, 3)
        n = photon_occupancy(f, t)
        recovered = PLANCK_H * f / (BOLTZMANN_K * math.log1p(1.0 / n))
        assert math.isclose(recovered, t, rel_tol=1e-12)


def test_occupancy_monotone_in_temperature():
    temps = np.linspace(0.5, 400, 50)
    occ = [photon_occupancy(1.4495e9, t) for t in temps]
    assert all(b > a for a, b in zip(occ, occ[1:]))


def test_occupancy_equipartition_limit():
    # hf/kT -> 0: n ~ kT/hf - 1/2
    f, t = 1.45e9, 5000.0
    eps = BOLTZMANN_K / (PLANCK_H * f)
    assert math.isclose(photon_occupancy(f, t), eps * t - 0.5, rel_tol=1e-4)


def test_occupancy_domain_errors():
    with pytest.raises(DomainError):
        photon_occupancy(0.0, 200.0)
    with pytest.raises(DomainError):
        photon_occupancy(1e9, -1.0)


def test_occupancy_zero_temperature_limits():
    assert photon_occupancy(1e9, 0.0) == 0.0


def test_link_exact_reference():
    assert math.isclose(
        link_output_temperature(6.05, 18.4, 290.0, LossModel.EXACT),
        222.558104860172,
        rel_tol=1e-12,
    )
    assert math.isclose(
        link_output_temperature(0.19, 18.4, 290.0, LossModel.EXACT),
        30.0260902363202,
        rel_tol=1e-12,
    )


def test_link_linear_reference():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = link_output_temperature(0.19, 18.4, 290.0, LossModel.LINEAR)
    assert math.isclose(t, 30.2903225806452, rel_tol=1e-12)


def test_link_zero_loss_is_transparent():
    for model in LossModel:
        assert link_output_temperature(0.0, 18.4, 290.0, model) == pytest.approx(
            18.4, rel=1e-15
        )


def test_link_output_bounded_by_endpoints():
    rng = np.random.default_rng(7)
    for _ in range(200):
        loss = rng.uniform(0, 30)
        t_load = rng.uniform(1, 400)
        t_link = rng.uniform(1, 400)
        out = link_output_temperature(loss, t_load, t_link, LossModel.EXACT)
        lo, hi = min(t_load, t_link), max(t_load, t_link)
        assert lo - 1e-9 <= out <= hi + 1e-9


def test_link_models_agree_at_small_loss():
    # First-order agreement: difference is O(loss^2).
    for loss in (0.01, 0.05, 0.1):
        exact = link_output_temperature(loss, 18.2, 290.0, LossModel.EXACT)
        lin = link_output_temperature(loss, 18.2, 290.0, LossModel.LINEAR)
        assert abs(exact - lin) < 1.5 * (loss / 4.34) ** 2 * (290.0 - 18.2)


def test_link_linear_warns_past_half_db():
    with pytest.warns(UserWarning):
        link_output_temperature(0.6, 18.4, 290.0, LossModel.LINEAR)


def test_link_linear_rejects_loss_at_breakdown():
    with pytest.raises(DomainError):
        link_output_temperature(4.34, 18.4, 290.0, LossModel.LINEAR)
    with pytest.raises(DomainError):
        link_output_temperature(6.0, 18.4, 290.0, LossModel.LINEAR)


def test_link_negative_loss_rejected():
    with pytest.raises(DomainError):
        link_output_temperature(-0.1, 18.4, 290.0, LossModel.EXACT)


def _bench_bath_set():
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


def test_mode_temperature_cooled_reference():
    assert math.isclose(
        mode_temperature(_bench_bath_set()), 108.21747080459, rel_tol=1e-12
    )


def test_mode_temperature_ambient_reference():
    baths = _bench_bath_set()
    assert math.isclose(
        mode_temperature(baths.subset((1,))), 256.279052430086, rel_tol=1e-12
    )


def test_mode_temperature_no_ports_is_wall():
    baths = BathSet(intrinsic_temperature_k=290.0, ports=())
    assert mode_temperature(baths) == pytest.approx(290.0, rel=1e-15)


def test_mode_temperature_is_weighted_average():
    rng = np.random.default_rng(11)
    for _ in range(100):
        k1, k2 = rng.uniform(0.1, 10, 2)
        t0, t1, t2 = rng.uniform(2, 350, 3)
        baths = BathSet(
            intrinsic_temperature_k=t0,
            ports=(
                BathPort(coupling=k1, load_temperature_k=t1),
                BathPort(coupling=k2, load_temperature_k=t2),
            ),
        )
        expected = (t0 + k1 * t1 + k2 * t2) / (1 + k1 + k2)
        assert math.isclose(mode_temperature(baths), expected, rel_tol=1e-14)
        lo = min(t0, t1, t2)
        hi = max(t0, t1, t2)
        assert lo <= mode_temperature(baths) <= hi


def _cooled_mode_temperature_closed_form(
    t_ambient_k, coupling, loss_factor, t_cold_k, t_monitor_k
):
    """The paper's cooled mode temperature for its two-port arrangement:
    one overcoupled port (`coupling`) delivers `t_cold_k` through a short
    link whose loss enters as `loss_factor` = L_dB/4.34 at ambient, and a
    critically coupled port delivers `t_monitor_k`:

        T = ((1 + coupling*loss_factor)*T_ambient
             + coupling*T_cold + T_monitor) / (2 + coupling)
    """
    numerator = (
        (1.0 + coupling * loss_factor) * t_ambient_k
        + coupling * t_cold_k
        + t_monitor_k
    )
    return numerator / (2.0 + coupling)


def test_closed_form_reference_values():
    assert math.isclose(
        _cooled_mode_temperature_closed_form(290.0, 3.8, 0.19 / 4.34, 18.4, 220.9),
        108.459351660575,
        rel_tol=1e-12,
    )
    assert math.isclose(
        _cooled_mode_temperature_closed_form(290.0, 10.0, 0.0, 18.4, 220.9),
        57.9083333333333,
        rel_tol=1e-12,
    )


def test_closed_form_matches_port_budget():
    # The literal two-port expression is the same arithmetic as a bath
    # set with (i) an overcoupled port whose load sits at
    # T_cold + loss_factor * T_ambient and (ii) a unit-coupling port at
    # the monitor temperature.
    rng = np.random.default_rng(3)
    for _ in range(100):
        t0 = rng.uniform(100, 350)
        kappa = rng.uniform(0.2, 12)
        lam = rng.uniform(0.0, 0.9)
        t_cold = rng.uniform(2, 80)
        t_mon = rng.uniform(50, 300)
        direct = _cooled_mode_temperature_closed_form(t0, kappa, lam, t_cold, t_mon)
        baths = BathSet(
            intrinsic_temperature_k=t0,
            ports=(
                BathPort(coupling=kappa, load_temperature_k=t_cold + lam * t0),
                BathPort(coupling=1.0, load_temperature_k=t_mon),
            ),
        )
        assert math.isclose(direct, mode_temperature(baths), rel_tol=1e-12)


def test_more_coupling_cools_further():
    # With a cold delivered load, raising the overcoupling must lower
    # the mode temperature monotonically toward the delivered value.
    baths = _bench_bath_set()
    temps = []
    for kappa in (1.0, 2.0, 3.8, 8.0, 20.0, 100.0):
        ports = (
            BathPort(
                coupling=kappa,
                load_temperature_k=18.4,
                link_loss_db=0.19,
                link_temperature_k=290.0,
                loss_model=LossModel.LINEAR,
            ),
            baths.ports[1],
        )
        temps.append(mode_temperature(BathSet(290.0, ports)))
    assert all(b < a for a, b in zip(temps, temps[1:]))
    assert temps[-1] > 30.0  # never below the delivered load temperature


def test_sweep_grid_matches_scalar_evaluations():
    baths = _bench_bath_set()
    couplings = np.array([1.0, 3.8, 7.5])
    loads = np.array([10.0, 18.4, 77.0, 150.0])
    grid = sweep_mode_temperature(baths, 0, couplings, loads)
    assert len(grid) == 3 and all(len(row) == 4 for row in grid)
    for i, kappa in enumerate(couplings):
        for j, t_load in enumerate(loads):
            ports = (
                BathPort(
                    coupling=float(kappa),
                    load_temperature_k=float(t_load),
                    link_loss_db=0.19,
                    link_temperature_k=290.0,
                    loss_model=LossModel.LINEAR,
                ),
                baths.ports[1],
            )
            expected = mode_temperature(BathSet(290.0, ports))
            assert math.isclose(grid[i][j], expected, rel_tol=1e-12)


def test_sweep_rejects_bad_port_index():
    baths = _bench_bath_set()
    with pytest.raises(DomainError):
        sweep_mode_temperature(baths, 2, [1.0], [18.4])


def test_port_validation():
    with pytest.raises(DomainError):
        BathPort(coupling=-1.0, load_temperature_k=18.4)
    with pytest.raises(DomainError):
        BathPort(coupling=1.0, load_temperature_k=-5.0)
    with pytest.raises(DomainError):
        BathSet(intrinsic_temperature_k=-2.0, ports=())


def test_port_refuses_a_link_loss_its_model_cannot_take():
    with pytest.raises(DomainError) as refused:
        BathPort(coupling=1.0, load_temperature_k=18.4, link_loss_db=-0.1)
    assert str(refused.value) == "link_loss_db must be >= 0, got -0.1"
    for loss in (4.34, 6.0):
        with pytest.raises(DomainError, match="link_loss_db must be < 4.34 dB"):
            BathPort(1.0, 18.4, loss, 290.0, LossModel.LINEAR)
    # Past the soft limit the port is built without a warning; only the
    # delivered temperature warns.
    port = BathPort(1.0, 18.4, 4.3, 290.0, LossModel.LINEAR)
    with pytest.warns(UserWarning):
        port.delivered_temperature_k()
    assert BathPort(1.0, 18.4, 6.0, 290.0, LossModel.EXACT).link_loss_db == 6.0


def test_cavity_mode_validation():
    with pytest.raises(DomainError):
        CavityMode(frequency_hz=0.0, intrinsic_q=164000.0)
    with pytest.raises(DomainError):
        CavityMode(frequency_hz=1.4495e9, intrinsic_q=0.0)
    mode = CavityMode(frequency_hz=1.4495e9, intrinsic_q=164000.0)
    assert math.isclose(mode.angular_frequency, 2 * math.pi * 1.4495e9, rel_tol=1e-15)
