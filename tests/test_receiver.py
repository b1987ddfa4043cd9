"""Receiver noise model: LNA parameters, cascades, and the cooled-state
noise power ratio with its inversion.

Frozen reference values come from an independent 40-digit evaluation of
the same expressions.
"""

import math

import numpy as np
import pytest

from cavitycool.errors import DomainError
from cavitycool.receiver import (
    AmplifierStage,
    LnaNoiseParameters,
    ReceiverChain,
    friis_cascade,
    infer_mode_temperature,
    lna_input_noise_temperature,
    matched_source_excess_k,
    noise_figure_db_from_temperature,
    noise_power_reduction_curve,
    noise_power_reduction_db,
    noise_power_reduction_floor_db,
    system_output_noise_kelvin,
    temperature_from_noise_figure_db,
    y_factor_noise_temperature,
)


def _bench_lna():
    return LnaNoiseParameters(
        t_min_k=11.6,
        noise_resistance_ohm=2.0,
        gamma_opt=0.073 + 0.125j,
    )


def _simple_chain():
    return ReceiverChain(
        lna=_bench_lna(),
        lna_gain_linear=166.0,
        post_stage_noise_k=36.1,
    )


def test_matched_source_excess_reference():
    assert math.isclose(
        matched_source_excess_k(_bench_lna()), 0.833165317570358, rel_tol=1e-12
    )


def test_lna_noise_temperature_matched_reference():
    assert math.isclose(
        lna_input_noise_temperature(_bench_lna()), 12.4331653175704, rel_tol=1e-12
    )


def test_lna_noise_temperature_minimum_at_optimum():
    lna = _bench_lna()
    assert lna_input_noise_temperature(lna, lna.gamma_opt) == pytest.approx(
        lna.t_min_k, rel=1e-15
    )
    rng = np.random.default_rng(5)
    for _ in range(200):
        r = rng.uniform(0, 0.95)
        phi = rng.uniform(0, 2 * math.pi)
        gs = r * complex(math.cos(phi), math.sin(phi))
        assert lna_input_noise_temperature(lna, gs) >= lna.t_min_k


def test_lna_rejects_unphysical_source():
    with pytest.raises(DomainError):
        lna_input_noise_temperature(_bench_lna(), 1.0 + 0j)


def test_lna_parameter_validation():
    with pytest.raises(DomainError):
        LnaNoiseParameters(t_min_k=-1.0, noise_resistance_ohm=2.5, gamma_opt=0j)
    with pytest.raises(DomainError):
        LnaNoiseParameters(t_min_k=11.6, noise_resistance_ohm=-2.5, gamma_opt=0j)
    with pytest.raises(DomainError):
        LnaNoiseParameters(t_min_k=11.6, noise_resistance_ohm=2.5, gamma_opt=1.0 + 0j)


def test_friis_two_stage():
    stages = [AmplifierStage(100.0, 12.0), AmplifierStage(1000.0, 300.0)]
    result = friis_cascade(stages)
    assert result.gain_linear == pytest.approx(1e5, rel=1e-15)
    assert result.noise_temperature_k == pytest.approx(15.0, rel=1e-15)


def test_friis_front_stage_dominates():
    rng = np.random.default_rng(9)
    for _ in range(100):
        g1 = rng.uniform(50, 5000)
        t1 = rng.uniform(5, 50)
        t2 = rng.uniform(50, 2000)
        total = friis_cascade(
            [AmplifierStage(g1, t1), AmplifierStage(10.0, t2)]
        ).noise_temperature_k
        assert total == pytest.approx(t1 + t2 / g1, rel=1e-14)
        assert total >= t1


def test_friis_validation():
    with pytest.raises(DomainError):
        friis_cascade([])
    with pytest.raises(DomainError):
        friis_cascade([AmplifierStage(0.0, 10.0)])
    with pytest.raises(DomainError):
        friis_cascade([AmplifierStage(10.0, -1.0)])


def test_y_factor_reference():
    result = y_factor_noise_temperature(290.0, 77.0, 2.0)
    assert not result.clamped
    assert result.noise_temperature_k == pytest.approx(136.0, rel=1e-12)


def test_y_factor_clamps_negative():
    # Y larger than T_hot/T_cold implies negative device noise: clamp.
    result = y_factor_noise_temperature(290.0, 77.0, 4.0)
    assert result.clamped
    assert result.noise_temperature_k == 0.0


def test_y_factor_validation():
    with pytest.raises(DomainError):
        y_factor_noise_temperature(77.0, 290.0, 2.0)
    with pytest.raises(DomainError):
        y_factor_noise_temperature(290.0, 77.0, 1.0)


def test_noise_figure_round_trip():
    assert math.isclose(
        noise_figure_db_from_temperature(18.2), 0.264346364834444, rel_tol=1e-12
    )
    assert math.isclose(
        temperature_from_noise_figure_db(0.26), 17.8917115876301, rel_tol=1e-12
    )
    rng = np.random.default_rng(13)
    for _ in range(100):
        t = rng.uniform(0, 5000)
        nf = noise_figure_db_from_temperature(t)
        assert math.isclose(temperature_from_noise_figure_db(nf), t, rel_tol=1e-12, abs_tol=1e-12)


def test_system_output_noise_reference():
    chain = _simple_chain()
    cooled = system_output_noise_kelvin(chain, 108.217470804590)
    ambient = system_output_noise_kelvin(chain, 256.279052430086, reference=True)
    assert math.isclose(cooled, 20064.1055962787, rel_tol=1e-10)
    assert math.isclose(ambient, 44642.3281461110, rel_tol=1e-10)


def test_system_output_noise_simplified_bracket():
    # Reflectionless port, no image band: G (T_min + T_mode + X) + T_post.
    chain = _simple_chain()
    x = matched_source_excess_k(chain.lna)
    rng = np.random.default_rng(17)
    for t_mode in rng.uniform(0, 400, 50):
        expected = (
            chain.lna_gain_linear * (chain.lna.t_min_k + t_mode + x)
            + chain.post_stage_noise_k
        )
        assert math.isclose(
            system_output_noise_kelvin(chain, t_mode), expected, rel_tol=1e-14
        )


def test_system_output_noise_vectorised():
    chain = _simple_chain()
    grid = np.linspace(0.0, 400.0, 23)
    vec = system_output_noise_kelvin(chain, grid)
    assert vec.shape == grid.shape
    for t, v in zip(grid, vec):
        assert math.isclose(v, system_output_noise_kelvin(chain, float(t)), rel_tol=1e-15)


def test_reduction_reference_values():
    chain = _simple_chain()
    assert math.isclose(
        noise_power_reduction_db(chain, 108.1, 255.4), -3.46327416712266, rel_tol=1e-10
    )
    assert math.isclose(
        noise_power_reduction_db(chain, 108.217470804590, 256.279052430086),
        -3.47327030626619,
        rel_tol=1e-10,
    )


def test_reduction_floor_reference():
    chain = _simple_chain()
    assert math.isclose(
        noise_power_reduction_floor_db(chain, 255.4),
        -13.2610450842238,
        rel_tol=1e-10,
    )


def test_reduction_zero_at_equal_temperatures():
    chain = _simple_chain()
    for t in (50.0, 108.1, 290.0):
        assert abs(noise_power_reduction_db(chain, t, t)) < 1e-12


def test_reduction_monotone_in_mode_temperature():
    chain = _simple_chain()
    grid = np.linspace(0.0, 300.0, 40)
    curve = noise_power_reduction_curve(chain, 256.279052430086, grid)
    assert np.all(np.diff(curve) > 0)
    assert curve[0] == pytest.approx(
        noise_power_reduction_floor_db(chain, 256.279052430086), rel=1e-12
    )


def test_reduction_antisymmetric_under_swap():
    chain = _simple_chain()
    rng = np.random.default_rng(21)
    for _ in range(50):
        ta, tb = rng.uniform(10, 350, 2)
        fwd = noise_power_reduction_db(chain, ta, tb)
        rev = noise_power_reduction_db(chain, tb, ta)
        assert math.isclose(fwd, -rev, rel_tol=1e-10, abs_tol=1e-12)


def test_post_stage_noise_compresses_the_ratio():
    # More noise behind the LNA dilutes the mode's contribution, so the
    # registered reduction shrinks toward 0 dB.
    lna = _bench_lna()
    depths = []
    for t_post in (0.0, 150.0, 1e4, 1e7):
        chain = ReceiverChain(
            lna=lna, lna_gain_linear=166.0, post_stage_noise_k=t_post
        )
        depths.append(noise_power_reduction_db(chain, 108.1, 255.4))
    assert all(b > a for a, b in zip(depths, depths[1:]))
    assert depths[-1] > -0.1


def test_inversion_round_trip():
    chain = _simple_chain()
    rng = np.random.default_rng(23)
    for _ in range(20):
        t_mode = rng.uniform(1.0, 250.0)
        dp = noise_power_reduction_db(chain, t_mode, 256.279052430086)
        recovered = infer_mode_temperature(chain, dp, 256.279052430086)
        assert abs(recovered - t_mode) < 1e-6


def test_inversion_reference_value():
    chain = _simple_chain()
    assert math.isclose(
        infer_mode_temperature(chain, -3.5, 255.4),
        107.083185411094,
        rel_tol=1e-9,
    )


def test_inversion_rejects_out_of_range():
    chain = _simple_chain()
    with pytest.raises(DomainError):
        infer_mode_temperature(chain, 0.5, 256.0)
    floor = noise_power_reduction_floor_db(chain, 256.0)
    with pytest.raises(DomainError):
        infer_mode_temperature(chain, floor - 0.5, 256.0)
    for value in (math.nan, -math.inf):
        with pytest.raises(DomainError, match="finite"):
            infer_mode_temperature(chain, value, 256.0)


def test_port_reflection_reduces_mode_contribution():
    # A reflective cavity port couples less of the mode noise into the
    # LNA, so the same temperature pair registers a shallower dip.
    lna = _bench_lna()
    matched = ReceiverChain(
        lna=lna, lna_gain_linear=166.0, post_stage_noise_k=36.1
    )
    reflective = ReceiverChain(
        lna=lna,
        lna_gain_linear=166.0,
        post_stage_noise_k=36.1,
        cavity_reflection=0.4 + 0j,
        cavity_reflection_reference=0.4 + 0j,
    )
    assert noise_power_reduction_db(
        reflective, 108.1, 255.4
    ) > noise_power_reduction_db(matched, 108.1, 255.4)


def test_image_noise_compresses_the_ratio():
    lna = _bench_lna()
    base = ReceiverChain(
        lna=lna, lna_gain_linear=166.0, post_stage_noise_k=36.1
    )
    with_image = ReceiverChain(
        lna=lna,
        lna_gain_linear=166.0,
        post_stage_noise_k=36.1,
        image_noise_k=300.0,
    )
    assert noise_power_reduction_db(
        with_image, 108.1, 255.4
    ) > noise_power_reduction_db(base, 108.1, 255.4)


def test_chain_validation():
    lna = _bench_lna()
    with pytest.raises(DomainError):
        ReceiverChain(lna=lna, lna_gain_linear=0.0, post_stage_noise_k=36.1)
    with pytest.raises(DomainError):
        ReceiverChain(lna=lna, lna_gain_linear=100.0, post_stage_noise_k=-1.0)
    with pytest.raises(DomainError):
        ReceiverChain(
            lna=lna,
            lna_gain_linear=100.0,
            post_stage_noise_k=0.0,
            cavity_reflection=1.0 + 0j,
        )
    with pytest.raises(DomainError):
        system_output_noise_kelvin(
            ReceiverChain(lna=lna, lna_gain_linear=100.0, post_stage_noise_k=0.0),
            -1.0,
        )
