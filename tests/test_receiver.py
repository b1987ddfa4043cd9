"""Receiver noise model: LNA parameters and the cooled-state noise power
ratio with its inversion.

Frozen reference values come from an independent 40-digit evaluation of
the same expressions.
"""

import math

import numpy as np
import pytest

from cavitycool.errors import DomainError
from cavitycool.receiver import (
    LnaNoiseParameters,
    ReceiverChain,
    infer_mode_temperature,
    noise_power_reduction_db,
    system_output_noise_kelvin,
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


def test_lna_parameter_validation():
    with pytest.raises(DomainError):
        LnaNoiseParameters(t_min_k=-1.0, noise_resistance_ohm=2.5, gamma_opt=0j)
    with pytest.raises(DomainError):
        LnaNoiseParameters(t_min_k=11.6, noise_resistance_ohm=-2.5, gamma_opt=0j)
    with pytest.raises(DomainError):
        LnaNoiseParameters(t_min_k=11.6, noise_resistance_ohm=2.5, gamma_opt=1.0 + 0j)


def test_system_output_noise_reference():
    chain = _simple_chain()
    cooled = system_output_noise_kelvin(chain, 108.217470804590)
    ambient = system_output_noise_kelvin(chain, 256.279052430086, reference=True)
    assert math.isclose(cooled, 20064.1055962787, rel_tol=1e-10)
    assert math.isclose(ambient, 44642.3281461110, rel_tol=1e-10)


def test_system_output_noise_simplified_bracket():
    # Reflectionless port, no image band: G (T_min + T_mode + X) + T_post.
    chain = _simple_chain()
    lna = chain.lna
    x = (
        4.0 * lna.reference_temperature_k
        * (lna.noise_resistance_ohm / lna.reference_impedance_ohm)
        * abs(lna.gamma_opt) ** 2 / abs(1.0 + lna.gamma_opt) ** 2
    )
    assert math.isclose(x, 0.833165317570358, rel_tol=1e-12)
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


def test_system_output_noise_scalar_path_matches_the_array_path_bit_for_bit():
    # Python floats and ints take a branch that never builds an array.
    reflective = ReceiverChain(
        lna=_bench_lna(),
        lna_gain_linear=166.0,
        post_stage_noise_k=36.1,
        cavity_reflection=0.31 - 0.22j,
        cavity_reflection_reference=-0.05 + 0.4j,
        image_noise_k=3.7,
    )
    grid = np.concatenate([np.linspace(0.0, 400.0, 37), [1e-300, 108.21747080459033, 5e6]])
    for chain in (_simple_chain(), reflective):
        for reference in (False, True):
            vec = system_output_noise_kelvin(chain, grid, reference=reference)
            for t, v in zip(grid.tolist(), vec.tolist()):
                for scalar in (t, np.float64(t)):
                    got = system_output_noise_kelvin(chain, scalar, reference=reference)
                    assert type(got) is float and got == v, (chain, reference, t)
            assert system_output_noise_kelvin(chain, 250, reference=reference) == (
                system_output_noise_kelvin(chain, np.array([250.0]), reference=reference)[0]
            )
            # A 0-d array is a scalar too.
            got = system_output_noise_kelvin(chain, np.array(250.0), reference=reference)
            assert type(got) is float
            assert got == system_output_noise_kelvin(chain, 250.0, reference=reference)


def test_system_output_noise_refuses_negative_scalars_and_arrays_alike():
    chain = _simple_chain()
    for bad in (-1e-9, -3, np.float64(-0.5), np.array([1.0, -2.0]), [[4.0], [-0.1]]):
        with pytest.raises(DomainError) as exc:
            system_output_noise_kelvin(chain, bad)
        assert str(exc.value) == "mode temperature must be >= 0 K"


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
        noise_power_reduction_db(chain, 0.0, 255.4),
        -13.2610450842238,
        rel_tol=1e-10,
    )


def test_reduction_zero_at_equal_temperatures():
    chain = _simple_chain()
    for t in (50.0, 108.1, 290.0):
        assert abs(noise_power_reduction_db(chain, t, t)) < 1e-12


def test_reduction_monotone_in_mode_temperature():
    chain = _simple_chain()
    grid = np.linspace(0.0, 300.0, 40).tolist()
    curve = [noise_power_reduction_db(chain, t, 256.279052430086) for t in grid]
    assert np.all(np.diff(curve) > 0)
    assert curve[0] == pytest.approx(
        noise_power_reduction_db(chain, 0.0, 256.279052430086), rel=1e-12
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
    floor = noise_power_reduction_db(chain, 0.0, 256.0)
    with pytest.raises(DomainError):
        infer_mode_temperature(chain, floor - 0.5, 256.0)
    for value in (math.nan, -math.inf):
        with pytest.raises(DomainError, match="finite"):
            infer_mode_temperature(chain, value, 256.0)
    for ambient in (0.0, -1.0):
        with pytest.raises(DomainError, match="^ambient reference temperature must be positive$"):
            infer_mode_temperature(chain, -1.0, ambient)


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
