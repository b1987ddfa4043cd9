"""Receiver noise arithmetic: LNA noise parameters, cascades, and the
cooled-vs-ambient noise power ratio.

The observable this package ultimately predicts is the reduction in
receiver output noise power when the cavity mode is cold versus at
ambient.  That ratio depends on the mode temperature, the front-end
LNA's four noise parameters, its gain, and the noise added by the rest
of the chain, so all of that bookkeeping lives here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constants import IEEE_T0
from .errors import DomainError


@dataclass(frozen=True)
class LnaNoiseParameters:
    """Four-parameter noise model of a low-noise amplifier.

    t_min_k is the minimum achievable noise temperature, reached when the
    source reflection coefficient equals gamma_opt.  noise_resistance_ohm
    sets how fast the noise temperature grows away from that optimum.
    """

    t_min_k: float
    noise_resistance_ohm: float
    gamma_opt: complex
    reference_impedance_ohm: float = 50.0
    reference_temperature_k: float = IEEE_T0

    def __post_init__(self) -> None:
        if self.t_min_k < 0:
            raise DomainError(f"t_min must be >= 0 K, got {self.t_min_k}")
        if self.noise_resistance_ohm < 0:
            raise DomainError("noise resistance must be >= 0 ohm")
        if abs(self.gamma_opt) >= 1:
            raise DomainError("|gamma_opt| must be < 1")
        if self.reference_impedance_ohm <= 0:
            raise DomainError("reference impedance must be positive")
        if self.reference_temperature_k <= 0:
            raise DomainError("reference temperature must be positive")


def _mismatch_k(lna: LnaNoiseParameters, gamma_source: complex) -> float:
    """LNA noise from a source away from the optimum match:
    4 T_0 (R_n/Z_0) |G_s - G_opt|^2 / |1 + G_opt|^2."""
    scale = (
        4.0
        * lna.reference_temperature_k
        * lna.noise_resistance_ohm
        / lna.reference_impedance_ohm
    )
    return scale * abs(gamma_source - lna.gamma_opt) ** 2 / abs(1.0 + lna.gamma_opt) ** 2


def lna_input_noise_temperature(
    lna: LnaNoiseParameters, gamma_source: complex = 0j
) -> float:
    """Input-referred noise temperature of the LNA for a given source match.

        T = T_min + 4 T_0 (R_n/Z_0) |G_s - G_opt|^2
                    / ((1 - |G_s|^2) |1 + G_opt|^2)

    Parameters
    ----------
    lna : LnaNoiseParameters
    gamma_source : complex
        Source reflection coefficient, |gamma_source| < 1.
    """
    gs = complex(gamma_source)
    if abs(gs) >= 1:
        raise DomainError("|gamma_source| must be < 1")
    return lna.t_min_k + _mismatch_k(lna, gs) / (1.0 - abs(gs) ** 2)


def matched_source_excess_k(lna: LnaNoiseParameters) -> float:
    """Mismatch penalty at a reflectionless source (the X term of the
    output-noise bracket): 4 T_0 (R_n/Z_0) |G_opt|^2 / |1 + G_opt|^2."""
    return _mismatch_k(lna, 0j)


class AmplifierStage(NamedTuple):
    """One gain stage for cascade bookkeeping."""

    gain_linear: float
    noise_temperature_k: float


class FriisResult(NamedTuple):
    gain_linear: float
    noise_temperature_k: float


def friis_cascade(stages: "list[AmplifierStage] | tuple[AmplifierStage, ...]") -> FriisResult:
    """Input-referred noise temperature and total gain of a cascade.

    T = T_1 + T_2/G_1 + T_3/(G_1 G_2) + ...
    """
    if not stages:
        raise DomainError("cascade needs at least one stage")
    total_t = 0.0
    running_gain = 1.0
    for stage in stages:
        if stage.gain_linear <= 0:
            raise DomainError(f"stage gain must be positive, got {stage.gain_linear}")
        if stage.noise_temperature_k < 0:
            raise DomainError("stage noise temperature must be >= 0 K")
        total_t += stage.noise_temperature_k / running_gain
        running_gain *= stage.gain_linear
    return FriisResult(running_gain, total_t)


class YFactorResult(NamedTuple):
    noise_temperature_k: float
    clamped: bool


def y_factor_noise_temperature(
    t_hot_k: float, t_cold_k: float, y_ratio: float
) -> YFactorResult:
    """Device noise temperature from a hot/cold load power ratio.

        T = (T_hot - Y T_cold) / (Y - 1)

    A measured Y exceeding the noiseless ratio T_hot/T_cold gives a
    negative temperature; the result is then clamped to 0 K and flagged.
    """
    if t_hot_k <= t_cold_k:
        raise DomainError("t_hot must exceed t_cold")
    if t_cold_k < 0:
        raise DomainError("t_cold must be >= 0 K")
    if y_ratio <= 1:
        raise DomainError(f"Y must exceed 1, got {y_ratio}")
    t = (t_hot_k - y_ratio * t_cold_k) / (y_ratio - 1.0)
    if t < 0:
        return YFactorResult(0.0, True)
    return YFactorResult(t, False)


def noise_figure_db_from_temperature(
    noise_temperature_k: float, reference_k: float = IEEE_T0
) -> float:
    """NF in dB of a stage with the given input-referred noise temperature."""
    if noise_temperature_k < 0:
        raise DomainError("noise temperature must be >= 0 K")
    return 10.0 * math.log10(1.0 + noise_temperature_k / reference_k)


def temperature_from_noise_figure_db(
    noise_figure_db: float, reference_k: float = IEEE_T0
) -> float:
    """Inverse of `noise_figure_db_from_temperature`."""
    if noise_figure_db < 0:
        raise DomainError("noise figure must be >= 0 dB")
    return reference_k * (10.0 ** (noise_figure_db / 10.0) - 1.0)


@dataclass(frozen=True)
class ReceiverChain:
    """Everything after the cavity's monitoring port.

    lna_gain_linear is the front-end LNA power gain (linear, not dB) and
    post_stage_noise_k is the noise of everything behind the LNA referred
    to the LNA output.  The optional reflection and image fields activate
    the full ratio expression; the defaults (reflectionless port in both
    measurement states, no image band) give the simplified form.
    """

    lna: LnaNoiseParameters
    lna_gain_linear: float
    post_stage_noise_k: float
    cavity_reflection: complex = 0j
    cavity_reflection_reference: complex = 0j
    image_noise_k: float = 0.0

    def __post_init__(self) -> None:
        if self.lna_gain_linear <= 0:
            raise DomainError("LNA gain must be positive")
        if self.post_stage_noise_k < 0:
            raise DomainError("post-stage noise must be >= 0 K")
        if abs(self.cavity_reflection) >= 1 or abs(self.cavity_reflection_reference) >= 1:
            raise DomainError("|cavity reflection| must be < 1")
        if self.image_noise_k < 0:
            raise DomainError("image noise must be >= 0 K")


def system_output_noise_kelvin(
    chain: ReceiverChain, t_mode_k: float, *, reference: bool = False
) -> float:
    """Receiver output noise in kelvin-equivalent units for a given mode
    temperature.

    General form (per measurement state, with source reflection G_c):

        G [ (T_min + T_mode)(1 - |G_c|^2)
            + 4 T_0 (R_n/Z_0) |G_c - G_opt|^2 / |1 + G_opt|^2
            + T_image ] + T_post

    With G_c = 0 and no image band this reduces to
    G [ T_min + T_mode + X ] + T_post.  Accepts scalar or ndarray mode
    temperatures.
    """
    t_mode_k = np.asarray(t_mode_k, dtype=float)
    if np.any(t_mode_k < 0):
        raise DomainError("mode temperature must be >= 0 K")
    if t_mode_k.ndim == 0:
        t_mode_k = float(t_mode_k)
    lna = chain.lna
    gc = chain.cavity_reflection_reference if reference else chain.cavity_reflection
    bracket = (
        (lna.t_min_k + t_mode_k) * (1.0 - abs(gc) ** 2)
        + _mismatch_k(lna, gc)
        + chain.image_noise_k
    )
    return chain.lna_gain_linear * bracket + chain.post_stage_noise_k


def noise_power_reduction_db(
    chain: ReceiverChain, t_mode_k: float, t_ambient_k: float
) -> float:
    """Receiver noise power change, in dB, of the cooled state relative to
    the ambient reference state.

    Negative when the mode is colder than the reference.  Antisymmetric
    under swapping the two temperatures when the two states share the
    same port match.
    """
    num = system_output_noise_kelvin(chain, t_mode_k)
    den = system_output_noise_kelvin(chain, t_ambient_k, reference=True)
    return 10.0 * math.log10(num / den)


def noise_power_reduction_floor_db(chain: ReceiverChain, t_ambient_k: float) -> float:
    """Largest reduction the chain can register: the mode at 0 K."""
    return noise_power_reduction_db(chain, 0.0, t_ambient_k)


def infer_mode_temperature(
    chain: ReceiverChain, deltap_db: float, t_ambient_k: float
) -> float:
    """Invert `noise_power_reduction_db` for the mode temperature.

    The receiver output S(T) is affine in the mode temperature, so with
    S_ref the ambient reference state

        T = (10^(deltap/10) S_ref(T_ambient) - S(0)) / (S(1) - S(0)).

    Raises
    ------
    DomainError
        If deltap_db is not finite, positive (mode hotter than the
        reference) or deeper than the chain's floor.
    """
    if t_ambient_k <= 0:
        raise DomainError("ambient reference temperature must be positive")
    if not math.isfinite(deltap_db):
        raise DomainError(f"reduction must be finite, got {deltap_db}")
    floor = noise_power_reduction_floor_db(chain, t_ambient_k)
    if deltap_db < floor:
        raise DomainError(
            f"reduction {deltap_db:.3f} dB exceeds the receiver floor "
            f"{floor:.3f} dB; no mode temperature reproduces it"
        )
    if deltap_db > 0:
        raise DomainError(
            f"reduction must be <= 0 dB for inversion on [0, ambient], "
            f"got {deltap_db:.3f} dB"
        )
    reference = system_output_noise_kelvin(chain, t_ambient_k, reference=True)
    at_zero = system_output_noise_kelvin(chain, 0.0)
    per_kelvin = system_output_noise_kelvin(chain, 1.0) - at_zero
    return max(0.0, (10.0 ** (deltap_db / 10.0) * reference - at_zero) / per_kelvin)


def noise_power_reduction_curve(
    chain: ReceiverChain,
    t_ambient_k: float,
    t_mode_grid_k: "np.typing.ArrayLike",
) -> np.ndarray:
    """Vectorised `noise_power_reduction_db` over a grid of mode temperatures."""
    grid = np.asarray(t_mode_grid_k, dtype=float)
    if grid.size == 0:
        raise DomainError("temperature grid must be non-empty")
    num = system_output_noise_kelvin(chain, grid)
    den = system_output_noise_kelvin(chain, t_ambient_k, reference=True)
    return 10.0 * np.log10(num / den)
