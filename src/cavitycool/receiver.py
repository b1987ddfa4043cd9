"""Receiver noise arithmetic: LNA noise parameters and the cooled-vs-ambient
noise power ratio.

The observable this package ultimately predicts is the reduction in
receiver output noise power when the cavity mode is cold versus at
ambient.  That ratio depends on the mode temperature, the front-end
LNA's four noise parameters, its gain, and the noise added by the rest
of the chain, so all of that bookkeeping lives here.
"""

from __future__ import annotations

import math

from .errors import DomainError, Record, bounded, check_bounds

# The noise-figure convention's reference temperature: the default of
# `[receiver] reference_temperature_k`, which a configuration may change.
IEEE_T0 = 290.0  # K


def _check_passive(obj, *names: str) -> None:
    """Refuse, naming it, a reflection coefficient among `names` of magnitude >= 1."""
    for name in names:
        value = getattr(obj, name)
        if abs(value) >= 1:
            raise DomainError(f"must have magnitude < 1, got {value!r}", field=name)


class LnaNoiseParameters(Record):
    """Four-parameter noise model of a low-noise amplifier.

    t_min_k is the minimum achievable noise temperature, reached when the
    source reflection coefficient equals gamma_opt.  noise_resistance_ohm
    sets how fast the noise temperature grows away from that optimum.
    """

    t_min_k: float = bounded(">= 0")
    noise_resistance_ohm: float = bounded(">= 0")
    gamma_opt: complex
    reference_impedance_ohm: float = bounded("> 0", default=50.0)
    reference_temperature_k: float = bounded("> 0", default=IEEE_T0)

    def __post_init__(self) -> None:
        check_bounds(self)
        _check_passive(self, "gamma_opt")


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


class ReceiverChain(Record):
    """Everything after the cavity's monitoring port.

    lna_gain_linear is the front-end LNA power gain (linear, not dB) and
    post_stage_noise_k is the noise of everything behind the LNA referred
    to the LNA output.  The optional reflection and image fields activate
    the full ratio expression; the defaults (reflectionless port in both
    measurement states, no image band) give the simplified form.
    """

    lna: LnaNoiseParameters
    lna_gain_linear: float = bounded("> 0")
    post_stage_noise_k: float = bounded(">= 0")
    cavity_reflection: complex = 0j
    cavity_reflection_reference: complex = 0j
    image_noise_k: float = bounded(">= 0", default=0.0)

    def __post_init__(self) -> None:
        check_bounds(self)
        _check_passive(self, "cavity_reflection", "cavity_reflection_reference")


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
    temperatures; a Python float or int never touches numpy.
    """
    if isinstance(t_mode_k, (float, int)):
        t_mode_k = float(t_mode_k)
        negative = t_mode_k < 0
    else:
        import numpy as np

        t_mode_k = np.asarray(t_mode_k, dtype=float)
        negative = np.any(t_mode_k < 0)
        if t_mode_k.ndim == 0:
            t_mode_k = float(t_mode_k)
    if negative:
        raise DomainError("mode temperature must be >= 0 K")
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
    same port match.  A noiseless cooled state gives -inf, and a
    noiseless reference inf, or NaN when both are noiseless.
    """
    num = system_output_noise_kelvin(chain, t_mode_k)
    den = system_output_noise_kelvin(chain, t_ambient_k, reference=True)
    ratio = num / den if den else math.inf * num
    return 10.0 * math.log10(ratio) if ratio else -math.inf


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
    floor = noise_power_reduction_db(chain, 0.0, t_ambient_k)  # the mode at 0 K
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
