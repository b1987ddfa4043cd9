"""Planck occupancy arithmetic and bath-weighted mode temperatures.

A cavity mode in thermal contact with its own walls and with a set of
coupled external baths settles at a weighted average of the bath noise
temperatures, with the coupling coefficients as weights.  Loss between
a bath's terminating load and the cavity pulls the delivered noise
temperature toward the temperature of the lossy link itself; both the
exact mixing formula and its small-loss linearisation are provided.
"""

from __future__ import annotations

import enum
import math
import warnings
from typing import Iterable

from .errors import DomainError, Record, bounded, check_bounds, replace

# 2019 SI exact values, fixed by definition.
PLANCK_H = 6.62607015e-34  # J s
BOLTZMANN_K = 1.380649e-23  # J/K

# Decibels per neper: the linear loss model writes the power transmission
# 10**(-L/10) as 1 - L/DB_PER_NEPER, which is accurate for small L.
DB_PER_NEPER = 4.34

# The linear loss model degrades fast above this insertion loss.
LINEAR_MODEL_SOFT_LIMIT_DB = 0.5


def photon_occupancy(frequency_hz: float, temperature_k: float) -> float:
    """Mean thermal photon number of a mode at the given temperature.

    Parameters
    ----------
    frequency_hz : float
        Mode frequency, > 0.
    temperature_k : float
        Physical temperature in kelvin, >= 0.

    Returns
    -------
    float
        Bose-Einstein occupancy 1/(exp(hf/kT) - 1); 0.0 at T = 0, and
        inf when hf/kT underflows to 0.
    """
    if frequency_hz <= 0:
        raise DomainError(f"frequency must be positive, got {frequency_hz}")
    if temperature_k < 0:
        raise DomainError(f"temperature must be >= 0 K, got {temperature_k}")
    if temperature_k == 0:
        return 0.0
    x = PLANCK_H * frequency_hz / (BOLTZMANN_K * temperature_k)
    if x == 0 or x > 700.0:  # past the floats: 1/(exp(x) - 1) is inf, or exp(-x)
        return math.inf if x == 0 else math.exp(-x)
    # expm1 keeps precision in the microwave regime where x ~ 1e-4.
    return 1.0 / math.expm1(x)


class LossModel(enum.Enum):
    """How a link's insertion loss mixes load and link temperatures."""

    EXACT = "exact"
    LINEAR = "linear"


def _check_link_loss(loss_db: float, model: LossModel) -> None:
    """Refuse, naming `link_loss_db`, a loss the linear model cannot take."""
    if model is LossModel.LINEAR and loss_db >= DB_PER_NEPER:
        raise DomainError(
            f"must be < {DB_PER_NEPER} dB under the linear loss model "
            f"(its load weight vanishes there), got {loss_db!r}; use the exact model",
            field="link_loss_db",
        )


def link_output_temperature(
    loss_db: float,
    load_temperature_k: float,
    link_temperature_k: float,
    model: LossModel = LossModel.EXACT,
) -> float:
    """Noise temperature delivered through a lossy link.

    A link with insertion loss L dB at physical temperature T_link,
    terminated by a load at T_load, delivers

        exact :  10**(-L/10) * T_load + (1 - 10**(-L/10)) * T_link
        linear:  (1 - L/4.34) * T_load + (L/4.34) * T_link

    The linear form is a small-loss approximation; it is refused at
    L >= 4.34 dB (where its load weight goes non-positive) and warns
    above 0.5 dB.

    Parameters
    ----------
    loss_db : float
        Insertion loss in dB, >= 0.
    load_temperature_k, link_temperature_k : float
        Temperatures of the terminating load and of the link itself, >= 0 K.
    model : LossModel
        EXACT by default.

    Returns
    -------
    float
        Delivered noise temperature in kelvin.
    """
    if min(loss_db, load_temperature_k, link_temperature_k) < 0:
        raise DomainError("loss and temperatures must be >= 0")
    _check_link_loss(loss_db, model)
    if model is LossModel.EXACT:
        through = 10.0 ** (-loss_db / 10.0)
        return through * load_temperature_k + (1.0 - through) * link_temperature_k
    if model is LossModel.LINEAR:
        if loss_db > LINEAR_MODEL_SOFT_LIMIT_DB:
            warnings.warn(
                f"linear loss model is inaccurate above "
                f"{LINEAR_MODEL_SOFT_LIMIT_DB} dB (got {loss_db} dB)",
                stacklevel=2,
            )
        lam = loss_db / DB_PER_NEPER
        return (1.0 - lam) * load_temperature_k + lam * link_temperature_k
    raise DomainError(f"unknown loss model {model!r}")


class CavityMode(Record):
    """A single cavity mode: resonance frequency and unloaded quality factor."""

    frequency_hz: float = bounded("> 0")
    intrinsic_q: float = bounded("> 0")

    def __post_init__(self) -> None:
        check_bounds(self)

    @property
    def angular_frequency(self) -> float:
        return 2.0 * math.pi * self.frequency_hz


class BathPort(Record):
    """One external bath coupled to the mode through a lossy link.

    `coupling` is the coupling coefficient (ratio of external to intrinsic
    energy decay rate).  The load at `load_temperature_k` is seen through a
    link with `link_loss_db` of insertion loss at `link_temperature_k`.
    `name` and `role` (what the port does in a protocol run, see `config`)
    label the port; the closed form ignores both.
    """

    coupling: float = bounded(">= 0")
    load_temperature_k: float = bounded(">= 0")
    link_loss_db: float = bounded(">= 0", default=0.0)
    link_temperature_k: float = bounded(">= 0", default=0.0)
    loss_model: LossModel = LossModel.EXACT
    name: str = ""
    role: str = ""

    def __post_init__(self) -> None:
        check_bounds(self)
        _check_link_loss(self.link_loss_db, self.loss_model)

    def delivered_temperature_k(self) -> float:
        """Noise temperature this port presents to the mode, after link loss."""
        return _delivered_k(self, self.load_temperature_k)


def _delivered_k(port: BathPort, load_temperature_k: float) -> float:
    """What `port` delivers with its load at `load_temperature_k`."""
    if port.link_loss_db == 0:
        return load_temperature_k
    return link_output_temperature(
        port.link_loss_db, load_temperature_k, port.link_temperature_k, port.loss_model
    )


class BathSet(Record):
    """The mode's thermal environment: intrinsic walls plus coupled ports."""

    intrinsic_temperature_k: float = bounded(">= 0")
    ports: tuple[BathPort, ...] = ()

    def __post_init__(self) -> None:
        check_bounds(self)
        object.__setattr__(self, "ports", tuple(self.ports))

    def subset(self, indices: tuple[int, ...]) -> "BathSet":
        """Same environment with only the listed ports connected."""
        try:
            kept = tuple(self.ports[i] for i in indices)
        except IndexError as exc:
            raise DomainError(f"port index out of range: {indices}") from exc
        return replace(self, ports=kept)

    def total_coupling(self) -> float:
        return sum(p.coupling for p in self.ports)


def _weighted_temperature(intrinsic_k: float, pairs: Iterable[tuple[float, float]]) -> float:
    """(T_0 + sum(kappa_i * T_i')) / (1 + sum(kappa_i)) over (coupling, delivered
    temperature) pairs, summed in port order."""
    weighted, total = intrinsic_k, 0
    for coupling, delivered in pairs:
        weighted += coupling * delivered
        total += coupling
    return weighted / (1.0 + total)


def mode_temperature(baths: BathSet) -> float:
    """Steady-state mode temperature of a cavity in the given environment.

    Each port's load temperature is first pulled through its lossy link,
    then the mode settles at the coupling-weighted average

        T_mode = (T_0 + sum(kappa_i * T_i')) / (1 + sum(kappa_i))

    where T_0 is the intrinsic (wall) temperature.
    """
    return _weighted_temperature(
        baths.intrinsic_temperature_k,
        [(port.coupling, port.delivered_temperature_k()) for port in baths.ports],
    )


def sweep_mode_temperature(
    baths: BathSet,
    port_index: int,
    couplings: Iterable[float],
    load_temperatures_k: Iterable[float],
) -> list[list[float]]:
    """Mode temperature over a (coupling, load temperature) grid.

    The port at `port_index` is swept; every other port and the intrinsic
    bath stay fixed.  Returns one row per coupling, holding one mode
    temperature per load temperature: each is `mode_temperature` of the
    bath set with the swept port at that coupling and load, bit for bit.
    """
    couplings = [float(k) for k in couplings]
    loads = [float(t) for t in load_temperatures_k]
    if not couplings or not loads:
        raise DomainError("sweep axes must be non-empty")
    if any(k < 0 for k in couplings) or any(t < 0 for t in loads):
        raise DomainError("sweep axes must be non-negative")
    if not 0 <= port_index < len(baths.ports):
        raise DomainError(f"port index {port_index} out of range")

    pairs = [(p.coupling, p.delivered_temperature_k()) for p in baths.ports]
    head, tail = pairs[:port_index], pairs[port_index + 1:]
    swept = baths.ports[port_index]
    delivered = [_delivered_k(swept, load) for load in loads]
    intrinsic = baths.intrinsic_temperature_k
    return [
        [_weighted_temperature(intrinsic, [*head, (k, d), *tail]) for d in delivered]
        for k in couplings
    ]
