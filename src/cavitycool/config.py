"""Run configuration: one key schema for loading, checking and dumping.

A run configuration bundles everything a protocol run needs: the mode,
its thermal environment, the receiver chain, protocol timing, trace
synthesis knobs, and analysis windows.  Files follow configparser
syntax with one section per group and repeated `[port.<name>]` sections
for the baths; every key carries its unit as a suffix.  Unknown
sections or keys are rejected rather than ignored.  `_SCHEMA` and
`_PORT_SCHEMA` are the only list of keys; default values live only in
the bundled `data/bench.defaults`.
"""

from __future__ import annotations

import configparser
from functools import lru_cache, reduce
import hashlib
import math
import os
from dataclasses import dataclass, replace
from typing import Mapping

from .errors import ConfigError, DomainError
from .receiver import LnaNoiseParameters, ReceiverChain
from .synth import SynthConfig
from .thermal import BathPort, BathSet, CavityMode, LossModel

PORT_ROLE_COOLING = "cooling"
PORT_ROLE_MONITORING = "monitoring"


@dataclass(frozen=True)
class ProtocolConfig:
    """Timing of the cool / disconnect / interrogate sequence."""

    cool_duration_s: float = 40e-6
    interrogate_delay_s: float = 0.0
    trace_length_s: float = 160e-6

    def __post_init__(self) -> None:
        if self.cool_duration_s < 0 or self.interrogate_delay_s < 0:
            raise DomainError("protocol durations must be >= 0")
        if self.trace_length_s <= 0:
            raise DomainError("trace length must be positive")
        if self.cool_duration_s + self.interrogate_delay_s > self.trace_length_s:
            raise DomainError("protocol events extend past the trace")


@dataclass(frozen=True)
class AnalysisConfig:
    """Windows and estimator knobs for the trace reduction."""

    boxcar_width_s: float = 100e-9
    band_low_hz: float = 5e6
    band_high_hz: float = 10e6
    window_samples: int = 60
    exclude_before_s: float = 2e-6
    cooled_window_s: float = 20e-6
    ambient_settle_s: float = 60e-6
    fit_window_s: float = 30e-6
    psd_segment_samples: int = 256

    def __post_init__(self) -> None:
        if self.boxcar_width_s <= 0:
            raise DomainError("boxcar width must be positive")
        if not 0 <= self.band_low_hz < self.band_high_hz:
            raise DomainError("need 0 <= band_low < band_high")
        if self.window_samples < 1:
            raise DomainError("window must be at least one sample")
        if self.exclude_before_s < 0:
            raise DomainError("exclusion must be >= 0")
        if min(self.cooled_window_s, self.ambient_settle_s, self.fit_window_s) <= 0:
            raise DomainError("analysis windows must be positive")
        if self.psd_segment_samples < 8:
            raise DomainError("spectral segment must be at least 8 samples")


@dataclass(frozen=True)
class RunConfig:
    mode: CavityMode
    baths: BathSet
    port_roles: tuple[str, ...]
    receiver: ReceiverChain
    protocol: ProtocolConfig
    synth: SynthConfig
    n_shots: int
    analysis: AnalysisConfig

    def __post_init__(self) -> None:
        if len(self.port_roles) != len(self.baths.ports):
            raise DomainError("one role per bath port required")
        for role in self.port_roles:
            if role not in (PORT_ROLE_COOLING, PORT_ROLE_MONITORING):
                raise DomainError(f"unknown port role {role!r}")
        if self.n_shots < 1:
            raise DomainError("need at least one shot")
        if self.protocol.trace_length_s < 10 * self.synth.sample_interval_s:
            raise DomainError("trace must cover at least 10 samples")

    def persistent_port_indices(self) -> tuple[int, ...]:
        """Ports that stay connected after the cold path disconnects."""
        return tuple(
            i for i, role in enumerate(self.port_roles)
            if role == PORT_ROLE_MONITORING
        )


# (section, key, type, RunConfig attribute path), in dump order: one path
# per key, so no value is kept in two places.  `.real` and `.imag` leaves
# pair up into a complex.
_SCHEMA = (
    ("mode", "frequency_hz", float, "mode.frequency_hz"),
    ("mode", "intrinsic_q", float, "mode.intrinsic_q"),
    ("mode", "wall_temperature_k", float, "baths.intrinsic_temperature_k"),
    ("receiver", "lna_gain_linear", float, "receiver.lna_gain_linear"),
    ("receiver", "lna_t_min_k", float, "receiver.lna.t_min_k"),
    ("receiver", "lna_noise_resistance_ohm", float, "receiver.lna.noise_resistance_ohm"),
    ("receiver", "lna_gamma_opt_real", float, "receiver.lna.gamma_opt.real"),
    ("receiver", "lna_gamma_opt_imag", float, "receiver.lna.gamma_opt.imag"),
    ("receiver", "reference_impedance_ohm", float, "receiver.lna.reference_impedance_ohm"),
    ("receiver", "reference_temperature_k", float, "receiver.lna.reference_temperature_k"),
    ("receiver", "post_stage_noise_k", float, "receiver.post_stage_noise_k"),
    ("receiver", "cavity_reflection_real", float, "receiver.cavity_reflection.real"),
    ("receiver", "cavity_reflection_imag", float, "receiver.cavity_reflection.imag"),
    ("receiver", "cavity_reflection_ref_real", float, "receiver.cavity_reflection_reference.real"),
    ("receiver", "cavity_reflection_ref_imag", float, "receiver.cavity_reflection_reference.imag"),
    ("receiver", "image_noise_k", float, "receiver.image_noise_k"),
    ("protocol", "cool_duration_s", float, "protocol.cool_duration_s"),
    ("protocol", "interrogate_delay_s", float, "protocol.interrogate_delay_s"),
    ("protocol", "trace_length_s", float, "protocol.trace_length_s"),
    ("synth", "sample_interval_s", float, "synth.sample_interval_s"),
    ("synth", "rng_seed", int, "synth.rng_seed"),
    ("synth", "one_over_f_corner_hz", float, "synth.one_over_f_corner_hz"),
    ("synth", "artifact_duration_s", float, "synth.artifact_duration_s"),
    ("synth", "artifact_amplitude_v", float, "synth.artifact_amplitude_v"),
    ("synth", "voltage_scale", float, "synth.voltage_scale"),
    ("synth", "n_shots", int, "n_shots"),
    ("analysis", "boxcar_width_s", float, "analysis.boxcar_width_s"),
    ("analysis", "band_low_hz", float, "analysis.band_low_hz"),
    ("analysis", "band_high_hz", float, "analysis.band_high_hz"),
    ("analysis", "window_samples", int, "analysis.window_samples"),
    ("analysis", "exclude_before_s", float, "analysis.exclude_before_s"),
    ("analysis", "cooled_window_s", float, "analysis.cooled_window_s"),
    ("analysis", "ambient_settle_s", float, "analysis.ambient_settle_s"),
    ("analysis", "fit_window_s", float, "analysis.fit_window_s"),
    ("analysis", "psd_segment_samples", int, "analysis.psd_segment_samples"),
)

# Keys of every [port.<name>] section: (key, type, value if omitted), where
# None marks a required key.  All but the role are BathPort fields.
_PORT_ROLE = "role"
_PORT_SCHEMA = (
    ("coupling", float, None),
    ("load_temperature_k", float, None),
    ("link_loss_db", float, 0.0),
    ("link_temperature_k", float, 0.0),
    ("loss_model", LossModel, LossModel.EXACT),
    (_PORT_ROLE, str, None),
)

_KEYS: dict[str, set[str]] = {"port.": {row[0] for row in _PORT_SCHEMA}}
for _row in _SCHEMA:
    _KEYS.setdefault(_row[0], set()).add(_row[1])
# Ports are dumped right after the [mode] rows.
_PORTS_AT = len(_KEYS["mode"])

# Classes built from the attribute paths; any other inner node is a complex.
_CLASSES = {
    "": RunConfig, "mode": CavityMode, "baths": BathSet, "receiver": ReceiverChain,
    "receiver.lna": LnaNoiseParameters, "protocol": ProtocolConfig,
    "synth": SynthConfig, "analysis": AnalysisConfig,
}

_DEFAULTS_PATH = os.path.join(os.path.dirname(__file__), "data", "bench.defaults")


def _format(kind: type, value) -> str:
    if kind is float:
        return repr(float(value))
    return value.value if kind is LossModel else str(value)


def _value(raw: Mapping[str, Mapping[str, str]], section, key, kind, default=None):
    """Typed value of one key; `default` stands in for a missing key.
    A float must be finite: NaN would pass every range check."""
    text = raw.get(section, {}).get(key)
    if text is None:
        if default is None:
            raise ConfigError(f"section [{section}] missing key '{key}'")
        return default
    try:
        if kind is int:
            return int(text, 0)
        if kind is not float:
            return kind(text.lower())
        value = float(text)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    raise ConfigError(f"bad value for '{key}' in section [{section}]: {text!r}")


def _make(node: dict, prefix: str = ""):
    cls = _CLASSES.get(prefix.rstrip("."), complex)
    return cls(**{
        name: _make(value, f"{prefix}{name}.") if isinstance(value, dict) else value
        for name, value in node.items()
    })


def _build(raw: Mapping[str, Mapping[str, str]]) -> RunConfig:
    """Check `{section: {key: text}}` against the schema and assemble the
    configuration; every key without a value-if-omitted must be present.
    Raises ConfigError."""
    for section, entries in raw.items():
        if section == "port.":
            raise ConfigError("port section needs a name: [port.<name>]")
        keys = _KEYS.get("port." if section.startswith("port.") else section)
        if keys is None:
            raise ConfigError(f"unknown section [{section}]")
        unknown = [key for key in entries if key not in keys]
        if unknown:
            raise ConfigError(f"unknown key '{unknown[0]}' in section [{section}]")
    tree: dict = {}
    for section, key, kind, path in _SCHEMA:
        *parents, leaf = path.split(".")
        node = reduce(lambda node, name: node.setdefault(name, {}), parents, tree)
        node[leaf] = _value(raw, section, key, kind)
    ports = [
        {row[0]: _value(raw, section, *row) for row in _PORT_SCHEMA}
        | {"name": section[len("port."):]}
        for section in raw if section.startswith("port.")
    ]
    tree["port_roles"] = tuple(port.pop(_PORT_ROLE) for port in ports)
    try:
        tree["baths"]["ports"] = tuple(BathPort(**port) for port in ports)
        return _make(tree)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def _read_ini(path: str) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            parser.read_file(fh)
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(
                f"{path}: byte 0x{exc.object[exc.start]:02x} is not UTF-8 text"
            ) from None
    return {section: dict(parser.items(section)) for section in parser.sections()}


@lru_cache(maxsize=None)
def _default_raw() -> dict[str, dict[str, str]]:
    # Shared between calls: callers copy before changing anything.
    return _read_ini(_DEFAULTS_PATH)


def default_run_config() -> RunConfig:
    """The bench calibration this package was validated against.

    A 1.4495 GHz mode with unloaded Q of 164000 at room temperature,
    cooled through a strongly overcoupled low-loss path terminated cold,
    monitored through a critically coupled port whose lossy stub and
    cable sit at room temperature in front of a cold LNA.  The values
    are those of the bundled `data/bench.defaults`.
    """
    return _build(_default_raw())


def load_run_config(path: str) -> RunConfig:
    """Parse a configuration file, overriding the built-in defaults.

    Sections may be omitted (their defaults survive), but any [port.*]
    section replaces the whole default port list.  Unknown sections,
    unknown keys, and malformed or out-of-range values raise
    ConfigError naming the file.
    """
    user = _read_ini(path)
    own_ports = any(section.startswith("port.") for section in user)
    raw = {
        section: dict(entries) for section, entries in _default_raw().items()
        if not (own_ports and section.startswith("port."))
    }
    for section, entries in user.items():
        raw.setdefault(section, {}).update(entries)
    try:
        return _build(raw)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def config_from_items(items: Mapping[str, str]) -> RunConfig:
    """Rebuild a configuration from its `config_items` dump.

    Keys without a dot, such as a run sidecar's own entries, are
    ignored.  Raises ConfigError, also when a key is missing.
    """
    raw: dict[str, dict[str, str]] = {}
    for name, text in items.items():
        section, dot, key = name.rpartition(".")
        if dot:
            raw.setdefault(section, {})[key] = text
    return _build(raw)


def with_seed(cfg: RunConfig, seed: int) -> RunConfig:
    """Copy of the configuration with a different master seed."""
    if seed < 0:
        raise ConfigError("seed must be >= 0")
    try:
        return replace(cfg, synth=replace(cfg.synth, rng_seed=seed))
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def config_items(cfg: RunConfig) -> list[tuple[str, str]]:
    """Canonical flat key=value view: porcelain output, sidecars, digests."""
    items = []
    for section, key, kind, path in _SCHEMA:
        value = reduce(getattr, path.split("."), cfg)
        items.append((f"{section}.{key}", _format(kind, value)))
    ports = [
        (
            f"port.{port.name or 'unnamed'}.{key}",
            _format(kind, role if key == _PORT_ROLE else getattr(port, key)),
        )
        for port, role in zip(cfg.baths.ports, cfg.port_roles)
        for key, kind, _ in _PORT_SCHEMA
    ]
    return items[:_PORTS_AT] + ports + items[_PORTS_AT:]


def config_digest(cfg: RunConfig) -> str:
    """Stable hex digest of the canonical configuration dump."""
    text = "\n".join(f"{k}={v}" for k, v in config_items(cfg))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
