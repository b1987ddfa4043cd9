"""Run configuration: one key schema for loading, checking and dumping.

A run configuration bundles everything a protocol run needs: the mode,
its thermal environment, the receiver chain, protocol timing, trace
synthesis knobs, and analysis windows.  Files follow configparser
syntax with one section per group and repeated `[port.<name>]` sections
for the baths; every key carries its unit as a suffix.  Unknown
sections or keys are rejected rather than ignored.  `_SCHEMA` and
`_PORT_SCHEMA` are the only list of keys, and `_SCHEMA` holds the range
of every `[protocol]`, `[synth]` and `[analysis]` key, which
`_check_bounds` applies to direct construction and loads alike.  A run's
default values come from the bundled `data/bench.defaults`; the
dataclasses' field defaults serve direct construction from Python, and
only `SynthConfig`'s differ from that file (see its docstring).
"""

from __future__ import annotations

import configparser
from functools import lru_cache, reduce
import math
import operator
import os
from dataclasses import dataclass, replace
from typing import Mapping

from .errors import ConfigError, DomainError
from .receiver import LnaNoiseParameters, ReceiverChain
from .thermal import BathPort, BathSet, CavityMode, LossModel

PORT_ROLE_COOLING = "cooling"
PORT_ROLE_MONITORING = "monitoring"

# Seeds are 64-bit: the SplitMix64 state of `synth.shot_seed`.
_MASK64 = (1 << 64) - 1

_COMPARE = {">": operator.gt, ">=": operator.ge, "<=": operator.le}


def _check_bounds(obj, prefix: str) -> None:
    """Raise DomainError, naming the key, for the first value of `obj` (the
    node at attribute path `prefix`) outside its `_SCHEMA` bounds."""
    for section, key, _, path, *bounds in _SCHEMA:
        parent, _, leaf = path.rpartition(".")
        if parent != prefix:
            continue
        value = getattr(obj, leaf)
        for bound in bounds:
            op, limit = bound.split()
            if not _COMPARE[op](value, int(limit)):
                raise DomainError(f"[{section}] {key} must be {bound}, got {value!r}")


def grid_sample_count(duration_s: float, sample_interval_s: float) -> int:
    """Samples of a run's grid 0, dt, 2 dt, ... up to `duration_s`; tolerant, so
    a duration meant as an exact multiple of dt is not cut by floating-point dust."""
    intervals = duration_s / sample_interval_s + 1e-6
    if not math.isfinite(intervals):
        raise DomainError(f"no finite sample grid of {duration_s} s every {sample_interval_s} s")
    return math.floor(intervals) + 1


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for trace synthesis.

    The record length is not one of them: a trace takes its grid, and
    so its sample count, from the mode-temperature trajectory it is
    drawn for, which must be sampled every sample_interval_s from t = 0.
    voltage_scale is the detector calibration in volts per sqrt(kelvin)
    of receiver output noise; the per-sample standard deviation is
    voltage_scale * sqrt(system output noise in K).  A corner frequency
    of 0 disables the 1/f component.  The artifact fields shape the
    deterministic transient added at each switch instant; the instants
    themselves are not configuration but come from the schedule
    (`synth.synthesize_shot_ensemble` takes them as an argument).

    The field defaults are a standalone synthesis setup for scripts and
    tests: 100 ns sampling, a 1 MHz 1/f corner, no switch transient and
    seed 0.  A run takes its values from `data/bench.defaults` instead
    (50 ns, no 1/f noise, 600 V transients, seed 20260817).
    """

    sample_interval_s: float = 100e-9
    rng_seed: int = 0
    one_over_f_corner_hz: float = 1e6
    artifact_duration_s: float = 2e-6
    artifact_amplitude_v: float = 0.0
    voltage_scale: float = 1.0

    def __post_init__(self) -> None:
        _check_bounds(self, "synth")
        nyquist = 0.5 / self.sample_interval_s
        if self.one_over_f_corner_hz >= nyquist:
            raise DomainError(
                f"corner frequency {self.one_over_f_corner_hz} Hz must sit "
                f"below Nyquist ({nyquist} Hz)"
            )


@dataclass(frozen=True)
class ProtocolConfig:
    """Timing of the cool / disconnect sequence: the cold load is
    disconnected at cool_duration_s, the one instant the analysis needs."""

    cool_duration_s: float = 40e-6
    trace_length_s: float = 160e-6

    def __post_init__(self) -> None:
        _check_bounds(self, "protocol")
        if self.cool_duration_s > self.trace_length_s:
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
        _check_bounds(self, "analysis")
        if self.band_low_hz >= self.band_high_hz:
            raise DomainError("need 0 <= band_low < band_high")


@dataclass(frozen=True)
class RunConfig:
    mode: CavityMode
    baths: BathSet
    receiver: ReceiverChain
    protocol: ProtocolConfig
    synth: SynthConfig
    n_shots: int
    analysis: AnalysisConfig

    def __post_init__(self) -> None:
        for port in self.baths.ports:
            if port.role not in (PORT_ROLE_COOLING, PORT_ROLE_MONITORING):
                raise DomainError(f"[port.{port.name}] unknown port role {port.role!r}")
        # A name is a key prefix of the key=value dump, `port.<name>.<key>`,
        # and must keep that key on one line.
        names = [port.name for port in self.baths.ports]
        for name in names:
            if not name or not name.isprintable() or "=" in name or names.count(name) > 1:
                raise DomainError(
                    f"[port.{name}] port name must be non-empty, unique, printable "
                    "and without '='"
                )
        _check_bounds(self, "")
        trace, dt = self.protocol.trace_length_s, self.synth.sample_interval_s
        if grid_sample_count(trace, dt) < 11:
            raise DomainError(
                f"[protocol] trace_length_s = {trace!r} must cover at least 10 intervals "
                f"of [synth] sample_interval_s = {dt!r}"
            )

    def persistent_port_indices(self) -> tuple[int, ...]:
        """Ports that stay connected after the cold path disconnects."""
        return tuple(
            i for i, port in enumerate(self.baths.ports)
            if port.role == PORT_ROLE_MONITORING
        )


# (section, key, type, RunConfig attribute path, *bounds), in dump order:
# one path per key, so no value is kept in two places.  `.real` and `.imag`
# leaves pair up into a complex.  Each bound, such as "> 0", is checked by
# `_check_bounds` when the class holding the value is built.
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
    ("protocol", "cool_duration_s", float, "protocol.cool_duration_s", ">= 0"),
    ("protocol", "trace_length_s", float, "protocol.trace_length_s", "> 0"),
    ("synth", "sample_interval_s", float, "synth.sample_interval_s", "> 0"),
    ("synth", "rng_seed", int, "synth.rng_seed", ">= 0", f"<= {_MASK64}"),
    ("synth", "one_over_f_corner_hz", float, "synth.one_over_f_corner_hz", ">= 0"),
    ("synth", "artifact_duration_s", float, "synth.artifact_duration_s", "> 0"),
    ("synth", "artifact_amplitude_v", float, "synth.artifact_amplitude_v", ">= 0"),
    ("synth", "voltage_scale", float, "synth.voltage_scale", ">= 0"),
    ("synth", "n_shots", int, "n_shots", ">= 1"),
    ("analysis", "boxcar_width_s", float, "analysis.boxcar_width_s", "> 0"),
    ("analysis", "band_low_hz", float, "analysis.band_low_hz", ">= 0"),
    ("analysis", "band_high_hz", float, "analysis.band_high_hz", "> 0"),
    ("analysis", "window_samples", int, "analysis.window_samples", ">= 1"),
    ("analysis", "exclude_before_s", float, "analysis.exclude_before_s", ">= 0"),
    ("analysis", "cooled_window_s", float, "analysis.cooled_window_s", "> 0"),
    ("analysis", "ambient_settle_s", float, "analysis.ambient_settle_s", "> 0"),
    ("analysis", "fit_window_s", float, "analysis.fit_window_s", "> 0"),
    ("analysis", "psd_segment_samples", int, "analysis.psd_segment_samples", ">= 8"),
)

# Keys of every [port.<name>] section, each a BathPort field, in dump order:
# (key, type, value if omitted), where None marks a required key.
_PORT_SCHEMA = (
    ("coupling", float, None),
    ("load_temperature_k", float, None),
    ("link_loss_db", float, 0.0),
    ("link_temperature_k", float, 0.0),
    ("loss_model", LossModel, LossModel.EXACT),
    ("role", str, None),
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
        keys = _KEYS.get("port." if section.startswith("port.") else section)
        if keys is None:
            raise ConfigError(f"unknown section [{section}]")
        unknown = [key for key in entries if key not in keys]
        if unknown:
            raise ConfigError(f"unknown key '{unknown[0]}' in section [{section}]")
    tree: dict = {}
    for section, key, kind, path, *_ in _SCHEMA:
        *parents, leaf = path.split(".")
        node = reduce(lambda node, name: node.setdefault(name, {}), parents, tree)
        node[leaf] = _value(raw, section, key, kind)
    ports = []
    for section in raw:
        if not section.startswith("port."):
            continue
        values = {row[0]: _value(raw, section, *row) for row in _PORT_SCHEMA}
        try:
            ports.append(BathPort(**values, name=section[len("port."):]))
        except DomainError as exc:
            raise ConfigError(f"[{section}] {exc}") from exc
    tree["baths"]["ports"] = tuple(ports)
    try:
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
    ConfigError naming the file, and the section and key of the value.
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

    Every key must be a configuration key, `section.key`: ConfigError
    names the first that is not, and a missing key.
    """
    raw: dict[str, dict[str, str]] = {}
    for name, text in items.items():
        section, dot, key = name.rpartition(".")
        if not dot:
            raise ConfigError(f"unknown key '{name}'")
        raw.setdefault(section, {})[key] = text
    return _build(raw)


def with_seed(cfg: RunConfig, seed: int) -> RunConfig:
    """Copy of the configuration with a different master seed."""
    try:
        return replace(cfg, synth=replace(cfg.synth, rng_seed=seed))
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def config_items(cfg: RunConfig) -> list[tuple[str, str]]:
    """Canonical flat key=value view: porcelain output, sidecars, digests."""
    items = []
    for section, key, kind, path, *_ in _SCHEMA:
        value = reduce(getattr, path.split("."), cfg)
        items.append((f"{section}.{key}", _format(kind, value)))
    ports = [
        (f"port.{port.name}.{key}", _format(kind, getattr(port, key)))
        for port in cfg.baths.ports
        for key, kind, _ in _PORT_SCHEMA
    ]
    return items[:_PORTS_AT] + ports + items[_PORTS_AT:]


def config_digest(cfg: RunConfig) -> str:
    """Stable hex digest of the canonical configuration dump."""
    import hashlib  # only `simulate` and `analyze` digest a configuration

    text = "\n".join(f"{k}={v}" for k, v in config_items(cfg))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
