"""Run configuration: one key schema for loading, checking and dumping.

`RunConfig` bundles a run's records.  Files follow configparser syntax
with one section per group and repeated `[port.<name>]` sections for the
baths; every key carries its unit as a suffix.  Unknown sections or keys
are rejected.  `_SCHEMA` and `_PORT_SCHEMA` are the only list of keys.
A value's range is a bound on the dataclass field that holds it
(`errors.bounded`), a rule that ties values together is written out in
its class, and a refusal at load names its keys as the file spells them.
A file is read over the bundled `data/bench.defaults` (read where a load
uses them, without a cache) or over a recorded run.  The field defaults
serve direct construction from Python; only `SynthConfig`'s differ from
that file (see its docstring).  Files are decoded by
`textformat._read_text`, the package's one text decoder.
Refusals name keys through `_key_names`; `_refuse_non_finite` and
`_steady_temperatures` serve every command.  No receiver noise is
computed here and no numpy imported: `simulate`'s draw check lives with
the noise model in `synth`.
"""

from __future__ import annotations

import configparser
from functools import reduce
import math
import os
import sys
from dataclasses import dataclass, replace
from typing import Mapping

from .errors import ConfigError, DataFormatError, DomainError, bounded, check_bounds
from .receiver import LnaNoiseParameters, ReceiverChain
from .textformat import _fmt, _read_text
from .thermal import BathPort, BathSet, CavityMode, LossModel, mode_temperature

PORT_ROLE_COOLING = "cooling"
PORT_ROLE_MONITORING = "monitoring"

# Seeds are 64-bit: the SplitMix64 state of `synth.shot_seed`.
_MASK64 = (1 << 64) - 1

# The most samples of a grid: numpy sizes an array of 8-byte samples in
# bytes as a signed machine integer.
_MAX_GRID_SAMPLES = sys.maxsize // 8


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
    of receiver output noise; `synth.sample_sigma` gives the per-sample
    standard deviation it sets at a mode temperature.  A corner frequency
    of 0 disables the 1/f component.  The artifact fields shape the
    deterministic transient added at each switch instant; the instants
    themselves are not configuration but come from the schedule
    (`synth.synthesize_shot_ensemble` takes them as an argument).

    The field defaults are a standalone synthesis setup for scripts and
    tests: 100 ns sampling, a 1 MHz 1/f corner, no switch transient and
    seed 0.  A run takes its values from `data/bench.defaults` instead
    (50 ns, no 1/f noise, 600 V transients, seed 20260817).
    """

    sample_interval_s: float = bounded("> 0", default=100e-9)
    rng_seed: int = bounded(">= 0", f"<= {_MASK64}", default=0)
    one_over_f_corner_hz: float = bounded(">= 0", default=1e6)
    artifact_duration_s: float = bounded("> 0", default=2e-6)
    artifact_amplitude_v: float = bounded(">= 0", default=0.0)
    voltage_scale: float = bounded(">= 0", default=1.0)

    def __post_init__(self) -> None:
        check_bounds(self)
        if self.one_over_f_corner_hz >= 0.5 / self.sample_interval_s:
            raise DomainError(
                f"[synth] one_over_f_corner_hz = {self.one_over_f_corner_hz!r} must sit below "
                f"Nyquist, 0.5 / sample_interval_s = {0.5 / self.sample_interval_s!r} Hz"
            )


@dataclass(frozen=True)
class ProtocolConfig:
    """Timing of the cool / disconnect sequence: the cold load is
    disconnected at cool_duration_s, the one instant the analysis needs."""

    cool_duration_s: float = bounded(">= 0", default=40e-6)
    trace_length_s: float = bounded("> 0", default=160e-6)

    def __post_init__(self) -> None:
        check_bounds(self)
        if self.cool_duration_s > self.trace_length_s:
            raise DomainError(
                f"[protocol] cool_duration_s = {self.cool_duration_s!r} must not exceed "
                f"trace_length_s = {self.trace_length_s!r}"
            )


@dataclass(frozen=True)
class AnalysisConfig:
    """Windows and estimator knobs for the trace reduction."""

    band_low_hz: float = bounded(">= 0", default=5e6)
    band_high_hz: float = bounded("> 0", default=10e6)
    window_samples: int = bounded(">= 1", default=60)
    exclude_before_s: float = bounded(">= 0", default=2e-6)
    cooled_window_s: float = bounded("> 0", default=20e-6)
    ambient_settle_s: float = bounded("> 0", default=60e-6)
    fit_window_s: float = bounded("> 0", default=30e-6)
    psd_segment_samples: int = bounded(">= 8", default=256)

    def __post_init__(self) -> None:
        check_bounds(self)
        low, high = self.band_low_hz, self.band_high_hz
        if low >= high:
            raise DomainError(f"[analysis] band_low_hz = {low!r} must be < band_high_hz = {high!r}")


@dataclass(frozen=True)
class RunConfig:
    """One protocol run: the mode and its baths, the receiver chain, the
    protocol timing, synthesis knobs, shot count and analysis windows.
    Each port cools or monitors under a unique key-safe name, and the
    trace spans at least 10 sample intervals."""

    mode: CavityMode
    baths: BathSet
    receiver: ReceiverChain
    protocol: ProtocolConfig
    synth: SynthConfig
    n_shots: int = bounded(">= 1")
    analysis: AnalysisConfig

    def __post_init__(self) -> None:
        # A name is a key prefix of the key=value dump, `port.<name>.<key>`,
        # and must keep that key on one line.
        names = [port.name for port in self.baths.ports]
        for port, name in zip(self.baths.ports, names):
            if port.role not in (PORT_ROLE_COOLING, PORT_ROLE_MONITORING):
                raise DomainError(
                    f"[port.{name}] role must be 'cooling' or 'monitoring', got {port.role!r}"
                )
            if not name or not name.isprintable() or "=" in name or names.count(name) > 1:
                raise DomainError(
                    f"[port.{name}] port name must be non-empty, unique, printable "
                    "and without '='"
                )
        check_bounds(self)
        trace, dt = self.protocol.trace_length_s, self.synth.sample_interval_s
        cover = f"[protocol] trace_length_s = {trace!r} must cover"
        of = f"intervals of [synth] sample_interval_s = {dt!r}"
        if not math.isfinite(trace / dt):
            raise DomainError(f"{cover} a finite number of {of}")
        n = grid_sample_count(trace, dt)
        if n < 11:
            raise DomainError(f"{cover} at least 10 {of}")
        if n > _MAX_GRID_SAMPLES:
            raise DomainError(f"{cover} at most {_MAX_GRID_SAMPLES - 1} {of}")

    def persistent_port_indices(self) -> tuple[int, ...]:
        """Ports that stay connected after the cold path disconnects."""
        return tuple(
            i for i, port in enumerate(self.baths.ports)
            if port.role == PORT_ROLE_MONITORING
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
    ("protocol", "trace_length_s", float, "protocol.trace_length_s"),
    ("synth", "sample_interval_s", float, "synth.sample_interval_s"),
    ("synth", "rng_seed", int, "synth.rng_seed"),
    ("synth", "one_over_f_corner_hz", float, "synth.one_over_f_corner_hz"),
    ("synth", "artifact_duration_s", float, "synth.artifact_duration_s"),
    ("synth", "artifact_amplitude_v", float, "synth.artifact_amplitude_v"),
    ("synth", "voltage_scale", float, "synth.voltage_scale"),
    ("synth", "n_shots", int, "n_shots"),
    ("analysis", "band_low_hz", float, "analysis.band_low_hz"),
    ("analysis", "band_high_hz", float, "analysis.band_high_hz"),
    ("analysis", "window_samples", int, "analysis.window_samples"),
    ("analysis", "exclude_before_s", float, "analysis.exclude_before_s"),
    ("analysis", "cooled_window_s", float, "analysis.cooled_window_s"),
    ("analysis", "ambient_settle_s", float, "analysis.ambient_settle_s"),
    ("analysis", "fit_window_s", float, "analysis.fit_window_s"),
    ("analysis", "psd_segment_samples", int, "analysis.psd_segment_samples"),
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
        return _fmt(value)
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


def _key_names(field: str, ports=()) -> list[str]:
    """`[section] key, ...` for each section with a key under `field`: a
    RunConfig attribute path or a dotted part of one, such as `receiver`,
    `baths` (with the numeric keys of each port in `ports`) or
    `voltage_scale`.  A complex field's two keys read `real + j imag`."""
    port_rows = [
        (f"port.{port.name}", key, kind, f"baths.ports.{key}")
        for port in ports for key, kind, _ in _PORT_SCHEMA if kind is float
    ]
    join = " + j " if any(f".{row[3]}".endswith(f".{field}.real") for row in _SCHEMA) else ", "
    sections: dict[str, list[str]] = {}
    for section, key, _, path in (*_SCHEMA, *port_rows):
        if f".{field}." in f".{path}.":
            sections.setdefault(section, []).append(key)
    return [f"[{section}] {join.join(keys)}" for section, keys in sections.items()]


def _named(exc: DomainError, prefix: str = "") -> str:
    """A refusal's text, naming its field, at attribute path `prefix`, by its keys."""
    names = _key_names(f"{prefix}{exc.field}") if exc.field else []
    return f"{'; '.join(names)} {exc.reason}" if names else str(exc)


def _refuse_non_finite(
    cfg: RunConfig, results: list[tuple[str, float]], *sources: str, positive: bool = False
) -> None:
    """Refuse closed-form `results`, (output key, value) pairs, that are not finite
    (or, with `positive`, not > 0) although every value is in bounds, naming
    `sources`: fields of `cfg` or options."""
    need = "positive" if positive else "finite"
    bad = [f"{key} = {value!r}" for key, value in results
           if not (value > 0 if positive else math.isfinite(value))]
    if bad:
        keys = [name for f in sources for name in _key_names(f, cfg.baths.ports) or [f]]
        bad, keys = ", ".join(bad), "; ".join(keys)
        raise DomainError(f"non-{need} {bad}: the closed form has no {need} value for {keys}")


def _steady_temperatures(cfg: RunConfig) -> tuple[float, float]:
    """The mode temperatures with every port connected and with the persistent
    ports alone, refused when they overflow."""
    cooled = mode_temperature(cfg.baths)
    ambient = mode_temperature(cfg.baths.subset(cfg.persistent_port_indices()))
    _refuse_non_finite(cfg, [("t_mode_cooled_k", cooled), ("t_mode_ambient_k", ambient)], "baths")
    return cooled, ambient


def _make(node: dict, prefix: str = ""):
    """The object at attribute path `prefix`; ConfigError names the key of
    a field at fault, and a complex field by its two parts."""
    cls = _CLASSES.get(prefix.rstrip("."), complex)
    values = {
        name: _make(value, f"{prefix}{name}.") if isinstance(value, dict) else value
        for name, value in node.items()
    }
    try:
        return cls(**values)
    except DomainError as exc:
        raise ConfigError(_named(exc, prefix)) from exc


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
    for section, key, kind, path in _SCHEMA:
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
    return _make(tree)


def _read_ini(path: str) -> dict[str, dict[str, str]]:
    """A config file's `{section: {key: text}}`; ConfigError names its file and line."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        parser.read_file(_read_text(path, newline=None), source=path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except DataFormatError as exc:
        raise ConfigError(str(exc)) from None
    return {section: dict(parser.items(section)) for section in parser.sections()}


def default_run_config() -> RunConfig:
    """The bench calibration this package was validated against.

    A 1.4495 GHz mode with unloaded Q of 164000 at room temperature,
    cooled through a strongly overcoupled low-loss path terminated cold,
    monitored through a critically coupled port whose lossy stub and
    cable sit at room temperature in front of a cold LNA.  The values
    are those of the bundled `data/bench.defaults`.
    """
    return _build(_read_ini(_DEFAULTS_PATH))


def _sections(items) -> dict[str, dict[str, str]]:
    """`{section: {key: text}}` of (`section.key`, text) pairs; ConfigError names a bad one."""
    raw: dict[str, dict[str, str]] = {}
    for name, text in items:
        section, dot, key = name.rpartition(".")
        if not dot:
            raise ConfigError(f"unknown key '{name}'")
        raw.setdefault(section, {})[key] = text
    return raw


def load_run_config(path: str, base: "RunConfig | None" = None) -> RunConfig:
    """Parse a configuration file over `base`, or over the built-in defaults.

    Sections may be omitted (the base's values survive), but any [port.*]
    section replaces the whole base port list.  Unknown sections,
    unknown keys, and malformed or out-of-range values raise
    ConfigError naming the file, and the section and key of the value.
    """
    user = _read_ini(path)
    raw = _read_ini(_DEFAULTS_PATH) if base is None else _sections(config_items(base))
    if any(section.startswith("port.") for section in user):
        raw = {section: raw[section] for section in raw if not section.startswith("port.")}
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
    return _build(_sections(items.items()))


def with_seed(cfg: RunConfig, seed: int) -> RunConfig:
    """Copy of the configuration with a different master seed."""
    return replace(cfg, synth=replace(cfg.synth, rng_seed=seed))


def config_items(cfg: RunConfig) -> list[tuple[str, str]]:
    """Canonical flat key=value view: porcelain output, sidecars, digests."""
    items = []
    for section, key, kind, path in _SCHEMA:
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
