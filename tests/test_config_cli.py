"""Configuration loading, on-disk formats, pipeline wiring, and the CLI."""

import argparse
import csv
import decimal
import math
import subprocess
import sys
import tracemalloc
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

import cavitycool
from cavitycool import analysis, cli, synth, tracefile
from cavitycool.config import (
    _PORT_SCHEMA,
    _SCHEMA,
    AnalysisConfig,
    ProtocolConfig,
    RunConfig,
    SynthConfig,
    config_digest,
    config_items,
    default_run_config,
    grid_sample_count,
    load_run_config,
    with_seed,
)
from cavitycool.dynamics import PhotonTrajectory
from cavitycool.errors import (
    AnalysisError,
    ConfigError,
    DataFormatError,
    DomainError,
    Record,
    fields,
    replace,
)
from cavitycool.pipeline import analyze_run, simulate_run
from cavitycool.receiver import LnaNoiseParameters, ReceiverChain, noise_power_reduction_db
from cavitycool.synth import NoiseTrace, switch_artifact_waveform
from cavitycool.thermal import BathPort, BathSet, CavityMode, mode_temperature, photon_occupancy


def _ini(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _porcelain(out):
    return dict(line.split("=", 1) for line in out.strip().splitlines())


def _small_config(n_shots):
    cfg = default_run_config()
    return replace(cfg, n_shots=n_shots)


# ---------------------------------------------------------------- defaults


def test_default_config_values():
    cfg = default_run_config()
    assert cfg.mode.frequency_hz == 1.4495e9
    assert cfg.mode.intrinsic_q == 164000.0
    assert [p.name for p in cfg.baths.ports] == ["cooling", "monitoring"]
    assert [p.role for p in cfg.baths.ports] == ["cooling", "monitoring"]
    assert cfg.baths.intrinsic_temperature_k == 290.0
    assert cfg.receiver.lna.t_min_k == 11.6
    assert cfg.n_shots == 600
    assert cfg.synth.sample_interval_s == 50e-9
    assert cfg.protocol.trace_length_s == 160e-6
    assert cfg.persistent_port_indices() == (1,)


def test_protocol_config_validation():
    with pytest.raises(DomainError):
        ProtocolConfig(cool_duration_s=-1e-6)
    with pytest.raises(DomainError):
        ProtocolConfig(trace_length_s=0.0)
    with pytest.raises(DomainError):
        ProtocolConfig(cool_duration_s=200e-6, trace_length_s=160e-6)


def test_analysis_config_validation():
    with pytest.raises(DomainError):
        AnalysisConfig(band_low_hz=10e6, band_high_hz=5e6)
    with pytest.raises(DomainError):
        AnalysisConfig(band_low_hz=-1.0)
    with pytest.raises(DomainError):
        AnalysisConfig(window_samples=0)
    with pytest.raises(DomainError):
        AnalysisConfig(exclude_before_s=-1e-6)
    with pytest.raises(DomainError):
        AnalysisConfig(cooled_window_s=0.0)
    with pytest.raises(DomainError):
        AnalysisConfig(psd_segment_samples=4)


def _with_roles(cfg, *roles):
    ports = tuple(replace(port, role=role) for port, role in zip(cfg.baths.ports, roles))
    return replace(cfg, baths=replace(cfg.baths, ports=ports))


def test_run_config_validation():
    base = default_run_config()
    with pytest.raises(DomainError) as refused:
        _with_roles(base, "cooling", "bystander")
    assert str(refused.value) == (
        "[port.monitoring] role must be 'cooling' or 'monitoring', got 'bystander'"
    )
    # a port built without a role has none the protocol knows
    with pytest.raises(DomainError) as refused:
        _with_roles(base, "cooling", "")
    assert str(refused.value) == (
        "[port.monitoring] role must be 'cooling' or 'monitoring', got ''"
    )
    with pytest.raises(DomainError):
        replace(base, n_shots=0)
    dt = base.synth.sample_interval_s
    with pytest.raises(DomainError) as refused:
        replace(base, protocol=ProtocolConfig(0.0, 9 * dt))
    assert str(refused.value) == (
        f"[protocol] trace_length_s = {9 * dt!r} must cover at least 10 intervals "
        f"of [synth] sample_interval_s = {dt!r}"
    )
    # 13e-6 / 1.3e-6 is 9.999999999999998 in floating point, but its grid
    # holds the 11 samples that the trajectory and the traces are given
    cfg = replace(base, protocol=ProtocolConfig(0.0, 13e-6),
                  synth=replace(base.synth, sample_interval_s=1.3e-6))
    assert grid_sample_count(cfg.protocol.trace_length_s, cfg.synth.sample_interval_s) == 11
    # a step so fine that the sample count overflows has no grid
    with pytest.raises(DomainError) as refused:
        replace(base, synth=replace(base.synth, sample_interval_s=1e-320))
    assert str(refused.value) == (
        "[protocol] trace_length_s = 0.00016 must cover a finite number of intervals "
        "of [synth] sample_interval_s = 1e-320"
    )


def test_persistent_indices_empty_when_all_ports_cool():
    base = default_run_config()
    cfg = _with_roles(base, "cooling", "cooling")
    assert cfg.persistent_port_indices() == ()


# ------------------------------------------------------------ file loading


def test_load_empty_file_gives_defaults(tmp_path):
    cfg = load_run_config(_ini(tmp_path, ""))
    assert cfg == default_run_config()


def test_bundled_defaults_match_builtin():
    bundled = Path(cavitycool.__file__).parent / "data" / "bench.defaults"
    assert load_run_config(str(bundled)) == default_run_config()


def test_field_defaults_match_the_bench_and_the_port_schema():
    # The values a run takes from the bundled file are also field defaults
    # for direct construction; each pair must agree, SynthConfig's four
    # standalone knobs aside.
    bench = default_run_config()
    port_fields = {f.name: f for f in fields(BathPort)}
    omitted = {key: value for key, _, value in _PORT_SCHEMA if value is not None}
    assert omitted == {name: port_fields[name].default for name in omitted}
    assert set(omitted) == {"link_loss_db", "link_temperature_k", "loss_model"}
    assert AnalysisConfig() == bench.analysis and ProtocolConfig() == bench.protocol
    chain = bench.receiver
    assert replace(
        chain, lna=LnaNoiseParameters(chain.lna.t_min_k, chain.lna.noise_resistance_ohm,
                                      chain.lna.gamma_opt)
    ) == chain
    assert ReceiverChain(chain.lna, chain.lna_gain_linear, chain.post_stage_noise_k) == chain
    differ = {
        f.name for f in fields(SynthConfig)
        if getattr(SynthConfig(), f.name) != getattr(bench.synth, f.name)
    }
    assert differ == {
        "sample_interval_s", "rng_seed", "one_over_f_corner_hz", "artifact_amplitude_v"
    }


def test_load_scalar_overrides(tmp_path):
    path = _ini(tmp_path, """\
[mode]
frequency_hz = 2.0e9
wall_temperature_k = 4.2

[receiver]
lna_gain_linear = 200
post_stage_noise_k = 40

[protocol]
trace_length_s = 200e-6

[synth]
rng_seed = 0xdeadbeef
n_shots = 7

[analysis]
window_samples = 80
""")
    cfg = load_run_config(path)
    assert cfg.mode.frequency_hz == 2.0e9
    assert cfg.mode.intrinsic_q == 164000.0
    assert cfg.baths.intrinsic_temperature_k == 4.2
    assert len(cfg.baths.ports) == 2
    assert cfg.baths.ports[0].coupling == 3.8
    assert cfg.receiver.lna_gain_linear == 200.0
    assert cfg.receiver.lna.t_min_k == 11.6
    assert cfg.protocol.trace_length_s == 200e-6
    assert cfg.synth.rng_seed == 0xDEADBEEF
    assert cfg.n_shots == 7
    assert cfg.analysis.window_samples == 80
    assert cfg.analysis.band_low_hz == 5e6


def test_load_port_section_replaces_default_ports(tmp_path):
    path = _ini(tmp_path, """\
[port.cold]
coupling = 10.0
load_temperature_k = 4.0
role = cooling
""")
    cfg = load_run_config(path)
    assert len(cfg.baths.ports) == 1
    port = cfg.baths.ports[0]
    assert port.name == "cold"
    assert port.coupling == 10.0
    assert port.load_temperature_k == 4.0
    assert port.link_loss_db == 0.0
    assert port.link_temperature_k == 0.0
    assert port.role == "cooling"
    assert cfg.persistent_port_indices() == ()
    assert cfg.baths.intrinsic_temperature_k == 290.0


def test_load_rejects_malformed_input(tmp_path):
    with pytest.raises(ConfigError, match="missing key 'role'"):
        load_run_config(_ini(tmp_path, (
            "[port.cold]\ncoupling = 1.0\nload_temperature_k = 4.0\n"
        ), "a.ini"))
    with pytest.raises(ConfigError, match="loss_model"):
        load_run_config(_ini(tmp_path, (
            "[port.cold]\ncoupling = 1.0\nload_temperature_k = 4.0\n"
            "role = cooling\nloss_model = sponge\n"
        ), "b.ini"))
    with pytest.raises(ConfigError, match="role"):
        load_run_config(_ini(tmp_path, (
            "[port.cold]\ncoupling = 1.0\nload_temperature_k = 4.0\n"
            "role = bystander\n"
        ), "c.ini"))
    with pytest.raises(ConfigError, match="unknown section"):
        load_run_config(_ini(tmp_path, "[turbo]\nboost = 11\n", "d.ini"))
    with pytest.raises(ConfigError, match="unknown key 'color'"):
        load_run_config(_ini(tmp_path, "[mode]\ncolor = red\n", "e.ini"))
    with pytest.raises(ConfigError, match="bad value"):
        load_run_config(_ini(tmp_path, "[mode]\nfrequency_hz = fast\n", "f.ini"))
    # no section header at all
    with pytest.raises(ConfigError):
        load_run_config(_ini(tmp_path, "coupling = 1.0\n", "g.ini"))


def test_load_wraps_out_of_range_values(tmp_path):
    # a value that parses but violates a record invariant comes back
    # as ConfigError, not DomainError, with the file named
    path = _ini(tmp_path, "[protocol]\ncool_duration_s = 500e-6\n")
    with pytest.raises(ConfigError) as refused:
        load_run_config(path)
    assert str(refused.value) == (
        f"{path}: [protocol] cool_duration_s = 0.0005 must not exceed trace_length_s = 0.00016"
    )


def test_load_rejects_trace_shorter_than_ten_samples(tmp_path, capsys):
    # 450 ns at the default 50 ns interval is 9 sample intervals.
    path = _ini(tmp_path, "[protocol]\ncool_duration_s = 0\ntrace_length_s = 450e-9\n")
    reason = (
        "[protocol] trace_length_s = 4.5e-07 must cover at least 10 intervals "
        "of [synth] sample_interval_s = 5e-08"
    )
    with pytest.raises(ConfigError) as refused:
        load_run_config(path)
    assert str(refused.value) == f"{path}: {reason}"
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {path}: {reason}\n"
    assert not out.exists()


@pytest.mark.parametrize("section, key, command", [
    ("port.cooling", "coupling", "steady"),
    ("mode", "wall_temperature_k", "steady"),
    ("synth", "voltage_scale", "simulate"),
])
@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
def test_non_finite_config_value_exits_2(tmp_path, capsys, section, key, command, text):
    # NaN passes every range check (x < 0 is False), so it must be
    # refused where the value is parsed, with the file, section and key.
    body = f"[{section}]\n{key} = {text}\n"
    if section.startswith("port."):
        body += "load_temperature_k = 18.4\nrole = cooling\n"
    path = _ini(tmp_path, body)
    out = tmp_path / "out"
    writes = [] if command == "steady" else ["--out", str(out)]
    assert cli.main([command, "--config", path, *writes, "--porcelain"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"run.ini: bad value for '{key}' in section [{section}]: '{text}'" in captured.err
    assert not out.exists()


def test_load_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_run_config(str(tmp_path / "nope.ini"))


def test_load_accepts_inline_comments(tmp_path):
    path = _ini(tmp_path, "[synth]\nvoltage_scale = 2.0  # calibrated\n")
    assert load_run_config(path).synth.voltage_scale == 2.0


def test_with_seed():
    cfg = default_run_config()
    seeded = with_seed(cfg, 99)
    assert seeded.synth.rng_seed == 99
    assert cfg.synth.rng_seed == 20260817
    assert config_digest(seeded) != config_digest(cfg)
    with pytest.raises(DomainError, match="rng_seed must be >= 0, got -1"):
        with_seed(cfg, -1)
    with pytest.raises(DomainError, match="rng_seed must be <= "):
        with_seed(cfg, 2 ** 64)


def _out_of_range(bound):
    op, limit = bound.split()
    return int(limit) + {">": 0, ">=": -1, "<=": 1}[op]


def _bound_cases():
    """(section, key, kind, holder, field, bound) for each bound of each key,
    the bound read from the record field that holds the key's value in
    `holder`, a part of the default configuration; a port is `[port.cool]`."""
    cfg = default_run_config()
    cases = [
        (section, key, kind, reduce(getattr, path.split(".")[:-1], cfg), path.split(".")[-1])
        for section, key, kind, path in _SCHEMA
    ]
    cases += [("port.cool", key, kind, cfg.baths.ports[0], key) for key, kind, _ in _PORT_SCHEMA]
    return [
        pytest.param(*case, bound, id=f"{case[0].split('.')[0]}.{case[1]}{bound.replace(' ', '')}")
        for case in cases if isinstance(case[3], Record)
        for f in fields(case[3]) if f.name == case[4]
        for bound in f.bounds
    ]


@pytest.mark.parametrize("section, key, kind, holder, leaf, bound", _bound_cases())
def test_schema_bound_names_the_key_at_load_and_construction(
    tmp_path, capsys, section, key, kind, holder, leaf, bound
):
    # Every bound has one home, its field: a load names the key of the
    # file, and direct construction the field.
    value = kind(_out_of_range(bound))
    entries = {"coupling": "5", "load_temperature_k": "50", "role": "cooling"}
    entries = {**(entries if section == "port.cool" else {}), key: repr(value)}
    ini = _ini(tmp_path, f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in entries.items()))
    assert cli.main(["steady", "--config", ini, "--porcelain"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {ini}: [{section}] {key} must be {bound}, got {value!r}\n"
    with pytest.raises(DomainError) as exc:
        replace(holder, **{leaf: value})
    assert str(exc.value) == f"{leaf} must be {bound}, got {value!r}"


@pytest.mark.parametrize("name", ["a=b", ""], ids=["equals-sign", "empty"])
def test_cli_refuses_a_port_name_the_dump_cannot_carry(tmp_path, capsys, name):
    # `port.a=b.coupling=3.8` does not read back as one key=value line
    ini = _ini(tmp_path, (
        f"[port.{name}]\ncoupling = 3.8\nload_temperature_k = 18.4\nrole = cooling\n"
        "[synth]\nn_shots = 2\n"
    ))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", ini, "--out", str(out), "--porcelain"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"config error: {ini}: [port.{name}] port name must be non-empty, "
        "unique, printable and without '='\n"
    )
    assert not out.exists()


_TWO_PORTS = (
    "[port.cold]\ncoupling = 3.8\nload_temperature_k = 18.4\nrole = cooling\n"
    "[port.hold]\ncoupling = 1.0\nload_temperature_k = 18.4\nrole = monitoring\n"
)


@pytest.mark.parametrize("old, new, message", [
    ("coupling = 3.8", "coupling = -1", "[port.cold] coupling must be >= 0, got -1.0"),
    ("role = cooling", "role = cooler",
     "[port.cold] role must be 'cooling' or 'monitoring', got 'cooler'"),
], ids=["coupling", "role"])
def test_cli_port_refusals_name_the_port(tmp_path, capsys, old, new, message):
    ini = _ini(tmp_path, _TWO_PORTS.replace(old, new))
    assert cli.main(["steady", "--config", ini]) == 2
    assert capsys.readouterr().err == f"config error: {ini}: {message}\n"


@pytest.mark.parametrize("loss, message", [
    ("link_loss_db = -1\n", "link_loss_db must be >= 0, got -1.0"),
    ("link_loss_db = 5\nloss_model = linear\n",
     "link_loss_db must be < 4.34 dB under the linear loss model (its load weight "
     "vanishes there), got 5.0; use the exact model"),
], ids=["negative", "linear-past-4.34-db"])
@pytest.mark.parametrize("command", ["steady", "sweep"])
def test_cli_refuses_a_bad_link_loss_at_load_naming_file_and_port(
    tmp_path, capsys, command, loss, message
):
    ini = _ini(tmp_path, _TWO_PORTS.replace("role = cooling\n", f"role = cooling\n{loss}"))
    out = tmp_path / "out"
    argv = [command, "--config", ini] + (["--out", str(out)] if command == "sweep" else [])
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {ini}: [port.cold] {message}\n"
    assert not out.exists()


def test_cli_refuses_a_negative_link_temperature(tmp_path, capsys):
    # Without link loss the link temperature used to go unchecked, and
    # this port delivered its 50 K load with exit 0.
    ini = _ini(tmp_path, (
        "[port.cool]\ncoupling = 5\nload_temperature_k = 50\nrole = cooling\n"
        "link_temperature_k = -1\n"
    ))
    assert cli.main(["steady", "--config", ini, "--porcelain"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"config error: {ini}: [port.cool] link_temperature_k must be >= 0, got -1.0\n"
    )


_PORT_KEYS = "coupling, load_temperature_k, link_loss_db, link_temperature_k"
_RECEIVER_KEYS = (
    "lna_gain_linear, lna_t_min_k, lna_noise_resistance_ohm, lna_gamma_opt_real, "
    "lna_gamma_opt_imag, reference_impedance_ohm, reference_temperature_k, "
    "post_stage_noise_k, cavity_reflection_real, cavity_reflection_imag, "
    "cavity_reflection_ref_real, cavity_reflection_ref_imag, image_noise_k"
)


def test_cli_steady_refuses_a_level_that_overflows(tmp_path, capsys):
    # In bounds, but 1/reference_impedance_ohm overflows: deltap was nan, exit 0.
    ini = _ini(tmp_path, "[receiver]\nreference_impedance_ohm = 1e-320\n")
    assert cli.main(["steady", "--config", ini, "--porcelain"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"config error: {ini}: non-finite deltap_predicted_db = nan: the closed form "
        f"has no finite value for [receiver] {_RECEIVER_KEYS}; [mode] wall_temperature_k; "
        f"[port.cooling] {_PORT_KEYS}; [port.monitoring] {_PORT_KEYS}\n"
    )


def test_cli_steady_refuses_a_mode_temperature_that_overflows(tmp_path, capsys):
    # coupling * load_temperature_k overflows: this died with ZeroDivisionError
    # in photon_occupancy.
    ini = _ini(tmp_path, (
        "[port.cool]\ncoupling = 1e308\nload_temperature_k = 50\nrole = cooling\n"
        "[port.mon]\ncoupling = 1\nload_temperature_k = 290\nrole = monitoring\n"
    ))
    assert cli.main(["steady", "--config", ini, "--porcelain"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"config error: {ini}: non-finite t_mode_cooled_k = inf: the closed form has no "
        f"finite value for [mode] wall_temperature_k; [port.cool] {_PORT_KEYS}; "
        f"[port.mon] {_PORT_KEYS}\n"
    )


def test_analyze_refuses_steady_temperatures_that_overflow(tmp_path, capsys):
    # coupling * load_temperature_k overflows at both ports: analyze printed
    # t_mode_inferred_k=inf and t_ambient_reference_k=inf with exit 0.
    out = tmp_path / "run"
    ini = _ini(tmp_path, "[synth]\nn_shots = 3\n")
    assert cli.main(["simulate", "--config", ini, "--out", str(out), "--porcelain"]) == 0
    capsys.readouterr()
    huge = _ini(tmp_path, (
        "[port.cooling]\ncoupling = 1e308\nload_temperature_k = 18.4\nrole = cooling\n"
        "[port.monitoring]\ncoupling = 1e308\nload_temperature_k = 18.4\nrole = monitoring\n"
    ), "huge.ini")
    paths = [str(out / f"trace_{i:03d}.csv") for i in range(3)]
    refusal = (
        "non-finite t_mode_cooled_k = nan, t_mode_ambient_k = inf: the closed form has no "
        f"finite value for [mode] wall_temperature_k; [port.cooling] {_PORT_KEYS}; "
        f"[port.monitoring] {_PORT_KEYS}"
    )
    assert cli.main(["analyze", *paths, "--config", huge, "--porcelain"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {huge}: {refusal}\n"
    with pytest.raises(DomainError) as exc:
        analyze_run(tracefile.read_trace_ensemble(paths), load_run_config(huge))
    assert str(exc.value) == refusal


def test_cli_steady_refuses_an_occupancy_that_overflows(tmp_path, capsys):
    # hf/kT underflows to 0, which divided by zero.
    ini = _ini(tmp_path, "[mode]\nfrequency_hz = 1e-300\n")
    assert cli.main(["steady", "--config", ini]) == 2
    assert capsys.readouterr().err == (
        f"config error: {ini}: non-finite occupancy_cooled = inf, occupancy_ambient = inf: "
        "the closed form has no finite value for [mode] frequency_hz; [mode] wall_temperature_k; "
        f"[port.cooling] {_PORT_KEYS}; [port.monitoring] {_PORT_KEYS}\n"
    )


def test_cli_sweep_refuses_a_grid_that_overflows(tmp_path, capsys):
    # coupling * load overflows at 1e308: sweep.csv held inf with exit 0.
    out = tmp_path / "out"
    argv = ["sweep", "--coupling-min", "1e300", "--coupling-max", "1e308",
            "--coupling-points", "3", "--cold-points", "2", "--out", str(out)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "config error: non-finite mode_temperature_k at coupling 1e+308, load 2.0 K = inf: "
        "the closed form has no finite value for --coupling-min, --coupling-max, --cold-min, "
        f"--cold-max; [mode] wall_temperature_k; [port.cooling] {_PORT_KEYS}; "
        f"[port.monitoring] {_PORT_KEYS}\n"
    )
    assert not out.exists()


_BATH_KEYS = (
    f"[mode] wall_temperature_k; [port.cooling] {_PORT_KEYS}; [port.monitoring] {_PORT_KEYS}"
)


@pytest.mark.parametrize("body, refused", [
    # 1/reference_impedance_ohm overflows: the traces held -inf and inf.
    ("[receiver]\nreference_impedance_ohm = 1e-320\n[synth]\nn_shots = 2\n",
     "receiver output noise at the cooled mode temperature = inf, receiver output "
     "noise at the ambient mode temperature = inf: the closed form has no finite value for "
     f"[receiver] {_RECEIVER_KEYS}; {_BATH_KEYS}"),
    # voltage_scale**2 times the output noise overflows: synthesis warned of
    # an overflow and wrote samples near 1e162 that analyze cannot square.
    ("[synth]\nvoltage_scale = 1e160\nn_shots = 3\n",
     "sample variance at the cooled mode temperature = inf, sample variance at the "
     "ambient mode temperature = inf: the closed form has no finite value for [synth] "
     "voltage_scale; "
     f"[receiver] {_RECEIVER_KEYS}; {_BATH_KEYS}"),
], ids=["reference-impedance", "voltage-scale"])
def test_cli_simulate_refuses_a_non_finite_receiver_noise(tmp_path, capsys, body, refused):
    # In process, so tier-1 turns any numpy RuntimeWarning into a failure.
    ini = _ini(tmp_path, body)
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", ini, "--out", str(out), "--porcelain"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {ini}: non-finite {refused}\n"
    assert not out.exists()
    # The library refuses the run too, with the text the CLI prints after
    # the file; it drew inf samples, or warned of an overflow.
    with pytest.raises(DomainError) as refused_in_process:
        simulate_run(load_run_config(ini))
    assert captured.err == f"config error: {ini}: {refused_in_process.value}\n"


@pytest.mark.parametrize("body, trace, dt", [
    ("[protocol]\ntrace_length_s = 1e300\n", "1e+300", "5e-08"),
    ("[synth]\nsample_interval_s = 1e-300\n", "0.00016", "1e-300"),
], ids=["long-trace", "fine-step"])
def test_cli_refuses_a_grid_too_large_to_index(tmp_path, capsys, body, trace, dt):
    # Both loaded, and `simulate` died building the grid with numpy's
    # `ValueError: Maximum allowed size exceeded`, exit 1.
    ini = _ini(tmp_path, body)
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", ini, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", (
        f"config error: {ini}: [protocol] trace_length_s = {trace} must cover at most "
        f"{sys.maxsize // 8 - 1} intervals of [synth] sample_interval_s = {dt}\n"
    ))
    assert not out.exists()


def test_cli_simulate_names_the_sample_interval_over_its_ceiling(tmp_path, capsys):
    # The fastest relaxation time of the default bench is about 3.1 us and
    # the grid must resolve a tenth of it.
    ini = _ini(tmp_path, "[synth]\nsample_interval_s = 1e-6\n")
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", ini, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"config error: {ini}: [synth] sample_interval_s must be <= 3.105e-07 s "
        "(0.1 of the fastest relaxation time 3.105e-06 s), got 1e-06\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("body, message", [
    ("[protocol]\ncool_duration_s = 200e-6\n",
     "[protocol] cool_duration_s = 0.0002 must not exceed trace_length_s = 0.00016"),
    ("[synth]\none_over_f_corner_hz = 1e7\n",
     "[synth] one_over_f_corner_hz = 10000000.0 must sit below Nyquist, "
     "0.5 / sample_interval_s = 10000000.0 Hz"),
    ("[analysis]\nband_low_hz = 12e6\n",
     "[analysis] band_low_hz = 12000000.0 must be < band_high_hz = 10000000.0"),
    ("[receiver]\nlna_gamma_opt_real = -1\n",
     "[receiver] lna_gamma_opt_real + j lna_gamma_opt_imag must have magnitude < 1, "
     "got (-1+0.125j)"),
    ("[receiver]\ncavity_reflection_real = 1\n",
     "[receiver] cavity_reflection_real + j cavity_reflection_imag must have "
     "magnitude < 1, got (1+0j)"),
    ("[receiver]\ncavity_reflection_ref_imag = 1.5\n",
     "[receiver] cavity_reflection_ref_real + j cavity_reflection_ref_imag must have "
     "magnitude < 1, got 1.5j"),
    ("[port.cool]\ncoupling = 5\nload_temperature_k = 50\nrole = coldest\n",
     "[port.cool] role must be 'cooling' or 'monitoring', got 'coldest'"),
], ids=["protocol-order", "nyquist", "band-order", "gamma-opt", "reflection",
        "reflection-reference", "port-role"])
def test_cli_cross_field_refusals_name_section_and_keys(tmp_path, capsys, body, message):
    ini = _ini(tmp_path, body)
    assert cli.main(["steady", "--config", ini, "--porcelain"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {ini}: {message}\n"


@pytest.mark.parametrize("names, bad", [
    (("cooling", "cooling"), "cooling"),
    (("", ""), ""),
    (("cooling", ""), ""),
    (("a\nb", "monitoring"), "a\nb"),
    (("cooling", "a\rb"), "a\rb"),
    (("tab\t", "monitoring"), "tab\t"),
], ids=["repeated", "both-empty", "one-empty", "line-feed", "carriage-return", "tab"])
def test_run_config_refuses_port_names_that_dump_to_one_key(names, bad):
    # two ports named alike would dump to one set of port.<name>.* keys, and
    # a line break would split a `port.a\nb.coupling=...` line of run.meta
    base = default_run_config()
    ports = tuple(replace(port, name=name) for port, name in zip(base.baths.ports, names))
    with pytest.raises(DomainError) as exc:
        replace(base, baths=replace(base.baths, ports=ports))
    assert str(exc.value) == (
        f"[port.{bad}] port name must be non-empty, unique, printable and without '='"
    )


def test_cli_surface_pinned():
    # A new option or configuration key changes this pin, and says why.
    subcommands = next(
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ).choices
    options = {
        name: sorted(o for a in parser._actions for o in a.option_strings or [a.dest])
        for name, parser in subcommands.items()
    }
    common = ["--config", "--help", "--porcelain", "-h"]
    writes = sorted(common + ["--out"])
    assert options == {
        "steady": common,
        "sweep": sorted(writes + [
            "--coupling-min", "--coupling-max", "--coupling-points",
            "--cold-min", "--cold-max", "--cold-points", "--port",
        ]),
        "simulate": sorted(writes + ["--seed"]),
        "analyze": sorted(writes + [
            "inputs", "--emit-series", "--emit-psd", "--emit-deltap-curve",
        ]),
    }
    assert (len(_SCHEMA), len(_PORT_SCHEMA)) == (33, 6)


@pytest.mark.parametrize("argv", [
    ["steady", "--seed", "3"],
    ["steady", "--out", "d"],
    ["sweep", "--seed", "3"],
    ["analyze", "run.meta", "--seed", "3"],
], ids=["steady-seed", "steady-out", "sweep-seed", "analyze-seed"])
def test_cli_refuses_an_option_the_command_does_not_read(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: cavitycool ")
    assert f"error: unrecognized arguments: {' '.join(argv[-2:])}\n" in captured.err
    assert list(tmp_path.iterdir()) == []


# The numeric fields of a configuration without a bound: the complex ones,
# whose one rule (a magnitude below 1) ties their two keys together.
_UNBOUNDED = {
    "LnaNoiseParameters.gamma_opt",
    "ReceiverChain.cavity_reflection",
    "ReceiverChain.cavity_reflection_reference",
}


def test_every_config_value_has_one_schema_row():
    # No value of the run lives outside the schema or in two rows; each
    # numeric one has a bound unless it is a complex, and the bound test
    # walks every field with one.
    bounded = set()
    for cls in (CavityMode, BathPort, BathSet, LnaNoiseParameters, ReceiverChain,
                ProtocolConfig, SynthConfig, AnalysisConfig, RunConfig):
        for field in fields(cls):
            name = f"{cls.__name__}.{field.name}"
            if field.bounds:
                bounded.add(name)
            elif field.type in ("float", "int", "complex"):
                assert name in _UNBOUNDED, name
    walked = {f"{type(case.values[3]).__name__}.{case.values[4]}" for case in _bound_cases()}
    assert walked == bounded
    assert not bounded & _UNBOUNDED
    paths = [row[3] for row in _SCHEMA]
    for prefix, cls in (
        ("protocol", ProtocolConfig), ("synth", SynthConfig), ("analysis", AnalysisConfig),
    ):
        for field in fields(cls):
            assert paths.count(f"{prefix}.{field.name}") == 1, (cls.__name__, field.name)
    cfg = default_run_config()
    for path in paths:
        *parents, leaf = path.split(".")
        if leaf in ("real", "imag"):
            *parents, leaf = parents
        holder = reduce(getattr, parents, cfg)
        assert leaf in {field.name for field in fields(holder)}, path
    port_fields = {field.name for field in fields(BathPort)}
    assert [row[0] for row in _PORT_SCHEMA if row[0] not in port_fields] == []


def test_config_items_canonical():
    cfg = default_run_config()
    items = config_items(cfg)
    keys = [k for k, _ in items]
    assert len(keys) == len(set(keys))
    assert items == config_items(default_run_config())
    d = dict(items)
    assert d["mode.frequency_hz"] == repr(1.4495e9)
    assert d["port.cooling.coupling"] == repr(3.8)
    assert d["port.cooling.loss_model"] == "linear"
    assert d["port.monitoring.role"] == "monitoring"
    assert d["synth.n_shots"] == "600"
    assert d["receiver.lna_gamma_opt_imag"] == repr(0.125)


def test_config_digest_stable_and_sensitive():
    cfg = default_run_config()
    digest = config_digest(cfg)
    assert len(digest) == 64
    assert set(digest) <= set("0123456789abcdef")
    assert digest == config_digest(default_run_config())
    assert digest != config_digest(with_seed(cfg, 1))


# ------------------------------------------------------------- trace files


def test_trace_csv_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    times, volts = np.arange(48) * 5e-8, rng.normal(size=48)
    path = tmp_path / "trace.csv"
    tracefile.write_trace_csv(str(path), times, volts)
    back = tracefile.read_trace_csv(str(path))
    assert back.n_shots == 1
    assert np.array_equal(back.times_s, times)
    assert np.array_equal(back.voltages_v[0], volts)


def test_trace_csv_byte_determinism(tmp_path):
    times, volts = np.arange(16) * 1e-7, np.random.default_rng(9).normal(size=16)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    tracefile.write_trace_csv(str(a), times, volts)
    tracefile.write_trace_csv(str(b), times, volts)
    data = a.read_bytes()
    assert data == b.read_bytes()
    assert data.startswith(b"time_s,voltage_v\n")
    assert b"\r" not in data


def test_read_trace_rejects_malformed_files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    with pytest.raises(DataFormatError, match="line 1"):
        tracefile.read_trace_csv(write("empty.csv", ""))
    with pytest.raises(DataFormatError, match="line 1"):
        tracefile.read_trace_csv(
            write("header.csv", "volts,time\n0.0,0.0\n1e-7,0.0\n")
        )
    with pytest.raises(DataFormatError, match="line 3"):
        tracefile.read_trace_csv(
            write("fields.csv", "time_s,voltage_v\n0.0,0.0\n1e-7,0.0,9\n")
        )
    with pytest.raises(DataFormatError, match="line 2"):
        tracefile.read_trace_csv(
            write("alpha.csv", "time_s,voltage_v\nzero,0.0\n1e-7,0.0\n")
        )
    with pytest.raises(DataFormatError, match="at least 2"):
        tracefile.read_trace_csv(write("short.csv", "time_s,voltage_v\n0.0,0.0\n"))


def test_read_trace_rejects_bad_grids(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    with pytest.raises(DataFormatError, match="line 4"):
        tracefile.read_trace_csv(write(
            "dup.csv", "time_s,voltage_v\n0.0,0.0\n1e-7,0.0\n1e-7,0.0\n"
        ))
    # line numbers count blank lines
    with pytest.raises(DataFormatError, match="line 5"):
        tracefile.read_trace_csv(write(
            "dupblank.csv", "time_s,voltage_v\n0.0,0.0\n\n1e-7,0.0\n1e-7,0.0\n"
        ))
    with pytest.raises(DataFormatError, match="not uniform"):
        tracefile.read_trace_csv(write(
            "warp.csv", "time_s,voltage_v\n0.0,0.0\n1e-7,0.0\n3e-7,0.0\n"
        ))
    # interior blank lines are tolerated
    trace = tracefile.read_trace_csv(write(
        "blank.csv", "time_s,voltage_v\n0.0,0.0\n\n1e-7,0.5\n"
    ))
    assert len(trace) == 2


@pytest.mark.parametrize("text, line", [
    ("0.0,0.0\n1e-7,0.0\n2e-7,nan\n", 4),
    ("0.0,0.0\nnan,0.0\n2e-7,0.0\n", 3),
    ("0.0,0.0\n\n1e-7,-inf\n2e-7,0.0\n", 4),
], ids=["nan-voltage", "nan-time", "inf-voltage"])
def test_read_trace_rejects_non_finite_samples(tmp_path, capsys, text, line):
    path = tmp_path / "trace.csv"
    path.write_text("time_s,voltage_v\n" + text)
    with pytest.raises(DataFormatError, match=f"line {line}: non-finite"):
        tracefile.read_trace_csv(str(path))
    assert cli.main(["analyze", str(path)]) == 4
    err = capsys.readouterr().err
    assert str(path) in err and f"line {line}" in err


def _read_outcome(read, path):
    """What a trace reader makes of `path`: its arrays, or its error text."""
    try:
        trace = read(str(path))
    except (DataFormatError, csv.Error) as exc:
        return str(exc)
    return trace.times_s.tolist(), trace.voltages_v.tolist()


_HEAD = "time_s,voltage_v\n"


@pytest.mark.parametrize("text, expected", [
    (_HEAD + "0.0,1.5\n1e-07,-2.0\n", [1.5, -2.0]),
    (_HEAD + "0.0,1.5\n\n1e-07,-2.0\n", [1.5, -2.0]),
    ("time_s,voltage_v\r\n0.0,1.5\r\n1e-07,-2.0\r\n", [1.5, -2.0]),
    (_HEAD + '0.0,"1.5"\n1e-07,-2.0\n', [1.5, -2.0]),
    (_HEAD + "0.0, 1.5 \n 1e-07 ,-2.0\n", [1.5, -2.0]),
    (" time_s , voltage_v\n0.0,1.5\n1e-07,-2.0\n", [1.5, -2.0]),
    (_HEAD + "# note\n0.0,1.5\n1e-07,-2.0\n", "line 2: expected 2 fields, got 1"),
    (_HEAD + "0.0,1_0\n1e-07,-2.0\n", [10.0, -2.0]),
    (_HEAD + "0.0,\u0661\n1e-07,-2.0\n", [1.0, -2.0]),
    (_HEAD + "0.0,1.5,9\n1e-07\n2e-07,0.5\n", "line 2: expected 2 fields, got 3"),
    (_HEAD + "0.0\n1e-07,1.5,9\n2e-07,0.5\n", "line 2: expected 2 fields, got 1"),
    (_HEAD + "0.0,1.5\n1e-07,-2.0", [1.5, -2.0]),
    (_HEAD + "0.0,nan\n1e-07,-2.0\n", "line 2: non-finite sample"),
    (_HEAD + "0.0,1.5\n1e-07,-2.0\ninf,0.5\n", "line 4: non-finite sample"),
    (_HEAD + "0.0,1.5\n1e-07,0.0\n1e-07,0.0\n", "line 4: sample times must be strictly"),
    (_HEAD + "0.0,0.0\n1e-07,0.0\n3e-07,0.0\n", "sample grid is not uniform"),
    (_HEAD + "0.0,1.5\n", "need at least 2 samples, got 1"),
    (_HEAD, "need at least 2 samples, got 0"),
    (_HEAD + "0.0,1.5\x00\n1e-07,-2.0\n", "line 2: non-numeric sample"),
    (_HEAD + "0.0," + "0" * 140000 + "1\n1e-07,-2.0\n", "field larger than field limit"),
    # float() takes these and orjson refuses them.
    (_HEAD + "0.0,1.\n1e-07,-2.0\n", [1.0, -2.0]),
    (_HEAD + "0.0,.5\n1e-07,-2.0\n", [0.5, -2.0]),
    (_HEAD + "0.0,+1\n1e-07,-2.0\n", [1.0, -2.0]),
    (_HEAD + "0.0,01\n1e-07,-2.0\n", [1.0, -2.0]),
    (_HEAD + "0.0,1E5\n1e-07,-2.0\n", [100000.0, -2.0]),
    (_HEAD + "0.0,inf\n1e-07,-2.0\n", "line 2: non-finite sample"),
    (_HEAD + "0.0,1e400\n1e-07,-2.0\n", "line 2: non-finite sample"),
    # JSON values that are not numbers are no samples.
    (_HEAD + "0.0,true\n1e-07,-2.0\n", "line 2: non-numeric sample"),
    (_HEAD + "0.0,null\n1e-07,-2.0\n", "line 2: non-numeric sample"),
    (_HEAD + "0.0,[1]\n1e-07,-2.0\n", "line 2: non-numeric sample"),
    (_HEAD + "0.0,1.5\n1e-07,-2.0\n2e-07,[]\n", "line 4: non-numeric sample"),
], ids=[
    "plain", "blank-line", "crlf", "quoted", "spaces", "header-spaces", "hash-line",
    "underscore", "non-ascii-digit", "three-then-one-field", "one-then-three-field",
    "no-final-newline",
    "nan", "inf-time", "non-increasing", "non-uniform", "one-sample", "no-sample",
    "nul", "oversized-field",
    "trailing-point", "leading-point", "plus-sign", "leading-zero", "capital-exponent",
    "inf", "overflow", "json-true", "json-null", "json-array", "json-empty-array",
])
def test_read_trace_fast_path_agrees_with_line_reader(tmp_path, text, expected):
    path = tmp_path / "trace.csv"
    path.write_bytes(text.encode("utf-8"))
    lines = _read_outcome(tracefile._read_trace_lines, path)
    assert _read_outcome(tracefile.read_trace_csv, path) == lines
    if isinstance(expected, str):
        assert expected in lines
    else:
        assert lines[1] == [expected]


def _refuse_line_reader(path):
    raise AssertionError(f"{path} went to the line reader")


def test_read_trace_fast_path_checks_line_lengths_against_a_lowered_field_limit(
    tmp_path, monkeypatch
):
    # Both files are longer than the limit; only the one with a line
    # longer than it leaves the fast path.
    short = tmp_path / "short.csv"
    short.write_bytes((_HEAD + "".join(f"{k * 1e-7!r},1.5\n" for k in range(40))).encode())
    long = tmp_path / "long.csv"
    long.write_bytes((_HEAD + "0.0,1.5\n1e-07," + "0" * 60 + "2\n2e-07,0.5\n").encode())
    limit = csv.field_size_limit(50)
    try:
        lines = _read_outcome(tracefile._read_trace_lines, long)
        assert "field larger than field limit (50)" in lines
        assert _read_outcome(tracefile.read_trace_csv, long) == lines
        monkeypatch.setattr(tracefile, "_read_trace_lines", _refuse_line_reader)
        back = tracefile.read_trace_csv(str(short))
    finally:
        csv.field_size_limit(limit)
    assert back.times_s.tolist() == [k * 1e-7 for k in range(40)]


def test_read_trace_reads_one_time_spelled_two_ways_as_one_value(tmp_path):
    # 1e-07 and 1.0e-07 are one value spelled two ways.
    paths = []
    for name, middle in (("a.csv", "1e-07"), ("b.csv", "1.0e-07"), ("c.csv", "1.0e-07")):
        path = tmp_path / name
        path.write_bytes(f"{_HEAD}0.0,1.5\n{middle},-2.0\n2e-07,0.5\n".encode())
        paths.append(str(path))
    a, b, c = (tracefile.read_trace_csv(path).times_s for path in paths)
    assert a.tolist() == b.tolist() == c.tolist() == [0.0, 1e-07, 2e-07]


@pytest.mark.parametrize("body, negative_zeros", [
    ("0.0,-0\n1e-07,-2.0\n", 1),
    ("0.0,1.5\n1e-07,-0\n", 1),
    ("0.0,-0.0\n1e-07,-0e0\n", 2),
    ("-0,1.5\n1e-07,-2.0\n", 1),
    ("0.0,0.0\n1e-07,-0\n2e-07,1.5\n", 1),
    ("0.0,1.5\n1e-07,0.0\n2e-07,-0\n", 1),
    ("0.0,1e-0\n1e-07,-2.0\n2e-07,1e-0\n", 0),
], ids=[
    "first-integer", "last-integer", "float", "first-time", "beside-a-zero",
    "last-after-a-zero", "exponent",
])
def test_read_trace_keeps_the_sign_of_negative_zero(tmp_path, body, negative_zeros):
    # orjson reads the integer -0 as 0; float() keeps its sign.  1e-0 spells
    # -0 without being a zero.
    path = tmp_path / "trace.csv"
    path.write_bytes((_HEAD + body).encode())
    back = tracefile.read_trace_csv(str(path))
    lines = tracefile._read_trace_lines(str(path))
    assert back.times_s.tobytes() == lines.times_s.tobytes()
    assert back.voltages_v.tobytes() == lines.voltages_v.tobytes()
    fields = np.concatenate([back.times_s, back.voltages_v[0]])
    assert np.count_nonzero(np.signbit(fields[fields == 0])) == negative_zeros


def _halfway(x: float) -> str:
    """The exact decimal halfway between `x` and the next double up."""
    with decimal.localcontext() as ctx:
        ctx.prec = 800  # exact: a double's decimal has at most 767 digits
        mid = (decimal.Decimal(x) + decimal.Decimal(math.nextafter(x, math.inf))) / 2
    return format(mid, "e")


def test_read_trace_json_path_parses_as_float_does():
    # The reprs of random doubles, the exact halfway points between
    # neighbouring doubles (decimal and integer), and random digit strings,
    # all JSON numbers: orjson takes every one and rounds it as float() does.
    rng = np.random.default_rng(17)
    doubles = rng.integers(0, 2**64, size=5000, dtype=np.uint64).view(np.float64)
    doubles = doubles[np.isfinite(doubles)].tolist()
    spread = np.exp(rng.uniform(-70.0, 70.0, size=2000)).tolist()
    digits = [
        "".join(map(str, rng.integers(0, 10, size=n))).lstrip("0") or "0"
        for n in rng.integers(1, 26, size=2000)
    ]
    fields = [
        *map(repr, doubles),
        *(_halfway(x) for x in spread),
        *(_halfway(-x) for x in spread[:200]),
        *(str(2**k + 2 ** (k - 53) * m) for k in range(53, 200) for m in (1, 3)),
        *(f"{d[:1]}.{d[1:] or '0'}e{e}" for d, e in zip(digits, rng.integers(-30, 30, 2000))),
        *digits,
        *(_halfway(x) for x in (5e-324, 2.2250738585072014e-308, 1e-300)),
    ]
    # The form the fast path hands over: a memoryview on a bytearray that
    # holds the header, its newline turned into the array's `[`.
    text = bytearray(b"time_s,voltage_v[" + ",".join(fields).encode() + b"]")
    parsed = tracefile._json_numbers(memoryview(text)[len(_HEAD) - 1:], len(fields))
    assert parsed is not None
    assert parsed.tobytes() == np.array([float(f) for f in fields]).tobytes()


def test_read_trace_takes_written_files_without_the_line_reader(tmp_path, monkeypatch):
    times, volts = np.arange(64) * 5e-8, np.random.default_rng(4).normal(size=64)
    path = str(tmp_path / "trace.csv")
    tracefile.write_trace_csv(path, times, volts)
    monkeypatch.setattr(tracefile, "_read_trace_lines", _refuse_line_reader)
    back = tracefile.read_trace_csv(path)
    assert np.array_equal(back.times_s, times)
    assert np.array_equal(back.voltages_v[0], volts)


def test_read_trace_memory_stays_under_five_times_the_file(tmp_path):
    # The fast path holds the file, its bracketed text, orjson's list of
    # Python floats and the array they fill, about 4.6x a default shot's
    # file; one more file-sized copy at the peak would pass 5x.
    traces = simulate_run(_small_config(1)).traces
    assert traces.times_s.size == 3201
    path = tmp_path / "trace.csv"
    tracefile.write_trace_csv(str(path), traces.times_s, traces.voltages_v[0])
    peak, back = _traced_peak(lambda: tracefile.read_trace_csv(str(path)))
    assert back.voltages_v.tobytes() == traces.voltages_v.tobytes()
    assert peak <= 5 * path.stat().st_size


def test_analyze_reads_a_simulated_run_on_the_json_tier_alone(tmp_path, capsys, monkeypatch):
    # Every file a run writes is plain JSON numbers; one that fell to the
    # line reader would read the same values, slower.
    ini = _ini(tmp_path, "[synth]\nn_shots = 40\nrng_seed = 7\n")
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", ini, "--out", str(out)]) == 0
    monkeypatch.setattr(tracefile, "_read_trace_lines", _refuse_line_reader)
    assert cli.main(["analyze", str(out / "run.meta"), "--porcelain"]) == 0
    assert "n_shots=40\n" in capsys.readouterr().out
    cfg, traces = tracefile.read_run(str(out / "run.meta"))
    simulated = simulate_run(cfg).traces
    assert traces.times_s.tobytes() == simulated.times_s.tobytes()
    assert traces.voltages_v.tobytes() == simulated.voltages_v.tobytes()


@pytest.mark.parametrize("body, expected", [
    ("0.0,1.5\n1e-07,0.0\n1e-07,0.0\n", "line 4: sample times must be strictly increasing"),
    ("0.0,0.0\n1e-07,0.0\n3e-07,0.0\n", "sample grid is not uniform"),
    ("0.0,1.5\n", "need at least 2 samples, got 1"),
], ids=["non-increasing", "non-uniform", "one-sample"])
def test_read_trace_refuses_plain_files_without_the_line_reader(
    tmp_path, monkeypatch, body, expected
):
    path = tmp_path / "trace.csv"
    path.write_bytes((_HEAD + body).encode("ascii"))
    monkeypatch.setattr(tracefile, "_read_trace_lines", _refuse_line_reader)
    with pytest.raises(DataFormatError) as exc:
        tracefile.read_trace_csv(str(path))
    assert str(exc.value) == f"{path}: {expected}"


def test_trace_grid_caches_keep_each_file_on_its_own_grid(tmp_path):
    rng = np.random.default_rng(6)
    runs = {
        str(tmp_path / name): (np.arange(40) * dt, rng.normal(size=40))
        for name, dt in (("a.csv", 5e-8), ("b.csv", 1e-7))
    }
    written = {}
    for _ in range(3):
        for path, (times, volts) in runs.items():
            tracefile.write_trace_csv(path, times, volts)
            data = Path(path).read_bytes()
            assert written.setdefault(path, data) == data
            assert data.splitlines()[2] == f"{float(times[1])!r},{float(volts[1])!r}".encode()
            back = tracefile.read_trace_csv(path)
            assert np.array_equal(back.times_s, times)
            assert np.array_equal(back.voltages_v[0], volts)
    a, b = runs
    with pytest.raises(DataFormatError) as exc:
        tracefile.read_trace_ensemble([a, b])
    assert str(exc.value).startswith(f"{b}: 40 samples over [0.0, 3.9e-06] s")
    assert f"not on the grid of {a} (40 over [0.0, 1.95e-06] s)" in str(exc.value)


def test_trajectory_csv_format(tmp_path):
    traj = PhotonTrajectory(
        np.array([0.0, 1e-6, 2e-6]),
        np.array([1.0, 2.0, 3.0]),
    )
    path = tmp_path / "traj.csv"
    tracefile.write_trajectory_csv(str(path), traj)
    lines = path.read_text().splitlines()
    assert lines[0] == "time_s,temperature_k"
    assert lines[1] == "0.0,1.0"
    assert len(lines) == 4


def test_table_csv_format(tmp_path):
    path = tmp_path / "table.csv"
    tracefile.write_table_csv(str(path), ("a", "b"), [(1.0, 2.5), (3.0, 4.0)])
    assert path.read_text() == "a,b\n1.0,2.5\n3.0,4.0\n"


def test_key_value_sidecar_round_trip(tmp_path):
    path = tmp_path / "run.meta"
    tracefile.write_key_values(str(path), [("alpha", "1"), ("beta", "x=y")])
    # values may themselves contain '='; only the first one splits
    assert tracefile.read_key_values(str(path)) == {"alpha": "1", "beta": "x=y"}


def test_key_value_reader_is_forgiving_about_layout(tmp_path):
    path = tmp_path / "run.meta"
    path.write_text("# header comment\n\n  key = value \n")
    assert tracefile.read_key_values(str(path)) == {"key": "value"}
    bad = tmp_path / "bad.meta"
    bad.write_text("just words\n")
    with pytest.raises(DataFormatError, match="line 1"):
        tracefile.read_key_values(str(bad))
    # a second value for a key would silently replace the first
    bad.write_text("alpha=1\n# note\n alpha = 1\n")
    with pytest.raises(DataFormatError, match=r"bad\.meta: line 3: repeated key 'alpha'"):
        tracefile.read_key_values(str(bad))


# ----------------------------------------------------------------- pipeline


def test_simulate_run_structure():
    cfg = _small_config(3)
    result = simulate_run(cfg)
    assert result.traces.n_shots == 3
    assert result.disconnect_time_s == cfg.protocol.cool_duration_s
    events = result.schedule.events
    assert [e.time_s for e in events] == [0.0, cfg.protocol.cool_duration_s]
    assert events[0].active_ports == (0, 1)
    assert events[1].active_ports == (1,)

    traj = result.trajectory
    assert len(traj) == 3201  # 160 us every 50 ns, both ends included
    t_cold = mode_temperature(cfg.baths)
    t_ambient = mode_temperature(cfg.baths.subset((1,)))
    assert traj.temperature_k[0] == pytest.approx(t_cold, rel=1e-12)
    assert traj.temperature_k[-1] == pytest.approx(t_ambient, rel=1e-4)
    assert np.array_equal(result.traces.times_s, traj.times_s)
    assert result.traces.voltages_v.shape == (3, len(traj))


@pytest.mark.parametrize("cool_duration_s", [0.0, 40e-6], ids=["no-cooling", "default"])
def test_simulate_run_puts_one_transient_on_each_schedule_event(cool_duration_s):
    # Without noise a trace is its transients alone: one copy of the
    # waveform at each event, so none doubled when the two coincide at t = 0.
    base = _small_config(2)
    cfg = replace(
        base,
        protocol=replace(base.protocol, cool_duration_s=cool_duration_s),
        synth=replace(base.synth, voltage_scale=0.0),
    )
    result = simulate_run(cfg)
    starts = [round(e.time_s / cfg.synth.sample_interval_s) for e in result.schedule.events]
    assert starts == ([0] if cool_duration_s == 0 else [0, 800])
    wave = switch_artifact_waveform(cfg.synth)
    expected = np.zeros(len(result.trajectory))
    for start in starts:
        expected[start : start + len(wave)] += wave
    assert np.array_equal(result.traces.voltages_v, np.tile(expected, (2, 1)))


def test_analyze_run_recovers_protocol():
    cfg = _small_config(100)
    result = simulate_run(cfg)
    report = analyze_run(result.traces, cfg, result.disconnect_time_s)
    assert report.n_shots == 100
    assert report.notes == []
    assert -4.5 < report.deltap_direct.value_db < -2.5
    assert report.deltap_band is not None
    assert -5.0 < report.deltap_band.value_db < -2.0
    assert report.cold_psd is not None and report.ambient_psd is not None
    assert report.fit is not None and report.fit.converged
    assert report.depth_db is not None
    assert 4e-6 < report.warmup_time_s < 16e-6
    assert 80.0 < report.t_mode_inferred_k < 140.0
    assert report.t_ambient_reference_k == pytest.approx(256.279052430086)


def _composed_report(traces, cfg, disconnect_time_s):
    """analyze_run's estimates from the public stages, each run on the
    whole ensemble: mean subtraction, the two pooled levels, the two
    spectra of the residuals, the warm-up series and its fit."""
    acfg = cfg.analysis
    residuals = traces
    if traces.n_shots >= 2:
        residuals = analysis.subtract_mean_artifact(traces)
    t_end = float(traces.times_s[-1])
    cooled_span = (disconnect_time_s - acfg.cooled_window_s, disconnect_time_s)
    ambient_span = (disconnect_time_s + acfg.ambient_settle_s, t_end + 1e-12)
    cooled = analysis.pooled_mean_square(residuals, *cooled_span)
    ambient = analysis.pooled_mean_square(residuals, *ambient_span)
    sections = [residuals.slice_time(*span) for span in (cooled_span, ambient_span)]
    psds = [None, None]
    if acfg.psd_segment_samples <= min(map(len, sections)):
        psds = [
            analysis.ensemble_spectral_density(section, acfg.psd_segment_samples)
            for section in sections
        ]
    warmup = residuals.slice_time(
        disconnect_time_s, min(disconnect_time_s + acfg.fit_window_s, t_end)
    )
    series = analysis.windowed_deltap_timeseries(warmup, ambient[0], acfg.window_samples)
    try:
        fit = analysis.fit_biexponential(*series, acfg.exclude_before_s)
    except AnalysisError:
        fit = None
    return analysis.segment_deltap(cooled, ambient), psds, series, fit


def _fit_bytes(fit):
    return b"" if fit is None else np.array([getattr(fit, f.name) for f in fields(fit)]).tobytes()


def _report_bytes(report):
    """Every array and float of a report, as bytes; and its notes."""
    arrays = [
        *report.deltap_direct,
        *(report.deltap_band or ()),
        *(report.cold_psd or ()),
        *(report.ambient_psd or ()),
        report.deltap_series_times_s,
        report.deltap_series_db,
        _fit_bytes(report.fit),
        *(report.depth_db or ()),
        report.warmup_time_s,
        report.warmup_stderr_s,
        report.t_mode_inferred_k,
    ]
    return [np.asarray(a).tobytes() for a in arrays], report.notes


def _case_config(n_shots, seed=3, synth=None, analysis_items=None):
    cfg = with_seed(_small_config(n_shots), seed)
    return replace(
        cfg,
        synth=replace(cfg.synth, **(synth or {})),
        analysis=replace(cfg.analysis, **(analysis_items or {})),
    )


# (configuration, disconnect time or None for the configured one)
_PASS_CASES = {
    "2-shots": (_case_config(2), None),
    "31-shots": (_case_config(31), None),
    "33-shots": (_case_config(33), None),
    "65-shots": (_case_config(65), None),
    "one-over-f": (_case_config(33, synth={"one_over_f_corner_hz": 1e6}), None),
    "disconnect-30us": (_case_config(33), 30e-6),
    "psd-skipped": (_case_config(33, analysis_items={"psd_segment_samples": 1000}), None),
    "single-shot": (_case_config(1), None),
    "one-warmup-sample": (
        _case_config(65, analysis_items={"fit_window_s": 5e-8, "window_samples": 1}),
        None,
    ),
    # The 600-sample warm-up section as exactly one window, and as ten
    # windows of 55 with a partial one of 50 samples left over.
    **{
        f"{n}-shots-{name}-window": (
            _case_config(n, analysis_items={"window_samples": window}), None
        )
        for n in (31, 33, 69)
        for name, window in (("one", 600), ("partial", 55))
    },
}
# The note that shows a case reached its branch of the pass.
_PASS_NOTES = {
    "psd-skipped": "band-averaged level skipped",
    "single-shot": "single shot",
    "one-warmup-sample": "at least 8 usable points",
    **{f"{n}-shots-one-window": "usable points after exclusion, have 1" for n in (31, 33, 69)},
}


@pytest.mark.parametrize("case", list(_PASS_CASES))
def test_analyze_run_equals_the_composed_public_stages(case):
    # analyze_run reduces the ensemble in one blocked pass; its numbers
    # must be, bit for bit, those of the public stages run one after the
    # other on the whole ensemble.
    cfg, disconnect = _PASS_CASES[case]
    traces = simulate_run(cfg).traces
    report = analyze_run(traces, cfg, disconnect)
    disconnect = cfg.protocol.cool_duration_s if disconnect is None else disconnect
    direct, psds, series, fit = _composed_report(traces, cfg, disconnect)
    assert np.asarray(report.deltap_direct).tobytes() == np.asarray(direct).tobytes()
    for got, expected in zip((report.cold_psd, report.ambient_psd), psds):
        if expected is None:
            assert got is None
        else:
            assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()
    assert report.deltap_series_times_s.tobytes() == series[0].tobytes()
    assert report.deltap_series_db.tobytes() == series[1].tobytes()
    assert _fit_bytes(report.fit) == _fit_bytes(fit)
    assert _PASS_NOTES.get(case, "") in " ".join(report.notes)


@pytest.mark.parametrize("case", [
    "65-shots", "single-shot", "one-warmup-sample",
    *(f"{n}-shots-{name}-window" for n in (31, 33, 69) for name in ("one", "partial")),
])
def test_report_does_not_depend_on_the_block_size(monkeypatch, case):
    # Every estimate, the series and both spectra pool per-shot tables in
    # shot order, so no byte of the report may depend on the block size.
    cfg, disconnect = _PASS_CASES[case]
    traces = simulate_run(cfg).traces
    reports = []
    for block_shots in (1, 7, 32, cfg.n_shots, cfg.n_shots + 5):
        monkeypatch.setattr(analysis, "_BLOCK_SHOTS", block_shots)
        reports.append(_report_bytes(analyze_run(traces, cfg, disconnect)))
    assert all(report == reports[0] for report in reports[1:])


def _traced_peak(call):
    call()  # imports and caches stay out of the count
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_analyze_run_memory_stays_under_half_its_input():
    # Beside its input, analyze_run holds per-shot tables and one block of
    # residuals (about 0.21x the input at the defaults); one ensemble-sized
    # temporary would pass 1x.
    cfg = default_run_config()
    traces = simulate_run(cfg).traces
    peak, _ = _traced_peak(lambda: analyze_run(traces, cfg))
    assert peak <= 0.5 * traces.voltages_v.nbytes


def test_simulate_run_memory_stays_near_its_output():
    # The ensemble is drawn into its output row by row; a second
    # ensemble-sized array would pass 2x.
    cfg = default_run_config()
    peak, sim = _traced_peak(lambda: simulate_run(cfg))
    assert peak <= 1.1 * sim.traces.voltages_v.nbytes


def test_analyze_run_single_shot_note():
    cfg = _small_config(1)
    result = simulate_run(cfg)
    report = analyze_run(result.traces, cfg)
    assert report.n_shots == 1
    assert any("single shot" in note for note in report.notes)


def test_analyze_run_notes_short_spectral_sections():
    base = default_run_config()
    cfg = replace(
        base, n_shots=2, analysis=replace(base.analysis, psd_segment_samples=2048)
    )
    report = analyze_run(simulate_run(cfg).traces, cfg)
    assert report.deltap_band is None
    assert report.cold_psd is None
    assert any("band-averaged level skipped" in note for note in report.notes)


def test_analyze_run_does_not_invert_a_mode_hotter_than_the_reference():
    # a cooled window noisier than the ambient section gives dP > 0; the
    # inversion refuses it instead of reporting the ambient temperature
    cfg = _small_config(8)
    n = 3201
    times = np.arange(n) * cfg.synth.sample_interval_s
    volts = np.random.default_rng(3).standard_normal((cfg.n_shots, n))
    volts[:, (times >= 15e-6) & (times < 45e-6)] *= 2.0
    report = analyze_run(NoiseTrace(times, volts), cfg)
    assert report.deltap_direct.value_db > 5.0
    assert math.isnan(report.t_mode_inferred_k)
    assert (
        "mode temperature inversion unavailable: reduction must be <= 0 dB "
        f"for inversion on [0, ambient], got {report.deltap_direct.value_db:.3f} dB"
    ) in report.notes


def test_analyze_run_window_validation():
    cfg = _small_config(2)
    traces = simulate_run(cfg).traces
    with pytest.raises(DomainError, match=r"^cooled_window_s = 2e-05 s .* disconnect at 1e-05 s"):
        analyze_run(traces, cfg, disconnect_time_s=10e-6)
    with pytest.raises(DomainError, match=r"^ambient_settle_s = 6e-05 s .* at 0\.00011 s"):
        analyze_run(traces, cfg, disconnect_time_s=110e-6)
    with pytest.raises(DomainError):
        analyze_run(NoiseTrace(traces.times_s, traces.voltages_v[:0]), cfg)


# ---------------------------------------------------------------------- CLI


def test_cli_steady_porcelain_matches_library(capsys):
    assert cli.main(["steady", "--porcelain"]) == 0
    d = _porcelain(capsys.readouterr().out)
    cfg = default_run_config()
    cooled = mode_temperature(cfg.baths)
    ambient = mode_temperature(cfg.baths.subset(cfg.persistent_port_indices()))
    assert float(d["t_mode_cooled_k"]) == cooled
    assert float(d["t_mode_ambient_k"]) == ambient
    assert float(d["occupancy_cooled"]) == photon_occupancy(
        cfg.mode.frequency_hz, cooled
    )
    assert float(d["occupancy_ambient"]) == photon_occupancy(
        cfg.mode.frequency_hz, ambient
    )
    assert float(d["deltap_predicted_db"]) == noise_power_reduction_db(
        cfg.receiver, cooled, ambient
    )
    assert float(d["weight_intrinsic"]) == pytest.approx(1.0 / 5.8)
    assert float(d["port.cooling.weight"]) == pytest.approx(3.8 / 5.8)
    assert "port.monitoring.delivered_k" in d


def test_cli_trajectory_starts_at_the_steady_cooled_temperature(tmp_path, capsys):
    # One scale: row 1 of trajectory.csv prints steady's cooled temperature.
    ini = _ini(tmp_path, "[synth]\nn_shots = 2\n")
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", ini, "--out", str(out), "--porcelain"]) == 0
    capsys.readouterr()
    assert cli.main(["steady", "--config", ini, "--porcelain"]) == 0
    steady = _porcelain(capsys.readouterr().out)
    with open(out / "trajectory.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["temperature_k"] == steady["t_mode_cooled_k"]


def test_cli_steady_human_output(capsys):
    assert cli.main(["steady"]) == 0
    out = capsys.readouterr().out
    assert "mode temperature, all ports connected" in out
    assert "per-port delivered noise temperatures" in out
    assert "=" not in out.splitlines()[0]


def test_cli_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert cavitycool.__version__ in capsys.readouterr().out


def test_version_is_written_only_in_the_package_root():
    # pyproject.toml takes the version from `cavitycool.__version__`.
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        pyproject = tomllib.load(fh)
    assert "version" not in pyproject["project"]
    assert pyproject["project"]["dynamic"] == ["version"]
    assert pyproject["tool"]["setuptools"]["dynamic"] == {
        "version": {"attr": "cavitycool.__version__"}
    }


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_cli_config_error_exit_codes(tmp_path, capsys):
    rc = cli.main(["steady", "--config", str(tmp_path / "nope.ini")])
    assert rc == 3
    assert "i/o error" in capsys.readouterr().err

    bad = _ini(tmp_path, "[rocket]\nthrust = 11\n")
    rc = cli.main(["steady", "--config", bad])
    assert rc == 2
    assert "config error" in capsys.readouterr().err

    # --seed must be an integer as it is parsed; its range is [synth]
    # rng_seed's bound (test_cli_seed_is_held_to_the_rng_seed_bound).
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exited:
        cli.main(["simulate", "--seed", "3.5", "--out", str(out)])
    assert exited.value.code == 2
    assert "argument --seed: invalid int value: '3.5'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed, bound", [
    ("-1", ">= 0"), (str(2 ** 64), f"<= {2 ** 64 - 1}"),
])
def test_cli_seed_is_held_to_the_rng_seed_bound(tmp_path, capsys, seed, bound):
    # The range of --seed is the bound of the field it sets, checked there
    # once: the CLI restated it as an argparse type of its own, which
    # printed a usage message instead.
    ini = _ini(tmp_path, "[synth]\nn_shots = 2\n")
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", ini, "--seed", seed, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"config error: --seed must be {bound}, got {seed}\n")
    assert not out.exists()
    top = str(2 ** 64 - 1)
    assert cli.main(["simulate", "--config", ini, "--seed", top, "--out", str(out),
                     "--porcelain"]) == 0
    capsys.readouterr()
    assert f"synth.rng_seed={top}\n" in (out / "run.meta").read_text()


def test_cli_non_utf8_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_bytes(b"[synth]\nn_shots = \xff\n")
    assert cli.main(["steady", "--config", str(bad), "--porcelain"]) == 2
    assert capsys.readouterr().err == (
        f"config error: {bad}: line 2: byte 0xff is not UTF-8 text\n"
    )


def test_cli_config_syntax_error_names_the_file_it_came_from(tmp_path, capsys):
    # configparser names the file only when told it: a decoded text read
    # without its source reads "While reading from '<???>'".
    ini = _ini(tmp_path, "[synth]\nn_shots = 3\n[synth]\nn_shots = 4\n")
    assert cli.main(["steady", "--config", ini, "--porcelain"]) == 2
    assert capsys.readouterr().err == (
        f"config error: {ini}: While reading from {ini!r} [line  3]: "
        "section 'synth' already exists\n"
    )


@pytest.mark.parametrize("command, option, text", [
    (["sweep"], "--coupling-min", "nan"),
    (["sweep"], "--cold-max", "inf"),
    (["sweep"], "--coupling-max", "-inf"),
    (["sweep"], "--cold-min", "x"),
])
def test_cli_refuses_non_finite_float_options(tmp_path, capsys, command, option, text):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, f"{option}={text}", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: invalid finite float value: '{text}'" in err
    assert not out.exists()


def test_cli_sweep_writes_grid(tmp_path, capsys):
    rc = cli.main([
        "sweep", "--porcelain", "--out", str(tmp_path),
        "--coupling-min", "0.5", "--coupling-max", "8.0",
        "--coupling-points", "4",
        "--cold-min", "2.0", "--cold-max", "20.0", "--cold-points", "3",
    ])
    assert rc == 0
    d = _porcelain(capsys.readouterr().out)
    assert d["rows"] == "12"
    assert d["swept_port"] == "cooling"
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "coupling,load_temperature_k,mode_temperature_k"
    assert len(lines) == 13
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 0.5 and first[1] == 2.0
    # row 10 is the same cold load at the strongest coupling
    strong = [float(x) for x in lines[10].split(",")]
    assert strong[2] < first[2]


def test_cli_sweep_named_port_and_validation(tmp_path, capsys):
    rc = cli.main([
        "sweep", "--porcelain", "--out", str(tmp_path), "--port", "monitoring",
        "--coupling-points", "2", "--cold-points", "2",
    ])
    assert rc == 0
    assert _porcelain(capsys.readouterr().out)["swept_port"] == "monitoring"

    assert cli.main(["sweep", "--out", str(tmp_path), "--coupling-min", "0"]) == 2
    assert cli.main(["sweep", "--out", str(tmp_path), "--port", "nope"]) == 2


@pytest.mark.parametrize("options, refused", [
    (["--cold-min", "-1"], "need 0 <= cold-min <= cold-max"),
    (["--cold-min", "300", "--cold-max", "290"], "need 0 <= cold-min <= cold-max"),
    (["--coupling-points", "0"], "point counts must be >= 1"),
    (["--cold-points", "0"], "point counts must be >= 1"),
])
def test_cli_sweep_refuses_a_bad_axis(tmp_path, capsys, options, refused):
    out = tmp_path / "out"
    assert cli.main(["sweep", "--out", str(out), *options]) == 2
    assert capsys.readouterr() == ("", f"config error: {refused}\n")
    assert not out.exists()


def test_cli_simulate_analyze_round_trip(tmp_path, capsys):
    ini = _ini(tmp_path, "[synth]\nn_shots = 40\n")
    out = tmp_path / "run"
    rc = cli.main(["simulate", "--config", ini, "--out", str(out), "--porcelain"])
    assert rc == 0
    d = _porcelain(capsys.readouterr().out)
    assert d["n_traces"] == "40"

    cfg = load_run_config(ini)
    # the sidecar holds the format, the digest and the configuration, and
    # nothing derived from them: the trace names follow from synth.n_shots
    meta = tracefile.read_key_values(str(out / "run.meta"))
    assert list(meta.items()) == [
        ("format", "cavitycool-run/4"), ("config_digest", config_digest(cfg)),
        *config_items(cfg),
    ]
    assert meta["config_digest"] == d["config_digest"]
    assert meta["synth.n_shots"] == "40"
    assert all((out / f"trace_{i:03d}.csv").is_file() for i in range(40))
    assert not (out / "trace_040.csv").exists()
    assert (out / "trajectory.csv").is_file()

    rc = cli.main([
        "analyze", str(out / "run.meta"), "--config", ini, "--porcelain",
        "--out", str(out),
    ])
    assert rc == 0
    d = _porcelain(capsys.readouterr().out)
    assert d["n_shots"] == "40"
    assert d["fit_converged"] == "true"
    assert float(d["deltap_direct_db"]) < -1.0
    assert float(d["deltap_direct_stderr_db"]) > 0.0
    assert "depth_fit_db" in d
    assert float(d["warmup_time_s"]) > 0.0
    assert np.isfinite(float(d["t_mode_inferred_k"]))
    assert float(d["t_ambient_reference_k"]) == pytest.approx(256.279052430086)

    rc = cli.main([
        "analyze", str(out / "run.meta"), "--config", ini, "--porcelain",
        "--out", str(out), "--emit-series", "--emit-psd", "--emit-deltap-curve",
    ])
    assert rc == 0
    capsys.readouterr()
    series = (out / "warmup_series.csv").read_text().splitlines()
    assert series[0] == "time_since_disconnect_s,deltap_db"
    assert len(series) > 5
    assert (out / "psd_cold.csv").is_file()
    assert (out / "psd_ambient.csv").is_file()
    curve = (out / "deltap_curve.csv").read_text().splitlines()
    assert curve[0] == "t_mode_k,deltap_db"
    assert len(curve) == 257


def test_cli_analyze_accepts_raw_trace_list(tmp_path, capsys):
    ini = _ini(tmp_path, "[synth]\nn_shots = 2\n")
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", ini, "--out", str(out),
                     "--porcelain"]) == 0
    capsys.readouterr()
    paths = [str(out / f"trace_{i:03d}.csv") for i in range(2)]

    rc_default = cli.main(["analyze", *paths, "--config", ini, "--porcelain"])
    default_out = _porcelain(capsys.readouterr().out)
    # without a sidecar the disconnect is protocol.cool_duration_s of
    # --config: spelling out the run's value changes nothing, another moves
    # the comparison windows
    outs = []
    for cool in ("4e-05", "5e-05"):
        timed = _ini(tmp_path, (
            f"[synth]\nn_shots = 2\n[protocol]\ncool_duration_s = {cool}\n"
        ), f"cool_{cool}.ini")
        assert cli.main(["analyze", *paths, "--config", timed, "--porcelain"]) == rc_default
        outs.append(_porcelain(capsys.readouterr().out))
    assert outs[0] == default_out
    assert outs[1]["deltap_direct_db"] != default_out["deltap_direct_db"]
    assert default_out["n_shots"] == "2"


def test_cli_analyze_data_error_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("volts,time\n0,0\n1,1\n")
    assert cli.main(["analyze", str(bad)]) == 4
    assert "data format error" in capsys.readouterr().err

    assert cli.main(["analyze", str(tmp_path / "missing.csv")]) == 3
    assert "i/o error" in capsys.readouterr().err

    meta = tmp_path / "run.meta"
    meta.write_text("format=cavitycool-run/4\n")
    assert cli.main(["analyze", str(meta)]) == 4
    assert f"{meta}: section [mode] missing key" in capsys.readouterr().err

    meta.write_text("format=cavitycool-run/4\ntrace_files=missing.csv\n")
    assert cli.main(["analyze", str(meta)]) == 4
    assert f"{meta}: unknown key 'trace_files'" in capsys.readouterr().err


def test_cli_analyze_rejects_traces_on_different_grids(tmp_path, capsys):
    ini = _ini(tmp_path, "[synth]\nn_shots = 2\n")
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", ini, "--out", str(out),
                     "--porcelain"]) == 0
    capsys.readouterr()
    first = out / "trace_000.csv"
    lines = (out / "trace_001.csv").read_text().splitlines(keepends=True)
    assert len(lines) == 3202

    short = tmp_path / "short.csv"
    short.write_text("".join(lines[:3001]))
    shifted = tmp_path / "shifted.csv"
    shifted.write_text(lines[0] + "".join(
        f"{float(t) + 1e-7!r},{v}" for t, v in (ln.split(",") for ln in lines[1:])
    ))
    for other in (short, shifted):
        assert cli.main(["analyze", str(first), str(other), "--config", ini]) == 4
        err = capsys.readouterr().err
        assert "data format error" in err
        assert f"{other}: " in err and "not on the grid of" in err


def test_cli_analyze_rejects_truncated_run(tmp_path, capsys):
    # a run's trace files are those of its synth.n_shots shots, so a
    # missing one fails to open rather than analysing fewer shots
    ini = _ini(tmp_path, "[synth]\nn_shots = 3\n")
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", ini, "--out", str(out),
                     "--porcelain"]) == 0
    capsys.readouterr()
    (out / "trace_002.csv").unlink()
    assert cli.main(["analyze", str(out / "run.meta"), "--porcelain"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "i/o error" in captured.err and str(out / "trace_002.csv") in captured.err


def _four_shot_meta(tmp_path, capsys):
    ini = _ini(tmp_path, "[synth]\nn_shots = 4\n")
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", ini, "--out", str(out),
                     "--porcelain"]) == 0
    capsys.readouterr()
    return out / "run.meta"


# The configuration keys that cavitycool-run/2 also copied to lines of
# their own: (former copy, key).
_FORMER_COPIES = {
    "master_seed": "synth.rng_seed",
    "n_shots": "synth.n_shots",
    "sample_interval_s": "synth.sample_interval_s",
    "disconnect_time_s": "protocol.cool_duration_s",
    "trace_length_s": "protocol.trace_length_s",
}


@pytest.mark.parametrize("copy, key, value", [
    ("master_seed", "synth.rng_seed", "999"),
    ("n_shots", "synth.n_shots", "3"),
    ("n_shots", "synth.n_shots", "5"),
    ("sample_interval_s", "synth.sample_interval_s", "0.001"),
    ("sample_interval_s", "synth.sample_interval_s", "1e-07"),
    ("disconnect_time_s", "protocol.cool_duration_s", "4.1e-05"),
    ("disconnect_time_s", "protocol.cool_duration_s", "nan"),
    ("disconnect_time_s", "protocol.cool_duration_s", "inf"),
    ("trace_length_s", "protocol.trace_length_s", "nan"),
    ("trace_length_s", "protocol.trace_length_s", "inf"),
    # None: the key's line is deleted
    ("master_seed", "synth.rng_seed", None),
    ("n_shots", "synth.n_shots", None),
    ("sample_interval_s", "synth.sample_interval_s", None),
    ("disconnect_time_s", "protocol.cool_duration_s", None),
    ("trace_length_s", "protocol.trace_length_s", None),
])
def test_cli_analyze_rejects_sidecar_copy_off_the_config(tmp_path, capsys, copy, key, value):
    # each value has one line, the configuration's, and the digest covers
    # it: an edit exits 4 naming the sidecar, also where the edited value
    # alone would be a valid configuration
    assert _FORMER_COPIES[copy] == key
    meta = _four_shot_meta(tmp_path, capsys)
    text = meta.read_text()
    recorded = tracefile.read_key_values(str(meta))
    assert copy not in recorded
    line = f"\n{key}={recorded[key]}\n"
    assert line in text
    meta.write_text(text.replace(line, "\n" if value is None else f"\n{key}={value}\n"))
    assert cli.main(["analyze", str(meta), "--porcelain"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    section, _, leaf = key.partition(".")
    if value is None:
        reason = f"section [{section}] missing key '{leaf}'"
    elif value in ("nan", "inf"):
        reason = f"bad value for '{leaf}' in section [{section}]: '{value}'"
    elif value == "0.001":
        # a 160 us trace holds no 10 intervals of 1 ms
        reason = (
            "[protocol] trace_length_s = 0.00016 must cover at least 10 intervals "
            "of [synth] sample_interval_s = 0.001"
        )
    else:
        reason = "configuration does not match its config_digest"
    assert captured.err == f"data format error: {meta}: {reason}\n"


def test_cli_analyze_names_the_key_of_an_out_of_range_sidecar_value(tmp_path, capsys):
    # the bound is checked before the digest, and named as in a file
    meta = _four_shot_meta(tmp_path, capsys)
    text = meta.read_text()
    assert "\nreceiver.lna_t_min_k=11.6\n" in text
    meta.write_text(text.replace("\nreceiver.lna_t_min_k=11.6\n", "\nreceiver.lna_t_min_k=-1.0\n"))
    assert cli.main(["analyze", str(meta), "--porcelain"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"data format error: {meta}: [receiver] lna_t_min_k must be >= 0, got -1.0\n"
    )


@pytest.mark.parametrize("line", [
    "master_seed=4\n", "trace_files=trace_000.csv,trace_001.csv,trace_002.csv,trace_003.csv\n",
], ids=["copy", "trace-list"])
def test_cli_analyze_rejects_a_leftover_sidecar_line(tmp_path, capsys, line):
    # a cavitycool-run/4 sidecar holds only the format, the digest and the
    # configuration: a line that cavitycool-run/2 also wrote is unknown
    meta = _four_shot_meta(tmp_path, capsys)
    head, digest, rest = meta.read_text().split("\n", 2)
    assert digest.startswith("config_digest=")
    meta.write_text(f"{head}\n{digest}\n{line}{rest}")
    assert cli.main(["analyze", str(meta), "--porcelain"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    key = line.partition("=")[0]
    assert captured.err == f"data format error: {meta}: unknown key '{key}'\n"


@pytest.mark.parametrize("line", ["format=someone-else/9\n", ""], ids=["other", "missing"])
def test_cli_analyze_rejects_a_sidecar_of_another_format(tmp_path, capsys, line):
    meta = _four_shot_meta(tmp_path, capsys)
    text = meta.read_text()
    assert text.startswith("format=cavitycool-run/4\n")
    # the format line is checked first, whatever else the file lacks or
    # holds: here its digest and a configuration key, and a stray key
    rest = [
        row for row in text.splitlines(keepends=True)[1:]
        if not row.startswith(("config_digest=", "synth.rng_seed="))
    ]
    meta.write_text(line + "master_seed=4\n" + "".join(rest))
    assert cli.main(["analyze", str(meta), "--porcelain"]) == 4
    captured = capsys.readouterr()
    found = line.strip().partition("=")[2] or "(none)"
    assert captured.out == ""
    assert captured.err == (
        f"data format error: {meta}: format={found}, expected cavitycool-run/4\n"
    )


def test_cli_analyze_rejects_a_sidecar_of_the_previous_format(tmp_path, capsys):
    # cavitycool-run/3 also recorded `analysis.boxcar_width_s`, and
    # cavitycool-run/2 also copied five configuration values to lines of
    # their own and listed the trace files
    meta = _four_shot_meta(tmp_path, capsys)
    head, digest, rest = meta.read_text().split("\n", 2)
    assert head == "format=cavitycool-run/4"
    recorded = tracefile.read_key_values(str(meta))
    copies = "".join(f"{copy}={recorded[key]}\n" for copy, key in _FORMER_COPIES.items())
    names = ",".join(f"trace_{i:03d}.csv" for i in range(4))
    for found, text in (
        ("cavitycool-run/3", f"{digest}\nanalysis.boxcar_width_s=1e-07\n{rest}"),
        ("cavitycool-run/2", f"{digest}\n{copies}trajectory_file=trajectory.csv\n"
                             f"trace_files={names}\n{rest}"),
    ):
        meta.write_text(f"format={found}\n{text}")
        assert cli.main(["analyze", str(meta), "--porcelain"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"data format error: {meta}: format={found}, expected cavitycool-run/4\n"
        )


def test_cli_analyze_rejects_traces_off_the_run_grid(tmp_path, capsys):
    meta = _four_shot_meta(tmp_path, capsys)
    first = meta.parent / "trace_000.csv"
    coarse = _ini(tmp_path, (
        "[synth]\nn_shots = 4\nsample_interval_s = 1e-07\n"
    ), "coarse.ini")
    other = tmp_path / "coarse"
    assert cli.main(["simulate", "--config", coarse, "--out", str(other),
                     "--porcelain"]) == 0
    capsys.readouterr()
    lines = first.read_text().splitlines(keepends=True)
    # the run's sample count and spacing, but from t = 50 ns
    shifted = lines[0] + "".join(
        f"{float(t) + 5e-8!r},{v}" for t, v in (ln.split(",") for ln in lines[1:])
    )
    names = [f"trace_{i:03d}.csv" for i in range(4)]
    for traces, found in (
        ([(other / name).read_text() for name in names], "1601 samples every 1e-07 s from 0.0 s"),
        ([shifted] * 4, "3201 samples every"),
    ):
        for name, text in zip(names, traces):
            (meta.parent / name).write_text(text)
        assert cli.main(["analyze", str(meta), "--porcelain"]) == 4
        err = capsys.readouterr().err
        assert f"{meta}: {first} has {found}" in err
        assert "not the run's 3201 every 5e-08 s from 0.0 s" in err


def test_write_run_reads_back_through_read_run(tmp_path):
    cfg = _small_config(4)
    sim = simulate_run(cfg)
    meta = tracefile.write_run(str(tmp_path / "run"), cfg, sim)
    assert meta == str(tmp_path / "run" / "run.meta")
    back, traces = tracefile.read_run(meta)
    assert config_digest(back) == config_digest(cfg)
    fresh = simulate_run(cfg).traces
    assert traces.voltages_v.tobytes() == fresh.voltages_v.tobytes()
    assert np.array_equal(traces.times_s, fresh.times_s)


def test_read_run_rejects_traces_off_the_run_grid(tmp_path):
    # the inputs of test_cli_analyze_rejects_traces_off_the_run_grid
    cfg = _small_config(4)
    run = tmp_path / "run"
    meta = tracefile.write_run(str(run), cfg, simulate_run(cfg))
    coarse = replace(cfg, synth=replace(cfg.synth, sample_interval_s=1e-7))
    other = tmp_path / "coarse"
    tracefile.write_run(str(other), coarse, simulate_run(coarse))
    first = run / "trace_000.csv"
    lines = first.read_text().splitlines(keepends=True)
    shifted = lines[0] + "".join(
        f"{float(t) + 5e-8!r},{v}" for t, v in (ln.split(",") for ln in lines[1:])
    )
    names = [f"trace_{i:03d}.csv" for i in range(4)]
    for traces, found in (
        ([(other / name).read_text() for name in names], "1601 samples every 1e-07 s from 0.0 s"),
        ([shifted] * 4, "3201 samples every"),
    ):
        for name, text in zip(names, traces):
            (run / name).write_text(text)
        with pytest.raises(DataFormatError) as err:
            tracefile.read_run(meta)
        assert f"{meta}: {first} has {found}" in str(err.value)
        assert "not the run's 3201 every 5e-08 s from 0.0 s" in str(err.value)


def test_cli_analyze_rejects_repeated_sidecar_key(tmp_path, capsys):
    meta = _four_shot_meta(tmp_path, capsys)
    text = meta.read_text()
    digest = tracefile.read_key_values(str(meta))["config_digest"]
    meta.write_text(text + f"config_digest={digest}\n")
    assert cli.main(["analyze", str(meta), "--porcelain"]) == 4
    line = len(text.splitlines()) + 1
    assert f"{meta}: line {line}: repeated key 'config_digest'" in capsys.readouterr().err


@pytest.mark.parametrize("body, found", [
    (b"0.0,1.5\n1e-07,\xff\n", "line 3: byte 0xff is not UTF-8 text"),
    (b"0.0,1.5\n1e-07," + b"0" * 140000 + b"1\n2e-07,0.5\n",
     "line 3: field larger than field limit (131072)"),
], ids=["non-utf8", "oversized-field"])
def test_cli_analyze_rejects_undecodable_trace(tmp_path, capsys, body, found):
    path = tmp_path / "trace.csv"
    path.write_bytes(b"time_s,voltage_v\n" + body)
    assert cli.main(["analyze", str(path), "--porcelain"]) == 4
    assert f"data format error: {path}: {found}" in capsys.readouterr().err


def test_cli_analyze_rejects_non_utf8_sidecar(tmp_path, capsys):
    meta = _four_shot_meta(tmp_path, capsys)
    text = meta.read_bytes()
    meta.write_bytes(text + b"note=\xff\n")
    assert cli.main(["analyze", str(meta), "--porcelain"]) == 4
    line = text.count(b"\n") + 1
    err = capsys.readouterr().err
    assert f"data format error: {meta}: line {line}: byte 0xff is not UTF-8 text" in err


def test_cli_analyze_nonconvergence_exit_code(tmp_path, capsys):
    ini = _ini(tmp_path, "[synth]\nn_shots = 2\n")
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", ini, "--out", str(out),
                     "--porcelain"]) == 0
    # one window spanning the whole warm-up section leaves one point to fit
    wide = _ini(tmp_path, (
        "[synth]\nn_shots = 2\n\n[analysis]\nwindow_samples = 600\n"
    ), "wide.ini")
    capsys.readouterr()
    rc = cli.main(["analyze", str(out / "run.meta"), "--config", wide, "--porcelain"])
    assert rc == 5
    captured = capsys.readouterr()
    # The levels that need no fit are still printed, and the note, also on
    # stderr after the run's input, gives the cause.
    d = _porcelain(captured.out)
    assert {"deltap_direct_db", "deltap_direct_stderr_db", "deltap_band_db"} <= d.keys()
    note = "warm-up fit unavailable: need at least 8 usable points after exclusion, have 1"
    assert d["note.0"] == note
    assert captured.err == f"analysis error: {out / 'run.meta'}: {note}\n"
    assert "fit_a1_db" not in d and "depth_fit_db" not in d


def test_cli_analyze_window_longer_than_the_warmup_section_exits_2(tmp_path, capsys):
    # A window that the warm-up section cannot hold is refused with the
    # sections, before a sample is read: it gave exit 5 after the levels.
    meta = _four_shot_meta(tmp_path, capsys)
    wide = _ini(tmp_path, "[synth]\nn_shots = 4\n[analysis]\nwindow_samples = 601\n", "wide.ini")
    assert cli.main(["analyze", str(meta), "--config", wide, "--porcelain"]) == 2
    assert capsys.readouterr() == ("", (
        f"config error: {wide}: [analysis] window_samples = 601 must not exceed the "
        "600 samples of the warm-up section\n"
    ))


@pytest.mark.parametrize("analysis_items, cause", [
    ("window_samples = 600", "need at least 8 usable points after exclusion, have 1"),
    ("exclude_before_s = 1.0", "need at least 8 usable points after exclusion, have 0"),
])
def test_analyze_without_a_fit_gives_the_note_s_cause_on_stderr(
    tmp_path, capsys, analysis_items, cause
):
    # No fit returned, so stderr must not say that one failed to converge.
    meta = _four_shot_meta(tmp_path, capsys)
    ini = _ini(tmp_path, f"[synth]\nn_shots = 4\n\n[analysis]\n{analysis_items}\n")
    assert cli.main(["analyze", str(meta), "--config", ini, "--porcelain"]) == 5
    out, err = capsys.readouterr()
    assert _porcelain(out)["note.0"] == f"warm-up fit unavailable: {cause}"
    assert err == f"analysis error: {meta}: warm-up fit unavailable: {cause}\n"


def test_unconverged_fit_gives_no_depth_and_analyze_exits_5(tmp_path, capsys, monkeypatch):
    # The constant level of test_fit_without_warmup_is_not_converged: the
    # fit returns, but its best tau sits on the edge of the scan.
    t = np.linspace(2e-6, 32e-6, 50)
    stuck = analysis.fit_biexponential(t, np.full(50, -1.0), 2e-6)
    assert not stuck.converged
    monkeypatch.setattr(analysis, "fit_biexponential", lambda *args: stuck)
    meta = _four_shot_meta(tmp_path, capsys)
    cfg, traces = tracefile.read_run(str(meta))
    report = analyze_run(traces, cfg)
    assert report.fit is stuck and report.depth_db is None
    assert math.isnan(report.warmup_time_s) and math.isnan(report.warmup_stderr_s)
    assert "warm-up fit unavailable: exponential fit did not converge" in report.notes
    assert cli.main(["analyze", str(meta), "--porcelain"]) == 5
    out, err = capsys.readouterr()
    d = _porcelain(out)
    assert {key: d[key] for key in d if key.startswith("fit_")} == {
        "fit_a1_db": repr(stuck.a1_db),
        "fit_a2_db": "0.0",
        "fit_tau1_s": repr(stuck.tau1_s),
        "fit_tau2_s": repr(stuck.tau1_s),
        "fit_residual_rms_db": repr(stuck.residual_rms_db),
        "fit_converged": "false",
        "fit_collapsed_single": "true",
        "fit_nfev": str(stuck.nfev),
    }
    assert d["warmup_time_s"] == d["warmup_stderr_s"] == "nan"
    assert "depth_fit_db" not in d
    assert "warm-up fit unavailable: exponential fit did not converge" in d.values()
    assert err == (
        f"analysis error: {meta}: warm-up fit unavailable: exponential fit did not converge\n"
    )


@pytest.mark.parametrize("disconnect, key", [
    ("0", "analysis] cooled_window_s = 2e-05 s leaves no cooled section before"),
    ("5e-6", "analysis] cooled_window_s = 2e-05 s leaves no cooled section before"),
    ("1.9e-4", "analysis] ambient_settle_s = 6e-05 s leaves no settled ambient section"),
    ("2e-4", "analysis] ambient_settle_s = 6e-05 s leaves no settled ambient section"),
    ("3e-4", "analysis] ambient_settle_s = 6e-05 s leaves no settled ambient section"),
])
def test_cli_analyze_disconnect_outside_the_comparison_windows_exits_2(
    tmp_path, capsys, disconnect, key
):
    # a disconnect that leaves no cooled or no settled ambient section is a
    # configuration fault, not a fit that failed to converge; only a bare
    # trace list takes a disconnect other than the run's, from --config
    meta = _four_shot_meta(tmp_path, capsys)
    traces = [str(meta.parent / f"trace_{i:03d}.csv") for i in range(4)]
    timed = _ini(tmp_path, (
        "[synth]\nn_shots = 4\n[protocol]\ntrace_length_s = 1e-3\n"
        f"cool_duration_s = {disconnect}\n"
    ), "timed.ini")
    rc = cli.main(["analyze", *traces, "--config", timed])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"config error: {timed}: [")
    assert f"the disconnect at {float(disconnect)!r} s" in err and key in err


def test_cli_analyze_warmup_window_without_a_sample_exits_2_and_names_the_key(
    tmp_path, capsys
):
    # a fit window shorter than one sample interval leaves the warm-up
    # section empty: a configuration fault that names its key, as above
    meta = _four_shot_meta(tmp_path, capsys)
    short = _ini(tmp_path, "[synth]\nn_shots = 4\n[analysis]\nfit_window_s = 1e-9\n", "short.ini")
    rc = cli.main(["analyze", str(meta), "--config", short, "--porcelain"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err == (
        f"config error: {short}: [analysis] fit_window_s = 1e-09 s leaves no warm-up section "
        "after the disconnect at 4e-05 s (the trace ends at 0.00015999999999999999 s)\n"
    )


def test_cli_analyze_cooled_window_without_a_sample_exits_2_and_names_the_key(
    tmp_path, capsys
):
    # A disconnect at 41 us falls between two samples of the 50 ns grid, so
    # a 1 ns cooled window before it holds none.  This was refused as
    # "no samples in [4.0999e-05, 4.1e-05) s", naming no key.
    run = "[protocol]\ncool_duration_s = 41e-6\n[synth]\nn_shots = 4\n"
    ini = _ini(tmp_path, run)
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", ini, "--out", str(out), "--porcelain"]) == 0
    capsys.readouterr()
    short = _ini(tmp_path, run + "[analysis]\ncooled_window_s = 1e-9\n", "short.ini")
    rc = cli.main(["analyze", str(out / "run.meta"), "--config", short, "--porcelain"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == (
        f"config error: {short}: [analysis] cooled_window_s = 1e-09 s leaves no cooled "
        "section before the disconnect at 4.1e-05 s (the trace ends at "
        "0.00015999999999999999 s)\n"
    )


def test_analyze_run_refuses_an_empty_section_before_a_data_fault():
    # Identical shots leave zero residuals, a data fault (AnalysisError,
    # exit 5).  An empty warm-up section is a configuration fault and is
    # refused first, before any sample is read (DomainError, exit 2).
    cfg = default_run_config()
    n = grid_sample_count(cfg.protocol.trace_length_s, cfg.synth.sample_interval_s)
    ones = NoiseTrace(np.arange(n) * cfg.synth.sample_interval_s, np.ones((4, n)))
    with pytest.raises(AnalysisError, match="non-positive section power"):
        analyze_run(ones, cfg)
    short = replace(cfg, analysis=replace(cfg.analysis, fit_window_s=1e-9))
    with pytest.raises(DomainError, match=r"^fit_window_s = 1e-09 s leaves no warm-up section"):
        analyze_run(ones, short)


def test_band_level_past_nyquist_is_a_note():
    # At 100 ns sampling the 5 MHz Nyquist sits below the 10 MHz band edge;
    # 64-sample segments fit the default sections, so the band is tried.
    cfg = default_run_config()
    cfg = replace(cfg, n_shots=4, synth=replace(cfg.synth, sample_interval_s=100e-9),
                  analysis=replace(cfg.analysis, psd_segment_samples=64))
    report = analyze_run(simulate_run(cfg).traces, cfg)
    assert report.deltap_band is None and report.cold_psd is not None
    assert report.notes[:1] == [
        "band-averaged level unavailable: band upper edge 10000000.0 Hz extends past "
        "the spectrum (5000000.0000000475 Hz)",
    ]


# The cooling port decoupled, so the warm-up has no cooled state to leave.
_DECOUPLED_PORTS = (
    "[port.cooling]\ncoupling = 0\nload_temperature_k = 18.4\nlink_loss_db = 0.19\n"
    "link_temperature_k = 290.0\nloss_model = linear\nrole = cooling\n"
    "[port.monitoring]\ncoupling = 1.0\nload_temperature_k = 18.4\nlink_loss_db = 6.05\n"
    "link_temperature_k = 290.0\nloss_model = exact\nrole = monitoring\n"
)


def test_degenerate_warmup_fit_covariance_is_a_note(tmp_path):
    # Seed 102 puts tau at the lower edge of the scan: jac.T @ jac is then
    # singular and its pseudo-inverse gave a negative amplitude variance,
    # which died with "math domain error" in fit_biexponential.
    ini = _ini(tmp_path, _DECOUPLED_PORTS + "[synth]\nn_shots = 60\n")
    cfg = with_seed(load_run_config(ini), 102)
    report = analyze_run(simulate_run(cfg).traces, cfg)
    assert report.depth_db is None and report.fit is None
    assert report.failure.startswith(
        "warm-up fit unavailable: fit covariance has a negative or non-finite variance at tau = "
    )
    assert report.failure in report.notes


def test_analyze_of_a_run_without_cooling_reports_no_warmup_time(tmp_path, capsys):
    # The cooling port decoupled: the mode never leaves ambient, so there is
    # no warm-up to time, and a fitted time constant is noise.
    ini = _ini(tmp_path, _DECOUPLED_PORTS + "[synth]\nn_shots = 40\n")
    run = tmp_path / "run"
    assert cli.main(["simulate", "--config", ini, "--out", str(run), "--seed", "3"]) == 0
    capsys.readouterr()
    meta = run / "run.meta"
    assert cli.main(["analyze", str(meta), "--porcelain"]) == 5
    out, err = capsys.readouterr()
    assert _porcelain(out)["warmup_time_s"] == "nan"
    assert err.startswith(f"analysis error: {meta}: warm-up fit unavailable: ")



@pytest.mark.parametrize("n_shots", [2, 3, 4])
def test_small_cooled_runs_keep_their_warmup_time(tmp_path, capsys, n_shots):
    # The no-cooling test must not refuse real cooling however few the
    # shots: every converged fit of seeds 0-19 counts (their direct levels
    # lie 10 or more standard errors below 0 dB), and seed 0 exits 0.
    cfg = default_run_config()
    converged = 0
    for seed in range(20):
        run = replace(with_seed(cfg, seed), n_shots=n_shots)
        report = analyze_run(simulate_run(run).traces, run)
        if report.fit is not None and report.fit.converged:
            converged += 1
            assert report.failure is None, (seed, report.failure)
    assert converged >= 14
    ini = _ini(tmp_path, f"[synth]\nn_shots = {n_shots}\n")
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", ini, "--out", str(out), "--seed", "0"]) == 0
    capsys.readouterr()
    assert cli.main(["analyze", str(out / "run.meta"), "--porcelain"]) == 0
    assert _porcelain(capsys.readouterr().out)["warmup_time_s"] != "nan"

_IDEAL_RECEIVER = (
    "[receiver]\nlna_t_min_k = 0\nlna_noise_resistance_ohm = 0\npost_stage_noise_k = 0\n"
)
_NOISELESS_BATHS = (
    "[mode]\nwall_temperature_k = 0\n"
    "[port.cooling]\ncoupling = 3.8\nload_temperature_k = 0\nrole = cooling\n"
    "[port.monitoring]\ncoupling = 1.0\nload_temperature_k = 0\nrole = monitoring\n"
)


@pytest.mark.parametrize("body, seed, analyze, code", [
    # A noiseless receiver and baths: 0 / 0 died with ZeroDivisionError.
    (_NOISELESS_BATHS + _IDEAL_RECEIVER, None, None, 2),
    # The cooled state matched to the LNA optimum: log10(0), a math domain error.
    (_NOISELESS_BATHS + "[receiver]\nlna_t_min_k = 0\npost_stage_noise_k = 0\n"
     "cavity_reflection_real = 0.073\ncavity_reflection_imag = 0.125\n", None, None, 2),
    # An ideal receiver's floor is -inf dB, and every level is inverted.
    (_IDEAL_RECEIVER + "[synth]\nn_shots = 40\n", None, "meta", 0),
    # A singular fit covariance.
    (_DECOUPLED_PORTS + "[synth]\nn_shots = 60\n", "102", "meta", 5),
    # Samples whose squares overflow, read from the sidecar and from the CSVs.
    ("[synth]\nvoltage_scale = 5e151\nn_shots = 3\n", None, "meta", 2),
    ("[synth]\nvoltage_scale = 5e151\nn_shots = 3\n", None, "csv", 4),
], ids=["noiseless", "matched", "ideal-receiver", "singular-fit", "overflow-meta",
        "overflow-csv"])
def test_cli_in_bound_extremes_exit_named_or_finite(tmp_path, capsys, body, seed, analyze, code):
    # In process, so tier-1 turns a numpy RuntimeWarning into a failure, and
    # a traceback fails the test.  Exit 0 prints only finite numbers; any
    # other exit names a key or a file.
    ini = _ini(tmp_path, body)
    run = tmp_path / "run"
    if analyze is None:
        argv = ["steady", "--config", ini, "--porcelain"]
    else:
        seeded = ["--seed", seed] if seed else []
        assert cli.main(["simulate", "--config", ini, "--out", str(run), *seeded]) == 0
        capsys.readouterr()
        inputs = [str(run / "run.meta")] if analyze == "meta" else sorted(
            str(path) for path in run.glob("trace_*.csv"))
        argv = ["analyze", *inputs, "--porcelain", "--out", str(tmp_path / "emitted")]
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    numbers = [value for key, value in _porcelain(out).items()
               if not key.startswith(("note.", "fit_converged", "fit_collapsed"))]
    if code == 0:
        assert err == "" and all(math.isfinite(float(value)) for value in numbers)
    elif code == 5:
        assert err.startswith(f"analysis error: {', '.join(inputs)}: warm-up fit unavailable: ")
    else:
        assert out == ""
        files = (f"{ini}: ", f"{run / 'run.meta'}: ", f"{run / 'trace_000.csv'}, ")
        assert err.partition(" error: ")[2].startswith(files), err
        assert code == 4 or "[receiver] " in err or "[synth] voltage_scale " in err


@pytest.mark.parametrize("voltage_scale", [5e151, 1e80])
def test_analyze_run_refuses_overflowing_samples_with_one_package_error(voltage_scale):
    # In process these returned NaN levels after numpy RuntimeWarnings
    # (5e151) or raised OverflowError from the band variance (1e80).
    cfg = default_run_config()
    cfg = replace(cfg, n_shots=3, synth=replace(cfg.synth, voltage_scale=voltage_scale))
    sim = simulate_run(cfg)
    with pytest.raises(AnalysisError, match=r"^samples too large to analyse \(overflow "):
        analyze_run(sim.traces, cfg, sim.disconnect_time_s)


@pytest.mark.parametrize("body", [
    "[synth]\nvoltage_scale = 0\nn_shots = 4\n",
    _NOISELESS_BATHS + _IDEAL_RECEIVER + "[synth]\nn_shots = 4\n",
], ids=["no-voltage-scale", "noiseless-bench"])
def test_cli_simulate_refuses_a_run_without_noise(tmp_path, capsys, body):
    # Both simulated with exit 0, and `analyze` then exited 5 naming no
    # key or file.
    ini = _ini(tmp_path, body)
    run = tmp_path / "run"
    assert cli.main(["simulate", "--config", ini, "--out", str(run)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and not run.exists()
    assert err.startswith(
        f"config error: {ini}: non-positive sample variance at the cooled mode temperature "
        "= 0.0, sample variance at the ambient mode temperature = 0.0: the closed form has "
        "no positive value for [synth] voltage_scale; [receiver] lna_gain_linear, "
    )
    assert "; [mode] wall_temperature_k; [port.cooling] coupling, " in err


def test_cli_simulate_refuses_a_run_without_noise_before_the_draw(
    tmp_path, monkeypatch, capsys
):
    # The refusal came after simulate_run had drawn the whole ensemble.
    calls = []
    draw = synth.synthesize_shot_ensemble
    monkeypatch.setattr(
        synth, "synthesize_shot_ensemble", lambda *args: calls.append(args) or draw(*args)
    )
    ini = _ini(tmp_path, "[synth]\nvoltage_scale = 0\nn_shots = 4\n")
    run = tmp_path / "run"
    assert cli.main(["simulate", "--config", ini, "--out", str(run)]) == 2
    assert calls == [] and not run.exists()
    assert capsys.readouterr() == ("", (
        f"config error: {ini}: non-positive sample variance at the cooled mode temperature "
        "= 0.0, sample variance at the ambient mode temperature = 0.0: the closed form has "
        "no positive value for [synth] voltage_scale; [receiver] lna_gain_linear, "
        "lna_t_min_k, lna_noise_resistance_ohm, lna_gamma_opt_real, lna_gamma_opt_imag, "
        "reference_impedance_ohm, reference_temperature_k, post_stage_noise_k, "
        "cavity_reflection_real, cavity_reflection_imag, cavity_reflection_ref_real, "
        "cavity_reflection_ref_imag, image_noise_k; [mode] wall_temperature_k; "
        "[port.cooling] coupling, load_temperature_k, link_loss_db, link_temperature_k; "
        "[port.monitoring] coupling, load_temperature_k, link_loss_db, link_temperature_k\n"
    ))
    # A library run without noise is still drawn.
    cfg = default_run_config()
    simulate_run(replace(cfg, n_shots=2, synth=replace(cfg.synth, voltage_scale=0.0)))
    assert len(calls) == 1


def test_cli_analyze_names_the_files_of_samples_without_noise_power(tmp_path, capsys):
    # A library run without noise holds only its switch transients, which
    # the ensemble mean removes: no section has power to form a level from.
    cfg = default_run_config()
    cfg = replace(cfg, n_shots=4, synth=replace(cfg.synth, voltage_scale=0.0))
    run = tmp_path / "run"
    meta = tracefile.write_run(str(run), cfg, simulate_run(cfg))
    traces = [str(run / f"trace_{i:03d}.csv") for i in range(4)]
    assert cli.main(["analyze", *traces, "--porcelain"]) == 4
    assert capsys.readouterr() == ("", (
        f"data format error: {', '.join(traces)}: non-positive section power; "
        "cannot form a level ratio\n"
    ))
    assert cli.main(["analyze", meta, "--porcelain"]) == 2
    assert capsys.readouterr() == ("", (
        f"config error: {meta}: [synth] voltage_scale = 0.0 gives non-positive section "
        "power; cannot form a level ratio\n"
    ))


def _copies_of_one_shot(tmp_path, copies):
    """Paths of `copies` copies of shot 0 of a 2-shot default run."""
    cfg = replace(default_run_config(), n_shots=2)
    run = tmp_path / "source"
    tracefile.write_run(str(run), cfg, simulate_run(cfg))
    shot = (run / "trace_000.csv").read_bytes()
    paths = [tmp_path / f"copy_{i}.csv" for i in range(copies)]
    for path in paths:
        path.write_bytes(shot)
    return [str(path) for path in paths]


_IDENTICAL = (
    "identical shots: the cooled section's residual power is at the rounding floor "
    "of the shot mean; cannot form a level ratio"
)


@pytest.mark.parametrize("copies", [3, 5])
def test_cli_analyze_refuses_copies_of_one_shot(tmp_path, capsys, copies):
    # The mean of 3 or 5 equal samples rounds, so their residuals were
    # about 1e-33 of their power, and `analyze` exited 0 with a converged
    # fit and an inferred mode temperature.
    traces = _copies_of_one_shot(tmp_path, copies)
    assert cli.main(["analyze", *traces, "--porcelain"]) == 4
    assert capsys.readouterr() == ("", f"data format error: {', '.join(traces)}: {_IDENTICAL}\n")
    cfg = replace(default_run_config(), n_shots=copies)
    shots = tracefile.read_trace_ensemble(traces)
    with pytest.raises(AnalysisError, match=f"^{_IDENTICAL}$"):
        analyze_run(shots, cfg)


def test_cli_analyze_names_voltage_scale_for_a_sidecar_of_identical_shots(tmp_path, capsys):
    # Three copies: the mean of two or four equal values is exact, and
    # leaves no section power at all.
    ini = _ini(tmp_path, "[synth]\nn_shots = 3\n")
    run = tmp_path / "run"
    assert cli.main(["simulate", "--config", ini, "--out", str(run)]) == 0
    capsys.readouterr()
    meta = run / "run.meta"
    shot = (run / "trace_000.csv").read_bytes()
    for i in (1, 2):
        (run / f"trace_{i:03d}.csv").write_bytes(shot)
    assert cli.main(["analyze", str(meta), "--porcelain"]) == 2
    assert capsys.readouterr() == ("", (
        f"config error: {meta}: [synth] voltage_scale = 1.0 gives {_IDENTICAL}\n"
    ))


def test_cli_analyze_exits_5_when_no_mode_temperature_gives_the_level(tmp_path, capsys):
    # A gain of 1e-300 leaves the receiver output without the mode: the
    # floor is 0 dB and a measured -0.06 dB has no temperature.  `analyze`
    # printed t_mode_inferred_k=nan and exited 0.  The level shows no
    # cooling either, so the fit's note, which fails the run, comes first.
    ini = _ini(tmp_path, "[receiver]\nlna_gain_linear = 1e-300\n[synth]\nn_shots = 3\n")
    run = tmp_path / "run"
    assert cli.main(["simulate", "--config", ini, "--out", str(run)]) == 0
    capsys.readouterr()
    assert cli.main(["analyze", str(run / "run.meta"), "--porcelain"]) == 5
    out, err = capsys.readouterr()
    d = _porcelain(out)
    assert d["t_mode_inferred_k"] == "nan" and d["fit_converged"] == "true"
    assert d["note.0"].startswith("warm-up fit unavailable: no cooling detected ")
    assert d["note.1"].startswith("mode temperature inversion unavailable: reduction ")
    assert err == f"analysis error: {run / 'run.meta'}: {d['note.0']}\n"


def test_cli_deltap_curve_of_an_ideal_receiver_is_refused_before_any_row(tmp_path, capsys):
    # Its 0 K point is -inf dB; the curve wrote a `0.0,-inf` row after a
    # RuntimeWarning.
    ini = _ini(tmp_path, _IDEAL_RECEIVER + "[synth]\nn_shots = 40\n")
    run, emitted = tmp_path / "run", tmp_path / "emitted"
    assert cli.main(["simulate", "--config", ini, "--out", str(run)]) == 0
    capsys.readouterr()
    argv = ["analyze", str(run / "run.meta"), "--porcelain", "--out", str(emitted)]
    assert cli.main([*argv, "--emit-series", "--emit-deltap-curve"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and not emitted.exists()
    assert err.startswith(
        f"config error: {run / 'run.meta'}: non-finite deltap_db at t_mode_k 0.0 = -inf: "
        "the closed form has no finite value for [receiver] lna_gain_linear, "
    )


def _one_port_run(tmp_path, capsys, n_shots=20):
    ini = _ini(tmp_path, (
        "[port.cold]\ncoupling = 3.8\nload_temperature_k = 18.4\n"
        f"role = cooling\n\n[synth]\nn_shots = {n_shots}\nrng_seed = 7\n"
    ), "onep.ini")
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", ini, "--out", str(out),
                     "--porcelain"]) == 0
    capsys.readouterr()
    return ini, out / "run.meta"


def test_cli_analyze_takes_config_from_meta(tmp_path, capsys):
    ini, meta = _one_port_run(tmp_path, capsys)
    assert cli.main(["analyze", str(meta), "--porcelain"]) == 0
    d = _porcelain(capsys.readouterr().out)

    cfg = load_run_config(ini)
    sim = simulate_run(cfg)
    report = analyze_run(sim.traces, cfg, sim.disconnect_time_s)
    assert d["t_mode_inferred_k"] == repr(report.t_mode_inferred_k)
    assert d["t_ambient_reference_k"] == repr(report.t_ambient_reference_k)
    # the built-in two-port bench would give a different answer
    wrong = analyze_run(sim.traces, default_run_config(), sim.disconnect_time_s)
    assert wrong.t_mode_inferred_k != report.t_mode_inferred_k

    # the run's own file, or a change to [analysis] only, is accepted
    assert cli.main(["analyze", str(meta), "--config", ini, "--porcelain"]) == 0
    assert _porcelain(capsys.readouterr().out) == d
    wide = _ini(tmp_path, Path(ini).read_text() + (
        "\n[analysis]\npsd_segment_samples = 2048\n"
    ), "wide.ini")
    assert cli.main(["analyze", str(meta), "--config", wide, "--porcelain"]) == 0
    assert "deltap_band_db" not in _porcelain(capsys.readouterr().out)


def test_cli_analyze_rejects_config_that_differs_from_meta(tmp_path, capsys):
    # FILE is read over the run, so only what it spells can differ; a port
    # section replaces the run's ports, whose keys it then gives as none.
    ini = _ini(tmp_path, "[synth]\nn_shots = 2\n")
    meta = tmp_path / "run" / "run.meta"
    assert cli.main(["simulate", "--config", ini, "--out", str(meta.parent)]) == 0
    capsys.readouterr()
    for body, records, gives in [
        ("[synth]\nrng_seed = 7\n", "synth.rng_seed=20260817", "7"),
        ("[port.cold]\ncoupling = 3.8\nload_temperature_k = 18.4\nrole = cooling\n",
         "port.cooling.coupling=3.8", "(none)"),
    ]:
        other = _ini(tmp_path, body, "other.ini")
        assert cli.main(["analyze", str(meta), "--config", other]) == 2
        assert capsys.readouterr() == ("", (
            f"config error: {meta} records {records}, but --config gives "
            f"{gives}; only [analysis] keys may differ from the run\n"
        ))


@pytest.mark.parametrize("run, given, seed, changed", [
    ("[synth]\nn_shots = 20\n", "[analysis]\nwindow_samples = 30\n", ["--seed", "5"],
     {"window_samples": 30}),
    ("[synth]\nn_shots = 20\n[analysis]\nfit_window_s = 25e-6\n",
     "[synth]\nn_shots = 20\n[analysis]\nwindow_samples = 30\n", [], {"window_samples": 30}),
    ("[synth]\nn_shots = 20\n[analysis]\nband_low_hz = 1e6\nband_high_hz = 4e6\n",
     "[analysis]\nband_high_hz = 4.5e6\n", [], {"band_high_hz": 4.5e6}),
], ids=["analysis-only-file-on-a-seeded-run", "run-keeps-unspelled-analysis-keys",
        "valid-over-the-run-only"])
def test_cli_analyze_reads_config_over_the_run(tmp_path, capsys, run, given, seed, changed):
    # FILE was read over the bench defaults: the first was refused for the
    # default seed, the second fitted the default 30 us, not the run's
    # 25 us, and the third was refused for the default band_low_hz = 5e6.
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", _ini(tmp_path, run), "--out", str(out), *seed]) == 0
    capsys.readouterr()
    meta = str(out / "run.meta")
    argv = ["analyze", meta, "--config", _ini(tmp_path, given, "given.ini"), "--porcelain"]
    assert cli.main(argv) == 0
    d = _porcelain(capsys.readouterr().out)
    cfg, traces = tracefile.read_run(meta)
    report = analyze_run(traces, replace(cfg, analysis=replace(cfg.analysis, **changed)))
    assert {
        "deltap_direct_db": repr(report.deltap_direct.value_db),
        "deltap_band_db": repr(report.deltap_band.value_db),
        "fit_a1_db": repr(report.fit.a1_db),
        "warmup_time_s": repr(report.warmup_time_s),
        "t_mode_inferred_k": repr(report.t_mode_inferred_k),
    }.items() <= d.items()


def test_cli_analyze_names_the_sidecar_for_a_run_key_config_does_not_spell(
    tmp_path, capsys
):
    # The run's own fit window leaves no warm-up section; FILE sets only
    # another [analysis] key, so the refusal names the sidecar.
    ini = _ini(tmp_path, "[synth]\nn_shots = 4\n[analysis]\nfit_window_s = 1e-9\n")
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", ini, "--out", str(out)]) == 0
    capsys.readouterr()
    given = _ini(tmp_path, "[analysis]\nwindow_samples = 30\n", "given.ini")
    meta = out / "run.meta"
    assert cli.main(["analyze", str(meta), "--config", given]) == 2
    assert capsys.readouterr() == ("", (
        f"config error: {meta}: [analysis] fit_window_s = 1e-09 s leaves no warm-up section "
        "after the disconnect at 4e-05 s (the trace ends at 0.00015999999999999999 s)\n"
    ))


def test_cli_analyze_rejects_inconsistent_meta_config(tmp_path, capsys):
    _, meta = _one_port_run(tmp_path, capsys, n_shots=2)
    text = meta.read_text()

    meta.write_text(text.replace("mode.intrinsic_q=164000.0\n", ""))
    assert cli.main(["analyze", str(meta)]) == 4
    err = capsys.readouterr().err
    assert "missing key 'intrinsic_q'" in err and str(meta) in err

    meta.write_text(text.replace("mode.intrinsic_q=164000.0", "mode.intrinsic_q=1e5"))
    assert cli.main(["analyze", str(meta)]) == 4
    err = capsys.readouterr().err
    assert "config_digest" in err and str(meta) in err


def test_cli_simulate_byte_determinism(tmp_path, capsys):
    ini = _ini(tmp_path, "[synth]\nn_shots = 2\nrng_seed = 777\n")
    dirs = [tmp_path / n for n in ("a", "b", "c")]
    assert cli.main(["simulate", "--config", ini, "--out", str(dirs[0]),
                     "--porcelain"]) == 0
    assert cli.main(["simulate", "--config", ini, "--out", str(dirs[1]),
                     "--porcelain"]) == 0
    assert cli.main(["simulate", "--config", ini, "--seed", "778",
                     "--out", str(dirs[2]), "--porcelain"]) == 0
    capsys.readouterr()
    for name in ("trace_000.csv", "trace_001.csv", "trajectory.csv", "run.meta"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    assert (dirs[0] / "trace_000.csv").read_bytes() != (
        dirs[2] / "trace_000.csv"
    ).read_bytes()
    assert (dirs[0] / "run.meta").read_bytes() != (dirs[2] / "run.meta").read_bytes()


def test_cli_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cavitycool.cli", "--version"],
        capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0
    assert cavitycool.__version__ in proc.stdout
