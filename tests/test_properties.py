"""Round-trip properties and pinned digests of the on-disk formats."""

import hashlib
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from cavitycool import cli, tracefile
from cavitycool.config import (
    ProtocolConfig,
    config_digest,
    config_from_items,
    config_items,
    default_run_config,
    load_run_config,
)
from cavitycool.receiver import (
    LnaNoiseParameters,
    ReceiverChain,
    infer_mode_temperature,
    noise_power_reduction_db,
)
from cavitycool.thermal import BathPort, BathSet, CavityMode, LossModel

_FEW = settings(max_examples=25, deadline=None)


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def _run_configs(draw):
    base = default_run_config()
    names = draw(st.lists(
        st.from_regex(r"[a-z][a-z0-9_]{0,7}", fullmatch=True),
        min_size=1, max_size=3, unique=True,
    ))
    ports = tuple(
        BathPort(
            coupling=draw(_finite(0.0, 50.0)),
            load_temperature_k=draw(_finite(0.0, 400.0)),
            link_loss_db=draw(_finite(0.0, 10.0)),
            link_temperature_k=draw(_finite(0.0, 400.0)),
            loss_model=draw(st.sampled_from(LossModel)),
            name=name,
        )
        for name in names
    )
    roles = tuple(
        draw(st.sampled_from(("cooling", "monitoring"))) for _ in names
    )
    trace = draw(_finite(10e-6, 1e-3))
    cool = draw(_finite(0.0, trace / 2))
    rx = base.receiver
    return replace(
        base,
        mode=CavityMode(draw(_finite(1e6, 1e11)), draw(_finite(1.0, 1e7))),
        baths=BathSet(draw(_finite(0.0, 400.0)), ports),
        port_roles=roles,
        receiver=replace(
            rx,
            lna=replace(rx.lna, gamma_opt=complex(
                draw(_finite(-0.6, 0.6)), draw(_finite(-0.6, 0.6))
            )),
            lna_gain_linear=draw(_finite(1.0, 1e4)),
            cavity_reflection_reference=complex(draw(_finite(-0.6, 0.6)), 0.0),
            image_noise_k=draw(_finite(0.0, 100.0)),
        ),
        protocol=ProtocolConfig(cool, draw(_finite(0.0, trace / 2)), trace),
        synth=replace(
            base.synth,
            sample_interval_s=draw(_finite(1e-10, trace / 10)),
            rng_seed=draw(st.integers(0, 2 ** 64 - 1)),
        ),
        n_shots=draw(st.integers(1, 10 ** 6)),
        analysis=replace(
            base.analysis,
            boxcar_width_s=draw(_finite(1e-9, 1e-5)),
            window_samples=draw(st.integers(1, 10 ** 4)),
        ),
    )


def _as_ini(items):
    sections = {}
    for name, value in items:
        section, _, key = name.rpartition(".")
        sections.setdefault(section, []).append(f"{key} = {value}")
    return "".join(
        f"[{section}]\n" + "\n".join(lines) + "\n\n"
        for section, lines in sections.items()
    )


@_FEW
@given(_run_configs())
def test_config_dump_round_trips_through_ini_and_meta(cfg):
    digest = config_digest(cfg)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dump.ini"
        path.write_text(_as_ini(config_items(cfg)), encoding="utf-8")
        loaded = load_run_config(str(path))
    assert loaded == cfg
    assert config_digest(loaded) == digest
    rebuilt = config_from_items(dict(config_items(cfg)))
    assert rebuilt == cfg
    assert config_digest(rebuilt) == digest


@_FEW
@given(st.integers(2, 40).flatmap(lambda n: st.tuples(
    _finite(1e-12, 1e-3),
    st.lists(_finite(-1e300, 1e300), min_size=n, max_size=n),
)))
def test_trace_csv_round_trip_is_exact(drawn):
    dt, volts = drawn
    times = np.arange(len(volts)) * dt
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "trace.csv")
        tracefile.write_trace_csv(path, times, np.array(volts))
        back = tracefile.read_trace_csv(path)
    assert np.array_equal(back.times_s, times)
    assert np.array_equal(back.voltages_v, [volts])


@_FEW
@given(
    gain=_finite(1.0, 1e4),
    post=_finite(0.0, 1e4),
    t_min=_finite(0.0, 100.0),
    reflection=_finite(-0.6, 0.6),
    t_ambient=_finite(1.0, 1000.0),
    fraction=_finite(0.0, 1.0),
)
def test_inversion_recovers_mode_temperature(
    gain, post, t_min, reflection, t_ambient, fraction
):
    chain = ReceiverChain(
        lna=LnaNoiseParameters(t_min, 2.0, 0.073 + 0.125j),
        lna_gain_linear=gain,
        post_stage_noise_k=post,
        cavity_reflection=complex(reflection, 0.0),
        cavity_reflection_reference=complex(reflection, 0.0),
    )
    t_mode = fraction * t_ambient
    deltap = noise_power_reduction_db(chain, t_mode, t_ambient)
    recovered = infer_mode_temperature(chain, deltap, t_ambient)
    assert math.isclose(recovered, t_mode, rel_tol=1e-9, abs_tol=1e-9 * t_ambient)


def test_default_config_digest_pinned():
    assert config_digest(default_run_config()) == (
        "ae3dd09d0437c1eb771fb9288b02613adc5675f2b8e020fe30696523294be4fd"
    )


def test_readme_quick_config_digest_pinned(tmp_path):
    path = tmp_path / "quick.ini"
    path.write_text("[synth]\nn_shots = 40\nrng_seed = 7\n", encoding="utf-8")
    assert config_digest(load_run_config(str(path))) == (
        "9bc383623a0468d748f7cc7ba02d70fb92e4fa327b47700f695908cc54fde8ce"
    )


# Pinned outputs of README's quick run (`quick.ini`: 40 shots, seed 7):
# every written byte and every printed estimate, so a refactor that moves
# one of them fails here rather than only against itself.
_QUICK_SHA256 = {
    "trace_000.csv": "9494e167a07d4cce531f835a0716529d1432685e4021a2b4539f86761b2b6a02",
    "trajectory.csv": "3634b6f812f28af1f2ea4af4dc787f644efab61d2949213fe78d4a3b3c1cb79f",
    "run.meta": "36bb1251a78e33b92df8754dc9167490a0498eaf5ad95ea3813bf1405e009280",
}
_QUICK_TRACES_SHA256 = "13c61b48b1a5123998e42e0de15ef5d49b24dcf316ab89ad88554fdb285026cf"
_QUICK_PORCELAIN = """\
n_shots=40
deltap_direct_db=-3.479301709379156
deltap_direct_stderr_db=0.05606717652536908
deltap_band_db=-3.5278900029247624
deltap_band_stderr_db=0.16519464340103737
fit_a1_db=-4.519119784700903
fit_a2_db=0.0
fit_tau1_s=7.702392895261349e-06
fit_tau2_s=7.702392895261349e-06
fit_residual_rms_db=0.08890105129275978
fit_converged=true
fit_collapsed_single=true
warmup_time_s=7.702392895261349e-06
warmup_stderr_s=6.429346318640467e-07
depth_fit_db=-4.519119784700903
depth_fit_stderr_db=0.6005057886385882
t_mode_inferred_k=108.04972787405657
t_ambient_reference_k=256.27905243008615
"""


def test_readme_quick_run_outputs_pinned(tmp_path, capsys):
    ini = tmp_path / "quick.ini"
    ini.write_text("[synth]\nn_shots = 40\nrng_seed = 7\n", encoding="utf-8")
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(ini), "--out", str(out),
                     "--porcelain"]) == 0
    capsys.readouterr()
    for name, digest in _QUICK_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
    traces = hashlib.sha256()
    for i in range(40):
        traces.update((out / f"trace_{i:03d}.csv").read_bytes())
    assert traces.hexdigest() == _QUICK_TRACES_SHA256
    assert cli.main(["analyze", str(out / "run.meta"), "--porcelain"]) == 0
    assert capsys.readouterr().out == _QUICK_PORCELAIN
