"""Round-trip properties and pinned digests of the on-disk formats."""

import contextlib
import csv
import hashlib
import io
import math
import os
import platform
import re
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cavitycool import cli, tracefile
from cavitycool.config import (
    _PORT_SCHEMA,
    _SCHEMA,
    ProtocolConfig,
    config_digest,
    config_from_items,
    config_items,
    default_run_config,
    load_run_config,
)
from cavitycool.dynamics import PhotonTrajectory
from cavitycool.errors import DataFormatError, replace
from cavitycool.receiver import (
    LnaNoiseParameters,
    ReceiverChain,
    infer_mode_temperature,
    noise_power_reduction_db,
)
from cavitycool.thermal import BathPort, BathSet, CavityMode, LossModel

_FEW = settings(max_examples=25, deadline=None)
_SRC = Path(__file__).resolve().parents[1] / "src"


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def _run_configs(draw):
    base = default_run_config()
    names = draw(st.lists(
        st.from_regex(r"[a-z][a-z0-9_]{0,7}", fullmatch=True),
        min_size=1, max_size=3, unique=True,
    ))
    models = [draw(st.sampled_from(LossModel)) for _ in names]
    # The linear loss model takes losses below 4.34 dB only.
    ports = tuple(
        BathPort(
            coupling=draw(_finite(0.0, 50.0)),
            load_temperature_k=draw(_finite(0.0, 400.0)),
            link_loss_db=draw(_finite(0.0, 4.3 if model is LossModel.LINEAR else 10.0)),
            link_temperature_k=draw(_finite(0.0, 400.0)),
            loss_model=model,
            name=name,
            role=draw(st.sampled_from(("cooling", "monitoring"))),
        )
        for name, model in zip(names, models)
    )
    trace = draw(_finite(10e-6, 1e-3))
    cool = draw(_finite(0.0, trace / 2))
    rx = base.receiver
    return replace(
        base,
        mode=CavityMode(draw(_finite(1e6, 1e11)), draw(_finite(1.0, 1e7))),
        baths=BathSet(draw(_finite(0.0, 400.0)), ports),
        receiver=replace(
            rx,
            lna=replace(rx.lna, gamma_opt=complex(
                draw(_finite(-0.6, 0.6)), draw(_finite(-0.6, 0.6))
            )),
            lna_gain_linear=draw(_finite(1.0, 1e4)),
            cavity_reflection_reference=complex(draw(_finite(-0.6, 0.6)), 0.0),
            image_noise_k=draw(_finite(0.0, 100.0)),
        ),
        protocol=ProtocolConfig(cool, trace),
        synth=replace(
            base.synth,
            sample_interval_s=draw(_finite(1e-10, trace / 10)),
            rng_seed=draw(st.integers(0, 2 ** 64 - 1)),
        ),
        n_shots=draw(st.integers(1, 10 ** 6)),
        analysis=replace(
            base.analysis,
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


def _formula_trace_bytes(times, volts, header=tracefile.TRACE_HEADER):
    """A grid file's bytes by the per-sample formula: the header line,
    then one `t!r,v!r` line per sample."""
    lines = "".join(f"{t!r},{v!r}\n" for t, v in zip(times, volts))
    return (",".join(header) + "\n" + lines).encode("utf-8")


# Any float, and the spellings repr switches between: signed zero, the
# least subnormal, the exponent switches at 1e16 and 1e-4, 1e22 and nan.
_WRITTEN = st.floats() | st.sampled_from(
    [-0.0, 5e-324, 1e16, -1e16, 9999999999999998.0, 1e-5, 1e-4, 9.999999999999999e-05,
     1e22, math.nan]
)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 12).flatmap(lambda n: st.tuples(
    st.lists(_WRITTEN, min_size=n, max_size=n),
    st.lists(_WRITTEN, min_size=n, max_size=n),
)))
@example(([0.0, 1e-5, 1e-4, 1e16], [-0.0, 5e-324, -1e16, 1e22]))
@example((np.arange(5) * 1e-7, [math.nan, 1e-4, 1e-5, -0.0, 5e-324]))
def test_trace_writer_matches_the_per_sample_formula(drawn):
    times, volts = drawn
    times = np.asarray(times, dtype=float)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        # Twice on one grid: the second file reuses the grid's line starts.
        for row in (volts, volts[::-1]):
            tracefile.write_trace_csv(str(path), times, np.array(row))
            assert path.read_bytes() == _formula_trace_bytes(times.tolist(), row)


# Voltages as float64 bit patterns: repr's text around both edges of the
# range where orjson prints the same text (1e-4 and 1e16, each +-1 ulp),
# subnormals, signed zeros, NaN and +-inf.
_EDGE_VOLTS = [
    math.nextafter(edge, toward) * sign
    for edge in (1e-4, 1e16)
    for toward in (0.0, edge, math.inf)
    for sign in (1.0, -1.0)
] + [5e-324, -5e-324, 2.225073858507201e-308, 0.0, -0.0, math.nan, math.inf, -math.inf]


# The writer takes orjson's text only inside the range, so rows mix in
# such voltages of either sign beside the patched ones.
_IN_RANGE = st.floats(1e-4, 1e16, exclude_max=True).flatmap(lambda v: st.sampled_from([v, -v]))


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])
    | st.sampled_from(_EDGE_VOLTS)
    | _IN_RANGE,
    max_size=40,
))
@example([])
@example(_EDGE_VOLTS)
@example(_EDGE_VOLTS + [1.5, -2.25e-3, 6.02e15] * len(_EDGE_VOLTS))
@example([0.0, 5e-324, 1e-5, 1e16, math.nan, math.inf])
def test_trace_writer_prints_each_voltage_as_its_repr(volts):
    # The trajectory goes through the same writer, with the drawn values
    # as its temperatures.
    times = np.arange(len(volts)) * 5e-8
    values = np.array(volts, dtype=float)
    writers = [
        (tracefile.TRACE_HEADER, lambda path: tracefile.write_trace_csv(path, times, values)),
        (tracefile.TRAJECTORY_HEADER, lambda path: tracefile.write_trajectory_csv(
            path, PhotonTrajectory(times, values))),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "grid.csv"
        for header, write in writers:
            write(str(path))
            assert path.read_bytes() == _formula_trace_bytes(times.tolist(), volts, header)


@pytest.mark.parametrize("n_volts", [0, 2, 4])
def test_trace_writer_refuses_a_voltage_count_off_the_grid(tmp_path, n_volts):
    path = tmp_path / "trace.csv"
    with pytest.raises(ValueError):
        tracefile.write_trace_csv(str(path), np.arange(3) * 1e-7, np.zeros(n_volts))
    assert not path.exists()


_FIELDS = st.sampled_from([
    "1.5", "-2.0", " 3 ", "1_0", "nan", "-inf", '"4.0"', "x", "", "\u0661",
    "-0", "0", "1.", "+1", "01", "1e400", "\t2", "\u00e9",
])


def _read_outcome(read, path):
    try:
        trace = read(path)
    except DataFormatError as exc:
        return str(exc)
    # Bytes, so that a zero read with the wrong sign differs.
    return trace.times_s.tobytes(), trace.voltages_v.tobytes()


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(st.tuples(_FIELDS, _FIELDS, st.integers(0, 11)), max_size=6),
    newline=st.sampled_from(["\n", "\r\n"]),
    final=st.booleans(),
)
# Whole plain files that orjson refuses, so the fast path hands each one to
# the line reader: quirk 4 is none, and quirk 3 keeps the drawn time.
@example(rows=[("0", "1.", 4), ("0", "+1", 4), ("0", "1.", 4)], newline="\n", final=True)
@example(rows=[("0", " 3 ", 4), ("0", "1_0", 4)], newline="\n", final=True)
@example(rows=[("0", "nan", 4), ("0", "nan", 4)], newline="\n", final=True)
@example(rows=[("-0", "1.5", 3), ("0", "-2.0", 4)], newline="\n", final=True)
# A -0 that ends the JSON text, and a -0 time behind a zero voltage.
@example(rows=[("0", "1.5", 4), ("0", "-0", 4)], newline="\n", final=True)
@example(rows=[("0", "1.5", 4), ("0", "0", 4), ("-0", "2.0", 3)], newline="\n", final=True)
def test_trace_reader_fast_path_matches_line_reader(rows, newline, final):
    # Rows on the grid k * 1e-7, each with a 1 in 3 chance of a quirk: a
    # blank line before it, a wrong separator, or an off-grid time.
    lines = ["time_s,voltage_v"]
    for k, (time, volt, quirk) in enumerate(rows):
        lines += [""] * (quirk == 0)
        time = time if quirk == 3 else repr(k * 1e-7)
        lines.append(time + {1: ",,", 2: ";"}.get(quirk, ",") + volt)
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "trace.csv")
        Path(path).write_bytes((newline.join(lines) + newline * final).encode("utf-8"))
        assert _read_outcome(tracefile.read_trace_csv, path) == _read_outcome(
            tracefile._read_trace_lines, path
        )


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
        "e5feb55dd367a0a42cef7227daa15901304ec3fd1b6fcb8c763defc3a5099c5d"
    )


def test_readme_quick_config_digest_pinned(tmp_path):
    path = tmp_path / "quick.ini"
    path.write_text("[synth]\nn_shots = 40\nrng_seed = 7\n", encoding="utf-8")
    assert config_digest(load_run_config(str(path))) == (
        "8898184e3525a3a4d6ef927dd554dfcaba9f5121352b7795019a252ba8f20590"
    )


# Pinned outputs of README's quick run (`quick.ini`: 40 shots, seed 7):
# every written byte and every printed estimate, so a refactor that moves
# one of them fails here rather than only against itself.
_QUICK_SHA256 = {
    "trace_000.csv": "254acb46d48b3d2cf016ac40b875c859c241e08bdafabff81d14416398ada80b",
    "trajectory.csv": "bdeb0a7278e0a9167ea51b422aebfeb722f1bbf058c042d707ed20e97b4b1f48",
    "run.meta": "4011fdb466901fad309c58e9e3586c4dbffd49ff62ecd148da365bc49fb36333",
}
_QUICK_TRACES_SHA256 = "9413555c30822b305f2d5d58fd17de44bb23f92d3bafe36ef4f395fca6edf67d"
_QUICK_PORCELAIN = """\
n_shots=40
deltap_direct_db=-3.479989475996491
deltap_direct_stderr_db=0.05606717652536908
deltap_band_db=-3.5036712938704784
deltap_band_stderr_db=0.08412274445288033
fit_a1_db=-4.519914610382505
fit_a2_db=0.0
fit_tau1_s=7.702587223608242e-06
fit_tau2_s=7.702587223608242e-06
fit_residual_rms_db=0.08890139041883006
fit_converged=true
fit_collapsed_single=true
warmup_time_s=7.702587223608242e-06
warmup_stderr_s=6.428592664385196e-07
fit_nfev=110
depth_fit_db=-4.519914610382505
depth_fit_stderr_db=0.6005721950277795
t_mode_inferred_k=108.03061478120544
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


# The same run in human form, with every `--emit-*` table; `OUT` stands for
# the `--out` directory in the printed paths.
_QUICK_SIMULATE_HUMAN = """\
wrote 40 traces and trajectory.csv to OUT
run sidecar: OUT/run.meta  (config digest 8898184e3525)
"""
_QUICK_ANALYZE_HUMAN_SHA256 = "b27d8d438992a9c2da30e21b3f48934400e72ab7fad10d1ad53661b0546f0d58"
_QUICK_TABLES_SHA256 = {
    "warmup_series.csv": "7849ab64bf65eadbfa22e262e20b13cc660c399cd066e8b7a8fcf16ab6c86dfb",
    "psd_cold.csv": "b6638da5fcd754366687c9a14fa75bd5bea3b0566233ea8b6ebdf750976ad837",
    "psd_ambient.csv": "ede6110ed6d754dd5f590249c35c2791744198ccf1b0e369a1283205c85a0656",
    "deltap_curve.csv": "1c3d1728eae624585a4e8dab41c8040e8fbe74489629142882b0d91f3152819b",
}


def test_readme_quick_run_human_outputs_and_tables_pinned(tmp_path, capsys):
    ini = tmp_path / "quick.ini"
    ini.write_text("[synth]\nn_shots = 40\nrng_seed = 7\n", encoding="utf-8")
    out, emit = tmp_path / "run", tmp_path / "emit"
    assert cli.main(["simulate", "--config", str(ini), "--out", str(out)]) == 0
    assert capsys.readouterr().out.replace(str(out), "OUT") == _QUICK_SIMULATE_HUMAN
    assert cli.main(["analyze", str(out / "run.meta"), "--out", str(emit), "--emit-series",
                     "--emit-psd", "--emit-deltap-curve"]) == 0
    human = capsys.readouterr().out.replace(str(emit), "OUT").encode("utf-8")
    assert hashlib.sha256(human).hexdigest() == _QUICK_ANALYZE_HUMAN_SHA256
    assert sorted(p.name for p in emit.iterdir()) == sorted(_QUICK_TABLES_SHA256)
    for name, digest in _QUICK_TABLES_SHA256.items():
        assert hashlib.sha256((emit / name).read_bytes()).hexdigest() == digest, name


# Pinned closed-form outputs of the default configuration: `steady` in both
# forms, the default 25 x 25 `sweep.csv` and its human line.
_STEADY_PORCELAIN = """\
t_mode_cooled_k=108.21747080459033
occupancy_cooled=1555.1304237965653
t_mode_ambient_k=256.27905243008615
occupancy_ambient=3683.5214125981342
deltap_predicted_db=-3.4732703062661936
weight_intrinsic=0.1724137931034483
port.cooling.delivered_k=30.29032258064516
port.cooling.weight=0.6551724137931034
port.monitoring.delivered_k=222.5581048601723
port.monitoring.weight=0.1724137931034483
"""
_STEADY_HUMAN_SHA256 = "46f7f06626e3f1910be16599a02c5531a81864ded8dcadda1a8da915358aa443"
_SWEEP_SHA256 = "3239172346eb9873a7dff481f230eb1eba907b35c12a40d45b73f6307bf2057d"


def test_default_steady_and_sweep_outputs_pinned(tmp_path, capsys):
    assert cli.main(["steady", "--porcelain"]) == 0
    assert capsys.readouterr().out == _STEADY_PORCELAIN
    assert cli.main(["steady"]) == 0
    human = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(human).hexdigest() == _STEADY_HUMAN_SHA256
    assert cli.main(["sweep", "--porcelain", "--out", str(tmp_path)]) == 0
    assert "rows=625\n" in capsys.readouterr().out
    assert hashlib.sha256((tmp_path / "sweep.csv").read_bytes()).hexdigest() == _SWEEP_SHA256
    assert cli.main(["sweep", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.replace(str(tmp_path), "OUT") == (
        "wrote 625 grid points to OUT/sweep.csv\n"
    )


def _portability_masks():
    """Each (variable, value) that steers a child off this host's fastest
    code path: numpy's SIMD dispatch down to its baseline, and glibc's
    AVX2 and FMA variants (glibc only)."""
    from numpy._core._multiarray_umath import __cpu_dispatch__

    glibc = platform.libc_ver()[0] == "glibc"
    return [
        pytest.param(
            ("NPY_DISABLE_CPU_FEATURES", " ".join(__cpu_dispatch__)), id="numpy-baseline"
        ),
        pytest.param(
            ("GLIBC_TUNABLES", "glibc.cpu.hwcaps=-AVX2,-FMA,-AVX512F"), id="glibc-no-fma",
            marks=pytest.mark.skipif(not glibc, reason="glibc hwcaps need glibc"),
        ),
    ]


@pytest.mark.parametrize("mask", _portability_masks())
def test_steady_and_sweep_bytes_hold_under_cpu_masks(tmp_path, mask):
    variable, value = mask
    env = dict(os.environ, **{variable: value})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_SRC), env.get("PYTHONPATH")]))
    cli_argv = [sys.executable, "-m", "cavitycool.cli"]
    steady = subprocess.run(
        [*cli_argv, "steady", "--porcelain"], capture_output=True, text=True, env=env
    )
    assert (steady.returncode, steady.stderr) == (0, "")
    assert steady.stdout == _STEADY_PORCELAIN
    sweep = subprocess.run(
        [*cli_argv, "sweep", "--porcelain", "--out", str(tmp_path)],
        capture_output=True, text=True, env=env,
    )
    assert (sweep.returncode, sweep.stderr) == (0, "")
    assert hashlib.sha256((tmp_path / "sweep.csv").read_bytes()).hexdigest() == _SWEEP_SHA256
    # The traces move under the numpy mask, but the level-vs-temperature
    # curve is closed form, so it must not.
    ini = tmp_path / "two.ini"
    ini.write_text("[synth]\nn_shots = 2\n", encoding="utf-8")
    run = tmp_path / "run"
    for argv in (["simulate", "--config", str(ini), "--out", str(run)],
                 ["analyze", str(run / "run.meta"), "--emit-deltap-curve", "--out", str(run)]):
        proc = subprocess.run([*cli_argv, *argv], capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stderr) == (0, "")
    curve = hashlib.sha256((run / "deltap_curve.csv").read_bytes()).hexdigest()
    assert curve == _QUICK_TABLES_SHA256["deltap_curve.csv"]


def _subnormal_or_finite():
    return st.one_of(
        _finite(-1e300, 1e300),
        st.floats(-1e-300, 1e-300, allow_subnormal=True),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310]),
    )


@_FEW
@given(_subnormal_or_finite(), _subnormal_or_finite(), st.integers(1, 40))
@example(0.0, 1.5e-323, 10)  # the step underflows to 0
@example(-0.0, -0.0, 1)
@example(2.0, 290.0, 25)
def test_linear_axis_is_numpy_linspace_bit_for_bit(a, b, num):
    for start, stop in ((a, b), (a, a), (a, a + 5e-324 * num)):
        expected = np.linspace(start, stop, num).tolist()
        got = cli._linear_axis(start, stop, num)
        assert [v.hex() for v in got] == [v.hex() for v in expected], (start, stop, num)


@_FEW
@given(_finite(1e-6, 1e6), _finite(1e-6, 1e6), st.integers(1, 40))
def test_geometric_axis_is_powers_of_the_linear_log_axis(a, b, num):
    start, stop = min(a, b), max(a, b)
    expected = [
        10.0**y for y in np.linspace(math.log10(start), math.log10(stop), num).tolist()
    ]
    expected[0] = start
    if num > 1:
        expected[-1] = stop
    got = cli._geometric_axis(start, stop, num)
    assert [v.hex() for v in got] == [v.hex() for v in expected]
    reference = np.geomspace(start, stop, num).tolist()
    assert all(math.isclose(g, r, rel_tol=1e-13) for g, r in zip(got, reference))


def test_default_coupling_axis_holds_the_correctly_rounded_powers():
    axis = cli._geometric_axis(0.1, 100.0, 25)
    assert len(axis) == 25 and axis[0] == 0.1 and axis[-1] == 100.0
    # 10**-0.125 and 10**0.75, correctly rounded.
    assert axis[7] == 0.7498942093324559
    assert axis[14] == 5.623413251903491


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 2
    assert all(math.isfinite(float(value)) for value in printed)


# Every float key of a run configuration file, the default ports' included.
_FLOAT_KEYS = [f"{section}.{key}" for section, key, kind, _ in _SCHEMA if kind is float] + [
    f"port.{port.name}.{key}"
    for port in default_run_config().baths.ports
    for key, kind, _ in _PORT_SCHEMA
    if kind is float
]
_EXTREMES = (5e-324, 1e-300, 1e300)


def _cli(argv):
    """(exit code, stdout, stderr) of one in-process command, with every
    warning raised as an error."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_finite_or_named(argv, files, where):
    """Run `argv`: exit 0 prints only finite numbers and writes only finite
    CSV cells (the CSVs of `files`, a directory); exit 2 or 4 names a key or
    a file under `where`; exit 5, which only `analyze` gives, names its one
    input, `argv[1]`, and carries a printed note, the estimate that did not
    come and why."""
    code, out, err = _cli(argv)
    values = [line.partition("=")[2] for line in out.splitlines()]
    if code == 0:
        assert all(math.isfinite(float(v)) for v in values if _is_float(v)), (argv, out)
        for path in Path(files).glob("*.csv"):
            with open(path, newline="", encoding="utf-8") as fh:
                cells = [cell for row in list(csv.reader(fh))[1:] for cell in row]
            assert all(math.isfinite(float(cell)) for cell in cells), (argv, path)
    elif code == 5:
        notes = [v for line, v in zip(out.splitlines(), values) if line.startswith("note.")]
        assert err in [f"analysis error: {argv[1]}: {note}\n" for note in notes], (argv, err)
    else:
        assert code in (2, 4), (argv, code, err)
        assert re.search(r"\[[\w.]+\] \w", err) or where in err, (argv, err)
    return code


def _is_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_FLOAT_KEYS), st.sampled_from(_EXTREMES), st.sampled_from((2, 3)))
@example("protocol.trace_length_s", 1e300, 3)  # numpy's grid limit: exit 1
@example("synth.sample_interval_s", 1e-300, 3)
@example("mode.frequency_hz", 5e-324, 3)  # a relaxation rate of 0: a RuntimeWarning
@example("receiver.lna_gain_linear", 1e-300, 3)  # t_mode_inferred_k=nan, exit 0
@example("synth.artifact_duration_s", 1e300, 3)  # a transient too long to allocate
@example("receiver.reference_impedance_ohm", 5e-324, 2)  # inf samples, exit 0
@example("synth.voltage_scale", 1e300, 3)
def test_every_command_exits_finite_or_named_at_an_extreme_key(key, value, n_shots):
    # A small run (2 or 3 shots of the default 3,201 samples) with one float
    # key pushed to an in-bound extreme, through every command in process:
    # no traceback and no RuntimeWarning, and each exit is finite or named.
    items = dict(config_items(default_run_config()))
    items.update({key: repr(value), "synth.n_shots": str(n_shots)})
    with tempfile.TemporaryDirectory() as tmp:
        ini = os.path.join(tmp, "extreme.ini")
        Path(ini).write_text(_as_ini(items.items()), encoding="utf-8")
        run, emitted, swept = (os.path.join(tmp, name) for name in ("run", "emitted", "swept"))
        given_config = ["--config", ini, "--porcelain"]
        _assert_finite_or_named(["steady", *given_config], tmp, tmp)
        _assert_finite_or_named(["sweep", *given_config, "--out", swept], swept, tmp)
        if _assert_finite_or_named(["simulate", *given_config, "--out", run], run, tmp) == 0:
            _assert_finite_or_named(
                ["analyze", os.path.join(run, "run.meta"), "--porcelain", "--out", emitted,
                 "--emit-series", "--emit-psd", "--emit-deltap-curve"],
                emitted, tmp,
            )
