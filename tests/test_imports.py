"""Which commands load numpy and scipy.

scipy's import costs about a second, far more than `steady`, `sweep` or
`analyze` compute.  The package imports it only inside the 1/f
synthesis that filters with it; the Welch PSD and the warm-up fit are
numpy.  numpy's import costs more than `steady` or `sweep` computes, so
the closed-form layer (`constants`, `errors`, `thermal`, `receiver`,
`config`, `textformat`, `cli` and the package root) imports it only
inside the functions that compute with arrays.  The pytest process has both loaded
already, so each command runs in a fresh interpreter.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src"

# Runs each argv list (JSON in argv[1]) through cli.main and prints, as its
# last line, every exit code and the modules of the package named in
# argv[2] loaded after each step.  `--help` and `--version` exit through
# SystemExit, whose code is recorded.
_PROBE = """
import contextlib, io, json, sys

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == sys.argv[2])

import cavitycool
import cavitycool.cli
steps = [["import", 0, loaded()]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cavitycool.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    steps.append([argv[0], code, loaded()])
print(json.dumps(steps))
"""


def _python(*args):
    """Last stdout line of `python *args`, with this checkout's src first
    on PYTHONPATH, parsed as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, check=False
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _fresh_run(*argvs, package="scipy"):
    """[command, exit code, modules of `package` loaded] after
    `import cavitycool` and after each argv in turn, all in one new
    interpreter."""
    return _python("-c", _PROBE, json.dumps(argvs), package)


def _small_run_ini(tmp_path, corner_hz):
    path = tmp_path / f"small-{corner_hz}.ini"
    path.write_text(
        f"[synth]\nn_shots = 4\none_over_f_corner_hz = {corner_hz}\n", encoding="utf-8"
    )
    return str(path)


def test_prediction_simulate_and_analyze_never_load_scipy(tmp_path):
    run = tmp_path / "run"
    steps = _fresh_run(
        ["steady", "--porcelain"],
        ["sweep", "--porcelain", "--out", str(tmp_path / "sweep")],
        ["simulate", "--config", _small_run_ini(tmp_path, 0),
         "--out", str(run), "--porcelain"],
        ["analyze", str(run / "run.meta"), "--porcelain"],
    )
    assert steps == [
        ["import", 0, []],
        ["steady", 0, []],
        ["sweep", 0, []],
        ["simulate", 0, []],
        ["analyze", 0, []],
    ]


def test_flicker_simulate_loads_scipy_signal_on_first_use(tmp_path):
    [_, [_, code, loaded]] = _fresh_run(
        ["simulate", "--config", _small_run_ini(tmp_path, 2e5),
         "--out", str(tmp_path / "flicker")]
    )
    assert code == 0
    assert "scipy.signal" in loaded


def _run_at_import(nodes):
    """Every statement among `nodes` and below them that runs when the
    module is imported: all but function bodies."""
    for node in nodes:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield node
            yield from _run_at_import(ast.iter_child_nodes(node))


def _import_lines(nodes, package="scipy"):
    for node in nodes:
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == package for name in names):
            yield node.lineno


def _module_level_imports(names, package):
    found = []
    for name in names:
        path = _SRC / "cavitycool" / f"{name}.py"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [
            f"{path.name}:{line}" for line in _import_lines(_run_at_import(tree.body), package)
        ]
    return found


def test_no_module_level_scipy_import():
    names = [path.stem for path in sorted((_SRC / "cavitycool").glob("*.py"))]
    found = _module_level_imports(names, "scipy")
    assert found == [], f"module-level scipy import at {', '.join(found)}"


def test_analysis_has_no_scipy_import():
    path = _SRC / "cavitycool" / "analysis.py"
    found = list(_import_lines(ast.walk(ast.parse(path.read_text(encoding="utf-8")))))
    assert found == [], f"scipy import in analysis.py at lines {found}"


_CLOSED_FORM = (
    "constants", "errors", "thermal", "receiver", "config", "textformat", "cli", "__init__",
)


def test_closed_form_layer_has_no_module_level_numpy_import():
    found = _module_level_imports(_CLOSED_FORM, "numpy")
    assert found == [], f"module-level numpy import at {', '.join(found)}"


def test_import_steady_sweep_version_and_help_load_no_numpy(tmp_path):
    steps = _fresh_run(
        ["steady", "--porcelain"],
        ["steady"],
        ["steady", "--config", _small_run_ini(tmp_path, 0), "--porcelain"],
        ["sweep", "--porcelain", "--out", str(tmp_path / "sweep")],
        ["sweep", "--out", str(tmp_path / "sweep"), "--port", "monitoring"],
        ["--version"],
        ["--help"],
        package="numpy",
    )
    assert steps == [
        ["import", 0, []],
        ["steady", 0, []],
        ["steady", 0, []],
        ["steady", 0, []],
        ["sweep", 0, []],
        ["sweep", 0, []],
        ["--version", 0, []],
        ["--help", 0, []],
    ]


def test_import_steady_sweep_and_version_load_no_hashlib(tmp_path):
    # Only `simulate` and `analyze` digest a configuration.
    steps = _fresh_run(
        ["steady", "--porcelain"],
        ["sweep", "--porcelain", "--out", str(tmp_path / "sweep")],
        ["--version"],
        package="hashlib",
    )
    assert steps == [
        ["import", 0, []],
        ["steady", 0, []],
        ["sweep", 0, []],
        ["--version", 0, []],
    ]


def test_array_commands_still_run_and_load_numpy(tmp_path):
    run = tmp_path / "run"
    steps = _fresh_run(
        ["steady", "--porcelain"],
        ["sweep", "--porcelain", "--out", str(tmp_path / "sweep")],
        ["simulate", "--config", _small_run_ini(tmp_path, 0),
         "--out", str(run), "--porcelain"],
        ["analyze", str(run / "run.meta"), "--porcelain"],
        package="numpy",
    )
    assert [step[:2] for step in steps] == [
        ["import", 0], ["steady", 0], ["sweep", 0], ["simulate", 0], ["analyze", 0],
    ]
    assert [("numpy" in step[2]) for step in steps] == [False, False, False, True, True]


# The names the package root exported when it imported every module
# eagerly, by the module it took each from, less those since removed.
_EXPORTED = {
    "analysis": [
        "BiExpFit", "DeltaPEstimate", "SpectralDensity", "band_averaged_deltap",
        "fit_biexponential", "segment_deltap",
    ],
    "config": [
        "AnalysisConfig", "ProtocolConfig", "RunConfig", "config_digest",
        "config_from_items", "config_items", "default_run_config",
        "load_run_config", "with_seed",
    ],
    "constants": ["BOLTZMANN_K", "IEEE_T0", "PLANCK_H"],
    "dynamics": [
        "CavityMode", "PhotonTrajectory", "ScheduleEvent",
        "SwitchSchedule", "build_protocol", "evolve_occupancy",
        "relaxation_rate", "relaxation_time",
    ],
    "errors": [
        "AnalysisError", "CavityCoolError", "ConfigError", "DataFormatError",
        "DomainError",
    ],
    "pipeline": ["AnalysisReport", "SimulationResult", "analyze_run", "simulate_run"],
    "receiver": [
        "LnaNoiseParameters", "ReceiverChain", "infer_mode_temperature",
        "noise_power_reduction_curve", "noise_power_reduction_db",
        "noise_power_reduction_floor_db", "system_output_noise_kelvin",
    ],
    "synth": [
        "NoiseTrace", "SynthConfig", "shot_seed", "switch_artifact_waveform",
        "synthesize_shot_ensemble", "synthesize_trace",
    ],
    "thermal": [
        "BathPort", "BathSet", "LossModel", "link_output_temperature",
        "mode_temperature", "photon_occupancy", "sweep_mode_temperature",
    ],
}
_SUBMODULES = [*_EXPORTED, "cli", "tracefile"]

# Prints [names missing from dir(), whether `dir` and an unknown name
# loaded numpy, the AttributeError text, names or submodules that resolve
# to another object than their module's].
_RESOLVE = """
import importlib, json, sys
import cavitycool

exported, submodules = json.loads(sys.argv[1])
listed = set(dir(cavitycool))
missing = sorted({*submodules, *(n for names in exported.values() for n in names)} - listed)
try:
    cavitycool.no_such_name
    error = None
except AttributeError as exc:
    error = str(exc)
numpy_before = "numpy" in sys.modules
wrong = [
    name for module, names in exported.items() for name in names
    if getattr(cavitycool, name) is not getattr(
        importlib.import_module(f"cavitycool.{module}"), name)
]
wrong += [
    name for name in submodules
    if getattr(cavitycool, name) is not importlib.import_module(f"cavitycool.{name}")
]
print(json.dumps([missing, numpy_before, error, wrong]))
"""


def test_package_root_resolves_every_former_export_and_submodule():
    missing, numpy_loaded, error, wrong = _python(
        "-c", _RESOLVE, json.dumps([_EXPORTED, _SUBMODULES])
    )
    assert missing == []
    assert not numpy_loaded
    assert error == "module 'cavitycool' has no attribute 'no_such_name'"
    assert wrong == []


def test_package_root_refuses_the_photon_scale_and_rk4_names():
    # The trajectory is evolved in kelvin, and the Runge-Kutta cross-check
    # is a test oracle, so these names left the package.  The whole-ensemble
    # reference stages, which `analyze_run` does not call, left its root and
    # are imported from `cavitycool.analysis`.
    import cavitycool

    reference_stages = (
        "subtract_mean_artifact", "extract_noise", "pooled_mean_square",
        "ensemble_spectral_density", "windowed_deltap_timeseries",
    )
    for name in ("evolve_occupancy_rk4", "steady_state_occupancy", "photons_per_kelvin",
                 *reference_stages):
        with pytest.raises(AttributeError):
            getattr(cavitycool, name)
    analysis = cavitycool.analysis
    assert all(callable(getattr(analysis, name)) for name in reference_stages)
