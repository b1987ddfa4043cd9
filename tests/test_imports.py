"""Which commands load numpy, scipy and orjson.

scipy's import costs about a second, far more than `steady`, `sweep` or
`analyze` compute.  The package imports it only inside the 1/f
synthesis that filters with it; the Welch PSD and the warm-up fit are
numpy.  numpy's import costs more than `steady` or `sweep` computes, so
the closed-form layer (`errors`, `thermal`, `receiver`, `config`,
`textformat`, `cli` and the package root) imports it only
inside the functions that compute with arrays.  orjson converts the
floats of trace files, so only `tracefile` imports it.  The pytest
process has all three loaded already, so each command runs in a fresh
interpreter.  The source is also parsed for module-level private names
that nothing in the package uses.
"""

import ast
import inspect
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
    "errors", "thermal", "receiver", "config", "textformat", "cli", "__init__",
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


def test_only_tracefile_imports_orjson():
    found = []
    for path in sorted((_SRC / "cavitycool").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{line}" for line in _import_lines(ast.walk(tree), "orjson")]
    assert [name.split(":")[0] for name in found] == ["tracefile.py"]


def test_import_steady_sweep_version_and_help_load_no_orjson(tmp_path):
    run = tmp_path / "run"
    steps = _fresh_run(
        ["steady", "--porcelain"],
        ["sweep", "--porcelain", "--out", str(tmp_path / "sweep")],
        ["--version"],
        ["--help"],
        ["simulate", "--config", _small_run_ini(tmp_path, 0),
         "--out", str(run), "--porcelain"],
        package="orjson",
    )
    assert [step[:2] for step in steps] == [
        ["import", 0], ["steady", 0], ["sweep", 0], ["--version", 0], ["--help", 0],
        ["simulate", 0],
    ]
    assert [("orjson" in step[2]) for step in steps] == [False] * 5 + [True]


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


_SUBMODULES = [
    "analysis", "cli", "config", "dynamics", "errors", "pipeline",
    "receiver", "synth", "textformat", "thermal", "tracefile",
]

# Prints [submodules missing from dir(), the AttributeError text of each
# refused name, whether numpy was loaded by then, submodules that resolve
# to another object than the imported module, names the root binds].
_RESOLVE = """
import importlib, json, sys
import cavitycool

submodules, refused = json.loads(sys.argv[1])
missing = sorted(set(submodules) - set(dir(cavitycool)))
errors = []
for name in refused:
    try:
        getattr(cavitycool, name)
        errors.append(None)
    except AttributeError as exc:
        errors.append(str(exc))
for name in ["config", "errors", "receiver", "textformat", "thermal"]:
    getattr(cavitycool, name)
numpy_loaded = "numpy" in sys.modules
wrong = [
    name for name in submodules
    if getattr(cavitycool, name) is not importlib.import_module(f"cavitycool.{name}")
]
bound = sorted(set(vars(cavitycool)) & set(refused))
print(json.dumps([missing, errors, numpy_loaded, wrong, bound]))
"""


def test_package_root_resolves_each_submodule_and_refuses_every_other_name():
    # Every public name is imported from the module that defines it; the
    # root binds none of them, so a wrapper put on a module attribute
    # cannot be cached here.
    refused = ["no_such_name", "simulate_run", "analyze_run", "mode_temperature",
               "default_run_config", "CavityCoolError", "BOLTZMANN_K"]
    missing, errors, numpy_loaded, wrong, bound = _python(
        "-c", _RESOLVE, json.dumps([_SUBMODULES, refused])
    )
    assert missing == []
    assert errors == [f"module 'cavitycool' has no attribute {name!r}" for name in refused]
    assert not numpy_loaded
    assert wrong == []
    assert bound == []


def test_package_submodule_tuple_names_every_module_file():
    # The root's tuple is kept by hand: a module added or removed without
    # it would not resolve as `cavitycool.<module>`, or resolve to nothing.
    import cavitycool

    files = {path.stem for path in (_SRC / "cavitycool").glob("*.py")} - {"__init__"}
    assert set(cavitycool._SUBMODULES) == files
    assert len(cavitycool._SUBMODULES) == len(files)


def test_no_file_imports_a_name_from_the_package_root():
    # `from cavitycool import <submodule>` is a submodule import, and
    # `__version__` lives in the root; any other name would be a public
    # name taken from the root instead of its module.
    root = _SRC.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    sources = {path.name: path.read_text(encoding="utf-8") for path in
               [*root.glob("src/cavitycool/*.py"), *root.glob("tests/*.py")]}
    for i, block in enumerate(readme.split("```python\n")[1:]):
        sources[f"README.md block {i}"] = block.split("\n```", 1)[0]
    found = [
        f"{name}: {alias.name}"
        for name, text in sources.items()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.ImportFrom)
        and (node.module == "cavitycool" or (node.level == 1 and node.module is None))
        for alias in node.names
        if alias.name not in (*_SUBMODULES, "__version__")
    ]
    assert found == []


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


def test_the_draw_check_squares_the_noise_model_at_the_steady_temperatures():
    # `simulate` refuses a run by the variances it would draw with: the
    # model's sigma at the two steady mode temperatures, squared, bit for
    # bit, and the draw's array sigma there is the same.  The CLI binds
    # none of the closed forms behind the check by name: it calls the check
    # through the `synth` module, before the draw.
    from dataclasses import replace

    import numpy as np

    from cavitycool import cli, config, synth

    base = config.default_run_config()
    for cfg in (base, replace(base, synth=replace(base.synth, voltage_scale=1e-3))):
        temperatures = config._steady_temperatures(cfg)
        sigmas = [synth.sample_sigma(cfg.receiver, cfg.synth, t) for t in temperatures]
        assert all(type(sigma) is float for sigma in sigmas)
        drawn = synth.sample_sigma(cfg.receiver, cfg.synth, np.array(temperatures))
        assert drawn.tolist() == sigmas
        assert synth._sample_variances(cfg) == [
            (f"sample variance at the {name} mode temperature", sigma * sigma)
            for name, sigma in zip(("cooled", "ambient"), sigmas)
        ]
    for name in ("_refuse_non_finite", "_steady_temperatures"):
        assert getattr(cli, name) is getattr(config, name)
    closed_forms = {"system_output_noise_kelvin", "mode_temperature", "_sample_variances"}
    assert not closed_forms & vars(cli).keys()
    cli_source = (_SRC / "cavitycool" / "cli.py").read_text(encoding="utf-8")
    from_synth = [
        ast.unparse(node)
        for node in ast.walk(ast.parse(cli_source))
        if isinstance(node, ast.ImportFrom) and (
            node.module in ("synth", "cavitycool.synth")
            or any(alias.name == "synth" for alias in node.names)
        )
        or isinstance(node, ast.Import) and any(a.name == "cavitycool.synth" for a in node.names)
    ]
    assert from_synth == ["from . import synth, tracefile"]


def test_cli_inputs_are_checked_by_their_source():
    # --seed is held to [synth] rng_seed's bound, not to a copy of it, and
    # a simulated run keeps no copy of the draw check's variances.
    import dataclasses

    from cavitycool import pipeline

    tree = ast.parse((_SRC / "cavitycool" / "cli.py").read_text(encoding="utf-8"))
    assert "_MASK64" not in {name for name, _ in _references(tree)}
    seed_types = [
        ast.unparse(keyword.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and node.args
        and isinstance(node.args[0], ast.Constant) and node.args[0].value == "--seed"
        for keyword in node.keywords if keyword.arg == "type"
    ]
    assert seed_types == ["int"]
    assert [f.name for f in dataclasses.fields(pipeline.SimulationResult)] == [
        "trajectory", "traces", "schedule", "disconnect_time_s"
    ]


def test_every_package_dataclass_has_its_own_docstring():
    # Without one, `dataclasses` builds the class's `__doc__` from its
    # signature each time the module is imported.
    undocumented = [
        f"{path.name}: {node.name}"
        for path in sorted((_SRC / "cavitycool").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        and any(
            ast.unparse(getattr(d, "func", d)) in ("dataclass", "dataclasses.dataclass")
            for d in node.decorator_list
        )
        and ast.get_docstring(node) is None
    ]
    assert undocumented == []


def test_tracefile_writes_no_table_but_still_exports_the_table_writer():
    # Every CSV of a run directory goes through the one grid writer; the
    # table writer is only re-exported, under the name callers use.
    from cavitycool import textformat, tracefile

    tree = ast.parse((_SRC / "cavitycool" / "tracefile.py").read_text(encoding="utf-8"))
    calls = [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func).split(".")[-1] == "write_table_csv"
    ]
    assert calls == []
    assert tracefile.write_table_csv is textformat.write_table_csv


def test_each_run_rule_is_written_in_one_module():
    # Config files are decoded by the one text decoder, floats are spelled
    # by the one float text, and the protocol timing is checked by
    # ProtocolConfig alone, with no port order assumed by the schedule.
    from cavitycool import cli, textformat, tracefile

    sources = {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted((_SRC / "cavitycool").glob("*.py"))
    }
    opens = [
        node.lineno
        for node in ast.walk(ast.parse(sources["config"]))
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "open"
    ]
    assert opens == [], f"config.py calls open() at lines {opens}"
    assert cli._fmt is tracefile._fmt is textformat._fmt
    spelled = [name for name, text in sources.items() if "repr(float(" in text]
    assert spelled == ["textformat"]
    build = next(
        node for node in ast.parse(sources["dynamics"]).body
        if isinstance(node, ast.FunctionDef) and node.name == "build_protocol"
    )
    assert build.args.defaults == [] and build.args.kw_defaults == []
    assert not any(isinstance(node, ast.Raise) for node in ast.walk(build))


def _receiver_functions_bound_by_name(module):
    """Functions of `receiver` that `module`'s source binds by name."""
    from cavitycool import receiver

    path = _SRC / "cavitycool" / f"{module}.py"
    return [
        alias.name
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.module in ("receiver", "cavitycool.receiver")
        for alias in node.names
        if inspect.isfunction(getattr(receiver, alias.name, None))
    ]


def test_config_imports_no_function_from_receiver():
    # The configuration is the schema: the receiver physics of the draw
    # check lives with the noise model in `synth`.
    assert _receiver_functions_bound_by_name("config") == []


def test_the_noise_model_calls_the_receiver_through_its_module():
    # A by-name binding made while a tracing wrapper replaces the module
    # attribute would keep that wrapper after tracing ends.
    assert _receiver_functions_bound_by_name("synth") == []
    tree = ast.parse((_SRC / "cavitycool" / "synth.py").read_text(encoding="utf-8"))
    uses = {
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
        and (node.id if isinstance(node, ast.Name) else node.attr)
        == "system_output_noise_kelvin"
    }
    assert uses == {"receiver.system_output_noise_kelvin"}
    model = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "sample_sigma"
    )
    assert "receiver.system_output_noise_kelvin" in ast.unparse(model)


def _private_definitions(tree):
    """(name, node) for each module-level private name, dunders aside, that
    `tree` defines by def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [
                leaf.id
                for target in node.targets
                for leaf in ast.walk(target)
                if isinstance(leaf, ast.Name)
            ]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                yield name, node


def _references(tree):
    """(name, node) for each name `tree` reads, as a name, an attribute or
    an imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.alias):
            yield node.name, node


def test_every_module_level_private_name_is_used_in_the_package():
    # A helper whose last caller goes with a deleted branch would stay
    # behind unused; a use inside its own definition does not count.
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((_SRC / "cavitycool").glob("*.py"))
    }
    references = {name: list(_references(tree)) for name, tree in trees.items()}
    unused = []
    for file, tree in trees.items():
        for name, definition in _private_definitions(tree):
            inside = {id(node) for node in ast.walk(definition)}
            if not any(
                ref == name and (other != file or id(node) not in inside)
                for other, refs in references.items()
                for ref, node in refs
            ):
                unused.append(f"{file}: {name}")
    assert unused == [], f"module-level private names used nowhere: {', '.join(unused)}"
