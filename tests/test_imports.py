"""Which commands load scipy: only a 1/f-on `simulate`.

scipy's import costs about a second, far more than `steady`, `sweep` or
`analyze` compute.  The package imports it only inside the 1/f
synthesis that filters with it; the Welch PSD and the warm-up fit are
numpy.  The pytest process has scipy loaded already, so each command
runs in a fresh interpreter.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"

# Runs each argv list (JSON in argv[1]) through cli.main and prints, as its
# last line, every exit code and the scipy modules loaded after each step.
_PROBE = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import cavitycool
import cavitycool.cli
steps = [["import", 0, scipy_modules()]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cavitycool.cli.main(argv)
    steps.append([argv[0], code, scipy_modules()])
print(json.dumps(steps))
"""


def _fresh_run(*argvs):
    """[command, exit code, scipy modules loaded] after `import cavitycool`
    and after each argv in turn, all in one new interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(argvs)],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


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


def _scipy_import_lines(nodes):
    for node in nodes:
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            yield node.lineno


def test_no_module_level_scipy_import():
    found = []
    for path in sorted((_SRC / "cavitycool").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{line}" for line in _scipy_import_lines(_run_at_import(tree.body))]
    assert found == [], f"module-level scipy import at {', '.join(found)}"


def test_analysis_has_no_scipy_import():
    path = _SRC / "cavitycool" / "analysis.py"
    found = list(_scipy_import_lines(ast.walk(ast.parse(path.read_text(encoding="utf-8")))))
    assert found == [], f"scipy import in analysis.py at lines {found}"
