"""Mode-temperature prediction, switching-protocol simulation, and
noise-trace analysis for pre-cooled microwave cavity modes.

The package has two layers.  The closed-form layer (`errors`,
`thermal`, `receiver`, `config`, `textformat` and this package root) is
pure Python, so `import cavitycool`, `cavitycool steady`, `cavitycool
sweep`, `--version` and `--help` load no numpy.  The array
layer (`dynamics`, `synth`, `analysis`, `pipeline`, `tracefile`) imports
numpy; `simulate` and `analyze` load it on first use.  scipy is imported only inside 1/f
synthesis, so only a `simulate` with 1/f noise on pays its load of
about a second.

Every public name is imported from the module that defines it, such as
`from cavitycool.pipeline import simulate_run`.  The root holds no names
of its own: `cavitycool.<module>` imports that submodule on first access.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_SUBMODULES = (
    "analysis", "cli", "config", "dynamics", "errors", "pipeline",
    "receiver", "synth", "textformat", "thermal", "tracefile",
)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULES})
