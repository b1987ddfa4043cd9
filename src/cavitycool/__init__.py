"""Mode-temperature prediction, switching-protocol simulation, and
noise-trace analysis for pre-cooled microwave cavity modes.

The package has two layers.  The closed-form layer (`constants`,
`errors`, `thermal`, `receiver`, `config`, `textformat` and this package
root) is pure Python, so `import cavitycool`, `cavitycool steady`,
`cavitycool sweep`, `--version` and `--help` load no numpy.  The array
layer (`dynamics`, `synth`, `analysis`, `pipeline`, `tracefile`) imports
numpy; `simulate` and `analyze` load it on first use.  scipy is imported only inside 1/f
synthesis, so only a `simulate` with 1/f noise on pays its load of
about a second.

Every name below resolves on first access, from the module that
defines it, and is then cached here.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Module -> the names the package root exports from it.
_EXPORTS = {
    "analysis": (
        "BiExpFit",
        "DeltaPEstimate",
        "SpectralDensity",
        "band_averaged_deltap",
        "ensemble_spectral_density",
        "extract_noise",
        "fit_biexponential",
        "pooled_mean_square",
        "segment_deltap",
        "subtract_mean_artifact",
        "windowed_deltap_timeseries",
    ),
    "config": (
        "AnalysisConfig",
        "ProtocolConfig",
        "RunConfig",
        "SynthConfig",
        "config_digest",
        "config_from_items",
        "config_items",
        "default_run_config",
        "load_run_config",
        "with_seed",
    ),
    "constants": ("BOLTZMANN_K", "IEEE_T0", "PLANCK_H"),
    "dynamics": (
        "PhotonTrajectory",
        "ScheduleEvent",
        "SwitchSchedule",
        "build_protocol",
        "evolve_occupancy",
        "relaxation_rate",
        "relaxation_time",
    ),
    "errors": (
        "AnalysisError",
        "CavityCoolError",
        "ConfigError",
        "DataFormatError",
        "DomainError",
    ),
    "pipeline": ("AnalysisReport", "SimulationResult", "analyze_run", "simulate_run"),
    "receiver": (
        "LnaNoiseParameters",
        "ReceiverChain",
        "infer_mode_temperature",
        "noise_power_reduction_curve",
        "noise_power_reduction_db",
        "noise_power_reduction_floor_db",
        "system_output_noise_kelvin",
    ),
    "synth": (
        "NoiseTrace",
        "shot_seed",
        "switch_artifact_waveform",
        "synthesize_shot_ensemble",
        "synthesize_trace",
    ),
    "thermal": (
        "BathPort",
        "BathSet",
        "CavityMode",
        "LossModel",
        "link_output_temperature",
        "mode_temperature",
        "photon_occupancy",
        "sweep_mode_temperature",
    ),
}
_SUBMODULES = (*_EXPORTS, "cli", "textformat", "tracefile")
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_OWNER, *_SUBMODULES})
