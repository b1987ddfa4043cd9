"""Mode-temperature prediction, switching-protocol simulation, and
noise-trace analysis for pre-cooled microwave cavity modes.

scipy is imported inside the three functions that call it (the Welch
PSD, the warm-up fit and 1/f synthesis), so importing the package and
the closed-form predictions never pay its load of about a second.
"""

from .analysis import (
    BiExpFit,
    DeltaPEstimate,
    SpectralDensity,
    band_averaged_deltap,
    cooling_depth_from_fit,
    ensemble_spectral_density,
    extract_noise,
    fit_biexponential,
    pooled_mean_square,
    segment_deltap,
    subtract_mean_artifact,
    windowed_deltap_timeseries,
)
from .config import (
    AnalysisConfig,
    ProtocolConfig,
    RunConfig,
    config_digest,
    config_from_items,
    config_items,
    default_run_config,
    load_run_config,
    with_seed,
)
from .constants import BOLTZMANN_K, IEEE_T0, PLANCK_H
from .dynamics import (
    CavityMode,
    EventLabel,
    PhotonTrajectory,
    ScheduleEvent,
    SwitchSchedule,
    build_protocol,
    evolve_occupancy,
    evolve_occupancy_rk4,
    relaxation_rate,
    relaxation_time,
    steady_state_occupancy,
)
from .errors import (
    AnalysisError,
    CavityCoolError,
    ConfigError,
    DataFormatError,
    DomainError,
)
from .pipeline import AnalysisReport, SimulationResult, analyze_run, simulate_run
from .receiver import (
    LnaNoiseParameters,
    ReceiverChain,
    infer_mode_temperature,
    noise_power_reduction_curve,
    noise_power_reduction_db,
    noise_power_reduction_floor_db,
    system_output_noise_kelvin,
)
from .synth import (
    NoiseTrace,
    SynthConfig,
    shot_seed,
    switch_artifact_waveform,
    synthesize_shot_ensemble,
    synthesize_trace,
)
from .thermal import (
    BathPort,
    BathSet,
    LossModel,
    link_output_temperature,
    mode_temperature,
    photon_occupancy,
    photons_per_kelvin,
    sweep_mode_temperature,
    temperature_from_occupancy,
)

__version__ = "0.1.0"
