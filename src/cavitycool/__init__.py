"""Mode-temperature prediction, switching-protocol simulation, and
noise-trace analysis for pre-cooled microwave cavity modes."""

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
    AmplifierStage,
    FriisResult,
    LnaNoiseParameters,
    ReceiverChain,
    YFactorResult,
    friis_cascade,
    infer_mode_temperature,
    lna_input_noise_temperature,
    matched_source_excess_k,
    noise_figure_db_from_temperature,
    noise_power_reduction_curve,
    noise_power_reduction_db,
    noise_power_reduction_floor_db,
    system_output_noise_kelvin,
    temperature_from_noise_figure_db,
    y_factor_noise_temperature,
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
    cooled_mode_temperature_closed_form,
    link_output_temperature,
    mode_temperature,
    photon_occupancy,
    photons_per_kelvin,
    sweep_mode_temperature,
    temperature_from_occupancy,
)

__version__ = "0.1.0"
