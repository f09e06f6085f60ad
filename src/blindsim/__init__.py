"""Simulator of single-photon detector blinding attacks and the
self-testing countermeasures that expose them."""

from .detector import (
    ClickCause,
    ClickRecord,
    DetectorParams,
    calibrate_dead_time,
    process_timeline,
)
from .config import ExperimentConfig, Scenario, set_config_value
from .engine import (
    ExperimentResult,
    TrialResult,
    run_experiment,
    run_trial,
    trial_anatomy,
)
from .errors import BlindsimError, ConfigError, ValidationError
from .optics import (
    AttackScenario,
    BrightPulse,
    CwSegment,
    CwSource,
    OpticalTimeline,
    PHOTON_CODE,
    PHOTON_SOURCES,
    PhotonSource,
    PulseSource,
    gen_attack,
    gen_le_schedule,
    gen_signal_photons,
    merge_timelines,
)
from .rng import stream
from .selftest import (
    Decision,
    SelfTestPlan,
    Strategy,
    Verdict,
    decision_error_rates,
    evaluate_flag_pulse,
    evaluate_salt,
    evaluate_self_blind,
    schedule_tests,
)
from .presets import count_distribution_oracle
from .stats import (
    Histogram,
    binomial_tail,
    clopper_pearson_interval,
    poisson_tail,
)

__version__ = "0.1.0"
