"""Reference operating point, the simulated calibrations and the bundled experiments.

The reference detector registers about 5e4 events per second, an order
of magnitude below its 5e5/s saturation rate, with a 7e3/s dark rate and
a 40 % afterpulse probability.  A counting window of 200 us then holds
about 10 events.  The attacker blinds with 500 pW of CW light and forces
clicks with 2 ns, 3 uW fake-state pulses
(energy 6 fJ, well above the 1 fJ forced-click threshold).

Dead time is tied to published response probabilities rather than set by
hand: the flag-pulse experiments ran at a 93.4 % armed fraction and the
self-blinding experiments at 97.6 %, so the corresponding presets
calibrate dead time to each target at the 5e4/s operating rate.  The
rest of a detector's healthy behaviour is calibrated by simulation at
the fixed ``CALIBRATION_SEED``, which no run's ``seed`` moves:
``calibrate_source_rate`` bisects pilot simulations for the photon rate
that gives a target click rate, and ``salt_null`` draws the salt test's
null with ``count_distribution_oracle``.  The reference detector's
results are frozen below as data and recomputed by a test; a custom
detector is calibrated by calling the same functions.
"""

from __future__ import annotations

from .config import ExperimentConfig, Scenario, require_stimulus_budget
from .detector import DetectorParams, calibrate_dead_time, process_timeline
from .errors import ConfigError, ValidationError, require
from .optics import AttackScenario, gen_signal_photons
from .rng import RandomStream, stream
from .selftest import SelfTestPlan, Strategy
from .stats import Histogram
from .units import MAX_STIMULI, Duration, NonNegative, OpenUnit, Positive
from .units import PositiveDuration, Rate, TrialCount

CLICK_RATE = 5.0e4  # operating event rate, events/second
SALT_TEST_RATE = 5.0e5  # event rate during a salt test (mean 100 per window)
WINDOW = 200e-6  # counting window T
BLIND_POWER = 5.0e-10
FAKE_PEAK_POWER = 3.0e-6
FAKE_WIDTH = 2.0e-9
FLAG_WIDTH = 25e-9
RESPONSE_WINDOW = 60e-9
FLAG_ARMED_FRACTION = 0.934  # flag-pulse response probability of a healthy detector
ONSET_ARMED_FRACTION = 0.976  # self-blind onset response probability
SALT_THRESHOLD = 50
# Electrical noise tuned to ~8 residual clicks across 7608 self-blind windows.
SELF_BLIND_NOISE_RATE = 5.26

# Photon arrival rates giving CLICK_RATE on the flag-pulse detector
# (also used by salt and fig3b) and on the self-blind detector.
SIGNAL_RATE = 28645.833333333336
SELF_BLIND_SIGNAL_RATE = 26909.72222222222
# Salt rate lifting the flag detector's in-test click rate to
# SALT_TEST_RATE.  Signal and salt photons superpose into one Poisson
# stream, so it is the calibrated total minus SIGNAL_RATE.
SALT_RATE = 1221354.1666666667

CALIBRATION_SEED = 0xB11D  # seed of the pilots and of the salt null
SALT_NULL_WINDOWS = 2000
# Salt-window click counts of the reference detector at SIGNAL_RATE +
# SALT_RATE over SALT_NULL_WINDOWS windows, from bin 85 on.
SALT_NULL_COUNTS = (
    1, 1, 3, 2, 5, 15, 27, 27, 47, 86, 113, 127, 169, 182, 224, 197, 192, 172,
    144, 95, 75, 40, 29, 14, 7, 4, 2,
)
SALT_NULL = Histogram(
    bin_edges=tuple(float(k) for k in range(85, 85 + len(SALT_NULL_COUNTS) + 1)),
    counts=SALT_NULL_COUNTS,
    n_samples=SALT_NULL_WINDOWS,
)


def reference_detector(
    armed_fraction: OpenUnit = FLAG_ARMED_FRACTION, noise_rate: Rate = 0.0
) -> DetectorParams:
    """Detector at the reference operating point.

    ``armed_fraction`` fixes the dead time via the renewal identity at
    the 5e4/s click rate.
    """
    require("armed_fraction", armed_fraction, OpenUnit)
    return DetectorParams(
        dead_time=calibrate_dead_time(armed_fraction, rate=CLICK_RATE),
        noise_rate=noise_rate,
    )


def realized_click_rate(
    params: DetectorParams,
    arrival_rate: Rate,
    duration: PositiveDuration = 0.5,
    seed: int = CALIBRATION_SEED,
) -> float:
    """Observed total click rate for a Poissonian source, by pilot simulation."""
    require("arrival_rate", arrival_rate, Rate)
    require("duration", duration, PositiveDuration)
    require("seed", seed, int)
    timeline = gen_signal_photons(arrival_rate, duration, stream(seed, "pilot-src"))
    clicks = process_timeline(params, timeline, stream(seed, "pilot-det"))
    return len(clicks) / duration


def calibrate_source_rate(
    params: DetectorParams,
    target_click_rate: Positive,
    duration: PositiveDuration = 0.5,
    tolerance: NonNegative = 0.01,
    seed: int = CALIBRATION_SEED,
) -> float:
    """Photon arrival rate that yields the target total click rate.

    Deterministic bisection against pilot simulations with a fixed
    internal seed (common random numbers keep the response monotone).
    Accounts for dead-time losses, dark counts and the afterpulse
    cascade, which a closed form would have to approximate.  A target at
    or above ``1/dead_time``, which no detector reaches, is rejected
    before any pilot runs, and the upper bracket stops doubling before a
    pilot would expect more than ``MAX_STIMULI`` photons.
    """
    require("target_click_rate", target_click_rate, Positive)
    require("duration", duration, PositiveDuration)  # before the bracket reads it
    require("tolerance", tolerance, NonNegative)
    if target_click_rate >= 1 / params.dead_time:
        raise ValidationError(
            "target_click_rate", "must stay below the dead-time saturation rate 1/dead_time"
        )
    lo = 0.0
    hi = max(target_click_rate / max(params.efficiency, 1e-9), 1.0)
    # a pilot holds every photon in memory: it may expect at most MAX_STIMULI
    while hi * duration <= MAX_STIMULI:
        if realized_click_rate(params, hi, duration, seed) >= target_click_rate:
            break
        hi *= 2
    else:
        raise ValidationError(
            "target_click_rate", f"unreachable by a pilot of at most {MAX_STIMULI:g} photons"
        )
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        rate = realized_click_rate(params, mid, duration, seed)
        if abs(rate - target_click_rate) <= tolerance * target_click_rate:
            return mid
        if rate < target_click_rate:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def count_distribution_oracle(
    params: DetectorParams,
    rate: Rate,
    window: Duration,
    n_trials: TrialCount,
    rng: RandomStream,
) -> Histogram:
    """Empirical click-count distribution in a window, by brute force.

    Simulates ``n_trials`` independent windows of Poissonian photons at
    ``rate`` and bins the click counts.  It reflects dead-time pileup and
    the afterpulse cascade rather than assuming a Poisson law.
    ``salt_null`` runs it as the salt test's calibrated null (frozen as
    data for the reference detector), and ``figure fig3b`` draws the
    normal-operation count distribution with it.
    """
    require("rate", rate, Rate)
    require("window", window, Duration)
    require("n_trials", n_trials, TrialCount)
    counts = []
    for _ in range(n_trials):
        timeline = gen_signal_photons(rate, window, rng)
        counts.append(len(process_timeline(params, timeline, rng)))
    return Histogram.from_event_counts(counts)


def salt_null(config: ExperimentConfig) -> Histogram:
    """Click-count distribution of a healthy detector in one salt window.

    The detector, total photon rate (signal plus salt) and window T come
    from ``config``.  The reference detector at the preset rate and
    window gets the frozen ``SALT_NULL``; any other is simulated over
    ``SALT_NULL_WINDOWS`` windows from the ``CALIBRATION_SEED`` stream, which
    takes about 0.6 s.  A null that would expect more than
    ``MAX_STIMULI`` stimuli over those windows, afterpulses included, is
    rejected first, naming the leaf with the largest share.
    """
    detector, window = config.detector, config.plan.test_duration
    span = SALT_NULL_WINDOWS * window
    require_stimulus_budget(
        {
            "signal_rate": config.signal_rate * span,
            "salt_rate": config.plan.salt_rate * span,
            "dark_rate": detector.dark_rate * span,
            "noise_rate": detector.noise_rate * span,
        },
        detector,
        window,
        f"the salt null's {SALT_NULL_WINDOWS} windows would expect {{total:.3g}} stimuli",
        SALT_NULL_WINDOWS,
    )
    rate = config.signal_rate + config.plan.salt_rate
    if (detector, rate, window) == (reference_detector(), SIGNAL_RATE + SALT_RATE, WINDOW):
        return SALT_NULL
    return count_distribution_oracle(
        detector, rate, window, SALT_NULL_WINDOWS, stream(CALIBRATION_SEED, "salt-null")
    )


def preset_config(
    scenario: Scenario, strategy: Strategy, trials: TrialCount, seed: int
) -> ExperimentConfig:
    """The bundled experiment of one protocol under one scenario.

    The scenario picks the attacker, and the protocol the plan, detector
    and timing.  The recovery attack releases its blinding mid-test,
    which only self-blinding catches, so it takes no other protocol.
    """
    if scenario == Scenario.MANIPULATED:  # blinding plus fake states at the event rate
        attack = AttackScenario(
            blind_power_level=BLIND_POWER,
            fake_pulse_rate=CLICK_RATE,
            fake_peak_power=FAKE_PEAK_POWER,
            fake_width=FAKE_WIDTH,
        )
    elif scenario == Scenario.RECOVERY_ATTACK:
        if strategy != Strategy.SELF_BLIND:
            raise ConfigError(
                "the recovery scenario exercises the self-blind protocol; "
                "choose protocol self-blind or a custom config"
            )
        # stop_blind_at is filled per trial, mid-interval
        attack = AttackScenario(blind_power_level=BLIND_POWER)
    else:
        attack = AttackScenario()
    signal_rate, duty_cycle, trial_duration = SIGNAL_RATE, 0.5, 2 * WINDOW
    if strategy == Strategy.SALT:
        detector = reference_detector(FLAG_ARMED_FRACTION)
        plan = SelfTestPlan(
            strategy=Strategy.SALT,
            test_duration=WINDOW,
            salt_rate=SALT_RATE,
            count_threshold=SALT_THRESHOLD,
            null_mean=SALT_TEST_RATE * WINDOW,
        )
    elif strategy == Strategy.FLAG_PULSE:
        detector = reference_detector(FLAG_ARMED_FRACTION)
        plan = SelfTestPlan(
            strategy=Strategy.FLAG_PULSE,
            test_duration=FLAG_WIDTH,
            response_window=RESPONSE_WINDOW,
            null_response_prob=FLAG_ARMED_FRACTION,
        )
        duty_cycle, trial_duration = FLAG_WIDTH / WINDOW, WINDOW
    else:
        detector = reference_detector(ONSET_ARMED_FRACTION, noise_rate=SELF_BLIND_NOISE_RATE)
        plan = SelfTestPlan(
            strategy=Strategy.SELF_BLIND,
            test_duration=WINDOW,
            response_window=RESPONSE_WINDOW,
            self_blind_power=2 * BLIND_POWER,
            null_onset_prob=ONSET_ARMED_FRACTION,
            null_in_blind_mean=SELF_BLIND_NOISE_RATE * (WINDOW - RESPONSE_WINDOW),
        )
        signal_rate = SELF_BLIND_SIGNAL_RATE
    return ExperimentConfig(
        detector=detector,
        attack=attack,
        plan=plan,
        signal_rate=signal_rate,
        duty_cycle=duty_cycle,
        trial_duration=trial_duration,
        trials=trials,
        seed=seed,
        scenario=scenario,
    )


def salt_config(scenario: Scenario, trials: TrialCount, seed: int) -> ExperimentConfig:
    return preset_config(scenario, Strategy.SALT, trials, seed)


def flag_pulse_config(scenario: Scenario, trials: TrialCount, seed: int) -> ExperimentConfig:
    return preset_config(scenario, Strategy.FLAG_PULSE, trials, seed)


def self_blind_config(scenario: Scenario, trials: TrialCount, seed: int) -> ExperimentConfig:
    return preset_config(scenario, Strategy.SELF_BLIND, trials, seed)


# Trial counts of the bundled figure-reproduction experiments.
FIGURE_TRIALS = {
    "fig3b": (10_000,),
    "fig4": (7_432, 7_686),
    "fig5": (12_542, 12_380),
    "fig6": (7_608, 7_658),
}
