"""Detector self-testing protocols and their decision rules.

Three strategies certify that a detector still sees the receiver's own
light emitter:

* SALT: inject low-rate extra photons over a test interval and require a
  statistically significant excess of clicks.
* FLAG_PULSE: fire one short few-photon pulse and require a click within
  a fixed response window.
* SELF_BLIND: blind the detector locally for the test interval; the
  onset must click (flag) and the rest of the interval must stay silent.
  Clicks during self-blinding betray injected fake states; a missing
  flag betrays external blinding, including the case where a recovery
  transient would otherwise be hidden by the local blinding light.

Verdicts are a pure function of the plan, the test start in picoseconds
and the observable click timestamps.  Ground-truth cause labels on clicks are never consulted.
Every verdict function takes its clicks in time order, as
``process_timeline`` returns them.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import ConfigError, ValidationError, require, require_finite
from .stats import Histogram, poisson_tail
from .units import Count, Duration, Fraction, NonNegative, Positive, PositiveCount
from .units import PositiveDuration, Probability, Rate, to_ps

if TYPE_CHECKING:
    from .detector import ClickRecord


class Strategy(str, Enum):
    SALT = "SALT"
    FLAG_PULSE = "FLAG_PULSE"
    SELF_BLIND = "SELF_BLIND"


class Decision(str, Enum):
    NORMAL = "NORMAL"
    NEGATIVE_MANIPULATION = "NEGATIVE_MANIPULATION"
    POSITIVE_MANIPULATION = "POSITIVE_MANIPULATION"
    BOTH = "BOTH"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class SelfTestPlan:
    """Self-test protocol; ``schedule_tests`` draws its start times.

    ``test_duration`` is the counting interval T for SALT and SELF_BLIND
    and the pulse width for FLAG_PULSE.  The ``null_*`` fields describe
    the expected behavior of an unmanipulated detector and feed p-values;
    they are set by calibration and default to the reference operating
    point.
    """

    strategy: Strategy
    test_duration: PositiveDuration = 200e-6
    salt_rate: Rate = 0.0  # salt photon arrival rate during the interval
    response_window: PositiveDuration = 60e-9
    count_threshold: Count = 50
    flag_photon_number: PositiveCount | None = 5
    flag_pulse_energy: Positive = 1.0e-17
    self_blind_power: Positive = 1.0e-9
    null_mean: Positive | None = None  # salt-test count mean under normal operation
    null_distribution: Histogram | None = None  # salt-test null, from presets.salt_null
    null_response_prob: Probability = 0.934  # flag response of a healthy detector
    null_onset_prob: Probability = 0.976  # self-blind onset click probability
    null_in_blind_mean: NonNegative = 1e-3  # expected noise clicks while self-blinded

    def __post_init__(self) -> None:
        require_finite(self)
        if self.null_mean is not None and self.count_threshold >= self.null_mean:
            raise ValidationError(
                "count_threshold", "must sit below the calibrated normal mean"
            )


_TIME_PS = attrgetter("time_ps")


@dataclass(frozen=True)
class Verdict:
    decision: Decision
    observed_count: int
    flag_seen: bool | None = None
    in_blind_clicks: int | None = None
    p_value: float | None = None


def _click_span(clicks: Sequence[ClickRecord], a_ps: int, b_ps: int) -> tuple[int, int]:
    """Index bounds (lo, hi) of the clicks in [a_ps, b_ps); ``clicks`` are in time order."""
    lo = bisect_left(clicks, a_ps, key=_TIME_PS)
    return lo, bisect_left(clicks, b_ps, lo=lo, key=_TIME_PS)


def fit_tests(trial_duration: float, duty_cycle: float, plan: SelfTestPlan) -> tuple[int, int]:
    """Self-tests per trial, duty_cycle * trial_duration / T rounded, and the ps each owns."""
    dur_ps = to_ps(trial_duration)
    # a flag pulse owns at least its response window so windows never overlap
    occupancy = max(to_ps(plan.test_duration), to_ps(plan.response_window))
    n = int(round(duty_cycle * dur_ps / to_ps(plan.test_duration)))
    if n * occupancy > dur_ps:
        raise ValidationError("duty_cycle", "intervals do not fit the trial")
    return n, occupancy


def schedule_tests(
    trial_duration: Duration,
    duty_cycle: Fraction,
    plan: SelfTestPlan,
    rng: np.random.Generator,
) -> list[int]:
    """Start times in picoseconds of randomly placed, non-overlapping tests.

    ``fit_tests`` gives their number; starts are uniform conditioned on
    non-overlap (sorted uniform draws plus fixed offsets).  Timing is
    unpredictable without the seed.  A lone test draws its start as a
    scalar, which gives the value and leaves the generator state that a
    ``size=1`` draw would, at a fraction of the cost.
    """
    require("trial_duration", trial_duration, Duration)
    require("duty_cycle", duty_cycle, Fraction)
    n, occupancy = fit_tests(trial_duration, duty_cycle, plan)
    if n == 0:
        return []
    slack = to_ps(trial_duration) - n * occupancy
    if n == 1:
        return [int(rng.integers(0, slack + 1))]
    starts = sorted(rng.integers(0, slack + 1, size=n).tolist())
    return [s + i * occupancy for i, s in enumerate(starts)]


def _require_test(plan: SelfTestPlan, strategy: Strategy, start_ps: Count, evaluator: str) -> None:
    """Reject a plan of another strategy, and a start that is not a ``Count``."""
    if plan.strategy != strategy:
        raise ConfigError(f"{evaluator} needs a {strategy.value} plan, got {plan.strategy}")
    require("start_ps", start_ps, Count)


def evaluate_salt(
    plan: SelfTestPlan, start_ps: Count, clicks: Sequence[ClickRecord]
) -> Verdict:
    """Count clicks in the test interval and compare with the threshold.

    A count at or above the threshold certifies normal operation; below
    it the excess salt light is missing, i.e. a negative manipulation.
    The p-value is the lower tail of the calibrated normal-operation
    count distribution at the observed count (empirical when available,
    else Poisson at the calibrated mean).
    """
    _require_test(plan, Strategy.SALT, start_ps, "evaluate_salt")
    lo, hi = _click_span(clicks, start_ps, start_ps + to_ps(plan.test_duration))
    count = hi - lo
    if plan.salt_rate <= 0:
        return Verdict(Decision.INCONCLUSIVE, count)
    decision = (
        Decision.NORMAL
        if count >= plan.count_threshold
        else Decision.NEGATIVE_MANIPULATION
    )
    if plan.null_distribution is not None:
        p = plan.null_distribution.lower_tail(count)
    elif plan.null_mean is not None:
        p = poisson_tail(plan.null_mean, count, "lower")
    else:
        p = None
    return Verdict(decision, count, p_value=p)


def evaluate_flag_pulse(
    plan: SelfTestPlan, start_ps: Count, clicks: Sequence[ClickRecord]
) -> Verdict:
    """Single flag pulse: any click inside the response window passes."""
    _require_test(plan, Strategy.FLAG_PULSE, start_ps, "evaluate_flag_pulse")
    lo, hi = _click_span(clicks, start_ps, start_ps + to_ps(plan.response_window))
    count = hi - lo
    seen = count > 0
    decision = Decision.NORMAL if seen else Decision.NEGATIVE_MANIPULATION
    p = 1.0 if seen else 1.0 - plan.null_response_prob
    return Verdict(decision, count, flag_seen=seen, p_value=p)


def evaluate_self_blind(
    plan: SelfTestPlan, start_ps: Count, clicks: Sequence[ClickRecord]
) -> Verdict:
    """Combined onset-flag and silence check during self-blinding.

    flag and silence        -> NORMAL
    no flag and silence     -> NEGATIVE_MANIPULATION (external blinding;
                               also covers a suppressed recovery click)
    flag and later clicks   -> POSITIVE_MANIPULATION (fake states)
    no flag and later clicks-> BOTH
    """
    _require_test(plan, Strategy.SELF_BLIND, start_ps, "evaluate_self_blind")
    w = start_ps + to_ps(plan.response_window)
    lo, mid = _click_span(clicks, start_ps, w)
    flag_seen = mid > lo
    in_blind = _click_span(clicks, w, start_ps + to_ps(plan.test_duration))[1] - mid
    if flag_seen and in_blind == 0:
        decision = Decision.NORMAL
    elif not flag_seen and in_blind == 0:
        decision = Decision.NEGATIVE_MANIPULATION
    elif flag_seen:
        decision = Decision.POSITIVE_MANIPULATION
    else:
        decision = Decision.BOTH
    p_flag = 1.0 if flag_seen else 1.0 - plan.null_onset_prob
    p = p_flag * poisson_tail(plan.null_in_blind_mean, in_blind, "upper")
    return Verdict(
        decision, in_blind, flag_seen=flag_seen, in_blind_clicks=in_blind, p_value=p
    )


def decision_error_rates(
    manipulated_mean: NonNegative, normal_mean: NonNegative, threshold: Count
) -> tuple[float, float]:
    """Exact error probabilities of the "count >= threshold" rule on Poisson counts.

    The salt or flag stimulus is the signal being detected; seeing it
    certifies the detector.  ``false_alarm`` is the probability that a
    manipulated detector (mean ``manipulated_mean``) nevertheless reaches
    the threshold (the stimulus is falsely reported seen); ``miss`` is the
    probability that a healthy one (``normal_mean``) falls short of it.
    """
    require("manipulated_mean", manipulated_mean, NonNegative)
    require("normal_mean", normal_mean, NonNegative)
    require("threshold", threshold, Count)
    false_alarm = poisson_tail(manipulated_mean, threshold, "upper")
    miss = poisson_tail(normal_mean, threshold - 1, "lower") if threshold > 0 else 0.0
    return false_alarm, miss
