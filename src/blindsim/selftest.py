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

Verdicts are a pure function of the plan, the test start and the
observable click timestamps.  Ground-truth cause labels on clicks are never consulted.
Every verdict function takes its clicks in time order, as
``process_timeline`` returns them.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import TYPE_CHECKING, Protocol, Sequence

import numpy as np

from .errors import ConfigError, ValidationError, require_finite
from .stats import Histogram, binomial_tail, poisson_tail
from .units import Count, NonNegative, Positive, PositiveCount, PositiveDuration, Probability
from .units import Rate, to_ps, to_seconds

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
    alt_response_prob: Probability = 0.003  # flag response of a manipulated detector
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
    trial_duration: float,
    duty_cycle: float,
    plan: SelfTestPlan,
    rng: np.random.Generator,
) -> list[float]:
    """Start times in seconds of randomly placed, non-overlapping tests.

    ``fit_tests`` gives their number; starts are uniform conditioned on
    non-overlap (sorted uniform draws plus fixed offsets).  Timing is
    unpredictable without the seed.  A lone test draws its start as a
    scalar, which gives the value and leaves the generator state that a
    ``size=1`` draw would, at a fraction of the cost.
    """
    if duty_cycle < 0 or duty_cycle >= 1:
        raise ValidationError("duty_cycle", "must lie in [0, 1)")
    if trial_duration < 0:
        raise ValidationError("trial_duration", "must be >= 0")
    n, occupancy = fit_tests(trial_duration, duty_cycle, plan)
    if n == 0:
        return []
    slack = to_ps(trial_duration) - n * occupancy
    if n == 1:
        return [to_seconds(int(rng.integers(0, slack + 1)))]
    starts = sorted(rng.integers(0, slack + 1, size=n).tolist())
    return [to_seconds(s + i * occupancy) for i, s in enumerate(starts)]


def evaluate_salt(
    plan: SelfTestPlan, test_start: float, clicks: Sequence[ClickRecord]
) -> Verdict:
    """Count clicks in the test interval and compare with the threshold.

    A count at or above the threshold certifies normal operation; below
    it the excess salt light is missing, i.e. a negative manipulation.
    The p-value is the lower tail of the calibrated normal-operation
    count distribution at the observed count (empirical when available,
    else Poisson at the calibrated mean).
    """
    if plan.strategy != Strategy.SALT:
        raise ConfigError(f"evaluate_salt needs a SALT plan, got {plan.strategy}")
    a = to_ps(test_start)
    lo, hi = _click_span(clicks, a, a + to_ps(plan.test_duration))
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
    plan: SelfTestPlan, test_start: float, clicks: Sequence[ClickRecord]
) -> Verdict:
    """Single flag pulse: any click inside the response window passes."""
    if plan.strategy != Strategy.FLAG_PULSE:
        raise ConfigError(
            f"evaluate_flag_pulse needs a FLAG_PULSE plan, got {plan.strategy}"
        )
    a = to_ps(test_start)
    lo, hi = _click_span(clicks, a, a + to_ps(plan.response_window))
    count = hi - lo
    seen = count > 0
    decision = Decision.NORMAL if seen else Decision.NEGATIVE_MANIPULATION
    p = 1.0 if seen else 1.0 - plan.null_response_prob
    return Verdict(decision, count, flag_seen=seen, p_value=p)


def evaluate_flag_pulse_batch(
    plan: SelfTestPlan,
    test_starts: Sequence[float],
    clicks: Sequence[ClickRecord],
    response_threshold: int | None = None,
) -> Verdict:
    """Aggregate verdict over many flag pulses.

    Declares NEGATIVE_MANIPULATION when the number of responses falls
    below a count threshold; by default the threshold is chosen from the
    calibrated response probabilities to minimize the larger of the two
    decision error rates.
    """
    k = len(test_starts)
    if k == 0:
        return Verdict(Decision.INCONCLUSIVE, 0)
    responses = sum(
        1 for start in test_starts if evaluate_flag_pulse(plan, start, clicks).flag_seen
    )
    if response_threshold is None:
        cal = DecisionCalibration(
            manipulated=BinomialCounts(k, plan.alt_response_prob),
            normal=BinomialCounts(k, plan.null_response_prob),
        )
        response_threshold = choose_threshold(cal, 0, k)
    decision = (
        Decision.NORMAL
        if responses >= response_threshold
        else Decision.NEGATIVE_MANIPULATION
    )
    p = binomial_tail(k, plan.null_response_prob, responses, "lower")
    return Verdict(decision, responses, flag_seen=responses > 0, p_value=p)


def evaluate_self_blind(
    plan: SelfTestPlan, test_start: float, clicks: Sequence[ClickRecord]
) -> Verdict:
    """Combined onset-flag and silence check during self-blinding.

    flag and silence        -> NORMAL
    no flag and silence     -> NEGATIVE_MANIPULATION (external blinding;
                               also covers a suppressed recovery click)
    flag and later clicks   -> POSITIVE_MANIPULATION (fake states)
    no flag and later clicks-> BOTH
    """
    if plan.strategy != Strategy.SELF_BLIND:
        raise ConfigError(
            f"evaluate_self_blind needs a SELF_BLIND plan, got {plan.strategy}"
        )
    a = to_ps(test_start)
    w = a + to_ps(plan.response_window)
    b = a + to_ps(plan.test_duration)
    lo, mid = _click_span(clicks, a, w)
    flag_seen = mid > lo
    in_blind = _click_span(clicks, w, b)[1] - mid
    if flag_seen and in_blind == 0:
        decision = Decision.NORMAL
    elif not flag_seen and in_blind == 0:
        decision = Decision.NEGATIVE_MANIPULATION
    elif flag_seen:
        decision = Decision.POSITIVE_MANIPULATION
    else:
        decision = Decision.BOTH
    p_flag = 1.0 if flag_seen else 1.0 - plan.null_onset_prob
    p_blind = (
        poisson_tail(plan.null_in_blind_mean, in_blind, "upper")
        if in_blind > 0
        else 1.0
    )
    p = min(1.0, p_flag * p_blind)
    return Verdict(
        decision, in_blind, flag_seen=flag_seen, in_blind_clicks=in_blind, p_value=p
    )


class CountModel(Protocol):
    """Distribution of a decision statistic (a count)."""

    def tail_geq(self, k: int) -> float: ...

    def tail_lt(self, k: int) -> float: ...


@dataclass(frozen=True)
class PoissonCounts:
    mean: float

    def tail_geq(self, k: int) -> float:
        return poisson_tail(self.mean, k, "upper") if k > 0 else 1.0

    def tail_lt(self, k: int) -> float:
        return poisson_tail(self.mean, k - 1, "lower") if k > 0 else 0.0


@dataclass(frozen=True)
class BinomialCounts:
    n: int
    p: float

    def tail_geq(self, k: int) -> float:
        return binomial_tail(self.n, self.p, k, "upper") if k > 0 else 1.0

    def tail_lt(self, k: int) -> float:
        return binomial_tail(self.n, self.p, k - 1, "lower") if k > 0 else 0.0


@dataclass(frozen=True)
class EmpiricalCounts:
    histogram: Histogram

    def tail_geq(self, k: int) -> float:
        return 1.0 - self.histogram.lower_tail(k - 1)

    def tail_lt(self, k: int) -> float:
        return self.histogram.lower_tail(k - 1) if k > 0 else 0.0


@dataclass(frozen=True)
class DecisionCalibration:
    """Calibrated statistic distributions under the two hypotheses."""

    manipulated: CountModel
    normal: CountModel


def decision_error_rates(
    calibration: DecisionCalibration | None, threshold: int
) -> tuple[float, float]:
    """Exact error probabilities of the "count >= threshold" rule.

    The salt or flag stimulus is the signal being detected; seeing it
    certifies the detector.  ``false_alarm`` is the probability that a
    manipulated detector nevertheless reaches the threshold (the stimulus
    is falsely reported seen); ``miss`` is the probability that a healthy
    detector falls short of it (the stimulus is missed).
    """
    if calibration is None:
        raise ValidationError("calibration", "decision distributions not calibrated")
    if threshold < 0:
        raise ValidationError("threshold", "must be >= 0")
    false_alarm = calibration.manipulated.tail_geq(threshold)
    miss = calibration.normal.tail_lt(threshold)
    return false_alarm, miss


def choose_threshold(
    calibration: DecisionCalibration, lo: int, hi: int
) -> int:
    """Integer threshold in [lo, hi] minimizing max(false_alarm, miss).

    false_alarm is non-increasing and miss non-decreasing in the
    threshold, so max of the two is V-shaped; binary search finds the
    crossing and the neighbors decide.
    """
    if hi < lo:
        raise ValidationError("hi", "must be >= lo")

    def score(t: int) -> float:
        return max(
            calibration.manipulated.tail_geq(t), calibration.normal.tail_lt(t)
        )

    a, b = lo, hi
    while b - a > 2:
        m = (a + b) // 2
        if calibration.manipulated.tail_geq(m) > calibration.normal.tail_lt(m):
            a = m
        else:
            b = m
    candidates = range(max(lo, a - 1), min(hi, b + 1) + 1)
    return min(candidates, key=score)
