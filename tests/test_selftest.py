from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindsim import (
    ClickCause,
    ClickRecord,
    ConfigError,
    Decision,
    DecisionCalibration,
    Histogram,
    PoissonCounts,
    SelfTestPlan,
    Strategy,
    ValidationError,
    decision_error_rates,
    evaluate_flag_pulse,
    evaluate_salt,
    evaluate_self_blind,
    gen_le_schedule,
    schedule_tests,
    stream,
)
from blindsim.selftest import fit_tests
from blindsim.units import to_ps, to_seconds


SALT_START = to_ps(100e-6)
FLAG_START = to_ps(10e-6)
BLIND_START = to_ps(100e-6)


def clicks_at(times_s, cause=ClickCause.SIGNAL):
    return [ClickRecord(to_ps(t), cause) for t in sorted(times_s)]


def salt_plan(**overrides):
    defaults = dict(
        strategy=Strategy.SALT,
        test_duration=200e-6,
        salt_rate=450e3,
        count_threshold=50,
    )
    defaults.update(overrides)
    return SelfTestPlan(**defaults)


class TestScheduleTests:
    def test_interval_count_follows_duty_cycle(self):
        plan = SelfTestPlan(strategy=Strategy.SALT)
        starts = schedule_tests(1.0, 0.01, plan, stream(1, "sched"))
        assert len(starts) == 50
        for start in starts:
            assert 0 <= start
            assert start + to_ps(plan.test_duration) <= to_ps(1.0)

    def test_zero_duty_cycle_is_empty(self):
        plan = SelfTestPlan(strategy=Strategy.SALT)
        assert schedule_tests(1.0, 0.0, plan, stream(2)) == []
        # a trial of zero length is legal too: it holds no test and draws nothing
        rng = stream(2)
        assert schedule_tests(0.0, 0.5, plan, rng) == []
        assert rng.random() == stream(2).random()

    def test_intervals_do_not_overlap(self):
        plan = SelfTestPlan(strategy=Strategy.SELF_BLIND)
        starts = schedule_tests(0.01, 0.5, plan, stream(3))
        spans = sorted((s, s + to_ps(plan.test_duration)) for s in starts)
        for (_, stop), (start, _) in zip(spans, spans[1:]):
            assert start >= stop

    def test_seeds_give_distinct_schedules(self):
        starts = {
            tuple(schedule_tests(1.0, 0.01, SelfTestPlan(strategy=Strategy.SALT), stream(s)))
            for s in range(100)
        }
        assert len(starts) == 100

    def test_infeasible_duty_cycle_rejected(self):
        # rounding the interval count up makes n * T exceed the trial
        plan = salt_plan(test_duration=0.35)
        with pytest.raises(ValidationError):
            schedule_tests(1.0, 0.9999, plan, stream(4))
        plan = SelfTestPlan(
            strategy=Strategy.FLAG_PULSE, test_duration=25e-9, response_window=60e-9
        )
        # 25 ns pulses own a 60 ns window; a duty cycle feasible for the
        # pulse width alone can still be infeasible for the windows
        with pytest.raises(ValidationError):
            schedule_tests(1e-6, 0.5, plan, stream(5))

    @given(duty=st.floats(0.0, 0.4), seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_schedule_respects_bounds(self, duty, seed):
        plan = salt_plan()
        starts = schedule_tests(0.01, duty, plan, stream(seed))
        spans = sorted((s, s + to_ps(plan.test_duration)) for s in starts)
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert b0 >= a1
        for start, stop in spans:
            assert 0 <= start and stop <= to_ps(0.01)

    @given(
        slack=st.sampled_from([0, 1])
        | st.integers(2**32 - 3, 2**32 + 3)
        | st.integers(2**32 + 4, 2**42),
        n=st.integers(1, 4),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=150, deadline=None)
    def test_schedule_draws_as_a_sorted_array_of_n(self, slack, n, seed):
        # a lone start is drawn as a scalar; the starts and the state it
        # leaves must be those of the sorted size-n array draw
        plan = salt_plan(test_duration=1e-6)  # each test owns 10**6 ps
        occupancy = to_ps(plan.test_duration)
        dur_ps = n * occupancy + slack
        duty = (n - 0.25) * occupancy / dur_ps
        trial = to_seconds(dur_ps)
        assert to_ps(trial) == dur_ps
        assert fit_tests(trial, duty, plan) == (n, occupancy)
        rng, ref = stream(seed, "schedule"), stream(seed, "schedule")
        starts = schedule_tests(trial, duty, plan, rng)
        drawn = np.sort(ref.integers(0, slack + 1, size=n))
        assert starts == [int(s) + i * occupancy for i, s in enumerate(drawn)]
        assert rng.random() == ref.random()

    def test_long_trial_starts_are_the_drawn_picoseconds(self):
        # 1000 s tests in a 10,000 s trial: starts near 1e16 ps, where a
        # trip through float seconds no longer gives the drawn value back
        plan = SelfTestPlan(strategy=Strategy.FLAG_PULSE, test_duration=1000.0)
        n, occupancy = fit_tests(1e4, 0.5, plan)
        starts = schedule_tests(1e4, 0.5, plan, stream(7, "schedule"))
        drawn = np.sort(stream(7, "schedule").integers(0, to_ps(1e4) - n * occupancy + 1, size=n))
        assert starts == [int(s) + i * occupancy for i, s in enumerate(drawn)]
        assert len(starts) == 5 and all(type(s) is int for s in starts)
        assert all(b - a >= occupancy for a, b in zip(starts, starts[1:]))
        assert starts[-1] + occupancy <= to_ps(1e4)
        for start in starts:
            (pulse,) = gen_le_schedule(plan, start, 1e4, stream(7, "le")).pulses
            assert pulse.time_ps == start


class TestEvaluateSalt:
    def test_full_count_is_normal(self):
        plan = salt_plan()
        clicks = clicks_at(np.linspace(110e-6, 290e-6, 100))
        v = evaluate_salt(plan, SALT_START, clicks)
        assert v.decision is Decision.NORMAL
        assert v.observed_count == 100

    def test_starved_count_is_negative_manipulation(self):
        plan = salt_plan()
        clicks = clicks_at(np.linspace(110e-6, 290e-6, 10))
        v = evaluate_salt(plan, SALT_START, clicks)
        assert v.decision is Decision.NEGATIVE_MANIPULATION
        assert v.observed_count == 10

    def test_threshold_boundary_counts_as_normal(self):
        plan = salt_plan()
        clicks = clicks_at(np.linspace(110e-6, 290e-6, 50))
        assert evaluate_salt(plan, SALT_START, clicks).decision is Decision.NORMAL

    def test_out_of_window_clicks_ignored(self):
        plan = salt_plan()
        clicks = clicks_at([50e-6, 99e-6, 301e-6, 390e-6])
        assert evaluate_salt(plan, SALT_START, clicks).observed_count == 0

    def test_no_salt_scheduled_is_inconclusive(self):
        plan = salt_plan(salt_rate=0.0)
        clicks = clicks_at(np.linspace(110e-6, 290e-6, 100))
        assert evaluate_salt(plan, SALT_START, clicks).decision is Decision.INCONCLUSIVE

    def test_p_value_from_empirical_null(self):
        null = Histogram.from_event_counts([95, 100, 100, 105, 110])
        plan = salt_plan(null_distribution=null)
        v = evaluate_salt(plan, SALT_START, clicks_at(np.linspace(110e-6, 290e-6, 100)))
        assert v.p_value == pytest.approx(3 / 5)
        v10 = evaluate_salt(plan, SALT_START, clicks_at(np.linspace(110e-6, 290e-6, 10)))
        assert v10.p_value == 0.0

    def test_p_value_poisson_fallback(self):
        plan = salt_plan(null_mean=100.0)
        v = evaluate_salt(plan, SALT_START, clicks_at(np.linspace(110e-6, 290e-6, 10)))
        assert v.p_value < 1e-8

    def test_wrong_strategy_rejected(self):
        with pytest.raises(ConfigError):
            evaluate_salt(SelfTestPlan(strategy=Strategy.FLAG_PULSE), SALT_START, [])


@pytest.mark.parametrize(
    "evaluate,strategy",
    [
        (evaluate_flag_pulse, Strategy.SALT),
        (evaluate_flag_pulse, Strategy.SELF_BLIND),
        (evaluate_self_blind, Strategy.SALT),
        (evaluate_self_blind, Strategy.FLAG_PULSE),
    ],
)
def test_evaluator_rejects_another_protocols_plan(evaluate, strategy):
    with pytest.raises(ConfigError):
        evaluate(SelfTestPlan(strategy=strategy), FLAG_START, [])


class TestEvaluateFlagPulse:
    def flag_plan(self, **overrides):
        defaults = dict(strategy=Strategy.FLAG_PULSE, test_duration=25e-9)
        defaults.update(overrides)
        return SelfTestPlan(**defaults)

    def test_click_in_window_is_normal(self):
        plan = self.flag_plan()
        v = evaluate_flag_pulse(plan, FLAG_START, clicks_at([10.02e-6]))
        assert v.decision is Decision.NORMAL
        assert v.flag_seen is True

    def test_click_outside_window_is_negative(self):
        plan = self.flag_plan()
        v = evaluate_flag_pulse(plan, FLAG_START, clicks_at([10.2e-6]))
        assert v.decision is Decision.NEGATIVE_MANIPULATION
        assert v.flag_seen is False
        assert v.p_value == pytest.approx(1 - plan.null_response_prob)


class TestEvaluateSelfBlind:
    def blind_plan(self, **overrides):
        defaults = dict(
            strategy=Strategy.SELF_BLIND,
            test_duration=200e-6,
            response_window=60e-9,
        )
        defaults.update(overrides)
        return SelfTestPlan(**defaults)

    def test_flag_and_silence_is_normal(self):
        v = evaluate_self_blind(self.blind_plan(), BLIND_START, clicks_at([100.00e-6]))
        assert v.decision is Decision.NORMAL
        assert v.flag_seen and v.in_blind_clicks == 0

    def test_no_flag_and_silence_is_negative(self):
        # covers the suppressed-recovery attack: the missing flag alone
        # must raise the alarm
        v = evaluate_self_blind(self.blind_plan(), BLIND_START, [])
        assert v.decision is Decision.NEGATIVE_MANIPULATION

    def test_flag_with_in_blind_clicks_is_positive(self):
        times = [100.00e-6] + list(np.linspace(110e-6, 290e-6, 10))
        v = evaluate_self_blind(self.blind_plan(), BLIND_START, clicks_at(times))
        assert v.decision is Decision.POSITIVE_MANIPULATION
        assert v.in_blind_clicks == 10

    def test_no_flag_with_in_blind_clicks_is_both(self):
        times = list(np.linspace(110e-6, 290e-6, 10))
        v = evaluate_self_blind(self.blind_plan(), BLIND_START, clicks_at(times))
        assert v.decision is Decision.BOTH
        assert v.in_blind_clicks == 10

    @given(
        times=st.lists(st.floats(0, 400e-6), max_size=30),
    )
    @settings(max_examples=80, deadline=None)
    def test_decision_table_is_total_and_exclusive(self, times):
        plan = self.blind_plan()
        clicks = clicks_at(times)
        v = evaluate_self_blind(plan, BLIND_START, clicks)
        a, w, b = to_ps(100e-6), to_ps(100e-6) + to_ps(60e-9), to_ps(300e-6)
        flag = any(a <= c.time_ps < w for c in clicks)
        blind = sum(1 for c in clicks if w <= c.time_ps < b)
        table = {
            (True, False): Decision.NORMAL,
            (False, False): Decision.NEGATIVE_MANIPULATION,
            (True, True): Decision.POSITIVE_MANIPULATION,
            (False, True): Decision.BOTH,
        }
        assert v.decision is table[(flag, blind > 0)]


class TestObservableOnly:
    @given(seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_shuffling_hidden_labels_never_changes_verdicts(self, seed):
        rng = stream(seed, "shuffle")
        times = np.sort(rng.random(40)) * 400e-6
        causes = list(ClickCause)
        original = [
            ClickRecord(to_ps(t), causes[int(rng.integers(len(causes)))])
            for t in times
        ]
        shuffled_causes = [c.cause for c in original]
        rng.shuffle(shuffled_causes)
        shuffled = [
            ClickRecord(c.time_ps, cause)
            for c, cause in zip(original, shuffled_causes)
        ]
        tests = [
            (evaluate_salt, salt_plan(), SALT_START),
            (evaluate_flag_pulse, SelfTestPlan(strategy=Strategy.FLAG_PULSE), to_ps(50e-6)),
            (evaluate_self_blind, SelfTestPlan(strategy=Strategy.SELF_BLIND), to_ps(100e-6)),
        ]
        for evaluate, plan, start in tests:
            assert evaluate(plan, start, original) == evaluate(plan, start, shuffled)


class TestThresholdMonotonicity:
    @given(
        count=st.integers(0, 200),
        threshold=st.integers(0, 150),
        bump=st.integers(1, 50),
    )
    @settings(max_examples=60, deadline=None)
    def test_raising_threshold_never_rescues_a_negative_verdict(
        self, count, threshold, bump
    ):
        clicks = clicks_at(np.linspace(110e-6, 290e-6, count)) if count else []
        low = evaluate_salt(salt_plan(count_threshold=threshold), SALT_START, clicks)
        high = evaluate_salt(salt_plan(count_threshold=threshold + bump), SALT_START, clicks)
        if low.decision is Decision.NEGATIVE_MANIPULATION:
            assert high.decision is Decision.NEGATIVE_MANIPULATION


class TestDecisionErrorRates:
    def test_poisson_proxies_at_reference_threshold(self):
        cal = DecisionCalibration(
            manipulated=PoissonCounts(10.0), normal=PoissonCounts(100.0)
        )
        fa, miss = decision_error_rates(cal, 50)
        # frozen 60-digit references
        assert fa == pytest.approx(1.8547268838697993006e-19, rel=1e-10)
        assert miss == pytest.approx(1.1784500720979422446e-8, rel=1e-10)
        assert fa < 1e-18
        assert miss < 1e-7

    def test_threshold_zero_always_passes(self):
        cal = DecisionCalibration(
            manipulated=PoissonCounts(10.0), normal=PoissonCounts(100.0)
        )
        fa, miss = decision_error_rates(cal, 0)
        assert fa == 1.0
        assert miss == 0.0

    def test_uncalibrated_is_an_error(self):
        with pytest.raises(ValidationError):
            decision_error_rates(None, 50)

    def test_negative_threshold_is_rejected(self):
        cal = DecisionCalibration(
            manipulated=PoissonCounts(10.0), normal=PoissonCounts(100.0)
        )
        with pytest.raises(ValidationError) as err:
            decision_error_rates(cal, -1)
        assert err.value.field == "threshold"

    def test_plan_threshold_must_sit_below_calibrated_mean(self):
        with pytest.raises(ValidationError):
            salt_plan(count_threshold=120, null_mean=100.0)
        with pytest.raises(ValidationError) as err:  # at the mean it does not sit below it
            salt_plan(count_threshold=100, null_mean=100.0)
        assert err.value.field == "count_threshold"

    @pytest.mark.parametrize(
        "field,value",
        [
            ("null_response_prob", 1.5),
            ("null_response_prob", -0.1),
            ("null_onset_prob", -0.5),
            ("null_in_blind_mean", -1.0),
            ("null_mean", -5.0),
            ("null_mean", 0.0),
            ("flag_photon_number", 0),
        ],
    )
    def test_decision_model_out_of_range_rejected(self, field, value):
        with pytest.raises(ValidationError) as err:
            SelfTestPlan(strategy=Strategy.FLAG_PULSE, **{field: value})
        assert err.value.field == field


def test_flag_photon_number_stays_an_int64():
    # a larger int does not convert to the float exponent of the
    # few-photon click probability
    with pytest.raises(ValidationError) as err:
        SelfTestPlan(strategy=Strategy.FLAG_PULSE, flag_photon_number=2**63)
    assert err.value.field == "flag_photon_number"
    plan = SelfTestPlan(strategy=Strategy.FLAG_PULSE, flag_photon_number=2**63 - 1)
    assert 1.0 - (1.0 - 0.9) ** plan.flag_photon_number == 1.0

@pytest.mark.parametrize(
    "trial_duration,duty_cycle,field",
    [
        (1.0, -0.5, "duty_cycle"),
        (1.0, 1.0, "duty_cycle"),
        (1.0, 1.5, "duty_cycle"),
        (-1e-3, 0.5, "trial_duration"),
        (1.0, math.nan, "duty_cycle"),
        (math.nan, 0.5, "trial_duration"),
        (math.inf, 0.5, "trial_duration"),
    ],
)
def test_schedule_tests_names_its_bad_argument(trial_duration, duty_cycle, field):
    # a public function checks its own raw arguments: past its checks a
    # negative duty cycle reaches numpy, and a negative trial duration
    # would be blamed on the duty cycle
    plan = SelfTestPlan(strategy=Strategy.SALT)
    with pytest.raises(ValidationError) as err:
        schedule_tests(trial_duration, duty_cycle, plan, stream(1))
    assert err.value.field == field
