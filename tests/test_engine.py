from __future__ import annotations

import json
import math
import os
import pickle
import signal
import time
from collections import Counter
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import get_args, get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blindsim import (
    AttackScenario,
    BrightPulse,
    Decision,
    DetectorParams,
    ExperimentConfig,
    OpticalTimeline,
    PulseSource,
    Scenario,
    SelfTestPlan,
    Strategy,
    ValidationError,
    engine,
    gen_attack,
    gen_le_schedule,
    gen_signal_photons,
    merge_timelines,
    process_timeline,
    run_experiment,
    run_trial,
    schedule_tests,
    stream,
)
from blindsim.config import (
    CONFIG_LEAVES,
    build_config,
    config_from_flat,
    config_to_flat,
    set_config_value,
)
from blindsim.engine import (
    TrialResult,
    _run_trials,
    build_trial_timeline,
    expected_decisions,
    trial_anatomy,
)
from blindsim.errors import BlindsimError, ConfigError, require_finite
from blindsim.optics import flag_pulse
from blindsim.presets import (
    flag_pulse_config,
    preset_config,
    salt_config,
    self_blind_config,
)
from blindsim.selftest import Verdict
from blindsim.units import MAX_SECONDS, Positive, Range, to_ps, to_seconds

PICOSECOND = to_seconds(1)

PRESET_ARMS = [
    (scenario, strategy)
    for scenario in (Scenario.NORMAL, Scenario.MANIPULATED)
    for strategy in Strategy
] + [(Scenario.RECOVERY_ATTACK, Strategy.SELF_BLIND)]


@pytest.fixture(scope="module")
def normal_salt_result():
    return run_experiment(salt_config(Scenario.NORMAL, trials=400, seed=77))


@pytest.fixture(scope="module")
def manipulated_salt_result():
    return run_experiment(salt_config(Scenario.MANIPULATED, trials=400, seed=78))


class TestRunTrial:
    def test_identical_inputs_give_identical_bytes(self):
        cfg = salt_config(Scenario.NORMAL, trials=10, seed=5)
        a = run_trial(cfg, 3)
        b = run_trial(cfg, 3)
        assert a == b
        assert json.dumps(a.to_record(), sort_keys=True) == json.dumps(
            b.to_record(), sort_keys=True
        )

    def test_trials_are_independent_of_each_other(self):
        cfg = salt_config(Scenario.NORMAL, trials=20, seed=6)
        full = run_experiment(cfg)
        # any single trial recomputed in isolation matches the batch run
        for idx in (0, 7, 19):
            assert run_trial(cfg, idx) == full.trials[idx]

    def test_cause_counts_sum_to_total(self, normal_salt_result):
        for trial in normal_salt_result.trials:
            assert sum(n for _, n in trial.cause_counts) == trial.total_clicks

    def test_out_of_range_index_rejected(self):
        cfg = salt_config(Scenario.NORMAL, trials=5, seed=6)
        with pytest.raises(ValidationError):
            run_trial(cfg, 5)

    @pytest.mark.parametrize("index", [1.5, math.nan, True])
    def test_non_integer_index_rejected(self, index):
        # an index that is not an int would key the trial's streams by its text
        cfg = salt_config(Scenario.NORMAL, trials=5, seed=6)
        for call in (run_trial, build_trial_timeline):
            with pytest.raises(ValidationError) as err:
                call(cfg, index)
            assert err.value.field == "trial_index"


class TestScenarioOutcomes:
    def test_normal_salt_trials_pass(self, normal_salt_result):
        assert normal_salt_result.tally()[1] == 1.0
        h = normal_salt_result.histograms["test_counts"]
        assert h.mean() == pytest.approx(100.0, abs=5.0)
        assert h.lower_tail(60) < 0.01

    def test_manipulated_salt_trials_fail(self, manipulated_salt_result):
        assert manipulated_salt_result.tally()[1] == 1.0
        h = manipulated_salt_result.histograms["test_counts"]
        assert h.mean() == pytest.approx(10.0, abs=2.0)
        assert h.lower_tail(39) >= 0.99

    def test_manipulated_self_blind_seen_as_positive_or_both(self):
        result = run_experiment(self_blind_config(Scenario.MANIPULATED, 200, seed=9))
        assert result.tally()[1] >= 0.99
        for trial in result.trials:
            assert trial.verdicts[0].decision in (
                Decision.POSITIVE_MANIPULATION,
                Decision.BOTH,
            )

    def test_recovery_attack_detected_and_recovery_click_suppressed(self):
        from blindsim import ClickCause
        from blindsim.units import to_ps

        cfg = self_blind_config(Scenario.RECOVERY_ATTACK, 200, seed=10)
        result = run_experiment(cfg)
        for trial in result.trials:
            # the attacker's release happens mid-test; any recovery click
            # there would betray the model failing to superpose the local
            # blinding light (the local release at test end is legitimate)
            starts, _, clicks, _ = trial_anatomy(cfg, trial.index)
            a = starts[0]
            b = a + to_ps(cfg.plan.test_duration)
            assert not any(
                c.cause is ClickCause.RECOVERY and a <= c.time_ps < b for c in clicks
            )
            assert trial.verdicts[0].decision in (
                Decision.NEGATIVE_MANIPULATION,
                Decision.BOTH,
            )
        assert result.tally()[1] == 1.0


class TestExpectedDecisions:
    def test_mapping(self):
        assert expected_decisions(Scenario.NORMAL, Strategy.SALT) == {Decision.NORMAL}
        assert expected_decisions(Scenario.MANIPULATED, Strategy.SALT) == {
            Decision.NEGATIVE_MANIPULATION
        }
        assert expected_decisions(Scenario.MANIPULATED, Strategy.SELF_BLIND) == {
            Decision.POSITIVE_MANIPULATION,
            Decision.BOTH,
        }
        assert expected_decisions(Scenario.RECOVERY_ATTACK, Strategy.SELF_BLIND) == {
            Decision.NEGATIVE_MANIPULATION,
            Decision.BOTH,
        }
        assert expected_decisions(Scenario.CUSTOM, Strategy.SALT) == frozenset()

    @pytest.mark.parametrize("strategy", [Strategy.SALT, Strategy.FLAG_PULSE])
    def test_recovery_without_self_blinding_expects_a_negative(self, strategy):
        # only the self-blind test can also see the recovery click
        assert expected_decisions(Scenario.RECOVERY_ATTACK, strategy) == {
            Decision.NEGATIVE_MANIPULATION
        }


@pytest.mark.parametrize(
    "builder,strategy",
    [(salt_config, Strategy.SALT), (flag_pulse_config, Strategy.FLAG_PULSE)],
    ids=["salt", "flag"],
)
def test_builder_rejects_recovery_as_preset_config_does(builder, strategy):
    # a recovery run without self-blinding would bring no attacker
    with pytest.raises(ConfigError) as expected:
        preset_config(Scenario.RECOVERY_ATTACK, strategy, 20, 3)
    with pytest.raises(ConfigError) as err:
        builder(Scenario.RECOVERY_ATTACK, 20, 3)
    assert str(err.value) == str(expected.value)


def tally_at(cfg, path, value):
    """Decision counts and accuracy of ``cfg`` run with one leaf set."""
    return run_experiment(set_config_value(cfg, path, value)).tally()


class TestSweep:
    def test_threshold_sweep_has_perfect_plateau(self):
        # the accuracy plateau spans at least [31, 78]: the manipulated
        # counts never reach 31 and the salted normal counts never fall
        # below 78 at this scale
        cfg = salt_config(Scenario.NORMAL, trials=500, seed=12)
        cfg_m = salt_config(Scenario.MANIPULATED, trials=500, seed=12)
        for thr in (31, 50, 78):
            assert tally_at(cfg, "plan.count_threshold", thr)[1] == 1.0
            assert tally_at(cfg_m, "plan.count_threshold", thr)[1] == 1.0
        # extreme thresholds break one side
        assert tally_at(cfg_m, "plan.count_threshold", 5)[1] < 1.0

    def test_salt_rate_zero_collapses_detection(self):
        cfg = salt_config(Scenario.MANIPULATED, trials=50, seed=13)
        counts, accuracy = tally_at(cfg, "plan.salt_rate", 0.0)
        # without salt light every verdict is INCONCLUSIVE: no detection
        assert accuracy == 0.0
        assert dict(counts) == {"INCONCLUSIVE": 50}

    def test_fake_rate_zero_with_blinding_is_silent_negative(self):
        cfg = salt_config(Scenario.MANIPULATED, trials=50, seed=14)
        counts, accuracy = tally_at(cfg, "attack.fake_pulse_rate", 0.0)
        assert accuracy == 1.0
        assert dict(counts) == {"NEGATIVE_MANIPULATION": 50}

    def test_unknown_path_rejected(self):
        cfg = salt_config(Scenario.NORMAL, trials=5, seed=15)
        with pytest.raises(ValidationError):
            set_config_value(cfg, "plan.count_treshold", 50)
        with pytest.raises(ValidationError):
            set_config_value(cfg, "nonsense", 1)


class TestConfigValidation:
    def test_trials_must_be_positive(self):
        with pytest.raises(ValidationError) as err:
            ExperimentConfig(trials=0)
        assert err.value.field == "trials"

    def test_normal_scenario_rejects_attacks(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(
                scenario=Scenario.NORMAL,
                attack=AttackScenario(blind_power_level=1e-9),
            )

    def test_self_blind_power_must_blind(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(
                scenario=Scenario.CUSTOM,
                plan=SelfTestPlan(strategy=Strategy.SELF_BLIND, self_blind_power=1e-12),
            )

    @pytest.mark.parametrize(
        "changes,field",
        [
            pytest.param({"trial_duration": 0.0}, "trial_duration", id="zero-trial"),
            pytest.param(
                {"trial_duration": 0.0, "duty_cycle": 0.0}, "trial_duration",
                id="zero-trial-zero-duty",
            ),
            pytest.param({"duty_cycle": 0.0}, "duty_cycle", id="zero-duty"),
            # the trial is shorter than one 200 us test
            pytest.param(
                {"duty_cycle": 0.99, "trial_duration": 1e-5}, "duty_cycle", id="short-trial"
            ),
        ],
    )
    def test_config_without_a_self_test_rejected(self, changes, field):
        # a run without tests would give no verdicts and an accuracy of nan
        with pytest.raises(ValidationError) as err:
            replace(salt_config(Scenario.NORMAL, trials=3, seed=11), **changes)
        assert err.value.field == field

    def test_longest_accepted_duration_fits_int64_picoseconds(self):
        # construction only; with no light, no dark counts and one test a
        # trial this long stays inside the stimulus budget
        dark = DetectorParams(dark_rate=0.0)
        plan = SelfTestPlan(Strategy.SALT, test_duration=MAX_SECONDS / 2)
        cfg = ExperimentConfig(
            trial_duration=MAX_SECONDS, signal_rate=0.0, detector=dark, plan=plan
        )
        assert to_ps(cfg.trial_duration) <= 2**63 - 1
        with pytest.raises(ValidationError) as err:
            replace(cfg, trial_duration=math.nextafter(MAX_SECONDS, math.inf))
        assert err.value.field == "trial_duration"
        with pytest.raises(ValidationError) as err:
            ExperimentConfig(trial_duration=MAX_SECONDS)  # 5e11 signal photons
        assert err.value.field == "signal_rate"

    @pytest.mark.parametrize(
        "changes,field",
        [
            ({"signal_rate": 1e12 / 40}, "signal_rate"),  # x 4e-4 s
            ({"detector": DetectorParams(dark_rate=1e12 / 40)}, "dark_rate"),
            ({"detector": DetectorParams(noise_rate=1e12 / 40)}, "noise_rate"),
            # 1 test of 200 us in the default 400 us trial
            ({"plan": SelfTestPlan(Strategy.SALT, salt_rate=1e12 / 20)}, "salt_rate"),
            (
                {
                    "scenario": Scenario.MANIPULATED,
                    "attack": AttackScenario(blind_power_level=1e-3, fake_pulse_rate=1e12 / 40),
                },
                "fake_pulse_rate",
            ),
            # 1e9 tests of 1 ps in a 2 ms trial
            (
                {
                    "trial_duration": 2e-3,
                    "plan": SelfTestPlan(
                        Strategy.FLAG_PULSE, test_duration=1e-12, response_window=1e-12
                    ),
                },
                "test_duration",
            ),
        ],
    )
    def test_stimulus_budget_names_the_largest_term(self, changes, field):
        # each case expects 1e9 stimuli from its leaf, 100 times the budget
        with pytest.raises(ValidationError) as err:
            ExperimentConfig(**changes)
        assert err.value.field == field
        assert "stimuli" in err.value.message

    def test_stimulus_budget_counts_spans(self):
        # the budget is 1e7 per 400 us trial; the fake pulses count only
        # while the attacker blinds, and a FLAG_PULSE plan fires no salt
        ExperimentConfig(signal_rate=2.4e10)  # 9.6e6 photons
        with pytest.raises(ValidationError):
            ExperimentConfig(signal_rate=2.6e10)
        attack = AttackScenario(blind_power_level=1e-3, fake_pulse_rate=1e12, stop_blind_at=5e-6)
        ExperimentConfig(attack=attack, scenario=Scenario.MANIPULATED)  # 5e6 fakes
        with pytest.raises(ValidationError) as err:
            ExperimentConfig(
                attack=replace(attack, stop_blind_at=2e-5), scenario=Scenario.MANIPULATED
            )
        assert err.value.field == "fake_pulse_rate"
        plan = SelfTestPlan(Strategy.FLAG_PULSE, salt_rate=1e12, test_duration=1e-8)
        ExperimentConfig(plan=plan, duty_cycle=0.05)  # as SALT, 2e7 salt photons

    def test_stimulus_budget_counts_the_afterpulse_cascade(self):
        # at p = 0.999999 each of a trial's 26 stimuli sets off 1e6
        # afterpulses on average; a 1 ps dead time leaves room for 4e8
        # clicks in the 400 us trial, a 100 ps one for only 4e6
        cascading = DetectorParams(afterpulse_prob=0.999999, dead_time=1e-12)
        with pytest.raises(ValidationError) as err:
            ExperimentConfig(detector=cascading)
        assert err.value.field == "afterpulse_prob"
        ExperimentConfig(detector=replace(cascading, dead_time=1e-10))


def numeric_leaves(cls=ExperimentConfig, prefix=""):
    """Dotted path and type (int or float) of every numeric, possibly optional, leaf."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        ann = hints[f.name]
        if is_dataclass(ann):
            yield from numeric_leaves(ann, f"{prefix}{f.name}.")
        elif kinds := {int, float} & set(get_args(ann) or (ann,)):
            yield prefix + f.name, kinds.pop()


@pytest.mark.parametrize(
    "path,bad",
    [
        (path, bad)
        for path, kind in numeric_leaves()
        for bad in [float("nan"), float("inf"), "abc", True] + ([2.5] if kind is int else [])
    ],
)
def test_non_finite_or_non_numeric_leaf_rejected(path, bad):
    with pytest.raises(ValidationError) as err:
        set_config_value(ExperimentConfig(), path, bad)
    assert err.value.field == path.rsplit(".", 1)[-1]


# A cross-field invariant names one field of the pair.  At the default
# config (SALT plan, NORMAL scenario) a single numeric leaf can break
# only these, each naming a partner field.
_PARTNER = {
    "attack.blind_power_level": ("scenario",),  # NORMAL carries no attack
    "detector.fake_energy": ("flag_pulse_energy",),  # flag pulse stays below it
    "plan.null_mean": ("count_threshold",),  # threshold sits below the mean
    # the trial holds at least one test, and the tests fit it; a long
    # trial expects more signal photons than the stimulus budget allows
    "trial_duration": ("duty_cycle", "signal_rate"),
    "plan.test_duration": ("duty_cycle",),
    "plan.response_window": ("duty_cycle",),
}


@pytest.mark.parametrize(
    "strategy,fake_energy,flag_energy",
    [
        (Strategy.FLAG_PULSE, 6.07194931907197e-15, 6.0719493190719695e-15),
        (Strategy.SELF_BLIND, 9.986848846243594e-15, 9.986848846243592e-15),
    ],
)
def test_flag_pulse_rounding_onto_the_fake_threshold_rejected(
    strategy, fake_energy, flag_energy
):
    # the plan's energy sits below the threshold, but the emitted pulse's
    # peak power times width rounds onto it
    base = preset_config(Scenario.NORMAL, strategy, trials=2, seed=1)
    plan = replace(base.plan, flag_pulse_energy=flag_energy)
    assert flag_energy < fake_energy <= flag_pulse(plan, 0).energy
    with pytest.raises(ValidationError) as err:
        build_config(
            {"detector.fake_energy": fake_energy, "plan.flag_pulse_energy": flag_energy},
            base,
        )
    assert err.value.field == "flag_pulse_energy"
    assert err.value.message == "must stay below the fake-state energy threshold"


def test_build_config_rejects_an_unknown_leaf():
    with pytest.raises(ConfigError, match="nonexistent"):
        build_config({"nonexistent": 1})


@given(
    strategy=st.sampled_from([Strategy.FLAG_PULSE, Strategy.SELF_BLIND]),
    test_duration=st.floats(1e-9, 4e-6),
    fake_energy=st.floats(1e-18, 1e-12),
)
@settings(max_examples=200, deadline=None)
def test_accepted_config_fires_flag_pulses_below_the_fake_threshold(
    strategy, test_duration, fake_energy
):
    # 1 ulp below the threshold, where the emitted energy can round onto it
    flag_energy = math.nextafter(fake_energy, 0.0)
    try:
        cfg = ExperimentConfig(
            detector=DetectorParams(fake_energy=fake_energy),
            plan=SelfTestPlan(
                strategy=strategy, test_duration=test_duration, flag_pulse_energy=flag_energy
            ),
            duty_cycle=0.01,
        )
    except ValidationError as err:
        assert err.field == "flag_pulse_energy"
    else:
        (pulse,) = gen_le_schedule(cfg.plan, 0, cfg.trial_duration, stream(1)).pulses
        assert pulse.energy < fake_energy


@pytest.mark.parametrize("path,kind", list(numeric_leaves()))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_numeric_leaf_is_valid_by_construction(path, kind, data):
    sub_ps = st.floats(-2 * PICOSECOND, 2 * PICOSECOND)
    value = data.draw(st.floats() | st.integers() | sub_ps, label="value")
    try:
        cfg = set_config_value(ExperimentConfig(), path, value)
    except ValidationError as err:
        assert err.field in {path.rsplit(".", 1)[-1], *_PARTNER.get(path, ())}
    else:
        assert config_from_flat(config_to_flat(cfg)) == cfg


@pytest.mark.parametrize(
    "path",
    ["detector.dead_time", "attack.fake_width", "plan.test_duration", "plan.response_window"],
)
def test_positive_duration_is_at_least_one_picosecond(path):
    # a shorter duration rounds to 0 ps; the owner alone, since at the
    # default trial a 1 ps test would not fit its response windows
    parent, name = path.split(".")
    owner = getattr(ExperimentConfig(), parent)
    with pytest.raises(ValidationError) as err:
        replace(owner, **{name: 0.1 * PICOSECOND})
    assert err.value.field == name
    assert getattr(replace(owner, **{name: PICOSECOND}), name) == PICOSECOND


def test_every_numeric_leaf_declares_its_range():
    # a new leaf without a declared range fails here
    unbounded = {"seed"}
    for path, (kind, _) in CONFIG_LEAVES.items():
        if kind not in (int, float):
            continue
        *parents, name = path.split(".")
        owner = ExperimentConfig
        for parent in parents:
            owner = get_type_hints(owner)[parent]
        hint = get_type_hints(owner, include_extras=True)[name]
        declared = [
            x for a in (hint, *get_args(hint)) for x in getattr(a, "__metadata__", ())
            if isinstance(x, Range)
        ]
        assert bool(declared) != (path in unbounded), path


@pytest.mark.parametrize(
    "path,bad",
    [
        ("scenario", "bogus"),
        ("scenario", "NORMAL"),  # the member's value, not the member
        ("scenario", Strategy.SALT),
        ("plan.strategy", "bogus"),
        ("plan.strategy", "SALT"),
        ("plan.strategy", None),
    ],
)
def test_enum_or_bool_leaf_takes_only_its_kind(path, bad):
    with pytest.raises(ValidationError) as err:
        set_config_value(ExperimentConfig(), path, bad)
    assert err.value.field == path.rsplit(".", 1)[-1]


@dataclass(frozen=True)
class _Annotated:
    x: float = 1.0
    n: int = 1
    m: int | None = 1
    flag: bool = False
    positive: Positive = 1.0

    def __post_init__(self) -> None:
        require_finite(self)


@pytest.mark.parametrize(
    "field,bad",
    [
        ("x", float("nan")),
        ("x", float("inf")),
        ("x", True),
        pytest.param("x", 2**60 + 1, id="x-2**60+1"),  # a float cannot hold it exactly
        pytest.param("x", 10**400, id="x-10**400"),  # float() overflows
        ("n", 2.5),
        ("flag", "unchecked"),
        ("flag", 0),
        ("positive", math.inf),  # past the one-comparison fast path too
    ],
)
def test_require_finite_reads_the_annotations(field, bad):
    with pytest.raises(ValidationError) as err:
        _Annotated(**{field: bad})
    assert err.value.field == field


def test_require_finite_allows_none():
    assert _Annotated(x=2**60, m=None, flag=True).m is None


def test_validation_error_survives_pickling():
    # a trial that raises in a worker process reaches the caller pickled
    err = pickle.loads(pickle.dumps(ValidationError("trials", "must be >= 1")))
    assert type(err) is ValidationError
    assert err.field == "trials"
    assert str(err) == "trials: must be >= 1"


@pytest.fixture
def forking(monkeypatch):
    """Report 8 CPUs, so that ``threads > 1`` forks workers on any host."""
    monkeypatch.setattr(os, "cpu_count", lambda: 8)


@pytest.fixture
def bounded_wait():
    """Fail the test after 60 s, so that a blocked ``recv()`` cannot hang the suite."""

    def expire(signum, frame):
        raise TimeoutError("still running after 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def assert_no_child_left():
    """No child process of this one is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkerInvariance:
    def test_results_identical_across_thread_counts(self):
        cfg = flag_pulse_config(Scenario.NORMAL, trials=60, seed=16)
        one = run_experiment(cfg, threads=1)
        four = run_experiment(cfg, threads=4)
        assert one.trials == four.trials
        assert one.histograms == four.histograms

    @pytest.mark.parametrize("strategy", [Strategy.SALT, Strategy.SELF_BLIND])
    def test_any_contiguous_split_gives_the_serial_trials(self, strategy):
        cfg = preset_config(Scenario.NORMAL, strategy, trials=24, seed=18)
        serial = [run_trial(cfg, i) for i in range(cfg.trials)]
        for workers in (1, 2, 3, 8):
            bounds = [cfg.trials * j // workers for j in range(workers + 1)]
            shares = list(zip(bounds, bounds[1:]))
            runs = {lo: _run_trials(cfg, lo, hi) for lo, hi in reversed(shares)}
            assert [t for lo, _ in shares for t in runs[lo]] == serial, workers

    def test_trial_raising_in_a_worker_reaches_the_caller(
        self, forking, bounded_wait, monkeypatch
    ):
        cfg = flag_pulse_config(Scenario.NORMAL, trials=10, seed=19)
        caller = os.getpid()

        def run_trial_failing_late(config, i):
            if i >= 5:  # the second of two shares runs in a child
                raise ValidationError("trial_index", f"raised in process {os.getpid()}")
            return run_trial(config, i)

        monkeypatch.setattr(engine, "run_trial", run_trial_failing_late)
        with pytest.raises(ValidationError) as err:
            run_experiment(cfg, threads=2)
        assert err.value.field == "trial_index"
        assert int(str(err.value).rsplit(" ", 1)[1]) != caller
        assert_no_child_left()

    def test_worker_dying_without_a_result_names_its_trials(
        self, forking, bounded_wait, monkeypatch
    ):
        cfg = flag_pulse_config(Scenario.NORMAL, trials=10, seed=19)

        def run_trial_dying_late(config, i):
            if i >= 5:  # only ever in the child: ``forking`` makes two shares
                os._exit(3)
            return run_trial(config, i)

        monkeypatch.setattr(engine, "run_trial", run_trial_dying_late)
        with pytest.raises(BlindsimError, match=r"trials 5\.\.9"):
            run_experiment(cfg, threads=2)
        assert_no_child_left()

    def test_worker_result_that_cannot_be_pickled_reads_as_no_result(
        self, forking, bounded_wait, monkeypatch
    ):
        cfg = flag_pulse_config(Scenario.NORMAL, trials=10, seed=19)

        def run_trial_raising_late(config, i):
            if i >= 5:  # only ever in the child: ``forking`` makes two shares
                error = BlindsimError("cannot cross a pipe")
                error.hook = lambda: None  # a lambda does not pickle
                raise error
            return run_trial(config, i)

        monkeypatch.setattr(engine, "run_trial", run_trial_raising_late)
        with pytest.raises(BlindsimError, match=r"trials 5\.\.9"):
            run_experiment(cfg, threads=2)
        assert_no_child_left()

    @pytest.mark.parametrize("error", [ValidationError("trial_index", "boom"), KeyboardInterrupt()])
    def test_caller_raising_kills_and_reaps_its_workers(
        self, forking, bounded_wait, monkeypatch, error
    ):
        cfg = flag_pulse_config(Scenario.NORMAL, trials=10, seed=19)
        caller = os.getpid()

        def run_trial_failing_here(config, i):
            if os.getpid() == caller:
                raise error
            time.sleep(60)  # the child's share would outlast the test's wait

        monkeypatch.setattr(engine, "run_trial", run_trial_failing_here)
        started = time.monotonic()
        with pytest.raises(type(error)):
            run_experiment(cfg, threads=2)
        assert time.monotonic() - started < 30
        assert_no_child_left()

    def test_no_worker_outlives_the_run(self, forking, bounded_wait):
        cfg = flag_pulse_config(Scenario.NORMAL, trials=10, seed=19)
        assert run_experiment(cfg, threads=2).trials == run_experiment(cfg).trials
        assert_no_child_left()

    @pytest.mark.parametrize("threads", [0, -3, math.nan, 2.5, True])
    def test_fewer_than_one_worker_rejected(self, threads):
        cfg = flag_pulse_config(Scenario.NORMAL, trials=2, seed=19)
        with pytest.raises(ValidationError) as err:
            run_experiment(cfg, threads=threads)
        assert err.value.field == "threads"


@pytest.mark.parametrize("scenario,strategy", PRESET_ARMS)
def test_trials_construct_no_plan(scenario, strategy, monkeypatch):
    # The plan is the run's protocol; a trial's schedule is start times.
    cfg = preset_config(scenario, strategy, trials=20, seed=17)
    built = []
    validate = SelfTestPlan.__post_init__

    def counting(plan):
        built.append(plan)
        validate(plan)

    monkeypatch.setattr(SelfTestPlan, "__post_init__", counting)
    run_experiment(cfg)
    assert built == []


def offset_histogram(offsets_ps):
    """The response-offset histogram of one flag trial with the given click offsets."""
    cfg = flag_pulse_config(Scenario.NORMAL, trials=1, seed=1)
    verdict = Verdict(Decision.NORMAL, 1, flag_seen=True)
    trial = TrialResult(0, (verdict,), (), 0, tuple(offsets_ps), "1/0")
    return engine._build_histograms(cfg, (trial,))["response_offsets"]


def test_response_offsets_land_in_their_integer_bin():
    # the float edges 0.0 + 10e-9 * k round up past 30, 60, 120 and 170 ns,
    # so only the integer offsets put those four in their own bin
    h = offset_histogram([0, 30_000, 60_000, 120_000, 170_000, 199_999])
    assert h.bin_edges == tuple(0.0 + 10e-9 * np.arange(21))
    assert [k for k, n in enumerate(h.counts) for _ in range(n)] == [0, 3, 6, 12, 17, 19]
    assert h.n_samples == 6


@pytest.mark.parametrize("offset", [-1, 200_000])
def test_response_offset_outside_the_span_rejected(offset):
    with pytest.raises(ValidationError) as err:
        offset_histogram([5_000, offset])
    assert err.value.field == "counts"


@pytest.mark.parametrize("scenario,strategy", PRESET_ARMS)
def test_summary_reads_what_the_verdicts_say(scenario, strategy):
    # summary() reads the histograms, and must equal these formulas on
    # the verdicts, by type and value
    result = run_experiment(preset_config(scenario, strategy, trials=60, seed=29))
    verdicts = [v for t in result.trials for v in t.verdicts]
    flags = [v.flag_seen for v in verdicts if v.flag_seen is not None]
    blinds = [v.in_blind_clicks for v in verdicts if v.in_blind_clicks is not None]
    expected = {}
    if flags:
        expected["response_fraction"] = sum(flags) / len(flags)
    if blinds:
        expected["in_blind_total"] = int(sum(blinds))
        expected["in_blind_nonzero_fraction"] = sum(1 for b in blinds if b > 0) / len(blinds)
    summary = result.summary()
    tallied = {"scenario", "strategy", "trials", "decisions", "accuracy"}
    counted = {"test_count_mean", "test_count_variance"}
    got = {k: summary[k] for k in summary.keys() - tallied - counted}
    assert got == expected
    assert [type(got[k]) for k in expected] == [type(v) for v in expected.values()]


@pytest.mark.parametrize("scenario,strategy", PRESET_ARMS)
def test_anatomy_is_the_trial(scenario, strategy):
    # trial_anatomy's clicks and verdicts are the ones run_trial folds
    cfg = preset_config(scenario, strategy, trials=30, seed=31)
    for index in range(cfg.trials):
        trial = run_trial(cfg, index)
        _, _, clicks, verdicts = trial_anatomy(cfg, index)
        assert verdicts == trial.verdicts
        assert len(clicks) == trial.total_clicks
        assert Counter(c.cause.value for c in clicks) == dict(trial.cause_counts)


def trial_fragments(cfg, index):
    """One trial's timeline fragments, rebuilt with the public generators."""
    starts = schedule_tests(
        cfg.trial_duration, cfg.duty_cycle, cfg.plan, stream(cfg.seed, index, "schedule")
    )
    attack = cfg.attack
    if cfg.scenario == Scenario.RECOVERY_ATTACK:
        attack = replace(attack, stop_blind_at=to_seconds(starts[0]) + cfg.plan.test_duration / 2)
    le_rng = stream(cfg.seed, index, "le")
    return [
        gen_signal_photons(
            cfg.signal_rate, cfg.trial_duration, stream(cfg.seed, index, "signal")
        ),
        gen_attack(attack, cfg.trial_duration, stream(cfg.seed, index, "attack")),
        *[
            gen_le_schedule(cfg.plan, start, cfg.trial_duration, le_rng)
            for start in starts
        ],
    ]


@pytest.mark.parametrize("scenario,strategy", PRESET_ARMS)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_fragment_order_changes_neither_timeline_nor_clicks(scenario, strategy, data):
    # Four tests per trial, so light-emitter fragments also interleave
    # with each other.
    cfg = preset_config(scenario, strategy, trials=50, seed=18)
    cfg = set_config_value(cfg, "trial_duration", 4 * cfg.trial_duration)
    index = data.draw(st.integers(0, cfg.trials - 1), label="index")
    fragments = trial_fragments(cfg, index)
    assert len(fragments) == 6
    _, timeline = build_trial_timeline(cfg, index)
    assert merge_timelines(*fragments) == timeline
    shuffled = data.draw(st.permutations(fragments), label="order")
    merged = merge_timelines(*shuffled)
    assert merged == timeline
    clicks = process_timeline(cfg.detector, timeline, stream(cfg.seed, index, "detector"))
    assert process_timeline(cfg.detector, merged, stream(cfg.seed, index, "detector")) == clicks


@pytest.mark.parametrize("scenario,strategy", PRESET_ARMS)
def test_dead_time_is_one_full_window_per_click(scenario, strategy):
    # The law behind calibrate_dead_time: every click opens a dead window
    # of dead_time and no click falls inside one, so the dead time of a
    # trial, the measure of the union of [t, t + dead_ps) within the
    # horizon, is sum(min(dead_ps, horizon - t)) over its clicks, exactly.
    cfg = preset_config(scenario, strategy, trials=100, seed=23)
    dead_ps = to_ps(cfg.detector.dead_time)
    # the arm's detector on two forced pulses: the second clicks once
    # they are dead_ps apart, and not a picosecond sooner
    quiet = replace(cfg.detector, dark_rate=0.0, afterpulse_prob=0.0, noise_rate=0.0)
    for gap, clicks in ((dead_ps - 1, 1), (dead_ps, 2)):
        pair = OpticalTimeline(
            duration_ps=gap + 1000,
            pulses=tuple(BrightPulse(t, 1000, 1e-5, PulseSource.FAKE) for t in (0, gap)),
        )
        assert len(process_timeline(quiet, pair, stream(23, "pair"))) == clicks
    total_clicks = 0
    for index in range(cfg.trials):
        _, timeline, clicks, _ = trial_anatomy(cfg, index)
        horizon = timeline.duration_ps
        times = [c.time_ps for c in clicks]
        assert all(b - a >= dead_ps for a, b in zip(times, times[1:]))
        dead = reach = 0  # union of the dead windows, swept in time order
        for t in times:
            end = min(t + dead_ps, horizon)
            dead += max(0, end - max(t, reach))
            reach = max(reach, end)
        assert dead == sum(min(dead_ps, horizon - t) for t in times)
        total_clicks += len(times)
    assert total_clicks > 5 * cfg.trials
