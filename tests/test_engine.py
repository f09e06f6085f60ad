from __future__ import annotations

import json
import math
import multiprocessing
import os
import pickle
import signal
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import get_args, get_type_hints

import pytest
from hypothesis import given, settings, strategies as st

from blindsim import (
    AttackScenario,
    Decision,
    DetectorParams,
    ExperimentConfig,
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
    sweep,
)
from blindsim.engine import (
    CONFIG_LEAVES,
    _run_trials,
    build_config,
    build_trial_timeline,
    expected_decisions,
    set_config_value,
)
from blindsim.errors import BlindsimError, field_kind, require_finite
from blindsim.manifest import config_from_flat, config_to_flat
from blindsim.optics import flag_pulse
from blindsim.presets import (
    flag_pulse_config,
    preset_config,
    salt_config,
    self_blind_config,
)
from blindsim.units import MAX_SECONDS, Range, to_ps, to_seconds

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
        from blindsim import ClickCause, process_timeline, stream
        from blindsim.engine import build_trial_timeline
        from blindsim.units import to_ps

        cfg = self_blind_config(Scenario.RECOVERY_ATTACK, 200, seed=10)
        result = run_experiment(cfg)
        for trial in result.trials:
            # the attacker's release happens mid-test; any recovery click
            # there would betray the model failing to superpose the local
            # blinding light (the local release at test end is legitimate)
            starts, timeline = build_trial_timeline(cfg, trial.index)
            clicks = process_timeline(
                cfg.detector, timeline, stream(cfg.seed, trial.index, "detector")
            )
            a = to_ps(starts[0])
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


class TestSweep:
    def test_threshold_sweep_has_perfect_plateau(self):
        # the accuracy plateau spans at least [31, 78]: the manipulated
        # counts never reach 31 and the salted normal counts never fall
        # below 78 at this scale
        cfg = salt_config(Scenario.NORMAL, trials=500, seed=12)
        cfg_m = salt_config(Scenario.MANIPULATED, trials=500, seed=12)
        for thr in (31, 50, 78):
            row_n = sweep(cfg, "plan.count_threshold", [thr])[0]
            row_m = sweep(cfg_m, "plan.count_threshold", [thr])[0]
            assert row_n.accuracy == 1.0
            assert row_m.accuracy == 1.0
        # extreme thresholds break one side
        assert sweep(cfg_m, "plan.count_threshold", [5])[0].accuracy < 1.0

    def test_salt_rate_zero_collapses_detection(self):
        cfg = salt_config(Scenario.MANIPULATED, trials=50, seed=13)
        row = sweep(cfg, "plan.salt_rate", [0.0])[0]
        # without salt light every verdict is INCONCLUSIVE: no detection
        assert row.accuracy == 0.0
        assert dict(row.decisions) == {"INCONCLUSIVE": 50}

    def test_fake_rate_zero_with_blinding_is_silent_negative(self):
        cfg = salt_config(Scenario.MANIPULATED, trials=50, seed=14)
        row = sweep(cfg, "attack.fake_pulse_rate", [0.0])[0]
        assert row.accuracy == 1.0
        assert dict(row.decisions) == {"NEGATIVE_MANIPULATION": 50}

    def test_unknown_path_rejected(self):
        cfg = salt_config(Scenario.NORMAL, trials=5, seed=15)
        with pytest.raises(ValidationError):
            sweep(cfg, "plan.count_treshold", [50])
        with pytest.raises(ValidationError):
            sweep(cfg, "nonsense", [1])


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
        # construction only; with no light and no dark counts a trial this
        # long stays inside the stimulus budget
        dark = DetectorParams(dark_rate=0.0)
        cfg = ExperimentConfig(trial_duration=MAX_SECONDS, signal_rate=0.0, detector=dark)
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
        (pulse,) = gen_le_schedule(cfg.plan, 0.0, cfg.trial_duration, stream(1)).pulses
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
    for path, annotation in CONFIG_LEAVES.items():
        if field_kind(annotation)[0] not in (int, float):
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
        ("attack.allow_fakes_without_blinding", "no"),
        ("attack.allow_fakes_without_blinding", 1),
        ("attack.allow_fakes_without_blinding", None),
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
        assert multiprocessing.active_children() == []

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
        assert multiprocessing.active_children() == []

    def test_no_worker_outlives_the_run(self, forking, bounded_wait):
        cfg = flag_pulse_config(Scenario.NORMAL, trials=10, seed=19)
        assert run_experiment(cfg, threads=2).trials == run_experiment(cfg).trials
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("threads", [0, -3])
    def test_fewer_than_one_worker_rejected(self, threads):
        cfg = flag_pulse_config(Scenario.NORMAL, trials=2, seed=19)
        with pytest.raises(ValidationError) as err:
            run_experiment(cfg, threads=threads)
        assert err.value.field == "threads"
        with pytest.raises(ValidationError) as err:
            sweep(cfg, "seed", [1, 2], threads=threads)
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


def trial_fragments(cfg, index):
    """One trial's timeline fragments, rebuilt with the public generators."""
    starts = schedule_tests(
        cfg.trial_duration, cfg.duty_cycle, cfg.plan, stream(cfg.seed, index, "schedule")
    )
    attack = cfg.attack
    if cfg.scenario == Scenario.RECOVERY_ATTACK:
        attack = replace(attack, stop_blind_at=starts[0] + cfg.plan.test_duration / 2)
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
