"""Acceptance suite: every criterion at its stated scale and tolerance.

Each test carries a ``criterion`` label; the conftest hook prints one
pass/fail line per criterion as the suite runs.
"""

from __future__ import annotations

import hashlib
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from blindsim import (
    ClickCause,
    Decision,
    DetectorParams,
    Scenario,
    Strategy,
    count_distribution_oracle,
    decision_error_rates,
    evaluate_salt,
    gen_signal_photons,
    process_timeline,
    run_experiment,
    stream,
)
from blindsim.cli import main
from blindsim.detector import ClickRecord
from blindsim.engine import trial_anatomy
from blindsim.presets import (
    FIGURE_TRIALS,
    WINDOW,
    flag_pulse_config,
    salt_config,
    self_blind_config,
)
from blindsim.units import to_ps

# The large runs fork a second worker; any worker count gives the same
# trials, which tests/test_golden.py checks.
WORKERS = 2


def criterion(label):
    def mark(fn):
        fn.criterion = label
        return fn

    return mark


@criterion("1: normal count distribution, mean 10 +- 1, super-Poissonian, < 30 s")
def test_criterion_1_normal_count_distribution(ref_detector, ref_signal_rate):
    start = time.perf_counter()
    hist = count_distribution_oracle(
        ref_detector, ref_signal_rate, WINDOW, 10_000, stream(1001, "fig3b")
    )
    elapsed = time.perf_counter() - start
    assert hist.n_samples == 10_000
    assert hist.mean() == pytest.approx(10.0, abs=1.0)
    assert hist.variance() > hist.mean()
    assert elapsed < 30.0


@criterion("2: salt-test separation over 7432 + 7686 trials at threshold 50")
def test_criterion_2_salt_separation():
    n_normal, n_manip = FIGURE_TRIALS["fig4"]
    normal = run_experiment(
        salt_config(Scenario.NORMAL, n_normal, seed=2026), threads=WORKERS
    )
    manip = run_experiment(
        salt_config(Scenario.MANIPULATED, n_manip, seed=2027), threads=WORKERS
    )
    counts_n = np.array(
        [v.observed_count for t in normal.trials for v in t.verdicts]
    )
    counts_m = np.array(
        [v.observed_count for t in manip.trials for v in t.verdicts]
    )
    assert (counts_n > 50).mean() >= 0.999
    assert (counts_m < 50).mean() >= 0.999
    assert np.percentile(counts_n, 1) > 60
    assert np.percentile(counts_m, 99) < 40
    # ground-truth agreement: every verdict matches the injected scenario
    assert normal.tally()[1] == 1.0
    assert manip.tally()[1] == 1.0


@criterion("3: flag-pulse response 0.934 +- 0.015 normal, <= 0.01 manipulated")
def test_criterion_3_flag_pulse_probabilities():
    n_normal, n_manip = FIGURE_TRIALS["fig5"]
    normal = run_experiment(
        flag_pulse_config(Scenario.NORMAL, n_normal, seed=2028), threads=WORKERS
    )
    manip = run_experiment(
        flag_pulse_config(Scenario.MANIPULATED, n_manip, seed=2029), threads=WORKERS
    )
    p_normal = normal.summary()["response_fraction"]
    p_manip = manip.summary()["response_fraction"]
    assert p_normal == pytest.approx(0.934, abs=0.015)
    assert p_manip <= 0.01


@criterion("4: self-blind onset 0.976 +- 0.01, silent normal, loud manipulated")
def test_criterion_4_self_blind():
    n_normal, n_manip = FIGURE_TRIALS["fig6"]
    normal = run_experiment(
        self_blind_config(Scenario.NORMAL, n_normal, seed=2030), threads=WORKERS
    )
    manip = run_experiment(
        self_blind_config(Scenario.MANIPULATED, n_manip, seed=2031), threads=WORKERS
    )
    s_normal = normal.summary()
    s_manip = manip.summary()
    assert s_normal["response_fraction"] == pytest.approx(0.976, abs=0.01)
    assert s_normal["in_blind_total"] <= 0.005 * n_normal
    assert s_manip["in_blind_nonzero_fraction"] >= 0.999
    assert s_manip["response_fraction"] <= 0.01


@criterion("5: recovery-attack coverage, exact over 1000 trials")
def test_criterion_5_recovery_attack():
    cfg = self_blind_config(Scenario.RECOVERY_ATTACK, 1000, seed=2032)
    assert cfg.detector.recovery_click_prob == 1.0
    result = run_experiment(cfg)
    for trial in result.trials:
        starts, _, clicks, _ = trial_anatomy(cfg, trial.index)
        a = starts[0]
        b = a + to_ps(cfg.plan.test_duration)
        # the local blinding light holds the power above threshold when
        # the attacker lets go, so the recovery transient never fires
        # inside the test interval
        assert not any(
            c.cause is ClickCause.RECOVERY and a <= c.time_ps < b for c in clicks
        )
        assert trial.verdicts[0].flag_seen is False
        assert trial.verdicts[0].decision in (
            Decision.NEGATIVE_MANIPULATION,
            Decision.BOTH,
        )


@criterion("6: decision-error mathematics vs arbitrary-precision oracle")
def test_criterion_6_decision_error_mathematics():
    false_alarm, miss = decision_error_rates(10.0, 100.0, 50)
    assert false_alarm < 1e-15
    assert miss < 1e-7

    from mpmath import mp, mpf, exp, factorial

    mp.dps = 60
    oracle_fa = float(
        1 - sum(exp(-mpf(10)) * mpf(10) ** i / factorial(i) for i in range(50))
    )
    oracle_miss = float(
        sum(exp(-mpf(100)) * mpf(100) ** i / factorial(i) for i in range(50))
    )
    assert false_alarm == pytest.approx(oracle_fa, rel=1e-10)
    assert miss == pytest.approx(oracle_miss, rel=1e-10)


@criterion("7: byte-identical re-runs from the manifest, any thread count")
def test_criterion_7_manifest_determinism(tmp_path):
    runner = CliRunner()
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    out3 = tmp_path / "c"
    r1 = runner.invoke(main, [
        "simulate", "--scenario", "normal", "--protocol", "salt",
        "--trials", "40", "--seed", "2033", "--out", str(out1), "--threads", "1",
    ])
    assert r1.exit_code == 0
    r2 = runner.invoke(main, [
        "simulate", "--config", str(out1 / "manifest.txt"),
        "--out", str(out2), "--threads", "1",
    ])
    r3 = runner.invoke(main, [
        "simulate", "--config", str(out1 / "manifest.txt"),
        "--out", str(out3), "--threads", "8",
    ])
    assert r2.exit_code == 0 and r3.exit_code == 0

    def digests(path: Path) -> dict[str, str]:
        return {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.iterdir())
            if p.name != "manifest.txt"  # carries wall-clock timestamps
        }

    assert digests(out1) == digests(out2) == digests(out3)


@criterion("8a: dead-time exclusion over 1e6 clicks")
def test_criterion_8a_dead_time_exclusion():
    params = DetectorParams(
        efficiency=1.0, dark_rate=5e3, dead_time=1e-6, afterpulse_prob=0.4
    )
    timeline = gen_signal_photons(1e6, 1.9, stream(2034, "ph"))
    clicks = process_timeline(params, timeline, stream(2034, "det"))
    assert len(clicks) >= 1_000_000
    gaps = np.diff(np.array([c.time_ps for c in clicks]))
    assert int((gaps < to_ps(params.dead_time)).sum()) == 0


@criterion("8b: blinding suppression is exactly zero")
def test_criterion_8b_blinding_suppression(ref_detector, ref_signal_rate):
    from blindsim import CwSegment, CwSource, OpticalTimeline

    signal = gen_signal_photons(ref_signal_rate, 0.02, stream(2035, "ph"))
    blinded = OpticalTimeline(
        duration_ps=signal.duration_ps,
        photons=signal.photons,
        photon_sources=signal.photon_sources,
        cw_segments=(
            CwSegment(0, signal.duration_ps, ref_detector.blind_power, CwSource.ATTACK_BLIND),
        ),
    )
    clicks = process_timeline(ref_detector, blinded, stream(2035, "det"))
    assert clicks == []


@criterion("8c: Poisson generator passes the exponential-gap KS test")
def test_criterion_8c_poisson_ks():
    from scipy.stats import kstest

    rate = 5.0e4
    duration = 100_000 / rate * 1.05
    timeline = gen_signal_photons(rate, duration, stream(2036, "ph"))
    gaps = np.diff(timeline.photons.astype(np.float64))
    gaps = gaps[:100_000] * 1e-12
    assert len(gaps) >= 100_000
    assert kstest(gaps, "expon", args=(0, 1.0 / rate)).pvalue > 0.01


@criterion("8d: verdicts invariant under hidden-label shuffling")
def test_criterion_8d_label_shuffle_invariance():
    cfg = salt_config(Scenario.MANIPULATED, trials=50, seed=2037)
    rng = stream(2037, "shuffle")
    for index in range(cfg.trials):
        starts, _, clicks, _ = trial_anatomy(cfg, index)
        causes = [c.cause for c in clicks]
        rng.shuffle(causes)
        shuffled = [
            ClickRecord(c.time_ps, cause) for c, cause in zip(clicks, causes)
        ]
        for start in starts:
            assert evaluate_salt(cfg.plan, start, clicks) == evaluate_salt(
                cfg.plan, start, shuffled
            )
