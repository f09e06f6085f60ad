from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from blindsim import (
    AttackScenario,
    BrightPulse,
    CwSegment,
    CwSource,
    DetectorParams,
    ExperimentConfig,
    OpticalTimeline,
    PHOTON_CODE,
    PhotonSource,
    PulseSource,
    SelfTestPlan,
    Strategy,
    ValidationError,
    gen_attack,
    gen_le_schedule,
    gen_signal_photons,
    merge_timelines,
    stream,
)
from blindsim.units import to_ps


class TestSignalPhotons:
    def test_zero_rate_is_empty(self):
        assert len(gen_signal_photons(0.0, 1.0, stream(1)).photons) == 0

    def test_negative_rate_rejected(self):
        with pytest.raises(ValidationError):
            gen_signal_photons(-1.0, 1.0, stream(1))

    def test_counts_are_poisson(self):
        # rate 5e4/s over 200 us: mean and variance both ~10
        rng = stream(2, "poisson")
        counts = [
            len(gen_signal_photons(5e4, 200e-6, rng).photons) for _ in range(4000)
        ]
        assert np.mean(counts) == pytest.approx(10.0, abs=0.25)
        assert np.var(counts) == pytest.approx(10.0, rel=0.12)

    def test_high_rate_mean_within_three_sigma(self):
        # Poisson CLT check at rate 1e6/s, duration 1 ms over 1e4 trials
        rng = stream(3, "clt")
        n_trials = 10_000
        counts = np.fromiter(
            (len(gen_signal_photons(1e6, 1e-3, rng).photons) for _ in range(n_trials)),
            dtype=np.int64,
            count=n_trials,
        )
        sigma_of_mean = np.sqrt(1000.0 / n_trials)
        assert abs(counts.mean() - 1000.0) < 3 * sigma_of_mean

    def test_interarrival_gaps_are_exponential(self):
        # KS test against the exponential law at significance 0.01
        rate = 5.0e4
        duration = 100_000 / rate * 1.05
        timeline = gen_signal_photons(rate, duration, stream(4, "ks"))
        times = timeline.photons.astype(np.float64)
        gaps = np.diff(times)[:100_000] * 1e-12
        assert len(gaps) >= 100_000
        result = kstest(gaps, "expon", args=(0, 1.0 / rate))
        assert result.pvalue > 0.01

    def test_times_sorted_within_horizon(self):
        tl = gen_signal_photons(2e5, 1e-3, stream(5))
        tl.validate()
        times = tl.photons.tolist()
        assert times == sorted(times)
        assert all(0 <= t < tl.duration_ps for t in times)


class TestAttackGeneration:
    def test_reference_attack_fragment(self):
        scenario = AttackScenario(
            blind_power_level=5e-10,
            fake_pulse_rate=5e4,
            fake_peak_power=3e-6,
            fake_width=2e-9,
        )
        counts = []
        for i in range(2000):
            frag = gen_attack(scenario, 200e-6, stream(6, i))
            counts.append(len(frag.pulses))
        assert np.mean(counts) == pytest.approx(10.0, abs=0.3)
        frag = gen_attack(scenario, 200e-6, stream(6, 0))
        assert frag.cw_segments == (
            CwSegment(0, to_ps(200e-6), 5e-10, CwSource.ATTACK_BLIND),
        )
        for pulse in frag.pulses:
            assert pulse.source is PulseSource.FAKE
            assert pulse.energy == pytest.approx(6e-15, rel=1e-12)

    def test_no_attack_is_empty(self):
        frag = gen_attack(AttackScenario(), 1e-3, stream(7))
        assert len(frag.photons) == 0 and frag.cw_segments == () and frag.pulses == ()

    def test_stop_blind_truncates_segment_and_pulses(self):
        scenario = AttackScenario(
            blind_power_level=5e-10, fake_pulse_rate=1e6, stop_blind_at=100e-6
        )
        frag = gen_attack(scenario, 200e-6, stream(8))
        assert frag.cw_segments[0].stop_ps == to_ps(100e-6)
        assert all(p.time_ps < to_ps(100e-6) for p in frag.pulses)

    def test_fakes_without_blinding_need_explicit_flag(self):
        with pytest.raises(ValidationError):
            gen_attack(AttackScenario(fake_pulse_rate=1e4), 1e-3, stream(9))
        frag = gen_attack(
            AttackScenario(fake_pulse_rate=1e4, allow_fakes_without_blinding=True),
            1e-3,
            stream(9),
        )
        assert frag.cw_segments == ()
        assert len(frag.pulses) > 0


class TestLeSchedule:
    def test_salt_schedule_rate(self):
        plan = SelfTestPlan(
            strategy=Strategy.SALT,
            test_duration=200e-6,
            salt_rate=450e3,
        )
        counts = []
        for i in range(800):
            frag = gen_le_schedule(plan, 100e-6, 500e-6, stream(10, i))
            counts.append(len(frag.photons))
            assert (frag.photon_sources == PHOTON_CODE[PhotonSource.SALT]).all()
            assert (to_ps(100e-6) <= frag.photons).all()
            assert (frag.photons < to_ps(300e-6)).all()
        assert np.mean(counts) == pytest.approx(90.0, rel=0.05)

    def test_flag_pulse_schedule(self):
        plan = SelfTestPlan(strategy=Strategy.FLAG_PULSE, test_duration=25e-9)
        frag = gen_le_schedule(plan, 10e-6, 100e-6, stream(11))
        assert len(frag.pulses) == 1
        pulse = frag.pulses[0]
        assert pulse.width_ps == to_ps(25e-9)
        assert pulse.source is PulseSource.FLAG
        assert pulse.photon_number == 5
        assert pulse.energy == pytest.approx(plan.flag_pulse_energy, rel=1e-9)

    def test_self_blind_schedule(self):
        plan = SelfTestPlan(strategy=Strategy.SELF_BLIND, test_duration=200e-6)
        frag = gen_le_schedule(plan, 100e-6, 500e-6, stream(12))
        assert len(frag.cw_segments) == 1
        seg = frag.cw_segments[0]
        assert seg.source is CwSource.LE_BLIND
        assert (seg.start_ps, seg.stop_ps) == (to_ps(100e-6), to_ps(300e-6))
        assert seg.power == plan.self_blind_power
        assert len(frag.pulses) == 1
        assert frag.pulses[0].time_ps == to_ps(100e-6)
        assert frag.pulses[0].photon_number is None

    def test_flag_energy_reaching_fake_threshold_rejected(self):
        # such a pulse would force clicks from a blinded detector and
        # defeat the test, so the config is never built
        plan = SelfTestPlan(
            strategy=Strategy.FLAG_PULSE,
            test_duration=25e-9,
            flag_pulse_energy=2e-15,
        )
        with pytest.raises(ValidationError) as err:
            ExperimentConfig(
                detector=DetectorParams(fake_energy=1e-15), plan=plan, duty_cycle=0.01
            )
        assert err.value.field == "flag_pulse_energy"

    def test_negative_start_rejected(self):
        plan = SelfTestPlan(strategy=Strategy.SALT, salt_rate=450e3)
        with pytest.raises(ValidationError) as err:
            gen_le_schedule(plan, -1e-6, 1e-3, stream(14))
        assert err.value.field == "test_start"


class TestMergeTimelines:
    def test_merge_with_empty_is_identity(self):
        tl = gen_signal_photons(1e5, 1e-3, stream(14))
        merged = merge_timelines(OpticalTimeline(duration_ps=to_ps(1e-3)), tl)
        assert merged == tl

    def test_merge_is_commutative(self):
        a = gen_signal_photons(1e5, 1e-3, stream(15, "a"))
        b = gen_attack(
            AttackScenario(blind_power_level=5e-10, fake_pulse_rate=5e4),
            1e-3,
            stream(15, "b"),
        )
        assert merge_timelines(a, b) == merge_timelines(b, a)

    def test_superposed_blinding_segments_are_preserved(self):
        dur = to_ps(1e-3)
        a = OpticalTimeline(
            duration_ps=dur,
            cw_segments=(CwSegment(0, dur, 3e-10, CwSource.ATTACK_BLIND),),
        )
        b = OpticalTimeline(
            duration_ps=dur,
            cw_segments=(CwSegment(0, dur, 3e-10, CwSource.LE_BLIND),),
        )
        merged = merge_timelines(a, b)
        assert len(merged.cw_segments) == 2
        assert sum(s.power for s in merged.cw_segments) == pytest.approx(6e-10)

    def test_photon_arrays_are_read_only(self):
        plan = SelfTestPlan(strategy=Strategy.SALT, salt_rate=450e3)
        signal = gen_signal_photons(1e5, 1e-3, stream(16, "a"))
        salt = gen_le_schedule(plan, 100e-6, 1e-3, stream(16, "b"))
        for tl in (signal, salt, merge_timelines(signal, salt)):
            assert not tl.photons.flags.writeable
            assert not tl.photon_sources.flags.writeable

    def test_mismatched_durations_rejected(self):
        with pytest.raises(ValidationError):
            merge_timelines(
                OpticalTimeline(duration_ps=to_ps(1e-3)),
                OpticalTimeline(duration_ps=to_ps(2e-3)),
            )

    @given(
        rate_a=st.floats(0, 2e5),
        rate_b=st.floats(0, 2e5),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_merge_commutes_for_random_fragments(self, rate_a, rate_b, seed):
        a = gen_signal_photons(rate_a, 2e-4, stream(seed, "a"))
        b = gen_signal_photons(rate_b, 2e-4, stream(seed, "b"))
        assert merge_timelines(a, b) == merge_timelines(b, a)


class TestTimelineValidation:
    def test_pulse_energy_is_peak_times_width(self):
        pulse = BrightPulse(0, to_ps(2e-9), 3e-6, PulseSource.FAKE)
        assert pulse.energy == pytest.approx(3e-6 * 2e-9, rel=1e-15)

    def test_rejects_segment_beyond_duration(self):
        tl = OpticalTimeline(
            duration_ps=100,
            cw_segments=(CwSegment(0, 200, 1e-9, CwSource.ATTACK_BLIND),),
        )
        with pytest.raises(ValidationError):
            tl.validate()

    def test_rejects_zero_width_pulse(self):
        tl = OpticalTimeline(
            duration_ps=100, pulses=(BrightPulse(0, 0, 1e-6, PulseSource.FAKE),)
        )
        with pytest.raises(ValidationError):
            tl.validate()
