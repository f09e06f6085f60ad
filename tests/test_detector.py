from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindsim import (
    BrightPulse,
    ClickCause,
    ClickRecord,
    CwSegment,
    CwSource,
    DetectorParams,
    OpticalTimeline,
    PHOTON_CODE,
    PHOTON_SOURCES,
    PhotonSource,
    PulseSource,
    ValidationError,
    calibrate_dead_time,
    count_distribution_oracle,
    gen_signal_photons,
    merge_timelines,
    process_timeline,
    stream,
)
from blindsim import presets
from blindsim.engine import calibrate_source_rate, realized_click_rate
from blindsim.optics import _poisson_arrival_ps
from blindsim.presets import MAX_RATE
from blindsim.units import to_ps, to_seconds


def quiet_params(**overrides) -> DetectorParams:
    """Detector with all stochastic side processes off unless overridden."""
    defaults = dict(
        efficiency=0.9,
        dark_rate=0.0,
        dead_time=1e-8,
        afterpulse_prob=0.0,
        recovery_click_prob=0.0,
    )
    defaults.update(overrides)
    return DetectorParams(**defaults)


def photon_arrays(times, source=PhotonSource.SIGNAL) -> dict:
    """``photons`` and ``photon_sources`` of a timeline, all from one source."""
    times = np.asarray(times, dtype=np.int64)
    codes = np.full(times.size, PHOTON_CODE[source], dtype=np.uint8)
    return {"photons": times, "photon_sources": codes}


class TestDarkCounts:
    def test_dark_rate_sets_the_click_count(self):
        # empty timeline, 0.2 s, 7e3/s dark rate: mean count 1400.
        # Dead time is kept negligible so no counts are eaten.
        params = quiet_params(dark_rate=7.0e3)
        timeline = OpticalTimeline(duration_ps=to_ps(0.2))
        counts = [
            len(process_timeline(params, timeline, stream(3, i, "det")))
            for i in range(60)
        ]
        mean = np.mean(counts)
        se = np.sqrt(1400 / 60)
        assert abs(mean - 1400) < 4 * se
        assert all(
            c.cause is ClickCause.DARK
            for c in process_timeline(params, timeline, stream(3, 0, "det"))
        )

    def test_no_stimulus_no_noise_means_no_clicks(self):
        params = quiet_params(dark_rate=0.0)
        timeline = OpticalTimeline(duration_ps=to_ps(0.2))
        for seed in range(25):
            assert process_timeline(params, timeline, stream(seed, "det")) == []


class TestBlinding:
    def test_cw_at_threshold_suppresses_photons(self):
        # 500 pW held for the full interval blinds the detector exactly
        # at its threshold; a photon mid-interval produces nothing.
        params = quiet_params(dark_rate=0.0)
        dur = to_ps(200e-6)
        timeline = OpticalTimeline(
            duration_ps=dur,
            **photon_arrays([dur // 2]),
            cw_segments=(CwSegment(0, dur, 5.0e-10, CwSource.ATTACK_BLIND),),
        )
        for seed in range(20):
            assert process_timeline(params, timeline, stream(seed, "d")) == []

    def test_blinding_suppression_is_exact(self):
        # CW above threshold, no bright pulses: exactly zero clicks even
        # with dark counts and afterpulsing enabled (both gated off).
        params = quiet_params(dark_rate=7e3, afterpulse_prob=0.4)
        dur = to_ps(0.05)
        timeline = OpticalTimeline(
            duration_ps=dur,
            **photon_arrays(range(1000, dur, to_ps(1e-6))),
            cw_segments=(CwSegment(0, dur, 1e-9, CwSource.ATTACK_BLIND),),
        )
        assert process_timeline(params, timeline, stream(7, "d")) == []

    def test_fake_state_clicks_through_blinding(self):
        # a single pulse at/above the fake-state energy yields exactly one
        # click at the pulse time, blinding notwithstanding
        params = quiet_params()
        dur = to_ps(200e-6)
        t_pulse = to_ps(80e-6)
        timeline = OpticalTimeline(
            duration_ps=dur,
            cw_segments=(CwSegment(0, dur, 1e-9, CwSource.ATTACK_BLIND),),
            pulses=(BrightPulse(t_pulse, to_ps(2e-9), 3e-6, PulseSource.FAKE),),
        )
        clicks = process_timeline(params, timeline, stream(5, "d"))
        assert [(c.time_ps, c.cause) for c in clicks] == [(t_pulse, ClickCause.FAKE)]

    def test_sub_threshold_pulse_while_blinded_is_silent(self):
        # gap band: pulse energy below fake_energy, detector blinded
        params = quiet_params()
        dur = to_ps(100e-6)
        pulse = BrightPulse(to_ps(50e-6), to_ps(2e-9), 1e-8, PulseSource.FAKE)
        assert pulse.energy < params.fake_energy
        timeline = OpticalTimeline(
            duration_ps=dur,
            cw_segments=(CwSegment(0, dur, 1e-9, CwSource.ATTACK_BLIND),),
            pulses=(pulse,),
        )
        assert process_timeline(params, timeline, stream(9, "d")) == []

    def test_onset_pulse_sees_pre_edge_power(self):
        # a flag pulse coincident with the start of a blinding segment is
        # evaluated against the pre-onset power and clicks
        params = quiet_params()
        dur = to_ps(200e-6)
        t0 = to_ps(50e-6)
        flag = BrightPulse(t0, 1000, 1e-17 / 1e-9, PulseSource.FLAG, None)
        timeline = OpticalTimeline(
            duration_ps=dur,
            **photon_arrays([to_ps(120e-6)]),
            cw_segments=(CwSegment(t0, dur, 1e-9, CwSource.LE_BLIND),),
            pulses=(flag,),
        )
        clicks = process_timeline(params, timeline, stream(4, "d"))
        assert [(c.time_ps, c.cause) for c in clicks] == [(t0, ClickCause.FLAG)]


class TestPhotonTieBreak:
    @pytest.mark.parametrize("salt_first", [True, False])
    def test_coincident_salt_photon_takes_the_click(self, salt_first):
        # a SALT and a SIGNAL photon at the same picosecond: the merge
        # orders SALT first in either fragment order, so it clicks and
        # the SIGNAL photon falls in the dead time
        params = quiet_params(efficiency=1.0)
        dur, t = to_ps(10e-6), to_ps(5e-6)
        salt = OpticalTimeline(duration_ps=dur, **photon_arrays([t], PhotonSource.SALT))
        signal = OpticalTimeline(duration_ps=dur, **photon_arrays([t]))
        fragments = (salt, signal) if salt_first else (signal, salt)
        clicks = process_timeline(params, merge_timelines(*fragments), stream(1, "d"))
        assert clicks == [ClickRecord(t, ClickCause.SALT)]


class TestRecoveryClicks:
    def test_downward_crossing_emits_recovery(self):
        params = quiet_params(recovery_click_prob=1.0)
        dur = to_ps(200e-6)
        t_stop = to_ps(100e-6)
        timeline = OpticalTimeline(
            duration_ps=dur,
            cw_segments=(CwSegment(0, t_stop, 1e-9, CwSource.ATTACK_BLIND),),
        )
        clicks = process_timeline(params, timeline, stream(2, "d"))
        assert [(c.time_ps, c.cause) for c in clicks] == [(t_stop, ClickCause.RECOVERY)]

    def test_recovery_is_bernoulli(self):
        params = quiet_params(recovery_click_prob=0.25)
        dur = to_ps(200e-6)
        timeline = OpticalTimeline(
            duration_ps=dur,
            cw_segments=(CwSegment(0, to_ps(100e-6), 1e-9, CwSource.ATTACK_BLIND),),
        )
        hits = sum(
            len(process_timeline(params, timeline, stream(6, i, "d")))
            for i in range(400)
        )
        assert 60 <= hits <= 140  # 100 expected, generous 4-sigma band

    def test_overlapping_local_blind_suppresses_recovery(self):
        # the attack stops but the local blinding still holds the power
        # above threshold: no downward crossing, no recovery click
        params = quiet_params(recovery_click_prob=1.0)
        dur = to_ps(200e-6)
        timeline = OpticalTimeline(
            duration_ps=dur,
            cw_segments=(
                CwSegment(0, to_ps(100e-6), 5e-10, CwSource.ATTACK_BLIND),
                CwSegment(to_ps(50e-6), dur, 1e-9, CwSource.LE_BLIND),
            ),
        )
        assert process_timeline(params, timeline, stream(8, "d")) == []

    def test_recovery_suppressed_while_dead(self):
        # a forced fake click right before the crossing leaves the
        # detector dead at the crossing; dead time applies universally
        params = quiet_params(recovery_click_prob=1.0, dead_time=1e-6)
        dur = to_ps(200e-6)
        t_stop = to_ps(100e-6)
        timeline = OpticalTimeline(
            duration_ps=dur,
            cw_segments=(CwSegment(0, t_stop, 1e-9, CwSource.ATTACK_BLIND),),
            pulses=(
                BrightPulse(t_stop - to_ps(0.5e-6), to_ps(2e-9), 3e-6, PulseSource.FAKE),
            ),
        )
        causes = [c.cause for c in process_timeline(params, timeline, stream(3, "d"))]
        assert causes == [ClickCause.FAKE]

    @given(
        segments=st.lists(
            st.tuples(
                st.integers(0, 20), st.integers(0, 20), st.sampled_from([2e-10, 3e-10, 5e-10])
            ).filter(lambda s: s[0] != s[1]),
            min_size=1,
            max_size=4,
        ),
        photon_slots=st.sets(st.integers(0, 19), max_size=20),
    )
    @settings(max_examples=300, deadline=None)
    def test_blinding_and_recovery_follow_the_summed_power(self, segments, photon_slots):
        # segments on even picoseconds, overlapping or abutting, that may
        # blind only together; photons at odd picoseconds never meet an edge
        threshold = 5e-10
        params = quiet_params(
            efficiency=1.0, dead_time=1e-12, recovery_click_prob=1.0, blind_power=threshold
        )
        dur = 40
        cw = tuple(
            CwSegment(2 * min(a, b), 2 * max(a, b), power, CwSource.ATTACK_BLIND)
            for a, b, power in segments
        )

        def power(t):
            return math.fsum(s.power for s in cw if s.start_ps <= t < s.stop_ps)

        photon_times = sorted(2 * k + 1 for k in photon_slots)
        expected = sorted(
            [ClickRecord(t, ClickCause.SIGNAL) for t in photon_times if power(t) < threshold]
            + [
                ClickRecord(t, ClickCause.RECOVERY)
                for t in range(0, dur, 2)
                if power(t - 1) >= threshold > power(t)
            ]
        )
        timeline = OpticalTimeline(
            duration_ps=dur, **photon_arrays(photon_times), cw_segments=cw
        )
        assert process_timeline(params, timeline, stream(0, "d")) == expected


class TestAbsentStimuli:
    @pytest.mark.parametrize("seed", range(5))
    def test_dark_only_timeline_draws_only_the_dark_counts(self, seed):
        # no photons, pulses, crossings or noise: the detector stream
        # must yield exactly the dark arrivals a fresh copy of it gives
        params = quiet_params(dark_rate=1e8, dead_time=1e-12)
        dur = to_ps(1e-6)
        clicks = process_timeline(params, OpticalTimeline(duration_ps=dur), stream(seed, "d"))
        dark = _poisson_arrival_ps(params.dark_rate, dur, stream(seed, "d"))
        assert dark.size > 50
        assert [c.time_ps for c in clicks] == sorted(set(dark.tolist()))
        assert {c.cause for c in clicks} == {ClickCause.DARK}


class TestSignalResponse:
    def test_calibrated_rate_gives_mean_ten_per_window(self):
        # with afterpulsing and dark counts off, the armed click rate is
        # lam*eff/(1 + lam*eff*tau); solve for 5e4/s and expect ~10
        # clicks per 200 us window
        params = quiet_params(dead_time=1.32e-6)
        armed_candidates = 5.0e4 / (1 - 5.0e4 * params.dead_time)
        arrival = armed_candidates / params.efficiency
        counts = [
            len(
                process_timeline(
                    params,
                    gen_signal_photons(arrival, 200e-6, stream(21, i, "ph")),
                    stream(21, i, "det"),
                )
            )
            for i in range(3000)
        ]
        assert np.mean(counts) == pytest.approx(10.0, abs=0.3)

    def test_efficiency_zero_detects_nothing(self):
        params = quiet_params(efficiency=0.0)
        timeline = gen_signal_photons(1e5, 1e-3, stream(22, "ph"))
        assert process_timeline(params, timeline, stream(22, "det")) == []

    def test_signal_count_monotone_in_efficiency(self):
        # coupled random numbers: identical photon streams and decision
        # uniforms, only the efficiency changes
        lo = quiet_params(efficiency=0.3, dead_time=1.32e-6)
        hi = quiet_params(efficiency=0.6, dead_time=1.32e-6)
        mean = {}
        for params in (lo, hi):
            totals = 0
            for i in range(300):
                timeline = gen_signal_photons(6e4, 200e-6, stream(23, i, "ph"))
                totals += len(process_timeline(params, timeline, stream(23, i, "det")))
            mean[params.efficiency] = totals / 300
        assert mean[0.6] >= mean[0.3]


class TestDeterminismAndDeadTime:
    def test_identical_inputs_identical_clicks(self, ref_detector, ref_signal_rate):
        timeline = gen_signal_photons(ref_signal_rate, 1e-3, stream(31, "ph"))
        a = process_timeline(ref_detector, timeline, stream(31, "det"))
        b = process_timeline(ref_detector, timeline, stream(31, "det"))
        assert a == b
        assert repr(a) == repr(b)

    def test_dead_time_exclusion(self):
        params = DetectorParams(
            efficiency=1.0, dark_rate=5e3, dead_time=1e-6, afterpulse_prob=0.4
        )
        timeline = gen_signal_photons(1e6, 0.2, stream(32, "ph"))
        clicks = process_timeline(params, timeline, stream(32, "det"))
        assert len(clicks) > 50_000
        times = np.array([c.time_ps for c in clicks])
        assert np.diff(times).min() >= to_ps(params.dead_time)

    def test_saturation_rate_matches_reference(self):
        # dead time set from the documented saturation rate; at a photon
        # rate far above 1/dead_time the output rate approaches the
        # renewal limit 1/(mean cycle) and lands within 10% of the
        # reference value
        params = DetectorParams(
            efficiency=1.0,
            dark_rate=0.0,
            dead_time=1.0 / MAX_RATE,
            afterpulse_prob=0.4,
        )
        duration = 0.05
        rate = 20.0 / params.dead_time
        timeline = gen_signal_photons(rate, duration, stream(33, "ph"))
        clicks = process_timeline(params, timeline, stream(33, "det"))
        out_rate = len(clicks) / duration
        assert out_rate == pytest.approx(MAX_RATE, rel=0.10)
        # and the renewal prediction itself is matched tightly
        predicted = rate / (1.0 + rate * params.dead_time)
        assert out_rate == pytest.approx(predicted, rel=0.02)

    def test_afterpulse_fraction_converges_to_spawn_probability(self):
        # geometric cascade: every click spawns one candidate with
        # probability 0.4, so the afterpulse share of all clicks tends to
        # 0.4 in the low-rate limit where candidates are never eaten
        params = DetectorParams(
            efficiency=1.0, dark_rate=0.0, dead_time=1.32e-6, afterpulse_prob=0.4
        )
        timeline = gen_signal_photons(1e3, 60.0, stream(34, "ph"))
        clicks = process_timeline(params, timeline, stream(34, "det"))
        n_ap = sum(1 for c in clicks if c.cause is ClickCause.AFTERPULSE)
        assert len(clicks) > 50_000
        assert n_ap / len(clicks) == pytest.approx(0.4, abs=0.01)


@pytest.fixture(scope="module")
def isolated_cascades():
    """Clicks of 20,000 one-photon timelines: efficiency 1, p = 0.4, tau_a = 1 us."""
    params = DetectorParams(
        efficiency=1.0, dark_rate=0.0, afterpulse_prob=0.4, afterpulse_tau=1e-6
    )
    timeline = OpticalTimeline(duration_ps=to_ps(1e-3), **photon_arrays([0]))
    rng = stream(47, "cascade")
    return params, [process_timeline(params, timeline, rng) for _ in range(20_000)]


class TestAfterpulseLaws:
    """Closed forms of the afterpulse cascade that hold for any draw order."""

    def test_afterpulse_count_is_geometric(self, isolated_cascades):
        # every click spawns a candidate with probability p, and an isolated
        # candidate always clicks, so P(K = k) = p^k (1 - p)
        from scipy.stats import chisquare

        params, cascades = isolated_cascades
        p, n = params.afterpulse_prob, len(cascades)
        for clicks in cascades:
            assert [c.cause for c in clicks[1:]] == [ClickCause.AFTERPULSE] * (len(clicks) - 1)
        # single counts while each expects at least 5, then one tail bin K >= k_tail
        k_tail = int(math.log(5 / n) / math.log(p))
        counts = np.bincount([len(clicks) - 1 for clicks in cascades], minlength=k_tail + 1)
        observed = [*counts[:k_tail], counts[k_tail:].sum()]
        expected = [n * p**k * (1 - p) for k in range(k_tail)] + [n * p**k_tail]
        assert chisquare(observed, expected).pvalue > 1e-4

    def test_afterpulse_delay_after_dead_time_is_exponential(self, isolated_cascades):
        from scipy.stats import kstest

        params, cascades = isolated_cascades
        dead_ps = to_ps(params.dead_time)
        delays = [
            to_seconds(b.time_ps - a.time_ps - dead_ps)
            for clicks in cascades
            for a, b in zip(clicks, clicks[1:])
        ]
        assert len(delays) > 10_000
        assert kstest(delays, "expon", args=(0, params.afterpulse_tau)).pvalue > 1e-4


class TestDeadTimeProperty:
    @given(
        seed=st.integers(0, 10_000),
        dead_time=st.sampled_from([2e-7, 1e-6, 3e-6]),
        blind_start=st.floats(0.1e-3, 0.6e-3),
    )
    @settings(max_examples=25, deadline=None)
    def test_universal_dead_time_over_mixed_stimuli(
        self, seed, dead_time, blind_start
    ):
        # photons, dark counts, afterpulses, forced fakes, noise and a
        # recovery edge all share one dead-time exclusion
        params = DetectorParams(
            efficiency=0.8,
            dark_rate=2e4,
            dead_time=dead_time,
            afterpulse_prob=0.5,
            noise_rate=1e4,
            recovery_click_prob=1.0,
        )
        dur = to_ps(1e-3)
        b0, b1 = to_ps(blind_start), to_ps(blind_start + 0.3e-3)
        rng = stream(seed, "mix")
        photon_times = np.sort(rng.integers(0, dur, size=200))
        pulse_times = np.sort(rng.integers(0, dur, size=30))
        timeline = OpticalTimeline(
            duration_ps=dur,
            **photon_arrays(photon_times),
            cw_segments=(CwSegment(b0, b1, 1e-9, CwSource.ATTACK_BLIND),),
            pulses=tuple(
                BrightPulse(int(t), to_ps(2e-9), 3e-6, PulseSource.FAKE)
                for t in pulse_times
            ),
        )
        clicks = process_timeline(params, timeline, stream(seed, "det"))
        times = np.array([c.time_ps for c in clicks])
        assert all(0 <= t < dur for t in times)
        if len(times) > 1:
            assert np.diff(times).min() >= to_ps(dead_time)

    @given(rate=st.floats(0, 5e5), duration=st.floats(0, 2e-3), seed=st.integers(0, 999))
    @settings(max_examples=25, deadline=None)
    def test_generated_timelines_always_validate(self, rate, duration, seed):
        gen_signal_photons(rate, duration, stream(seed)).validate()


class TestValidation:
    def test_unordered_timeline_rejected(self, ref_detector):
        timeline = OpticalTimeline(
            duration_ps=1000,
            **photon_arrays([500, 100]),
        )
        with pytest.raises(ValidationError) as err:
            process_timeline(ref_detector, timeline, stream(1))
        assert err.value.field == "photons"

    def test_negative_timestamp_rejected(self, ref_detector):
        timeline = OpticalTimeline(duration_ps=1000, **photon_arrays([-5]))
        with pytest.raises(ValidationError):
            process_timeline(ref_detector, timeline, stream(1))

    @pytest.mark.parametrize(
        "photons",
        [(100, 200), [100, 200], np.array([100.0, 200.0]), np.array([[100, 200]])],
        ids=["tuple", "list", "float64", "2-D"],
    )
    def test_photons_must_be_1d_int64_array(self, ref_detector, photons):
        timeline = OpticalTimeline(
            duration_ps=1000, photons=photons, photon_sources=np.zeros(2, np.uint8)
        )
        with pytest.raises(ValidationError) as err:
            process_timeline(ref_detector, timeline, stream(1))
        assert err.value.field == "photons"

    @pytest.mark.parametrize(
        "codes",
        [np.zeros(2, np.int64), np.zeros(3, np.uint8), (0, 1)],
        ids=["int64", "wrong-length", "tuple"],
    )
    def test_photon_sources_must_be_uint8_as_long_as_photons(self, ref_detector, codes):
        timeline = OpticalTimeline(
            duration_ps=1000, photons=np.array([100, 200]), photon_sources=codes
        )
        with pytest.raises(ValidationError) as err:
            process_timeline(ref_detector, timeline, stream(1))
        assert err.value.field == "photon_sources"

    def test_photon_source_code_outside_enum_rejected(self, ref_detector):
        timeline = OpticalTimeline(
            duration_ps=1000,
            photons=np.array([100, 200]),
            photon_sources=np.array([0, len(PHOTON_SOURCES)], np.uint8),
        )
        with pytest.raises(ValidationError) as err:
            process_timeline(ref_detector, timeline, stream(1))
        assert err.value.field == "photon_sources"

    @pytest.mark.parametrize(
        "field,value",
        [
            ("efficiency", 1.5),
            ("efficiency", -0.1),
            ("afterpulse_prob", 1.0),
            ("dead_time", 0.0),
            ("blind_power", 0.0),
            ("fake_energy", 0.0),
            ("dark_rate", -1.0),
            ("recovery_click_prob", 2.0),
        ],
    )
    def test_bad_params_rejected(self, field, value):
        with pytest.raises(ValidationError) as err:
            DetectorParams(**{field: value})
        assert err.value.field == field


class TestCalibrateDeadTime:
    def test_matches_renewal_oracle(self):
        # oracle: 1 - f = rate * dead_time  =>  dead_time = (1-f)/rate
        got = calibrate_dead_time(0.934, rate=5.0e4)
        assert got == pytest.approx((1 - 0.934) / 5.0e4, rel=1e-6)

    def test_closed_form_without_afterpulsing(self):
        got = calibrate_dead_time(0.9, rate=5.0e4)
        assert got == pytest.approx(2.0e-6, rel=1e-6)

    def test_idle_detector_returns_smallest_duration(self):
        assert calibrate_dead_time(0.999999, rate=0.0) == 1e-12

    def test_infeasible_targets_rejected(self):
        with pytest.raises(ValidationError):
            calibrate_dead_time(1.0)
        with pytest.raises(ValidationError):
            calibrate_dead_time(0.0)
        with pytest.raises(ValidationError):
            calibrate_dead_time(-0.2)

    def test_simulation_cross_check(self, ref_detector, ref_signal_rate):
        # probe the armed fraction with sparse deterministic test pulses
        # that click with probability one while armed; sparse enough to
        # leave the operating point essentially unperturbed
        duration = 4.0
        step = to_ps(2e-3)
        probes = tuple(
            BrightPulse(t, 1000, 1e-17 / 1e-9, PulseSource.FLAG, None)
            for t in range(step // 2, to_ps(duration), step)
        )
        signal = gen_signal_photons(ref_signal_rate, duration, stream(41, "ph"))
        timeline = OpticalTimeline(
            duration_ps=signal.duration_ps,
            photons=signal.photons,
            photon_sources=signal.photon_sources,
            pulses=probes,
        )
        clicks = process_timeline(ref_detector, timeline, stream(41, "det"))
        probe_times = {p.time_ps for p in probes}
        responses = sum(1 for c in clicks if c.time_ps in probe_times
                        and c.cause is ClickCause.FLAG)
        frac = responses / len(probes)
        assert frac == pytest.approx(0.934, abs=0.02)


class TestSourceRates:
    def test_preset_rates_match_calibration(self):
        flag = presets.reference_detector(presets.FLAG_ARMED_FRACTION)
        self_blind = presets.reference_detector(
            presets.ONSET_ARMED_FRACTION, noise_rate=presets.SELF_BLIND_NOISE_RATE
        )
        signal = calibrate_source_rate(flag, presets.CLICK_RATE)
        assert presets.SIGNAL_RATE == signal
        assert presets.SELF_BLIND_SIGNAL_RATE == calibrate_source_rate(
            self_blind, presets.CLICK_RATE
        )
        total = calibrate_source_rate(flag, presets.SALT_TEST_RATE, duration=0.1)
        assert presets.SALT_RATE == total - signal

    def test_preset_salt_null_matches_oracle(self):
        null = count_distribution_oracle(
            presets.reference_detector(),
            presets.SIGNAL_RATE + presets.SALT_RATE,
            presets.WINDOW,
            presets.SALT_NULL_WINDOWS,
            stream(presets.NULL_SEED, "salt-null"),
        )
        # on a mismatch, the literal to freeze as SALT_NULL_COUNTS
        literal = f"from bin {null.bin_edges[0]:g}: {null.counts}"
        assert presets.SALT_NULL == null, literal
        assert presets.salt_null(
            presets.reference_detector(), presets.SIGNAL_RATE + presets.SALT_RATE, presets.WINDOW
        ) is presets.SALT_NULL

    @pytest.mark.parametrize("dead_time", [4.8e-7, 1.32e-6])
    @pytest.mark.parametrize("photon_rate", [5e4, 5e5])
    def test_dead_time_matches_mueller_rate(self, dead_time, photon_rate):
        # Mueller (1973): a non-paralysable dead time turns a Poisson
        # stream of rate lam into clicks at lam / (1 + lam tau), with
        # renewal count variance lam t / (1 + lam tau)^3 over time t.
        params = DetectorParams(dark_rate=0.0, afterpulse_prob=0.0, dead_time=dead_time)
        duration = 0.5
        lam = params.efficiency * photon_rate
        expected = lam / (1 + lam * dead_time)
        sigma = math.sqrt(lam * duration / (1 + lam * dead_time) ** 3) / duration
        got = realized_click_rate(params, photon_rate, duration)
        assert abs(got - expected) < 4 * sigma

    @pytest.mark.parametrize("dead_time", [4.8e-7, 1.32e-6])
    @pytest.mark.parametrize("photon_rate", [5e4, 5e5])
    def test_dead_time_matches_mueller_count_distribution(self, dead_time, photon_rate):
        # Mueller (1973): a window of length T that starts armed holds n
        # or more clicks iff n exponential gaps plus n - 1 dead times fit
        # in it, so P(N >= n) = P(Poisson(lam (T - (n-1) tau)) >= n) while
        # (n-1) tau < T, and 0 beyond.
        from scipy.stats import chisquare, poisson

        params = DetectorParams(dark_rate=0.0, afterpulse_prob=0.0, dead_time=dead_time)
        window, n_windows = 200e-6, 5000
        lam = params.efficiency * photon_rate
        hist = count_distribution_oracle(
            params, photon_rate, window, n_windows, stream(44, "mueller")
        )
        observed = dict(zip((int(e) for e in hist.bin_edges), hist.counts))

        def at_least(n):
            live = window - (n - 1) * dead_time
            return poisson.sf(n - 1, lam * live) if live > 0 else 0.0

        # pool neighbouring counts until each bin expects at least 5
        n_max = math.ceil(window / dead_time) + 1
        obs_bins, exp_bins = [0], [0.0]
        for n in range(n_max + 1):
            if exp_bins[-1] >= 5:
                obs_bins.append(0)
                exp_bins.append(0.0)
            obs_bins[-1] += observed.get(n, 0)
            exp_bins[-1] += n_windows * (at_least(n) - at_least(n + 1))
        if exp_bins[-1] < 5:
            tail_obs, tail_exp = obs_bins.pop(), exp_bins.pop()
            obs_bins[-1] += tail_obs
            exp_bins[-1] += tail_exp
        assert sum(obs_bins) == n_windows
        assert chisquare(obs_bins, exp_bins).pvalue > 1e-4
