from __future__ import annotations

import inspect
import math
from dataclasses import make_dataclass, replace

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
    Scenario,
    SelfTestPlan,
    Strategy,
    ValidationError,
    binomial_tail,
    calibrate_dead_time,
    clopper_pearson_interval,
    count_distribution_oracle,
    decision_error_rates,
    evaluate_flag_pulse,
    evaluate_salt,
    evaluate_self_blind,
    gen_attack,
    gen_le_schedule,
    gen_signal_photons,
    merge_timelines,
    poisson_tail,
    process_timeline,
    run_experiment,
    run_trial,
    schedule_tests,
    set_config_value,
    stream,
    trial_anatomy,
)
import blindsim
from blindsim import presets
from blindsim.errors import require_finite
from blindsim.optics import _poisson_arrival_ps
from blindsim.presets import calibrate_source_rate, realized_click_rate
from blindsim.units import MAX_STIMULI, Rate, to_ps, to_seconds
from reference_kernel import reference_clicks


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


def state_of(rng: np.random.Generator) -> dict:
    """A generator's bit-generator state with its arrays as lists, for ==."""
    state = rng.bit_generator.state
    return {**state, "state": {k: v.tolist() for k, v in state["state"].items()},
            "buffer": state["buffer"].tolist()}


def count_law_pvalue(counts, law) -> float:
    """Chi-square p-value of per-run counts against a scipy discrete law.

    The tails are pooled into X <= lo and X >= hi, each expecting at
    least 5 runs, with single values in between.
    """
    from scipy.stats import chisquare

    n = len(counts)
    lo = 0
    while n * law.cdf(lo) < 5:
        lo += 1
    hi = lo + 1
    while n * law.sf(hi) >= 5:  # P(X >= hi + 1) still expects 5
        hi += 1
    binned = np.bincount(counts, minlength=hi + 1)
    observed = [binned[: lo + 1].sum(), *binned[lo + 1:hi], binned[hi:].sum()]
    middle = np.arange(lo + 1, hi)
    expected = [n * law.cdf(lo), *(n * law.pmf(middle)), n * law.sf(hi - 1)]
    return chisquare(observed, expected).pvalue


@given(
    mean=st.floats(0, 3),
    duration_ps=st.integers(1, 10**9),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_poisson_arrivals_draw_as_an_unconditional_random_call(mean, duration_ps, seed):
    # The reference draws random(n) even when n is 0, as the generator did
    # before it returned early on an empty count.
    rate = mean / (duration_ps * 1e-12)
    rng = stream(seed, "arrivals")
    times = _poisson_arrival_ps(rate, duration_ps, rng)
    ref = stream(seed, "arrivals")
    n = ref.poisson(rate * (duration_ps / 10**12))
    ref_times = np.sort((ref.random(n) * duration_ps).astype(np.int64))
    np.testing.assert_array_equal(times, np.minimum(ref_times, duration_ps - 1))
    assert times.dtype == np.int64
    assert state_of(rng) == state_of(ref)
    assert rng.random() == ref.random()


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

    def test_held_flags_read_only_the_segments_active_at_each_edge(self):
        # n disjoint segments give 2n edges; summing every segment at
        # every edge would read the segment times about 2n**2 times
        reads = [0]

        class CountedSegment(CwSegment):
            @property
            def start_ps(self):
                reads[0] += 1
                return self[0]

            @property
            def stop_ps(self):
                reads[0] += 1
                return self[1]

        n = 400
        params = quiet_params(dead_time=1e-12, recovery_click_prob=1.0)
        spans = [(10 * i, 10 * i + 5, 1e-9, CwSource.LE_BLIND) for i in range(n)]
        counted = OpticalTimeline(
            duration_ps=10 * n, cw_segments=tuple(CountedSegment(*s) for s in spans)
        )
        clicks = process_timeline(params, counted, stream(3, "d"))
        assert reads[0] <= 12 * n
        assert [(c.time_ps, c.cause) for c in clicks] == [
            (10 * i + 5, ClickCause.RECOVERY) for i in range(n)
        ]
        plain = replace(counted, cw_segments=tuple(CwSegment(*s) for s in spans))
        assert process_timeline(params, plain, stream(3, "d")) == clicks


GATED_CAUSES = (ClickCause.SIGNAL, ClickCause.SALT, ClickCause.DARK)


class TestHeldPowerHidesStimuli:
    """A photon or dark count in a held span (a, b] never clicks and draws nothing."""

    def test_held_span_boundaries(self):
        # segment [a, b): a photon at a sees the pre-onset power and one at
        # b the pre-release power, so of a-1, a, a+1, b, b+1 only a-1, a
        # and b+1 click
        params = quiet_params(efficiency=1.0, dead_time=1e-12)
        a, b = 10, 20
        timeline = OpticalTimeline(
            duration_ps=40,
            **photon_arrays([a - 1, a, a + 1, b, b + 1]),
            cw_segments=(CwSegment(a, b, 1e-9, CwSource.ATTACK_BLIND),),
        )
        clicks = process_timeline(params, timeline, stream(0, "d"))
        assert [c.time_ps for c in clicks] == [a - 1, a, b + 1]

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_moving_photons_inside_a_held_span_changes_nothing(self, data):
        dur = 400
        a = data.draw(st.integers(0, dur - 2), label="a")
        b = data.draw(st.integers(a + 1, dur), label="b")  # segment [a, b)
        hidden = st.integers(a + 1, min(b, dur - 1))
        before, after = st.integers(0, a), st.integers(b + 1, dur - 1)
        outside = data.draw(st.lists(
            st.one_of(before, after) if b + 1 < dur else before, max_size=30
        ))
        at_onset = data.draw(st.integers(0, 3), label="photons at a")
        inside = data.draw(st.lists(hidden, min_size=1, max_size=30))
        moved = data.draw(st.lists(hidden, min_size=len(inside), max_size=len(inside)))
        params = DetectorParams(
            efficiency=0.8,
            dark_rate=2.5e10,  # about 10 dark counts over the 400 ps
            dead_time=3e-12,
            afterpulse_prob=0.5,
            afterpulse_tau=2e-11,
            recovery_click_prob=0.5,
            noise_rate=5e9,
        )
        fake = BrightPulse(data.draw(st.integers(0, dur - 1)), 2000, 3e-6, PulseSource.FAKE)
        seed = data.draw(st.integers(0, 2**16), label="seed")

        def source_codes(n):
            return data.draw(st.lists(
                st.integers(0, len(PHOTON_SOURCES) - 1), min_size=n, max_size=n
            ))

        visible = [*outside, *[a] * at_onset]
        visible_codes = source_codes(len(visible))

        def run(hidden_times):
            # hidden photons may change source as well as time
            times = [*visible, *hidden_times]
            codes = [*visible_codes, *source_codes(len(hidden_times))]
            order = np.lexsort((codes, times))
            timeline = OpticalTimeline(
                duration_ps=dur,
                photons=np.asarray(times, dtype=np.int64)[order],
                photon_sources=np.asarray(codes, dtype=np.uint8)[order],
                cw_segments=(CwSegment(a, b, 1e-9, CwSource.ATTACK_BLIND),),
                pulses=(fake,),
            )
            rng = stream(seed, "held")
            return process_timeline(params, timeline, rng), state_of(rng)

        clicks, state = run(inside)
        assert run(moved) == (clicks, state)
        assert all(not a < c.time_ps <= b for c in clicks if c.cause in GATED_CAUSES)


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

    @staticmethod
    def causes_after_fake(lead_ps):
        # a forced fake click lead_ps before the crossing, with 1 us of dead time
        params = quiet_params(recovery_click_prob=1.0, dead_time=1e-6)
        t_stop = to_ps(100e-6)
        timeline = OpticalTimeline(
            duration_ps=to_ps(200e-6),
            cw_segments=(CwSegment(0, t_stop, 1e-9, CwSource.ATTACK_BLIND),),
            pulses=(BrightPulse(t_stop - lead_ps, to_ps(2e-9), 3e-6, PulseSource.FAKE),),
        )
        return [c.cause for c in process_timeline(params, timeline, stream(3, "d"))]

    def test_recovery_suppressed_while_dead(self):
        # the fake click leaves the detector dead at the crossing; dead
        # time applies universally
        assert self.causes_after_fake(to_ps(0.5e-6)) == [ClickCause.FAKE]

    @pytest.mark.parametrize(
        "lead_ps,expected",
        [
            (to_ps(1e-6) - 1, [ClickCause.FAKE]),
            (to_ps(1e-6), [ClickCause.FAKE, ClickCause.RECOVERY]),
        ],
        ids=["one-ps-before-expiry", "at-expiry"],
    )
    def test_recovery_at_dead_time_expiry(self, lead_ps, expected):
        # the detector is armed again exactly when its dead time ends
        assert self.causes_after_fake(lead_ps) == expected

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
        max_rate = 5.0e5
        params = DetectorParams(
            efficiency=1.0,
            dark_rate=0.0,
            dead_time=1.0 / max_rate,
            afterpulse_prob=0.4,
        )
        duration = 0.05
        rate = 20.0 / params.dead_time
        timeline = gen_signal_photons(rate, duration, stream(33, "ph"))
        clicks = process_timeline(params, timeline, stream(33, "det"))
        out_rate = len(clicks) / duration
        assert out_rate == pytest.approx(max_rate, rel=0.10)
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
        from scipy.stats import geom

        params, cascades = isolated_cascades
        for clicks in cascades:
            assert [c.cause for c in clicks[1:]] == [ClickCause.AFTERPULSE] * (len(clicks) - 1)
        law = geom(1 - params.afterpulse_prob, loc=-1)  # failures before the first success
        assert count_law_pvalue([len(clicks) - 1 for clicks in cascades], law) > 1e-4

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


def inject_words(rng: np.random.Generator, words) -> None:
    """Make the next raw 64-bit draws of a Philox generator ``words`` (at most 4)."""
    state = rng.bit_generator.state
    state["buffer"] = np.array([*words, *[0] * (4 - len(words))], dtype=np.uint64)
    state["buffer_pos"] = 0
    rng.bit_generator.state = state


@pytest.mark.parametrize("p", [0.4, 1 / 3, 5e-324, math.nextafter(1, 0)])
def test_afterpulse_decision_word_cut(p):
    # numpy's random() is (raw >> 11) * 2**-53 of one word, so u < p holds
    # exactly for the words below ceil(p * 2**53) << 11
    cut = math.ceil(p * 2.0**53) << 11
    params = DetectorParams(
        efficiency=1.0, dark_rate=0.0, afterpulse_prob=p, afterpulse_tau=1e-9
    )
    timeline = OpticalTimeline(duration_ps=to_ps(1e-3), **photon_arrays([0]))
    for word, spawns in ((cut - 1, True), (cut, False)):
        probe = stream(5, "word")
        inject_words(probe, [word])
        assert (probe.random() < p) is spawns
        rng = stream(5, "word")
        # the photon's uniform, the decision word of its click, the delay,
        # and a word that spawns nothing
        inject_words(rng, [0, word, 0, 2**64 - 1])
        clicks = process_timeline(params, timeline, rng)
        assert clicks[0] == ClickRecord(0, ClickCause.SIGNAL)
        assert (len(clicks) > 1) is spawns


def test_negative_zero_afterpulse_delay_is_zero():
    # -0.0 lies in the delay's range [0, MAX_SECONDS], though numpy's
    # exponential(-0.0) rejects its sign
    timeline = OpticalTimeline(duration_ps=to_ps(1e-5), **photon_arrays([0, 4_000_000]))
    runs = []
    for tau in (0.0, -0.0):
        params = DetectorParams(efficiency=1.0, afterpulse_prob=0.5, afterpulse_tau=tau)
        rng = stream(9, "tau")
        runs.append((process_timeline(params, timeline, rng), state_of(rng)))
    assert runs[0] == runs[1]
    assert ClickCause.AFTERPULSE in {c.cause for c in runs[0][0]}


def test_pulse_at_exactly_the_fake_energy_forces_a_click():
    # forced at energy >= fake_energy: with no efficiency, an armed detector
    # clicks on a pulse that reaches the threshold, and not 1 ulp below it
    pulse = BrightPulse(1_000, to_ps(2e-9), 3e-6, PulseSource.FAKE, 5)
    timeline = OpticalTimeline(duration_ps=to_ps(1e-6), pulses=(pulse,))
    for fake_energy, clicks in (
        (pulse.energy, [ClickRecord(1_000, ClickCause.FAKE)]),
        (math.nextafter(pulse.energy, math.inf), []),
    ):
        params = quiet_params(efficiency=0.0, fake_energy=fake_energy)
        assert process_timeline(params, timeline, stream(2, "fake")) == clicks


@pytest.mark.parametrize("n", [1, 2])
def test_afterpulse_due_at_the_horizon_is_dropped(n):
    # with no delay and p just below 1, afterpulse k of a click at 0 is due
    # at k dead times.  A horizon of n dead times drops the one due on it:
    # the primary click's afterpulse at n = 1, an afterpulse's at n = 2.
    params = DetectorParams(
        efficiency=1.0, dark_rate=0.0, afterpulse_prob=math.nextafter(1, 0), afterpulse_tau=0.0
    )
    dead_ps = to_ps(params.dead_time)
    for dur, kept in ((n * dead_ps, n), (n * dead_ps + 1, n + 1)):
        timeline = OpticalTimeline(duration_ps=dur, **photon_arrays([0]))
        clicks = process_timeline(params, timeline, stream(3, "horizon"))
        causes = [ClickCause.SIGNAL] + [ClickCause.AFTERPULSE] * (kept - 1)
        assert clicks == [ClickRecord(k * dead_ps, c) for k, c in enumerate(causes)]


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_kernel_matches_the_reference_reading(data):
    # small horizons on whole picoseconds, so that photons, pulses, dark
    # counts and afterpulses often meet the edges of held spans
    dur = data.draw(st.integers(2, 60), label="duration")
    instants = st.integers(0, dur - 1)
    segments = []
    for start in data.draw(st.lists(instants, max_size=4), label="segment starts"):
        stop = data.draw(st.integers(start + 1, dur))
        power = data.draw(st.sampled_from([2e-10, 3e-10, 5e-10, 1e-9]))
        segments.append(CwSegment(start, stop, power, data.draw(st.sampled_from(CwSource))))
    # about half the stimuli on or next to an edge
    near = sorted({t + d for s in segments for t in s[:2] for d in (-1, 0, 1)} & set(range(dur)))
    if near:
        instants = instants | st.sampled_from(near)
    photons = sorted(data.draw(st.lists(
        st.tuples(instants, st.integers(0, len(PHOTON_SOURCES) - 1)), max_size=30
    ), label="photons"))
    kinds = {
        "fake": (2000, 3e-6, PulseSource.FAKE, None),  # forced: 6e-15 J
        "flag": (25, 4e-7, PulseSource.FLAG, None),  # 1e-17 J, answers if armed
        "few": (25, 4e-7, PulseSource.FLAG, 2),
    }
    pulses = tuple(
        BrightPulse(t, *kinds[kind])
        for t, kind in sorted(data.draw(st.lists(
            st.tuples(instants, st.sampled_from(sorted(kinds))), max_size=4
        ), label="pulses"))
    )
    params = DetectorParams(
        efficiency=data.draw(st.sampled_from([0.3, 0.9, 1.0])),
        dark_rate=data.draw(st.sampled_from([0.0, 5e10])),
        dead_time=data.draw(st.sampled_from([1e-12, 3e-12, 1e-11])),
        afterpulse_prob=data.draw(st.sampled_from([0.0, 0.5, 0.9])),
        afterpulse_tau=data.draw(st.sampled_from([0.0, 2e-12, 1e-11])),
        recovery_click_prob=data.draw(st.sampled_from([0.0, 0.5, 1.0])),
        noise_rate=data.draw(st.sampled_from([0.0, 5e10])),
    )
    timeline = OpticalTimeline(
        duration_ps=dur,
        photons=np.array([t for t, _ in photons], dtype=np.int64),
        photon_sources=np.array([code for _, code in photons], dtype=np.uint8),
        cw_segments=tuple(segments),
        pulses=pulses,
    )
    seed = data.draw(st.integers(0, 2**16), label="seed")
    rng, ref = stream(seed, "kernel"), stream(seed, "kernel")
    assert process_timeline(params, timeline, rng) == reference_clicks(params, timeline, ref)
    assert state_of(rng) == state_of(ref)


class TestThinningAndBlindingLaws:
    """Closed-form click counts that hold for any draw order."""

    def test_efficiency_thins_photons_binomially(self):
        # photons on consecutive picoseconds with a 1 ps dead time: a click
        # never hides the next photon, so the count is Binomial(n, efficiency)
        from scipy.stats import binom

        params = DetectorParams(efficiency=0.3, dark_rate=0.0, dead_time=1e-12,
                                afterpulse_prob=0.0)
        n = 20
        timeline = OpticalTimeline(duration_ps=n, **photon_arrays(range(n)))
        rng = stream(53, "thinning")
        counts = [len(process_timeline(params, timeline, rng)) for _ in range(4000)]
        assert count_law_pvalue(counts, binom(n, params.efficiency)) > 1e-4

    def test_blinding_leaves_only_poisson_noise(self):
        # held blind over [0, T): photons, dark counts and afterpulses stay
        # silent, and the noise clicks are Poisson(noise_rate * T).  Only a
        # candidate at t = 0 could click, seeing the power before the onset.
        from scipy.stats import poisson

        params = DetectorParams(efficiency=1.0, dark_rate=2e7, dead_time=1e-12,
                                afterpulse_prob=0.4, noise_rate=1e7)
        dur = to_ps(1e-6)
        timeline = OpticalTimeline(
            duration_ps=dur,
            **photon_arrays(range(1, dur, dur // 200)),
            cw_segments=(CwSegment(0, dur, 1e-9, CwSource.ATTACK_BLIND),),
        )
        rng = stream(59, "blinding")
        runs = [process_timeline(params, timeline, rng) for _ in range(4000)]
        assert {c.cause for clicks in runs for c in clicks} == {ClickCause.NOISE}
        law = poisson(params.noise_rate * to_seconds(dur))
        assert count_law_pvalue([len(clicks) for clicks in runs], law) > 1e-4


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
        "segment",
        [
            CwSegment(0, 500, math.nan, CwSource.ATTACK_BLIND),
            CwSegment(0, 500, math.inf, CwSource.ATTACK_BLIND),
            CwSegment(0, 500, -1e-9, CwSource.ATTACK_BLIND),
            CwSegment(0.5, 500, 1e-9, CwSource.ATTACK_BLIND),
            CwSegment(0, 500.0, 1e-9, CwSource.ATTACK_BLIND),
            CwSegment(-1, 500, 1e-9, CwSource.ATTACK_BLIND),
            CwSegment(500, 500, 1e-9, CwSource.ATTACK_BLIND),
        ],
        ids=["nan-power", "inf-power", "negative-power", "float-start", "float-stop",
             "negative-start", "empty"],
    )
    def test_bad_cw_segment_rejected(self, ref_detector, segment):
        timeline = OpticalTimeline(duration_ps=1000, cw_segments=(segment,))
        with pytest.raises(ValidationError) as err:
            process_timeline(ref_detector, timeline, stream(1))
        assert err.value.field == "cw_segments"

    @pytest.mark.parametrize(
        "pulse",
        [
            BrightPulse(100, 1000, math.nan, PulseSource.FAKE),
            BrightPulse(100, 1000, math.inf, PulseSource.FAKE),
            BrightPulse(100, 1000, 1e-9, PulseSource.FLAG, 1.5),
            BrightPulse(100, 1000, 1e-9, PulseSource.FLAG, True),
            BrightPulse(100, 1000, 1e-9, PulseSource.FLAG, 0),
            BrightPulse(100, 1000.5, 1e-9, PulseSource.FLAG, 2),
            BrightPulse(100.0, 1000, 1e-9, PulseSource.FLAG, 2),
            BrightPulse(-1, 1000, 1e-9, PulseSource.FLAG, 2),
            BrightPulse(1000, 1000, 1e-9, PulseSource.FLAG, 2),
        ],
        ids=["nan-peak", "inf-peak", "fractional-photons", "bool-photons", "no-photons",
             "fractional-width", "float-time", "negative-time", "at-horizon"],
    )
    def test_bad_pulse_rejected(self, ref_detector, pulse):
        timeline = OpticalTimeline(duration_ps=1000, pulses=(pulse,))
        with pytest.raises(ValidationError) as err:
            process_timeline(ref_detector, timeline, stream(1))
        assert err.value.field == "pulses"

    @pytest.mark.parametrize(
        "timeline,field",
        [
            (OpticalTimeline(duration_ps=-1), "duration"),
            (OpticalTimeline(duration_ps=1500.5), "duration"),
            (OpticalTimeline(duration_ps=True), "duration"),
            (OpticalTimeline(duration_ps=math.inf), "duration"),
            (OpticalTimeline(duration_ps=math.nan), "duration"),
            (OpticalTimeline(duration_ps=1000, **photon_arrays([1000])), "photons"),
            (
                OpticalTimeline(duration_ps=1000, pulses=(
                    BrightPulse(500, 10, 1e-9, PulseSource.FLAG, 2),
                    BrightPulse(100, 10, 1e-9, PulseSource.FLAG, 2),
                )),
                "pulses",
            ),
        ],
        ids=[
            "negative-duration", "fractional-duration", "true-duration", "inf-duration",
            "nan-duration", "photon-at-horizon", "pulses-out-of-order",
        ],
    )
    def test_timeline_out_of_bounds_names_its_field(self, ref_detector, timeline, field):
        with pytest.raises(ValidationError) as err:
            process_timeline(ref_detector, timeline, stream(1))
        assert err.value.field == field

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


def salt_preset():
    return presets.salt_config(Scenario.NORMAL, trials=1, seed=1)


def _library_calls() -> dict[str, tuple]:
    """One valid call of each library function, by case name: (function, arguments, leaves).

    The arguments are bound to the function's parameters, defaults
    included.  ``leaves`` maps an argument that sets a config leaf to the
    leaf's (name, kind), which its error names and whose message it gives.
    """
    params = quiet_params()
    config = replace(salt_preset(), trials=2)
    salt = SelfTestPlan(strategy=Strategy.SALT, salt_rate=1e5)
    clicks = [ClickRecord(10, ClickCause.SIGNAL)]
    empty = OpticalTimeline(duration_ps=1000)

    def call(fn, *args, leaves=None, **kwargs):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        return fn, bound, leaves or {}

    return {
        "dead_time": call(calibrate_dead_time, 0.9),
        "detector": call(process_timeline, params, empty, stream(1)),
        "set": call(set_config_value, config, "signal_rate", 1e4,
                    leaves={"value": ("signal_rate", Rate)}),
        "timeline": call(trial_anatomy, config, 0),
        "trial": call(run_trial, config, 0),
        "experiment": call(run_experiment, config),
        "photons": call(gen_signal_photons, 1e4, 1e-3, stream(1)),
        "attack": call(gen_attack, config.attack, 1e-3, stream(1)),
        "le": call(gen_le_schedule, salt, 0, 1e-3, stream(1)),
        "merge": call(merge_timelines, empty),
        "stream": call(stream, 1, "x"),
        "error_rates": call(decision_error_rates, 2.0, 20.0, 3),
        "salt": call(evaluate_salt, salt, 0, clicks),
        "flag": call(evaluate_flag_pulse, SelfTestPlan(strategy=Strategy.FLAG_PULSE), 0, clicks),
        "self_blind": call(
            evaluate_self_blind, SelfTestPlan(strategy=Strategy.SELF_BLIND), 0, clicks
        ),
        "schedule": call(schedule_tests, 4e-4, 0.5, salt, stream(1)),
        "binomial": call(binomial_tail, 10, 0.5, 3),
        "interval": call(clopper_pearson_interval, 3, 10),
        "poisson": call(poisson_tail, 10.0, 3),
        "reference": call(presets.reference_detector),
        "click_rate": call(realized_click_rate, params, 1e4, duration=1e-3),
        "calibrate": call(calibrate_source_rate, params, 1e3, duration=1e-2),
        "oracle": call(count_distribution_oracle, params, 1e4, 1e-4, 10, stream(1)),
        "null": call(presets.salt_null, config),
        "preset": call(presets.preset_config, Scenario.NORMAL, Strategy.SALT, 1, 1),
        "salt_config": call(presets.salt_config, Scenario.NORMAL, 1, 1),
        "flag_config": call(presets.flag_pulse_config, Scenario.NORMAL, 1, 1),
        "self_blind_config": call(presets.self_blind_config, Scenario.NORMAL, 1, 1),
    }


def _library_functions() -> set:
    """The functions that ``blindsim`` exports, the public ones of ``presets``, and ``stream``."""
    exported = [f for f in vars(blindsim).values() if callable(f) and not isinstance(f, type)]
    own = [
        f for name, f in vars(presets).items()
        if callable(f) and not isinstance(f, type) and not name.startswith("_")
        and getattr(f, "__module__", None) == presets.__name__
    ]
    return {*exported, *own, stream}


# Each bad value by case label.  0.0 is tried only where the argument's
# kind excludes it: where the kind takes 0, a relation to another
# argument may still reject it, naming that argument.
BAD_VALUES = {
    "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "negative": -1, "fractional": 1.5,
    "true": True, "2**64": 2**64, "zero": 0.0,
}


def _kind_message(kind, value) -> str | None:
    """The message that a dataclass field of ``kind`` gives ``value``, or None if it takes it."""
    probe = make_dataclass("Probe", [("x", kind)], namespace={"__post_init__": require_finite})
    try:
        probe(value)
    except ValidationError as e:
        return e.message
    return None


def _argument(fn, arg: str, leaves: dict) -> tuple[str, object]:
    """The field that a bad ``arg`` must name, and the kind that decides its message."""
    if arg in leaves:
        return leaves[arg]
    fn = inspect.unwrap(fn)  # the annotations are text, read in the function's module
    return arg, eval(fn.__annotations__[arg], fn.__globals__)


def _fuzz_cases():
    for name, (fn, bound, leaves) in _library_calls().items():
        for arg, value in bound.arguments.items():
            if type(value) not in (int, float):
                continue
            kind = _argument(fn, arg, leaves)[1]
            for label in BAD_VALUES:
                if label != "zero" or _kind_message(kind, 0.0) is not None:
                    yield pytest.param(name, arg, label, id=f"{name}-{label}-{arg}")


@pytest.mark.parametrize("name,arg,label", _fuzz_cases())
def test_library_call_names_its_bad_argument(name, arg, label):
    # every numeric argument of a library function takes a units kind, or
    # any int for a seed, and rejects a value that its kind rejects with
    # the message that a config field of that kind gives
    calls = _library_calls()
    missing = _library_functions() - {fn for fn, _, _ in calls.values()}
    assert not missing, sorted(f.__name__ for f in missing)
    fn, bound, leaves = calls[name]
    field, kind = _argument(fn, arg, leaves)
    assert kind is int or getattr(kind, "__origin__", None) in (int, float), (arg, kind)
    expected = _kind_message(kind, BAD_VALUES[label])
    bound.arguments[arg] = BAD_VALUES[label]
    if expected is None:  # the kind takes it: a normal return, or a relation naming it
        try:
            fn(*bound.args, **bound.kwargs)
        except ValidationError as e:
            assert e.field == field
    else:
        with pytest.raises(ValidationError) as err:
            fn(*bound.args, **bound.kwargs)
        assert (err.value.field, err.value.message) == (field, expected)


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
            stream(presets.CALIBRATION_SEED, "salt-null"),
        )
        # on a mismatch, the literal to freeze as SALT_NULL_COUNTS
        literal = f"from bin {null.bin_edges[0]:g}: {null.counts}"
        assert presets.SALT_NULL == null, literal
        assert presets.salt_null(salt_preset()) is presets.SALT_NULL

    def test_salt_null_over_budget_is_rejected_before_simulating(self, monkeypatch):
        def oracle(*args):
            raise AssertionError("the over-budget null was simulated")

        monkeypatch.setattr(presets, "count_distribution_oracle", oracle)
        with pytest.raises(ValidationError) as err:
            presets.salt_null(replace(salt_preset(), signal_rate=2.5e8))
        assert err.value.field == "signal_rate"

    def test_salt_null_counts_the_afterpulse_cascade(self, monkeypatch):
        # each 1 us trial fits the budget, but at a 1 ps dead time the
        # null's 2000 windows of 0.5 us leave room for 1e9 afterpulses
        def oracle(*args):
            raise AssertionError("the cascading null was simulated")

        monkeypatch.setattr(presets, "count_distribution_oracle", oracle)
        preset = salt_preset()
        detector = replace(
            preset.detector, afterpulse_prob=0.999999, afterpulse_tau=0.0, dead_time=1e-12
        )
        config = replace(
            preset, detector=detector, trial_duration=1e-6,
            plan=replace(preset.plan, test_duration=5e-7),
        )
        with pytest.raises(ValidationError) as err:
            presets.salt_null(config)
        assert err.value.field == "afterpulse_prob"

    def test_calibration_rejects_a_target_past_saturation_before_any_pilot(self, monkeypatch):
        asked = []
        monkeypatch.setattr(
            presets, "realized_click_rate", lambda params, rate, *args: asked.append(rate) or 0.0
        )
        params = quiet_params()  # a 10 ns dead time: at most 1e8 clicks/s
        with pytest.raises(ValidationError) as err:
            calibrate_source_rate(params, 1 / params.dead_time)
        assert err.value.field == "target_click_rate"
        assert asked == []

    def test_calibration_bracket_stops_at_the_pilot_budget(self, monkeypatch):
        # a click rate that saturates at 1e3/s never reaches the 1e4/s
        # target; the bracket doubles until one more 0.5 s pilot would
        # expect more than MAX_STIMULI photons
        asked = []

        def saturating(params, rate, duration, seed):
            asked.append(rate)
            return min(rate, 1e3)

        monkeypatch.setattr(presets, "realized_click_rate", saturating)
        with pytest.raises(ValidationError) as err:
            calibrate_source_rate(quiet_params(), 1e4)
        assert err.value.field == "target_click_rate"
        assert asked == [asked[0] * 2**k for k in range(len(asked))]
        assert asked[-1] * 0.5 <= MAX_STIMULI < asked[-1] * 2 * 0.5

    def test_calibration_returns_the_last_bracket_midpoint_when_bisection_runs_out(
        self, monkeypatch
    ):
        # at tolerance 0 no pilot meets the target, so after one bracket
        # pilot all 30 bisection pilots run; the bracket is the highest
        # rate that fell short and the lowest that reached the target
        pilot, asked = presets.realized_click_rate, []

        def counted(params, rate, duration, seed):
            asked.append((rate, pilot(params, rate, duration, seed)))
            return asked[-1][1]

        monkeypatch.setattr(presets, "realized_click_rate", counted)
        target = presets.CLICK_RATE
        rate = calibrate_source_rate(
            presets.reference_detector(), target, duration=0.01, tolerance=0.0
        )
        assert len(asked) == 1 + 30
        lo = max([r for r, got in asked if got < target], default=0.0)
        hi = min(r for r, got in asked if got >= target)
        assert lo < rate < hi
        assert rate == 0.5 * (lo + hi)

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
