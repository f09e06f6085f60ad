from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindsim import (
    DetectorParams,
    Histogram,
    ValidationError,
    binomial_tail,
    clopper_pearson_interval,
    count_distribution_oracle,
    poisson_tail,
    stream,
)


def mp_poisson_tail(mean, k, side):
    """Independent arbitrary-precision oracle (50+ digits)."""
    from mpmath import mp, mpf, exp, factorial

    mp.dps = 60
    mean = mpf(mean)
    lower = sum(exp(-mean) * mean**i / factorial(i) for i in range(int(k) + 1))
    if side == "lower":
        return float(lower)
    if k == 0:
        return 1.0
    upper = 1 - sum(exp(-mean) * mean**i / factorial(i) for i in range(int(k)))
    return float(upper)


def mp_binomial_tail(n, p, k, side):
    from mpmath import mp, mpf, binomial

    mp.dps = 60
    p = mpf(p)
    lower = sum(binomial(n, i) * p**i * (1 - p) ** (n - i) for i in range(int(k) + 1))
    if side == "lower":
        return float(lower)
    if k == 0:
        return 1.0
    upper = 1 - sum(binomial(n, i) * p**i * (1 - p) ** (n - i) for i in range(int(k)))
    return float(upper)


# Frozen 50-digit reference values (mpmath, dps=60).
POISSON_VECTOR = [
    (10.0, 10, "lower", 0.5830397501929855073),
    (100.0, 49, "lower", 1.1784500720979422446e-8),
    (10.0, 50, "upper", 1.8547268838697993006e-19),
    (2.5, 7, "upper", 0.014187311990913351979),
    (1.0e6, 999000, "lower", 0.15877629981172561228),
]

BINOMIAL_VECTOR = [
    (10, 0.5, 5, "upper", 0.623046875),
    (100, 0.03, 10, "upper", 0.00087405847373569829942),
    (12542, 0.934, 11720, "upper", 0.42677879710765562196),
    (7658, 0.002, 17, "lower", 0.72169309941779359374),
]


class TestPoissonTail:
    def test_zero_mean_upper_is_zero(self):
        assert poisson_tail(0.0, 1, "upper") == 0.0
        assert poisson_tail(0.0, 5, "upper") == 0.0
        assert poisson_tail(0.0, 0, "upper") == 1.0
        assert poisson_tail(0.0, 3, "lower") == 1.0

    @pytest.mark.parametrize("mean,k,side,want", POISSON_VECTOR)
    def test_frozen_reference_vector(self, mean, k, side, want):
        got = poisson_tail(mean, k, side)
        assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("mean,k,side",
                             [(10.0, 10, "lower"), (100.0, 49, "lower"),
                              (7.3, 20, "upper"), (1500.0, 1400, "lower")])
    def test_against_live_oracle(self, mean, k, side):
        assert poisson_tail(mean, k, side) == pytest.approx(
            mp_poisson_tail(mean, k, side), rel=1e-10
        )

    def test_no_overflow_at_large_k(self):
        # factorials up to 1e6 must not overflow the computation
        assert 0.49 < poisson_tail(1.0e6, 10**6, "lower") < 0.51
        assert poisson_tail(10.0, 10**6, "upper") == 0.0

    @given(mean=st.floats(0.1, 500), k=st.integers(0, 800))
    @settings(max_examples=60, deadline=None)
    def test_tails_complement_to_one_plus_pmf(self, mean, k):
        lower = poisson_tail(mean, k, "lower")
        upper = poisson_tail(mean, k, "upper")
        pmf = math.exp(-mean + k * math.log(mean) - math.lgamma(k + 1))
        assert 0.0 <= lower <= 1.0
        assert 0.0 <= upper <= 1.0
        assert lower + upper == pytest.approx(1.0 + pmf, rel=1e-9, abs=1e-12)

    @given(mean=st.floats(0.1, 200), k=st.integers(0, 300))
    @settings(max_examples=40, deadline=None)
    def test_lower_tail_monotone_in_k(self, mean, k):
        assert poisson_tail(mean, k + 1, "lower") >= poisson_tail(mean, k, "lower")

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            poisson_tail(-1.0, 3)
        with pytest.raises(ValidationError):
            poisson_tail(1.0, -2)
        with pytest.raises(ValidationError):
            poisson_tail(1.0, 2, "sideways")
        with pytest.raises(ValidationError) as err:
            poisson_tail(0.0, 2, "sideways")  # the degenerate law checks it too
        assert err.value.field == "side"


class TestBinomialTail:
    def test_zero_p_upper_is_zero(self):
        assert binomial_tail(10, 0.0, 1, "upper") == 0.0
        assert binomial_tail(10, 0.0, 0, "upper") == 1.0
        assert binomial_tail(10, 1.0, 10, "lower") == 1.0

    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_unit_p_is_all_mass_at_n(self, n):
        for k in range(n + 1):
            assert binomial_tail(n, 1.0, k, "upper") == 1.0
            assert binomial_tail(n, 1.0, k, "lower") == float(k == n)

    def test_exact_rational_case(self):
        # sum_{i>=5} C(10,i) / 2^10 = 638/1024
        assert binomial_tail(10, 0.5, 5, "upper") == pytest.approx(
            0.623046875, rel=1e-12
        )

    def test_subnormal_p(self):
        # exp(-logit) overflows here; no walk of this law steps downward
        p = 5e-324
        assert binomial_tail(10, p, 0, "lower") == 1.0
        assert binomial_tail(10, p, 0, "upper") == 1.0
        assert 0.0 < binomial_tail(10, p, 1, "upper") < 1e-320
        assert binomial_tail(10, p, 10, "lower") == 1.0

    @pytest.mark.parametrize("n,p,k,side,want", BINOMIAL_VECTOR)
    def test_frozen_reference_vector(self, n, p, k, side, want):
        assert binomial_tail(n, p, k, side) == pytest.approx(want, rel=1e-10)

    def test_observed_flag_responses_consistent_with_reference_probability(self):
        # two-sided consistency of 11720 responses out of 12542 at p = 0.934
        n, p, k = 12542, 0.934, 11720
        upper = binomial_tail(n, p, k, "upper")
        lower = binomial_tail(n, p, k, "lower")
        two_sided = 2 * min(upper, lower)
        assert two_sided > 0.01

    @given(n=st.integers(1, 400), p=st.floats(0.01, 0.99), k=st.integers(0, 400))
    @settings(max_examples=60, deadline=None)
    def test_tails_complement(self, n, p, k):
        k = min(k, n)
        lower = binomial_tail(n, p, k, "lower")
        upper = binomial_tail(n, p, k, "upper")
        pmf = math.exp(
            math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * math.log(p) + (n - k) * math.log1p(-p)
        )
        assert lower + upper == pytest.approx(1.0 + pmf, rel=1e-9, abs=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            binomial_tail(10, 1.5, 3)
        with pytest.raises(ValidationError):
            binomial_tail(10, 0.5, 11)
        for n, p, side, field in [
            (-1, 0.5, "lower", "n"),
            (2.5, 0.5, "lower", "n"),
            (10, 0.5, "sideways", "side"),
            (10, 0.0, "sideways", "side"),  # degenerate laws check it too
            (10, 1.0, "sideways", "side"),
        ]:
            with pytest.raises(ValidationError) as err:
                binomial_tail(n, p, 0, side)
            assert err.value.field == field


class TestClopperPearson:
    def test_zero_successes_lower_bound_is_zero(self):
        low, high = clopper_pearson_interval(0, 50)
        assert low == 0.0
        assert 0.0 < high < 0.12

    def test_onset_probability_interval(self):
        low, high = clopper_pearson_interval(7426, 7608, 0.95)
        assert low < 7426 / 7608 < high
        assert low < 0.976 < high

    def test_rare_event_interval(self):
        low, high = clopper_pearson_interval(17, 7658, 0.95)
        assert low < 0.0022 < high

    @pytest.mark.parametrize("s,n", [(3, 17), (250, 1000), (7426, 7608)])
    def test_bounds_solve_the_defining_tail_equations(self, s, n):
        # independent route: the exact bounds satisfy
        # P(X >= s | low) = alpha/2 and P(X <= s | high) = alpha/2
        low, high = clopper_pearson_interval(s, n, 0.95)
        assert binomial_tail(n, low, s, "upper") == pytest.approx(0.025, rel=1e-6)
        assert binomial_tail(n, high, s, "lower") == pytest.approx(0.025, rel=1e-6)

    @pytest.mark.parametrize(
        "s,n", [(3, 17), (250, 1000), (7426, 7608), (0, 50), (50, 50)]
    )
    def test_bounds_match_beta_quantiles(self, s, n):
        # independent oracle: the bounds are quantiles of beta distributions
        from scipy.stats import beta

        low, high = clopper_pearson_interval(s, n, 0.95)
        want_low = 0.0 if s == 0 else beta.ppf(0.025, s, n - s + 1)
        want_high = 1.0 if s == n else beta.ppf(0.975, s + 1, n - s)
        assert low == pytest.approx(want_low, rel=1e-9, abs=0.0)
        assert high == pytest.approx(want_high, rel=1e-9, abs=0.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            clopper_pearson_interval(5, 3)
        with pytest.raises(ValidationError):
            clopper_pearson_interval(1, 3, confidence=1.2)


class TestHistogram:
    def test_counts_sum_to_samples(self):
        h = Histogram.from_event_counts([1, 2, 2, 5])
        assert h.n_samples == 4
        assert sum(h.counts) == 4
        assert h.bin_edges[0] == 1.0 and h.bin_edges[-1] == 6.0

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValidationError):
            Histogram(bin_edges=(0.0, 1.0), counts=(2,), n_samples=3)
        with pytest.raises(ValidationError):
            Histogram(bin_edges=(0.0, 0.0), counts=(1,), n_samples=1)

    def test_reorder_invariance(self):
        values = [3, 1, 4, 1, 5, 9, 2, 6]
        assert Histogram.from_event_counts(values) == Histogram.from_event_counts(
            sorted(values)
        )

    def test_moments_and_tails(self):
        h = Histogram.from_event_counts([0, 0, 1, 3])
        assert h.mean() == pytest.approx(1.0)
        assert h.variance() == pytest.approx(1.5)
        assert h.lower_tail(0) == pytest.approx(0.5)
        assert h.lower_tail(3) == pytest.approx(1.0)

    def test_single_trial(self):
        h = Histogram.from_event_counts([7])
        assert h.counts == (1,)
        assert h.n_samples == 1

    @pytest.mark.parametrize(
        "build,field",
        [
            (lambda: Histogram(bin_edges=(0.0,), counts=(1,), n_samples=1), "bin_edges"),
            (lambda: Histogram(bin_edges=(0.0, 1.0, 2.0), counts=(-1, 2), n_samples=1),
             "counts"),
            (lambda: Histogram(bin_edges=(0.0, 1.0), counts=(1.5,), n_samples=1.5), "counts"),
            (lambda: Histogram(bin_edges=(0.0, 1.0), counts=(True,), n_samples=1), "counts"),
            (lambda: Histogram(bin_edges=(0.0, 1.0), counts=(1,), n_samples=1.0), "n_samples"),
        ],
        ids=["too-few-edges", "negative-count", "fractional-count", "true-count",
             "float-n-samples"],
    )
    def test_rejection_names_its_field(self, build, field):
        with pytest.raises(ValidationError) as err:
            build()
        assert err.value.field == field

    def test_empty_histogram_statistics_are_nan(self):
        h = Histogram.from_event_counts([])
        assert h.n_samples == 0
        assert math.isnan(h.mean())
        assert math.isnan(h.variance())
        assert math.isnan(h.lower_tail(0))


class TestCountDistributionOracle:
    def test_reduces_to_poisson_without_detector_effects(self):
        # efficiency 1, no afterpulsing, negligible dead time: chi-square
        # goodness of fit against the analytic Poisson law at alpha=0.01
        from scipy.stats import chisquare, poisson as sp_poisson

        params = DetectorParams(
            efficiency=1.0, dark_rate=0.0, dead_time=1e-9, afterpulse_prob=0.0
        )
        rate, window, n = 5.0e4, 200e-6, 20000
        hist = count_distribution_oracle(params, rate, window, n, stream(11, "oracle"))
        lam = rate * window
        lows = [int(v) for v in hist.bin_edges[:-1]]
        observed = list(hist.counts)
        expected = [n * sp_poisson.pmf(v, lam) for v in lows]
        # fold the open tails into the edge bins so expectations sum to n
        expected[0] += n * sp_poisson.cdf(lows[0] - 1, lam)
        expected[-1] += n * sp_poisson.sf(lows[-1], lam)
        result = chisquare(observed, expected)
        assert result.pvalue > 0.01

    def test_reference_point_is_super_poissonian(
        self, ref_detector, ref_signal_rate
    ):
        hist = count_distribution_oracle(
            ref_detector, ref_signal_rate, 200e-6, 3000, stream(12, "oracle")
        )
        assert hist.mean() == pytest.approx(10.0, abs=1.0)
        assert hist.variance() > hist.mean()

    def test_single_trial_histogram(self, ref_detector, ref_signal_rate):
        hist = count_distribution_oracle(
            ref_detector, ref_signal_rate, 200e-6, 1, stream(13, "oracle")
        )
        assert hist.n_samples == 1
        assert sum(hist.counts) == 1

    def test_rejects_zero_trials(self, ref_detector):
        with pytest.raises(ValidationError):
            count_distribution_oracle(ref_detector, 1e4, 1e-4, 0, stream(1))
