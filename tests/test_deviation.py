import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from gradfeat.deviation import (DeviationProfile, check_large_deviation,
                                check_small_deviation, empirical_quantile,
                                eta_constants, gamma_moment_constant,
                                multifeature_bounds, multifeature_constants,
                                objective_envelope,
                                polynomial_remez_constants,
                                suboptimality_constants, trig_remez_constants,
                                uniform_suboptimality_bounds)
from gradfeat.errors import InvalidInputError, NumericError


class TestRemezConstants:
    def test_polynomial_pairs(self):
        assert polynomial_remez_constants(1) == (2.0, 4.0)
        assert polynomial_remez_constants(3) == (6.0, 4.0)

    def test_constant_features_rejected(self):
        with pytest.raises(InvalidInputError):
            polynomial_remez_constants(0)

    def test_trig_pairs(self):
        assert trig_remez_constants(1) == (3.0, 316.0)
        assert trig_remez_constants(10) == (21.0, 316.0)
        with pytest.raises(InvalidInputError):
            trig_remez_constants(0)


class TestEtaConstants:
    def test_positive_concavity(self):
        lower, upper = eta_constants(4.0, 0.5)
        assert upper == pytest.approx(13.656854249492380, rel=1e-12)
        assert lower == pytest.approx(2.3431457505076194, rel=1e-12)

    def test_log_concave(self):
        lower, upper = eta_constants(4.0, 0.0)
        assert upper == pytest.approx(4.0 / math.log(2.0), rel=1e-12)
        assert lower is None

    def test_negative_concavity_upper_only(self):
        lower, upper = eta_constants(4.0, -0.5)
        assert lower is None
        assert upper == pytest.approx((4.0 / (2.0 ** 0.5 - 1.0)) ** 2, rel=1e-12)


class TestSuboptimalityConstants:
    def test_uniform_square_frozen_values(self):
        prof = DeviationProfile.uniform_polynomial(d=2, ell=1)
        g = suboptimality_constants(prof)
        # gamma1 = 2 * (eta_lower * 4 * min(6, 1/(1-2^-1/2)))^(2/3)
        assert g.gamma1 == pytest.approx(20.158736798317967, rel=1e-10)
        assert g.gamma2 == pytest.approx(373.0193359837563, rel=1e-10)
        assert g.gamma3 == pytest.approx(g.gamma1 * g.gamma2 ** (1.0 / 3.0),
                                         rel=1e-12)

    def test_gamma3_definitional_identity(self):
        profiles = [
            DeviationProfile(s=0.1, k=4.0, A=4.0, ell=2, p_u=8.0, p1=1.5),
            DeviationProfile(s=0.0, k=2.0, A=4.0, ell=1, p_u=4.0, p1=2.0),
            DeviationProfile(s=-0.2, k=2.0, A=4.0, ell=1, p_u=4.0, p1=2.0),
        ]
        for prof in profiles:
            g = suboptimality_constants(prof)
            expo = 1.0 / (1.0 + prof.p * prof.k)
            assert g.gamma3 == pytest.approx(g.gamma1 * g.gamma2 ** expo,
                                             rel=1e-12)

    def test_uniform_bounds_dominate_exact_values(self):
        for d in range(1, 9):
            for ell in range(1, 5):
                exact = suboptimality_constants(
                    DeviationProfile.uniform_polynomial(d, ell))
                bound = uniform_suboptimality_bounds(d, ell)
                assert exact.gamma2 <= bound.gamma2 * (1 + 1e-12)
                assert exact.gamma3 <= bound.gamma3 * (1 + 1e-12)
                assert exact.gamma1 <= bound.gamma1 * (1 + 1e-12)

    def test_uniform_bound_frozen_example(self):
        bound = uniform_suboptimality_bounds(2, 1)
        assert bound.gamma2 == pytest.approx(512.0, rel=1e-12)
        assert bound.gamma3 == pytest.approx(4.0 * 1024.0 ** (2.0 / 3.0),
                                             rel=1e-12)

    def test_too_heavy_tail_rejected(self):
        prof = DeviationProfile(s=-0.6, k=2.0, A=4.0, ell=1, p_u=8.0, p1=1.0)
        with pytest.raises(InvalidInputError):
            suboptimality_constants(prof)


class TestMultiFeatureConstants:
    def test_displayed_bounds_hold_on_grid(self):
        for d in range(1, 9):
            for ell in range(1, 4):
                for m in range(1, 5):
                    prof = DeviationProfile.uniform_polynomial(d, ell, m=m)
                    exact = multifeature_constants(prof)
                    bound = multifeature_bounds(prof)
                    for e, b in zip(exact, bound):
                        assert e <= b * (1 + 1e-12)

    def test_single_feature_exponent_reduction(self):
        prof = DeviationProfile.uniform_polynomial(d=3, ell=2, m=1)
        exact = multifeature_constants(prof)
        lower, upper = eta_constants(prof.A, prof.s)
        expo = 2.0 * prof.ell / (1.0 + 2.0 * prof.ell)
        inner = 2.0 * lower * min(upper, 6.0 * prof.A * prof.p1 * prof.ell)
        assert exact.gamma1 == pytest.approx(2.0 * inner ** expo, rel=1e-12)
        assert exact.gamma3 == pytest.approx(
            exact.gamma1 * exact.gamma2 ** (1.0 / (1.0 + 2.0 * prof.ell)),
            rel=1e-12)

    def test_frozen_example(self):
        prof = DeviationProfile(s=0.5, k=2.0, A=4.0, ell=1, m=2, p1=1.0)
        exact = multifeature_constants(prof)
        assert exact.gamma2 == pytest.approx(373.0193359837563, rel=1e-10)
        assert exact.gamma2 <= 2.0 ** 7 * 0.5 ** -2.0   # = 512

    def test_bounds_monotone_in_feature_count(self):
        prev_exact, prev_bound = None, None
        for m in range(1, 6):
            prof = DeviationProfile(s=0.5, k=2.0, A=4.0, ell=1, m=m, p1=1.0)
            exact = multifeature_constants(prof)
            bound = multifeature_bounds(prof)
            if prev_exact is not None:
                assert all(b >= pb for b, pb in zip(bound, prev_bound))
                assert all(e >= pe for e, pe in zip(exact, prev_exact))
            prev_exact, prev_bound = exact, bound

    def test_negative_concavity_rejected(self):
        prof = DeviationProfile(s=-0.1, k=2.0, A=4.0, ell=1, m=2, p_u=8.0,
                                p1=2.0)
        with pytest.raises(InvalidInputError):
            multifeature_constants(prof)


class TestLemmas:
    def test_gamma_moment_bound(self):
        for y in np.arange(1.0, 50.5, 0.5):
            assert gamma_moment_constant(float(y)) <= 3.0 * y

    def test_inf_lemma_bracket(self):
        for a in (1e-6, 1e-3, 0.1, 1.0, 10.0):
            for b in (0.1, 0.5, 1.0, 2.0, 10.0):
                res = minimize_scalar(
                    lambda t: a * math.exp(-t) + math.exp(b * t),
                    bounds=(-60.0, 60.0), method="bounded",
                    options={"xatol": 1e-12})
                inf_val = res.fun
                pivot = a ** (b / (1.0 + b))
                assert pivot <= inf_val * (1 + 1e-6)
                assert inf_val <= 2.0 * pivot * (1 + 1e-6)


class TestEmpiricalQuantile:
    def test_median_of_three(self):
        assert empirical_quantile([1.0, 2.0, 3.0], 0.5) == 2.0

    def test_singleton(self):
        for omega in (0.01, 0.5, 0.99):
            assert empirical_quantile([5.0], omega) == 5.0

    def test_uniform_median(self):
        x = np.random.default_rng(0).uniform(0, 1, 100000)
        assert abs(empirical_quantile(x, 0.5) - 0.5) <= 0.01

    def test_bad_omega(self):
        with pytest.raises(InvalidInputError):
            empirical_quantile([1.0], 1.0)


class TestCheckers:
    """h = 4 X^2 with X uniform on (0, 1): median is exactly 1, the CDF is
    sqrt(t)/2 on (0, 4), and the support is bounded by 4."""

    def closed_form_cdf(self, t):
        return min(1.0, math.sqrt(max(t, 0.0)) / 2.0)

    def test_square_case_analytic(self):
        lower, upper = eta_constants(4.0, 1.0)
        for eps in np.logspace(-4, 0, 30):
            assert self.closed_form_cdf(eps) <= lower * eps ** 0.5 + 1e-15
        for t in np.logspace(0.1, 3, 30):
            tail = 1.0 - self.closed_form_cdf(t)
            bound = max(0.0, 1.0 - (t ** 0.5 - 1.0) / upper)
            assert tail <= bound + 1e-15

    def test_square_case_monte_carlo(self):
        x = np.random.default_rng(1).uniform(0, 1, 100000)
        h = 4.0 * x ** 2
        rep_small = check_small_deviation(h, 2.0, 4.0, 1.0,
                                          [1e-3, 1e-2, 0.1, 0.5, 1.0])
        rep_large = check_large_deviation(h, 2.0, 4.0, 1.0,
                                          [1.5, 2.0, 3.0, 5.0, 100.0])
        assert rep_small.n_violations == 0
        assert rep_large.n_violations == 0
        assert rep_small.quantile == pytest.approx(1.0, abs=0.02)

    def test_report_serializes(self):
        x = np.random.default_rng(2).uniform(0, 1, 1000)
        rep = check_small_deviation(4 * x ** 2, 2.0, 4.0, 1.0, [0.5])
        d = rep.to_dict()
        assert d["kind"] == "small" and len(d["rows"]) == 1
        assert set(d["rows"][0]) == {"threshold", "empirical", "bound",
                                     "slack", "violated"}

    def test_small_deviation_refuses_nonpositive_concavity(self):
        with pytest.raises(InvalidInputError):
            check_small_deviation(np.ones(10), 2.0, 4.0, 0.0, [0.5])
        with pytest.raises(InvalidInputError):
            check_small_deviation(np.ones(10), 2.0, 4.0, -0.5, [0.5])

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidInputError):
            check_small_deviation(np.ones(10), 2.0, 4.0, 1.0, [])
        with pytest.raises(InvalidInputError):
            check_large_deviation(np.ones(10), 2.0, 4.0, 1.0, [])

    @pytest.mark.parametrize("k, A, s, grid", [
        (math.nan, 4.0, 1.0, [0.5]), (0.0, 4.0, 1.0, [0.5]),
        (-1.0, 4.0, 1.0, [0.5]), (2.0, math.nan, 1.0, [0.5]),
        (2.0, math.inf, 1.0, [0.5]), (2.0, 4.0, math.nan, [0.5]),
        (2.0, 4.0, 1.0, [0.5, math.nan]), (2.0, 4.0, 1.0, [math.inf])])
    @pytest.mark.parametrize("check", [check_small_deviation,
                                       check_large_deviation])
    def test_unusable_constants_and_grids_rejected(self, check, k, A, s, grid):
        with pytest.raises(InvalidInputError):
            check(np.ones(10), k, A, s, grid)

    def test_zero_median_rejected(self):
        with pytest.raises(NumericError):
            check_small_deviation(np.zeros(100), 2.0, 4.0, 1.0, [0.5])

    def test_log_concave_large_deviation(self):
        # squared norm of a standard normal pair is exponential-tailed
        rng = np.random.default_rng(3)
        z = rng.normal(size=(100000, 2))
        h = np.sum(z ** 2, axis=1)
        rep = check_large_deviation(h, 2.0, 4.0, 0.0, [1.5, 2.0, 5.0, 20.0])
        assert rep.n_violations == 0

    def test_misdeclared_exponent_is_flagged(self):
        # h = x^4 has small-deviation exponent 1/4; claiming k = 1 must fail
        x = np.random.default_rng(4).uniform(0, 1, 100000)
        rep = check_small_deviation(x ** 4, 1.0, 4.0, 1.0, [1e-4])
        assert rep.n_violations == 1


class TestEnvelope:
    def test_zero_surrogate_gives_zero(self):
        prof = DeviationProfile.uniform_polynomial(2, 1)
        assert objective_envelope(0.0, prof) == 0.0

    def test_frozen_uniform_case(self):
        prof = DeviationProfile.uniform_polynomial(2, 1)
        # exponent 1/(1+pk) = 1/3, so 1e-6 -> gamma1 * 1e-2
        val = objective_envelope(1e-6, prof)
        assert val == pytest.approx(20.158736798317967 * 1e-2, rel=1e-10)

    def test_negative_rejected(self):
        prof = DeviationProfile.uniform_polynomial(2, 1)
        with pytest.raises(InvalidInputError):
            objective_envelope(-1.0, prof)


class TestProfileValidation:
    def test_field_constraints(self):
        with pytest.raises(InvalidInputError):
            DeviationProfile(s=0.5, k=0.5, A=4.0, ell=1)
        with pytest.raises(InvalidInputError):
            DeviationProfile(s=0.5, k=2.0, A=4.0, ell=0)
        with pytest.raises(InvalidInputError):
            DeviationProfile(s=0.5, k=2.0, A=4.0, ell=1, p_u=1.0)

    @pytest.mark.parametrize("field, value", [
        ("s", math.nan), ("k", math.nan), ("A", math.nan), ("p_u", math.nan),
        ("p1", math.nan), ("nu_lower", math.nan), ("nu_upper", math.nan),
        ("k", math.inf), ("A", math.inf), ("ell", 1.5), ("ell", 2.0),
        ("ell", True), ("m", 0), ("m", True), ("m", "2"), ("nu_lower", -1.0),
        ("nu_lower", 0.0), ("nu_upper", math.inf), ("s", None),
    ])
    def test_invalid_field_rejected(self, field, value):
        # NaN would pass every comparison and reach the constants, and
        # nu_lower = -1 makes objective_envelope complex
        fields = dict(s=0.5, k=2.0, A=4.0, ell=1, p_u=4.0, p1=2.0)
        fields[field] = value
        with pytest.raises(InvalidInputError) as err:
            DeviationProfile(**fields)
        assert field in str(err.value)

    def test_conjugate_exponents(self):
        prof = DeviationProfile(s=0.5, k=2.0, A=4.0, ell=1, p_u=4.0, p1=2.0)
        assert prof.p == pytest.approx(4.0 / 3.0)
        assert prof.r == pytest.approx(4.0)
        uniform = DeviationProfile.uniform_polynomial(3, 1)
        assert uniform.p == 1.0 and math.isinf(uniform.r)


class TestQuantileSandwich:
    def test_median_bracketed_by_moment_bounds(self):
        # polynomial h on a uniform law: the median sits between the
        # moment-based lower bound and twice the first moment
        x = np.random.default_rng(7).uniform(0, 1, 200000)
        h = 4.0 * x ** 2           # degree 2: exponent k = 2, factor A = 4
        q = empirical_quantile(h, 0.5)
        norm1 = float(np.mean(h))  # ~ 4/3
        se = 3.0 * float(np.std(h)) / math.sqrt(h.size)
        k, A, s = 2.0, 4.0, 1.0
        upper = 2.0 * (norm1 + se)                     # (1-w)^(-1/p) ||h||_1
        lower = (norm1 - se) * A ** -k * (1.0 - 2.0 ** -s) ** k
        assert lower <= q <= upper
        # the log-concave-form lower bound (3pk)^-k also holds
        assert q >= (norm1 - se) * A ** -k * (3.0 * 1.0 * k) ** -k
