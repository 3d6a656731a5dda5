"""Gap function, kernel inequality, and the end-to-end comparison."""

import math

import mpmath
import pytest

import renvol.comparison
import renvol.metric
from renvol.comparison import (
    GapSpec,
    area_log_ratio,
    compare_volumes,
    kernel_margin,
    kernel_threshold,
    mass_volume_sweep,
    volume_gap,
    volume_gap_regularized,
    volume_gap_slope,
)
from renvol.metric import ads_schwarzschild, custom_profile, hyperbolic, rn_ads
from renvol.quadrature import Tolerance

FOUR_PI = 4.0 * math.pi

# 50-digit mpmath oracles for the gap function, truncated to float
GAP_4PI_1 = 0.461001648067862677045017645958
GAP_PI_HALF = 0.580987298041414358137183309393
GAP_40PI_2 = 0.408400112558596861025532668716

# 25-digit mpmath oracles for the kernel margin
MARGIN_SMALL = 1.750709662227199359118501
MARGIN_ONE = -2.234975674570743745305683

# 40-digit mpmath oracles in the variable t, from the float arguments the
# calls receive (A = float 4 pi).  The gaps by tanh-sinh on [alpha, inf) of
# e^t (Y - X)/(sqrt(X) sqrt(Y) (sqrt(X) + sqrt(Y))) minus the integral of
# e^t Y^-1/2 over [0, alpha], with breakpoints at t = 1 and alpha - 30,
# 10, 3, 1 in the second, where e^t peaks at t = alpha; the slopes from
# J = int_0^inf e^(-t/2) K(t)^(-3/2) dt with breakpoints at
# t = 1e-9, 1e-8, ..., 1, 10, 100
GAP_4PI_SMALL = 0.01577104510882557494907683
GAP_4PI_50 = 1025400648633626865021.488
GAP_85_20_REGULARIZED = 29528752.34784105040728845
SLOPE_4PI_1_EPS6 = 0.6657812141767427632515852
SLOPE_4PI_EPS4 = {
    0.5: 0.4416178190684091113748525,
    1.0: 0.6558832541101462870969896,
    2.0: 1.569520817608664864629053,
}


def substitution_margin(eps, mu, dps=30):
    """Kernel margin by the u^3-substitution, at ``dps`` digits.

    The substitution u = e^(-t/2) collapses the t-integral to a finite one:
    lhs = 6*mu*int_0^1 (eps + mu*(1 - u^3))^(-3/2) du; the integrand peaks
    in a layer of width about eps/(3 mu) at u = 1, so breakpoints are placed
    at 1 - k*eps/mu.  Returns (lhs, margin).
    """
    with mpmath.workdps(dps):
        eps = mpmath.mpf(eps)
        mu = mpmath.mpf(mu)
        width = eps / mu
        points = [0] + [1 - k * width for k in (1e6, 1e4, 1e2, 10, 1) if k * width < 1] + [1]
        lhs = 6 * mu * mpmath.quad(
            lambda u: (eps + mu * (1 - u**3)) ** mpmath.mpf("-1.5"), points
        )
        return lhs, lhs - 4 / mpmath.sqrt(eps) - 1 / mpmath.sqrt(mu)


class TestAreaLogRatio:
    def test_equal_areas(self):
        assert area_log_ratio(FOUR_PI, FOUR_PI) == 0.0

    def test_e_fold(self):
        assert area_log_ratio(FOUR_PI * math.e, FOUR_PI) == pytest.approx(1.0, rel=1e-15)

    def test_smaller_area_rejected(self):
        with pytest.raises(ValueError):
            area_log_ratio(FOUR_PI * 0.99, FOUR_PI)

    def test_bad_model_area(self):
        with pytest.raises(ValueError):
            area_log_ratio(1.0, 0.0)


class TestGapSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GapSpec(-1.0, 0.0)
        with pytest.raises(ValueError):
            GapSpec(FOUR_PI, -0.5)
        with pytest.raises(ValueError):
            GapSpec(FOUR_PI, 1.0, epsilon=-1e-6)

    def test_defaults(self):
        spec = GapSpec(FOUR_PI, 1.0)
        assert spec.epsilon == 0.0


class TestVolumeGap:
    def test_zero_at_origin(self):
        for area in (math.pi, FOUR_PI, 40.0 * math.pi):
            assert volume_gap(GapSpec(area, 0.0)) == 0.0

    @pytest.mark.parametrize(
        "area,alpha,want",
        [
            (FOUR_PI, 1.0, GAP_4PI_1),
            (math.pi, 0.5, GAP_PI_HALF),
            (40.0 * math.pi, 2.0, GAP_40PI_2),
            (FOUR_PI, 0.05, GAP_4PI_SMALL),
            # e^t peaks at t = alpha = 50, where u = e^(-t/2) is 1.4e-11
            (FOUR_PI, 50.0, GAP_4PI_50),
        ],
    )
    def test_against_oracle(self, area, alpha, want):
        assert volume_gap(GapSpec(area, alpha)) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_increasing_in_alpha(self):
        values = [volume_gap(GapSpec(FOUR_PI, a)) for a in (0.25, 0.5, 1.0, 2.0)]
        assert all(v > 0.0 for v in values)
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_rejects_regularized_spec(self):
        with pytest.raises(ValueError):
            volume_gap(GapSpec(FOUR_PI, 1.0, epsilon=1e-4))


class TestVolumeGapRegularized:
    def test_converges_to_sharp_value(self):
        sharp = volume_gap(GapSpec(FOUR_PI, 1.0))
        gaps = [
            abs(volume_gap_regularized(GapSpec(FOUR_PI, 1.0, eps)) - sharp)
            for eps in (1e-2, 1e-3, 1e-4, 1e-5)
        ]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-3

    def test_large_alpha_against_oracle(self):
        got = volume_gap_regularized(GapSpec(85.0, 20.0, 0.85))
        assert got == pytest.approx(GAP_85_20_REGULARIZED, rel=1e-11, abs=0.0)

    def test_rejects_sharp_spec(self):
        with pytest.raises(ValueError):
            volume_gap_regularized(GapSpec(FOUR_PI, 1.0))


class TestVolumeGapSlope:
    def test_reference_point(self):
        res = volume_gap_slope(GapSpec(FOUR_PI, 1.0, 1e-6))
        assert res.value == pytest.approx(SLOPE_4PI_1_EPS6, rel=1e-11, abs=0.0)
        assert res.lower_bound == pytest.approx(0.180930555890054, rel=1e-9)
        assert res.satisfied

    @pytest.mark.parametrize("alpha", sorted(SLOPE_4PI_EPS4))
    def test_against_oracle(self, alpha):
        res = volume_gap_slope(GapSpec(FOUR_PI, alpha, 1e-4 * FOUR_PI))
        assert res.value == pytest.approx(SLOPE_4PI_EPS4[alpha], rel=1e-12, abs=0.0)

    def test_matches_finite_difference(self):
        eps = 1e-6
        h = 1e-4
        res = volume_gap_slope(GapSpec(FOUR_PI, 1.0, eps))
        up = volume_gap_regularized(GapSpec(FOUR_PI, 1.0 + h, eps))
        down = volume_gap_regularized(GapSpec(FOUR_PI, 1.0 - h, eps))
        assert res.value == pytest.approx((up - down) / (2.0 * h), rel=1e-6)

    def test_large_regularization_breaks_the_bound(self):
        # the lower bound only claims eps << mu; at eps = A_bar it fails,
        # and the report says so instead of papering over it
        res = volume_gap_slope(GapSpec(FOUR_PI, 1.0, FOUR_PI))
        assert not res.satisfied
        assert res.value < res.lower_bound

    def test_rejects_sharp_spec(self):
        with pytest.raises(ValueError):
            volume_gap_slope(GapSpec(FOUR_PI, 1.0))


class TestKernelMargin:
    def test_against_oracle(self):
        tol = Tolerance(rel=1e-13)
        assert kernel_margin(1e-4, 1.0, tol) == pytest.approx(MARGIN_SMALL, abs=1e-9)
        assert kernel_margin(1.0, 1.0, tol) == pytest.approx(MARGIN_ONE, abs=1e-9)

    def test_against_substitution_oracle(self):
        eps, mu = 0.01, 2.0
        want = float(substitution_margin(eps, mu)[1])
        assert kernel_margin(eps, mu) == pytest.approx(want, rel=1e-8)

    def test_monotone_in_ratio(self):
        margins = [kernel_margin(eps, 1.0) for eps in (1e-4, 1e-2, 1.0)]
        assert margins[0] > margins[1] > margins[2]
        assert margins[0] > 0.0 > margins[2]

    def test_scaling_law(self):
        base = kernel_margin(1e-3, 1.0)
        for lam in (0.1, 10.0):
            scaled = kernel_margin(lam * 1e-3, lam)
            assert scaled == pytest.approx(base / math.sqrt(lam), rel=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            kernel_margin(0.0, 1.0)
        with pytest.raises(ValueError):
            kernel_margin(1e-4, -1.0)

    def test_small_ratio_against_substitution_oracle(self):
        lhs, want = substitution_margin(1e-12, 1.0)
        # the error rel=1e-10 permits on an LHS of about 4e6
        assert kernel_margin(1e-12, 1.0) == pytest.approx(float(want), abs=1e-10 * float(lhs))


class TestKernelThreshold:
    def test_brackets_the_sign_change(self):
        for mu in (0.1, 1.0, 10.0):
            rho = kernel_threshold(mu)
            assert 1e-3 < rho < 1.0
            assert kernel_margin(rho * mu * 0.999, mu) > 0.0
            assert kernel_margin(rho * mu * 1.001, mu) < 0.0

    def test_scale_invariant(self):
        values = {kernel_threshold(mu) for mu in (1e-4, 0.1, 1.0, 10.0, 1e4)}
        assert len(values) == 1

    def test_tight_tolerance(self):
        rho = kernel_threshold(1.0, Tolerance(rel=1e-12))
        assert substitution_margin(rho * (1 - 1e-6), 1.0)[1] > 0
        assert substitution_margin(rho * (1 + 1e-6), 1.0)[1] < 0

    def test_margin_call_budget(self, monkeypatch):
        ratios = []

        def counted(eps, mu, tol=None):
            ratios.append(eps / mu)
            return kernel_margin(eps, mu, tol)

        monkeypatch.setattr(renvol.comparison, "kernel_margin", counted)
        kernel_threshold(10.0)
        # the margins at the two bracket ends are handed to the refinement
        assert len(ratios) <= 10
        assert len(set(ratios)) == len(ratios)
        assert min(ratios) >= 1e-2

    def test_no_crossing_raises(self, monkeypatch):
        ratios = []

        def negative(eps, mu, tol=None):
            ratios.append(eps / mu)
            return -1.0

        monkeypatch.setattr(renvol.comparison, "kernel_margin", negative)
        with pytest.raises(ValueError, match="down to 1e-12"):
            kernel_threshold(1.0)
        assert min(ratios) == pytest.approx(1e-12)
        monkeypatch.setattr(renvol.comparison, "kernel_margin", lambda eps, mu, tol=None: 1.0)
        with pytest.raises(ValueError, match="at ratio 1 is not negative"):
            kernel_threshold(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            kernel_threshold(0.0)


class TestCompareVolumes:
    def test_model_against_itself(self):
        report = compare_volumes(ads_schwarzschild(2.0), 2.0)
        assert report.verdict == "equality"
        assert abs(report.margin) < 1e-12
        assert report.alpha == 0.0
        assert report.hypotheses_ok

    def test_charged_profile_beats_matched_model(self):
        p = rn_ads(4.0, 1.0)
        s_h = p.horizon.radius
        report = compare_volumes(p, s_h**3 + s_h)
        assert report.verdict == "holds"
        assert report.margin == pytest.approx(2.7470397487437186, rel=1e-6)
        assert report.alpha == 0.0

    def test_unmatched_model_gives_positive_alpha(self):
        report = compare_volumes(rn_ads(4.0, 1.0), 2.0)
        assert report.verdict == "holds"
        assert report.alpha > 0.0
        # the gap function caps how much of the margin the area excess
        # already accounts for
        floor = report.model_area**1.5 * volume_gap(GapSpec(report.model_area, report.alpha))
        assert 2.0 * report.margin == pytest.approx(12.7488, rel=1e-3)
        assert floor == pytest.approx(7.2547, rel=1e-3)
        assert 2.0 * report.margin >= floor

    def test_negative_charge_fails_curvature_hypothesis(self):
        report = compare_volumes(rn_ads(4.0, -1.0), 4.0)
        assert report.verdict == "hypothesis_failed"
        witness = {h.name: h for h in report.hypotheses}["scalar_curvature"]
        assert not witness.passed
        assert "falls below -6" in witness.detail
        assert report.volume is None and report.margin is None

    def test_small_profile_fails_area_hypothesis(self):
        report = compare_volumes(ads_schwarzschild(1.0), 2.0)
        assert report.verdict == "hypothesis_failed"
        checks = {h.name: h for h in report.hypotheses}
        assert not checks["area"].passed
        assert checks["scalar_curvature"].passed
        assert checks["horizon"].passed

    def test_no_horizon_degrades_to_failed_checks(self):
        report = compare_volumes(custom_profile("1 + s^2 - s^3/100"), 2.0)
        assert report.verdict == "hypothesis_failed"
        checks = {h.name: h for h in report.hypotheses}
        assert not checks["horizon"].passed
        assert not checks["asymptotics"].passed

    def test_reference_space_has_no_boundary(self):
        report = compare_volumes(hyperbolic(), 2.0)
        assert report.verdict == "hypothesis_failed"
        checks = {h.name: h for h in report.hypotheses}
        assert not checks["horizon"].passed

    def test_invalid_model_mass(self):
        with pytest.raises(ValueError):
            compare_volumes(ads_schwarzschild(2.0), -1.0)

    def test_nan_curvature_fails_the_check(self):
        # the sqrt keeps the tree on the sampled path; s^90 overflows beyond
        # s = 2657, so R is NaN at the top of the grid, and the first NaN is
        # the sampled minimum and the check fails on it
        p = custom_profile("1 + s^2 - m/s + c*sqrt(s^90)/s^46", {"m": 2.0, "c": 1e-3})
        report = compare_volumes(p, 2.0)
        check = {h.name: h for h in report.hypotheses}["scalar_curvature"]
        assert not check.passed
        assert check.detail == "R(s = 2677.31) = nan falls below -6 (sampled witness)"
        assert report.verdict == "hypothesis_failed"

    def test_linear_defect_term_beside_an_atom_is_sampled(self):
        # q = s - m*exp(-s) normalizes, and s*q = s^2 - m*s*exp(-s) keeps
        # an s^2 beside the atom; the mass aspect has no 1 + s^2 to cancel,
        # so this is no DecayError and R = -6 + 4/s + ... is sampled
        p = custom_profile("1 + s^2 - s + m*exp(-s)", {"m": 1e-3})
        report = compare_volumes(p, 2.0)
        check = {h.name: h for h in report.hypotheses}["scalar_curvature"]
        assert check.passed
        assert check.detail == (
            "min sampled R = -5.9996 at s = 10000 (2000-point grid plus local "
            "refinement; sampled, not a global certificate)"
        )

    def test_rational_overflow_is_certified_exactly(self):
        # s^90 - s^90 is the zero polynomial, so f = 1 + s^2 - m/s exactly
        # and R = -6; the float overflow beyond s = 2657 is never sampled
        p = custom_profile("1 + s^2 - m/s + (s^90 - s^90)", {"m": 2.0})
        report = compare_volumes(p, 2.0)
        checks = {h.name: h for h in report.hypotheses}
        assert checks["scalar_curvature"].passed
        assert checks["scalar_curvature"].detail == (
            "R >= -6 on [1, inf), certified by an exact Sturm count of (s q)'"
        )
        # f is NaN on the decay-fit grid beyond s = 2657
        assert not checks["asymptotics"].passed
        assert report.verdict == "hypothesis_failed"

    def test_narrow_curvature_dip_fails_the_check(self):
        # s q = m - A w^2/((s - 5.003)^2 + w^2) decreases up to s = 5.003,
        # so R < -6 on (s_h, 5.003) and R = -6 - 1/(s^2 w) at s = 5.003 - w;
        # the 2000-point grid saw R = -6 and the verdict was "equality"
        p = custom_profile(
            "1 + s^2 - m/s + A*w^2/(s*((s-5.003)^2 + w^2))",
            {"m": 2.0, "A": 1.0, "w": 1e-11},
        )
        report = compare_volumes(p, 2.0)
        check = {h.name: h for h in report.hypotheses}["scalar_curvature"]
        assert not check.passed
        assert report.verdict == "hypothesis_failed"
        head, interval = check.detail.split("(certified: (s q)' < 0 on (")
        lower, upper = (float(x) for x in interval.rstrip("))").split(", "))
        assert lower == pytest.approx(p.horizon.radius, rel=1e-14)
        assert 5.003 - 1e-11 < upper < 5.003
        witness = float(head.split("(s = ")[1].split(")")[0])
        drop = float(head.split("= -6 - ")[1].split(" falls")[0])
        assert witness == pytest.approx(5.003, rel=1e-6) and drop > 1e9

    def test_pole_above_the_horizon_fails_the_check(self):
        # f = 1 + s^2 - m/s + c/(s - 5) has its outermost root just below
        # the pole at s = 5, which the walk took for a root
        p = custom_profile("1 + s^2 - m/s + c/(s - 5)", {"m": 2.0, "c": 1.0})
        assert 4.9 < p.horizon.radius < 5.0
        report = compare_volumes(p, 2.0)
        check = {h.name: h for h in report.hypotheses}["scalar_curvature"]
        assert not check.passed
        assert check.detail.startswith("f has a pole in (")
        lower, upper = (float(x) for x in check.detail[17:].split("]")[0].split(", "))
        assert lower < 5.0 <= upper and upper - lower < 1e-11
        assert report.verdict == "hypothesis_failed"

    def test_asymptotics_fit_runs_once_per_profile(self, monkeypatch):
        fitted = []
        original = renvol.metric.validate_asymptotics

        def counted(p):
            fitted.append(p.label)
            return original(p)

        monkeypatch.setattr(renvol.metric, "validate_asymptotics", counted)
        p = rn_ads(4.0, 1.0)
        assert compare_volumes(p, 2.0).verdict == "holds"
        # the profile and the model, each fitted once
        assert fitted == ["rn-ads m=4 c=1", "ads m=2"]
        compare_volumes(p, 2.0)
        assert fitted.count("rn-ads m=4 c=1") == 1


class TestMassVolumeSweep:
    def test_three_point_sweep(self):
        result = mass_volume_sweep([1.0, 2.0, 4.0])
        assert result.monotone
        volumes = [row.volume for row in result.rows]
        assert volumes == pytest.approx(
            [6.477981869991277, 10.579797094323736, 16.242482790852772], rel=1e-9
        )
        assert result.rows[0].delta_prev is None
        assert result.rows[1].delta_prev == pytest.approx(volumes[1] - volumes[0])

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            mass_volume_sweep([])

    def test_non_increasing_grid(self):
        with pytest.raises(ValueError):
            mass_volume_sweep([2.0, 1.0])
        with pytest.raises(ValueError):
            mass_volume_sweep([1.0, 1.0])
