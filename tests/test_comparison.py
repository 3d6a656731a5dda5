"""Gap function, kernel inequality, and the end-to-end comparison."""

import json
import math
import os
import random
import sys
import time
from functools import partial
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import renvol.comparison
import renvol.expressions
import renvol.metric
from renvol.comparison import (
    GapSpec,
    _check_curvature,
    compare_volumes,
    kernel_margin,
    kernel_threshold,
    mass_volume_sweep,
    volume_gap,
    volume_gap_regularized,
    volume_gap_slope,
)
from renvol.errors import DecayError, QuadratureError
from renvol.expressions import parse
from renvol.metric import (
    ads_horizon_radius,
    ads_schwarzschild,
    custom_profile,
    hyperbolic,
    rn_ads,
)
from renvol.quadrature import Tolerance, _integrate
from renvol.volume import renormalized_volume

from helpers import (
    gap_arguments,
    gap_difference,
    gap_unshifted,
    kernel_power,
    layer_map,
    loop_panel,
    mp_gap_regularized,
    mp_gap_slope,
    mp_kernel_margin,
    sympy_decay_rate,
)

FOUR_PI = 4.0 * math.pi

# the gap-kernel benchmark's inputs at seeds 1-10, with the reprs the gap
# functions returned for them when their integrands were closures
GAP_REPRS = os.path.join(os.path.dirname(__file__), "golden", "gap_kernel_reprs.json")

# rational defects c*s + m/s and c + m/s with a tiny c: |q|/f decays like
# s^-1 and s^-2, but a 41-point log-log fit over [1e2, 1e6] read -2.984
# and -3.000, and passed them
FOOLED_FITS = [
    ("1 + s^2 - c*s - m/s", {"c": 1e-12, "m": 2.0}),
    ("1 + s^2 - c - m/s", {"c": 1e-8, "m": 2.0}),
]

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


def patch_volumes(monkeypatch, *values):
    """Make the comparison's ``renormalized_volume`` return ``values`` in
    turn, for verdicts that no admitted input reaches."""
    values = iter(values)
    monkeypatch.setattr(renvol.comparison, "renormalized_volume",
                        lambda p, tol=None: SimpleNamespace(value=next(values)))


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

    @pytest.mark.parametrize("area", [1.0, FOUR_PI, 1e6])
    def test_overflowing_alpha_names_alpha(self, area):
        # e^alpha overflows a float beyond alpha = 709.78
        with pytest.raises(ValueError, match="alpha = 710"):
            volume_gap(GapSpec(area, 710.0))

    @pytest.mark.parametrize("area,alpha,eps", [
        # an integrand value overflows, though e^alpha does not
        (10.0, 705.0, 0.0), (10.0, 708.0, 0.0), (10.0, 708.0, 1e-2), (10.0, 709.5, 0.0),
        (10.0, 709.5, 1e-2), (10.0, 709.78, 0.0), (1e6, 700.0, 0.0),
        # every value is finite, but a panel's sum overflows to inf
        (0.020014459269235053, 708.0539675110019, 0.016287889239036887),
    ])
    def test_overflowing_integrals_name_alpha(self, area, alpha, eps):
        gap = volume_gap_regularized if eps else volume_gap
        with pytest.raises(ValueError, match="alpha = %r is too large" % alpha):
            gap(GapSpec(area, alpha, eps))

    def test_values_below_the_overflow_stay(self):
        assert volume_gap(GapSpec(10.0, 700.0)) == 2.2485976733004578e+303
        # each within the quadrature tolerance of 20 digits of helpers.mp_gap_regularized
        for spec, want, oracle in [
            (GapSpec(10.0, 705.0, 1e-2), 3.1328478904315667e+305, 3.132847890431593475e+305),
            # raised while the second gap integral ran in plain t from t = 0
            (GapSpec(4.64395517767651, 705.6868367127363, 0.0026637502515093284),
             9.283089695304873e+305, 9.2830896953042939441e+305),
        ]:
            assert volume_gap_regularized(spec) == want
            assert want == pytest.approx(oracle, rel=1e-10, abs=0.0)

    # the largest alpha on the grid 700, 700.25, ..., 710 at which the gap
    # was finite while its integrals ran in y and plain t
    @pytest.mark.parametrize("area,eps,last", [
        (10.0, 1e-2, 706.25), (4.64395517767651, 0.0026637502515093284, 705.5),
        (1e3, 1.0, 702.0), (1e-3, 1e-6, 701.5), (FOUR_PI, 1e-4, 704.0),
    ])
    def test_no_finite_gap_starts_to_raise(self, area, eps, last):
        for k in range(int((last - 700.0) / 0.25) + 1):
            assert math.isfinite(volume_gap_regularized(GapSpec(area, 700.0 + 0.25 * k, eps)))


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

    @pytest.mark.parametrize(
        "spec",
        [
            # the value overflows
            GapSpec(1e-6, 705.0, 1e-9),
            # e^alpha overflows
            GapSpec(FOUR_PI, 710.0, 1e-4),
        ],
    )
    def test_overflowing_alpha_names_alpha(self, spec):
        with pytest.raises(ValueError, match="alpha = %r" % spec.alpha):
            volume_gap_slope(spec)

    @pytest.mark.parametrize("spec,want,oracle", [
        # these raised while e^alpha J and e^alpha eps^-1/2 were computed
        # and subtracted: inf - inf; the oracles are 20 digits of
        # helpers.mp_gap_slope
        (GapSpec(1e-6, 700.0, 1e-9), 6.675240225679865e+306, 6.6752402256798725921e+306),
        (GapSpec(1e6, 700.0, 1e3), 6.675240225674557e+300, 6.6752402256798724649e+300),
    ])
    def test_values_below_the_overflow_stay(self, spec, want, oracle):
        assert volume_gap_slope(spec).value == want
        assert want == pytest.approx(oracle, rel=1e-10, abs=0.0)

    def test_tiny_eps_names_eps(self):
        # eps/(3A + c) is below the smallest normal float, 0.0 for 5e-324
        for eps in (5e-324, 1e-310):
            with pytest.raises(ValueError, match="eps = %r is too small" % eps):
                volume_gap_slope(GapSpec(1.0, 1.0, eps))
            with pytest.raises(ValueError, match="eps = %r is too small" % eps):
                volume_gap_regularized(GapSpec(1.0, 1.0, eps))
            with pytest.raises(ValueError, match="eps = %r is too small" % eps):
                kernel_margin(eps, 10.0)


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

    @pytest.mark.parametrize("eps,mu", [(1e-310, 1e-300), (1e-200, 1e-190)])
    def test_tiny_mu_against_oracle(self, eps, mu):
        # at mu = 1e-300 the kernel itself overflows; the margin at eps/mu does not
        assert kernel_margin(eps, mu) == pytest.approx(float(mp_kernel_margin(eps, mu)), rel=1e-10)

    def test_small_ratio_against_substitution_oracle(self):
        lhs, want = substitution_margin(1e-12, 1.0)
        # the error rel=1e-10 permits on an LHS of about 4e6
        assert kernel_margin(1e-12, 1.0) == pytest.approx(float(want), abs=1e-10 * float(lhs))


class TestKernelThreshold:
    @pytest.fixture(autouse=True)
    def fresh_search(self):
        # the search is remembered per tolerance; each test starts without
        # it, and leaves none that a patched kernel_margin computed
        renvol.comparison._threshold.cache_clear()
        yield
        renvol.comparison._threshold.cache_clear()

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

    def test_validation_runs_on_every_call(self):
        kernel_threshold(1.0)
        for mu in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="mu must be positive"):
                kernel_threshold(mu)

    def test_later_calls_make_no_margin_call(self, monkeypatch):
        rho = kernel_threshold(1.0)
        calls = []
        monkeypatch.setattr(renvol.comparison, "kernel_margin", lambda *args: calls.append(args))
        for mu in (1e-4, 0.1, 10.0, 1e4):
            assert repr(kernel_threshold(mu)) == repr(rho)
        assert repr(kernel_threshold(2.0, Tolerance())) == repr(rho)
        assert calls == []

    def test_another_tolerance_searches_afresh(self, monkeypatch):
        kernel_threshold(1.0)
        tols = []

        def counted(eps, mu, tol=None):
            tols.append(tol)
            return kernel_margin(eps, mu, tol)

        monkeypatch.setattr(renvol.comparison, "kernel_margin", counted)
        tight = Tolerance(rel=1e-12)
        rho = kernel_threshold(1.0, tight)
        assert len(tols) >= 3
        assert all(tol == tight for tol in tols)
        del tols[:]
        # an equal tolerance is the same search
        assert repr(kernel_threshold(5.0, Tolerance(rel=1e-12))) == repr(rho)
        assert tols == []

    def test_a_raising_search_raises_again(self, monkeypatch):
        calls = []

        def positive(eps, mu, tol=None):
            calls.append(eps / mu)
            return 1.0

        monkeypatch.setattr(renvol.comparison, "kernel_margin", positive)
        for count in (1, 2):
            with pytest.raises(ValueError, match="at ratio 1 is not negative"):
                kernel_threshold(1.0)
            assert calls == [1.0] * count


def stratified(rng, lo, hi, n):
    """n draws, one in each of n equal slices of [lo, hi), shuffled."""
    values = [lo + (i + rng.random()) * (hi - lo) / n for i in range(n)]
    rng.shuffle(values)
    return values


# a derandomized corpus (A, alpha, eps), one case in each sixth of log10 A
# in [-3, 4], of alpha in [0.01, 30] and of log10(eps/A) in [-12, 0]
_CORPUS = random.Random(27)
ORACLE_CASES = [(a, alpha, 10.0**x * a) for a, alpha, x in zip(
    [10.0**x for x in stratified(_CORPUS, -3.0, 4.0, 6)], stratified(_CORPUS, 0.01, 30.0, 6),
    stratified(_CORPUS, -12.0, 0.0, 6))]

# where u^2 = t in the second gap integral misses the layer at t = 0: the gap
# came out 1.7e-9 off (relative) while the error estimate claimed 3.4e-11
SQRT_TRAP = (1.3780598432029814, 10.544569408529814, 2.51789628624827e-08)

# 6 int_0^1 y^-3/2 ((3 - 3y + y^2)^-3/2 - 3^-3/2) dy - 4/sqrt(3) - 1, the
# kernel margin at mu = 1 as eps -> 0, to 20 digits of 40-digit mpmath
MARGIN_LIMIT = 1.8043642106509085224


class TestGapOracle:
    """The regularized gap, its slope and the kernel margin against 30-digit
    mpmath (tests/helpers.py): the gap within the quadrature tolerance of
    its value, the slope and the margin within it of the largest term of
    their formulas."""

    @pytest.mark.parametrize("area,alpha,eps", ORACLE_CASES + [SQRT_TRAP])
    def test_against_mpmath(self, area, alpha, eps):
        spec = GapSpec(area, alpha, eps)
        want = float(mp_gap_regularized(area, alpha, eps))
        assert volume_gap_regularized(spec) == pytest.approx(want, rel=1e-10, abs=0.0)
        want = float(mp_gap_slope(area, alpha, eps))
        lead = 3.0 * area + FOUR_PI * math.exp(-alpha)
        largest = abs(want) + math.exp(alpha) / math.sqrt(eps + lead)
        assert volume_gap_slope(spec).value == pytest.approx(want, abs=1e-10 * largest)
        want = float(mp_kernel_margin(eps, area))
        largest = abs(want) + 4.0 / math.sqrt(eps + 3.0 * area) + 1.0 / math.sqrt(area)
        assert kernel_margin(eps, area) == pytest.approx(want, abs=1e-10 * largest)

    @pytest.mark.parametrize("ratio", [1e-12, 1e-16, 1e-20, 1e-40, 1e-100, 1e-200, 1e-300])
    def test_margin_keeps_its_digits_as_the_ratio_vanishes(self, ratio):
        # the margin is within 6 sqrt(ratio) of its limit, so the limit is
        # the oracle from ratio 1e-40 on
        want = float(mp_kernel_margin(ratio, 1.0)) if ratio >= 1e-20 else MARGIN_LIMIT
        largest = abs(want) + 4.0 / math.sqrt(ratio + 3.0) + 1.0
        assert kernel_margin(ratio, 1.0) == pytest.approx(want, abs=1e-10 * largest)


def outcome(call):
    """("value", repr) of what call() returns, or the kind and text of what
    it raises; a kernel's refusal counts as the QuadratureError it is."""
    try:
        return "value", repr(call())
    except QuadratureError as exc:
        return "QuadratureError", str(exc)
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)


class TestGapKernels:
    """The compiled gap, slope and margin kernels against their integrands
    as closures (tests/helpers.py), bit for bit."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        area=st.floats(-6.0, 6.0).map(lambda x: 10.0**x),
        alpha=st.one_of(st.floats(0.0, 5.0), st.floats(0.0, 700.0)),
        ratio=st.one_of(st.just(0.0), st.floats(-12.0, 0.0).map(lambda x: 10.0**x)),
        cut=st.floats(0.0, 1.0),
    )
    # refusals: scale = 2 e^alpha d overflows, or one value does
    @example(area=1e6, alpha=700.0, ratio=0.0, cut=0.5)
    @example(area=1e6, alpha=700.0, ratio=1e-3, cut=0.5)
    @example(area=1.0, alpha=700.0, ratio=1e-12, cut=1e-3)
    def test_kernels_match_their_closures(self, area, alpha, ratio, cut):
        eps = ratio * area
        args = gap_arguments(area, alpha, eps)
        c = args[2]
        # (integrand, substitution, kernel arguments, closure, range in the
        # integrand's variable); the layer's width comes last in its arguments
        if eps == 0.0:
            cases = [
                ("difference", "sqrt", args, gap_difference(*args), 1.0),
                ("unshifted", "sqrt", (eps, area, FOUR_PI), gap_unshifted(eps, area, FOUR_PI),
                 alpha),
            ]
        else:
            lead, margin_lead = 3.0 * area + c, 3.0 * area
            cases = [
                ("difference", "layer", args + (eps / lead,), gap_difference(*args), 1.0),
                # the second gap integral: the head [0, min(alpha, 1)] in the
                # layer variable, the tail [1, alpha] in t
                ("unshifted", "layer", (eps, area, FOUR_PI, eps / (1.5 * area + 2.0 * math.pi)),
                 gap_unshifted(eps, area, FOUR_PI), min(alpha, 1.0)),
                ("power", "layer", (eps, area, c, lead, eps / lead),
                 kernel_power(eps, area, c, lead), 1.0),
                ("power", "layer", (eps, area, 0.0, margin_lead, eps / margin_lead),
                 kernel_power(eps, area, 0.0, margin_lead), 1.0),
            ]
        refused = False
        for integrand, substitution, kernel_args, fn, end in cases:
            kernel = renvol.comparison._kernel(integrand, substitution)
            if substitution == "sqrt":
                top = math.sqrt(end)

                def closure(u, fn=fn):
                    return 2.0 * u * fn(0.0 + u * u)
            else:
                width = kernel_args[-1]
                top = math.log1p(end / width)
                closure = layer_map(fn, width)
            want = outcome(lambda: _integrate(partial(loop_panel, closure), 0.0, top))
            assert outcome(lambda: _integrate(partial(kernel, *kernel_args), 0.0, top)) == want
            for lo, hi in ((0.0, top), (0.0, cut * top), (cut * top, top)):
                panel = outcome(lambda: kernel(*kernel_args, lo, hi))
                assert panel == outcome(lambda: loop_panel(closure, lo, hi))
                refused = refused or panel[0] != "value"
            if integrand == "unshifted" and substitution == "layer" and alpha > 1.0:
                kernel = renvol.comparison._kernel("unshifted", "plain")
                assert (outcome(lambda: _integrate(partial(kernel, *kernel_args[:-1]), 1.0, alpha))
                        == outcome(lambda: _integrate(partial(loop_panel, fn), 1.0, alpha)))
                for lo, hi in ((1.0, alpha), (1.0, 1.0 + cut * (alpha - 1.0))):
                    panel = outcome(lambda: kernel(*kernel_args[:-1], lo, hi))
                    assert panel == outcome(lambda: loop_panel(fn, lo, hi))
                    refused = refused or panel[0] != "value"
        if area == 1e6 and alpha == 700.0:
            assert refused
        if eps > 0.0 and alpha > 0.0:
            # the gap is the first integral less the head and the tail
            got = outcome(lambda: volume_gap_regularized(GapSpec(area, alpha, eps)))
            if got[0] == "value":
                (_, _, first_args, first, _), (_, _, head_args, unshifted, head) = cases[:2]

                def looped(fn, a, b):
                    return _integrate(partial(loop_panel, fn), a, b).value

                def layered(fn, width, end):
                    return looped(layer_map(fn, width), 0.0, math.log1p(end / width))

                second = layered(unshifted, head_args[-1], head)
                if alpha > 1.0:
                    second += looped(unshifted, 1.0, alpha)
                assert got == ("value", repr(layered(first, first_args[-1], 1.0) - second))

    @staticmethod
    def benchmark_reprs():
        """(case, the reprs of its gap-kernel calls) for each of the 30
        benchmark input sets, the threshold searched afresh."""
        renvol.comparison._threshold.cache_clear()
        with open(GAP_REPRS) as fh:
            cases = json.load(fh)
        assert len(cases) == 30
        for case in cases:
            area, alpha = case["area"], case["alpha"]
            yield case, {
                "kernel_threshold": repr(kernel_threshold(area)),
                "volume_gap": [repr(volume_gap(GapSpec(area, a)))
                               for a in case["grid"] + [alpha]],
                "volume_gap_regularized": [repr(volume_gap_regularized(GapSpec(area, alpha, e)))
                                           for e in case["eps"]],
                "volume_gap_slope": [repr(volume_gap_slope(GapSpec(area, alpha, e)))
                                     for e in case["eps"]],
                "kernel_margin": [repr(kernel_margin(e, area)) for e in case["eps"]],
            }

    def test_parent_reprs_at_the_benchmark_inputs(self):
        for case, got in self.benchmark_reprs():
            for name, value in got.items():
                assert value == case[name], (name, case["area"], case["alpha"])

    def test_evaluations_at_the_benchmark_inputs_are_pinned(self, monkeypatch):
        evaluations = []

        def counted(*args, **kwargs):
            result = _integrate(*args, **kwargs)
            evaluations.append(result.evaluations)
            return result

        monkeypatch.setattr(renvol.comparison, "_integrate", counted)
        for _ in self.benchmark_reprs():
            pass
        # 143,775 while the eps > 0 integrals ran in y and plain t
        assert sum(evaluations) == 59_835


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

    @pytest.mark.parametrize("model_mass", [1.0, 2.0, 3.0])
    def test_alpha_is_the_log_of_the_area_ratio(self, model_mass):
        p = rn_ads(4.0, 1.0)
        report = compare_volumes(p, model_mass)
        s0 = ads_horizon_radius(model_mass)
        assert report.area == p.horizon.area
        assert report.model_area == 4.0 * math.pi * s0 * s0
        assert report.alpha == math.log(report.area / report.model_area)

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
        # the sqrt keeps the tree off the Sturm path; (s q)' is 0 in exact
        # arithmetic, but its enclosures cancel terms like 45 c/s and decide
        # no block above the horizon, and beyond s = 2657, where s^90
        # overflows, the jet of s q is NaN; the work budget ends the check
        # undecided
        p = custom_profile("1 + s^2 - m/s + c*sqrt(s^90)/s^46", {"m": 2.0, "c": 1e-3})
        report = compare_volumes(p, 2.0)
        check = {h.name: h for h in report.hypotheses}["scalar_curvature"]
        assert not check.passed
        assert check.detail == (
            "R >= -6 is undecided on [1.0004057527410921, 1.0004163336788716] after "
            "4001 enclosures of (s q)' (no certificate)"
        )
        assert report.verdict == "hypothesis_failed"

    def test_linear_defect_term_beside_an_atom_is_sampled(self):
        # q = s - m*exp(-s) normalizes, and s*q = s^2 - m*s*exp(-s) keeps
        # an s^2 beside the atom; the mass aspect has no 1 + s^2 to cancel,
        # so this is no DecayError, and the jet of s q is enclosed up to
        # where s^2 overflows
        p = custom_profile("1 + s^2 - s + m*exp(-s)", {"m": 1e-3})
        report = compare_volumes(p, 2.0)
        check = {h.name: h for h in report.hypotheses}["scalar_curvature"]
        assert check.passed
        assert check.detail == (
            "R >= -6 - 1e-09 on [0.01, 1.34078e+154] (f, s q or (s q)' is not finite "
            "above it), certified by enclosures of (s q)'"
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
        # f is NaN on the decay check's grid beyond s = 2657
        assert not checks["asymptotics"].passed
        assert report.verdict == "hypothesis_failed"

    def test_pole_at_the_start_of_the_curvature_range(self):
        # f > 0 has no horizon, so the range starts at s = 0.01, the pole
        p = custom_profile("1 + s^2 + c/(s - 0.01)^2", {"c": 1.0})
        report = compare_volumes(p, 2.0)
        checks = {h.name: h for h in report.hypotheses}
        assert not checks["horizon"].passed
        assert checks["scalar_curvature"].detail == "f has a pole at s = 0.01 (certified)"

    def test_exact_form_with_a_curvature_numerator_over_the_cap(self):
        # P/Q is under algebra.small, the numerator of (s q)' is not, so the
        # check takes the enclosures and certifies the dip near s = 1.1
        p = custom_profile("1 + s^2 - m/s + c*(s - 1.1)^2/(s^2 + 1)^4", {"m": 2.0, "c": 1e-3})
        assert p.rational is not None
        check = {h.name: h for h in compare_volumes(p, 2.0).hypotheses}["scalar_curvature"]
        assert not check.passed
        assert "falls below -6 (certified: R < -6 - 1e-09 on [" in check.detail
        assert check.detail.endswith(" by enclosures of (s q)')")

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

    @pytest.mark.parametrize("text, params", FOOLED_FITS)
    def test_exact_rate_fails_a_slow_rational_defect(self, text, params):
        # over [1e2, 1e6] the m/s term hides the tiny c term from the fit
        p = custom_profile(text, params)
        rate = sympy_decay_rate(p.f, p.params)
        assert rate in (-1.0, -2.0)
        report = compare_volumes(p, 1.0)
        assert report.verdict == "hypothesis_failed"
        checks = {h.name: h for h in report.hypotheses}
        assert [name for name, h in checks.items() if not h.passed] == ["asymptotics"]
        assert checks["asymptotics"].detail == (
            "exact decay rate %d vs required -2.800 (from f = P/Q)" % rate
        )
        with pytest.raises(DecayError, match=r"decays like s\^%.3f," % rate):
            renormalized_volume(p)

    @pytest.mark.parametrize("text, params", FOOLED_FITS)
    def test_leading_term_fails_a_slow_transcendental_defect(self, text, params):
        # the same defects beside an exp: the leading term of q is c*s or c
        p = custom_profile(text + " + 0*exp(-s)", params)
        rate = sympy_decay_rate(custom_profile(text, params).f, params)
        report = compare_volumes(p, 1.0)
        assert report.verdict == "hypothesis_failed"
        checks = {h.name: h for h in report.hypotheses}
        assert [name for name, h in checks.items() if not h.passed] == ["asymptotics"]
        assert checks["asymptotics"].detail == (
            "exact decay rate %d vs required -2.800 (from the leading term of q)" % rate
        )

    def test_refused_defect_fails_the_asymptotics_check(self):
        # f = 1 + s^2 - m/s exactly, so the exact rate -3 passes, but the
        # divisor keeps a bare s^2 in the defect tree that the volumes need
        p = custom_profile("(s^4 + 2*s^2 + 1)/(s^2 + 1) - m/s", {"m": 2.0})
        assert p.asymptotics.passed
        report = compare_volumes(p, 1.0)
        assert report.verdict == "hypothesis_failed"
        checks = {h.name: h for h in report.hypotheses}
        assert [name for name, h in checks.items() if not h.passed] == ["asymptotics"]
        assert checks["asymptotics"].detail.startswith(
            "the defect q = 1 + s^2 - f of '(s^4 + 2.0*s^2 + 1.0)/(s^2 + 1.0) - m/s' "
            "keeps a bare s^2 term"
        )

    def test_prem_calls_per_golden_comparison(self, monkeypatch):
        # a deterministic work pin: the pseudo-remainders of one comparison
        # of the compare_custom_rational golden profile (40 with two-pass
        # Sturm chains, no monomial gcd and no power of s split off; 2
        # while the chain of the pole polynomial s^3 was built, not read
        # off as that of s); the horizon search builds no chain
        calls = []
        original = renvol.algebra._prem

        def counted(a, b):
            calls.append(len(a))
            return original(a, b)

        monkeypatch.setattr(renvol.algebra, "_prem", counted)
        p = custom_profile(
            "1 + s^2 - m/s + c/s^2 + k/s^3", {"m": 5.0, "c": 0.3, "k": 0.1}
        )
        assert compare_volumes(p, 2.0).verdict == "holds"
        assert len(calls) == 1

    def test_reports_match_the_golden_reprs(self):
        # 40 rational profiles: rn-ads, the compare-rational custom family,
        # the model and other Laurent and pole shapes, with holds,
        # equality, curvature, area, horizon and asymptotics failures and
        # poles.  Their reports, horizons, P/Q, Sturm chains of P and Q and
        # model P/Q, recorded before the exact routines took shortcuts
        with open(os.path.join(os.path.dirname(__file__), "golden",
                               "compare_rational_reports.json")) as fh:
            cases = json.load(fh)
        assert len(cases) == 40
        for case in cases:
            params = case["params"]
            if case["family"] == "rn_ads":
                p = rn_ads(params["m"], params["c"])
            elif case["family"] == "ads":
                p = ads_schwarzschild(params["m"])
            else:
                p = custom_profile(case["text"], params)
            assert repr(compare_volumes(p, case["mass"])) == case["report"]
            assert repr(p.horizon) == case["horizon"]
            assert list(p.rational) == case["rational"]
            assert [renvol.algebra.sturm(x) for x in p.rational] == case["chains"]
            assert list(ads_schwarzschild(case["mass"]).rational) == case["model_rational"]

    def test_asymptotics_fit_runs_once_per_profile(self, monkeypatch):
        fitted = []
        original = renvol.metric.validate_asymptotics

        def counted(p):
            fitted.append(p.label)
            return original(p)

        monkeypatch.setattr(renvol.metric, "validate_asymptotics", counted)
        p = rn_ads(4.0, 1.0)
        assert compare_volumes(p, 2.0).verdict == "holds"
        # the profile checked once; the model carries its report
        assert fitted == ["rn-ads m=4 c=1"]
        compare_volumes(p, 2.0)
        assert fitted.count("rn-ads m=4 c=1") == 1


# f = 1 + s^2 - mu(s)/s has s q = mu, so R + 6 = 2 mu'/s^2: each mass
# aspect mu comes with its derivative in mpmath, the oracle of the check
MASS_ASPECTS = {
    "1 + s^2 - (m + c*(1 - exp(-s/a)))/s": lambda s, c, a: c * mpmath.exp(-s / a) / a,
    "1 + s^2 - (m + c*s/sqrt(s^2 + a))/s": lambda s, c, a: c * a / (s * s + a) ** 1.5,
}

# the verdicts of the check on trees with exp/log/sqrt and an above-cap
# rational form, with R + 6 = 2 (s q)'/s^2 worked out by hand: passes
# where (s q)' >= 0, failures where it dips below 0 above s_lo
ENCLOSED_VERDICTS = [
    ("1 + s^2 - m/s + c*exp(-s)/s", {"m": 2.0, "c": 0.5}, True),
    ("1 + s^2 - m/s + c*exp(-s)/s^2", {"m": 2.0, "c": 0.5}, True),
    ("1 + s^2 - m/s*exp(-1/s)", {"m": 2.0}, True),
    ("1 + s^2 - m/s + 0*exp(-s)", {"m": 1e-5}, True),
    ("1 + s^2 - m/s + c/sqrt(s^6 + 1)", {"m": 2.0, "c": 0.1}, True),
    ("1 + s^2 - s + m*exp(-s)", {"m": 1e-3}, True),
    ("1 + s^2 - (m + c*(1 - exp(-s/a)))/s", {"m": 2.0, "a": 3.0, "c": 1.0}, True),
    ("1 + s^2 - (m + c*(1 - exp(-s/a)))/s", {"m": 2.0, "a": 3.0, "c": 1e-6}, True),
    ("1 + s^2 - (m + c*s/sqrt(s^2 + a))/s", {"m": 2.0, "c": 1.0, "a": 3.0}, True),
    ("1 + s^2 - (m + c*log(1 + s))/s", {"m": 2.0, "c": 0.01}, True),
    ("1 + s^2 - m/s - c*exp(-s)/s", {"m": 2.0, "c": 0.5}, False),
    ("1 + s^2 - m/s + c*exp(-s)", {"m": 2.0, "c": 0.5}, False),
    ("1 + s^2 - m/s^3*exp(-1/s)", {"m": 2.0}, False),
    ("1 + s^2 - m*exp(-s^2)/s", {"m": 2.0}, False),
    ("1 + s^2 - m/s + c*log(s)/s^3", {"m": 2.0, "c": 0.1}, False),
    ("1 + s^2 - m/s - c/sqrt(s^6 + 1)", {"m": 2.0, "c": 0.1}, False),
    ("1 + s^2 - m*exp(-s)/s", {"m": 4.0}, False),
    ("1 + s^2 + c*exp(-s)", {"c": 0.5}, False),
    ("1 + s^2 - (m - c*(1 - exp(-s/a)))/s", {"m": 2.0, "c": 1e-6, "a": 3.0}, False),
]

# a block too wide to decide: (s q)' is 0, or -1e-12 near the horizon
# beside terms of 1e-7, which the enclosures do not resolve
UNDECIDED = [
    ("1 + s^2 - m/s + c*sqrt(s^90)/s^46", {"m": 2.0, "c": 1e-3}),
    ("1 + s^2 - m/s + c*(s - 1.1)^9/(s^2 + 1)^6", {"m": 2.0, "c": 1e-3}),
]


def _interval(detail, opening):
    """The two floats of the first ``[a, b]`` after ``opening`` in detail."""
    inside = detail.split(opening, 1)[1].split("]")[0]
    return tuple(float(x) for x in inside.split(", "))


def _curvature_check(text, params):
    p = custom_profile(text, params)
    s_lo = p.horizon.radius if p.horizon is not None else 1e-2
    return _check_curvature(p, s_lo)


class TestEnclosedCurvature:
    @pytest.mark.parametrize("text, params, passed", ENCLOSED_VERDICTS)
    def test_verdicts(self, text, params, passed):
        check = _curvature_check(text, params)
        assert check.passed == passed, check.detail
        if passed:
            assert ", certified by enclosures of (s q)'" in check.detail
        else:
            assert "falls below -6 (certified: R < -6 - 1e-09 on [" in check.detail

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.sampled_from(sorted(MASS_ASPECTS)),
        st.floats(0.5, 5.0),
        st.floats(0.5, 5.0),
        st.floats(1e-3, 2.0),
        st.booleans(),
    )
    def test_paper_construction(self, text, m, a, c, rising):
        # mu is increasing for c > 0 and decreasing for c < 0
        c = c if rising else -c
        check = _curvature_check(text, {"m": m, "a": a, "c": c})
        if rising:
            assert check.passed, check.detail
            assert ", certified by enclosures of (s q)'" in check.detail
            return
        assert not check.passed, check.detail
        lo, hi = _interval(check.detail, "(certified: R < -6 - 1e-09 on [")
        with mpmath.workdps(50):
            s = (mpmath.mpf(lo) + mpmath.mpf(hi)) / 2
            assert 2 * MASS_ASPECTS[text](s, c, a) / s**2 < -renvol.comparison.CURVATURE_SLACK

    @pytest.mark.parametrize(
        "text, params, top",
        [
            # s^2 overflows in f beyond sqrt(max), s^6 in the jet of s q beyond max^(1/6)
            ("1 + s^2 - m/s + c*exp(-s)/s^2", {"m": 2.0, "c": 0.5}, sys.float_info.max ** 0.5),
            ("1 + s^2 - m/s*exp(-1/s)", {"m": 2.0}, sys.float_info.max ** 0.5),
            ("1 + s^2 - m/s + c/sqrt(s^6 + 1)", {"m": 2.0, "c": 0.1}, sys.float_info.max ** (1 / 6)),
        ],
    )
    def test_range_ends_at_an_overflow(self, text, params, top):
        check = _curvature_check(text, params)
        assert check.passed
        assert check.detail.endswith(
            "] (f, s q or (s q)' is not finite above it), certified by enclosures of (s q)'"
        )
        _, end = _interval(check.detail, "on [")
        assert end == pytest.approx(top, rel=1e-5)

    @pytest.mark.parametrize("text, params", UNDECIDED)
    def test_undecided_check_fails_fast(self, text, params):
        start = time.perf_counter()
        check = _curvature_check(text, params)
        assert time.perf_counter() - start < 0.5
        assert not check.passed
        assert check.detail.startswith("R >= -6 is undecided on [")
        assert check.detail.endswith(" enclosures of (s q)' (no certificate)")
        lo, hi = _interval(check.detail, "on [")
        assert 1.0 <= lo < hi < 1.1
        assert "nan" not in check.detail

    def test_family_compiles_the_jet_enclosure_of_s_q_once(self, monkeypatch):
        compiled = []
        compile_ = renvol.expressions._compile

        def counting(expr, mode, jet=False):
            compiled.append((expr, mode, jet))
            return compile_(expr, mode, jet)

        monkeypatch.setattr(renvol.expressions, "_compile", counting)
        parse.cache_clear()  # a fresh tree, so no earlier test has compiled it
        text = "1 + s^2 - m/s + c*exp(-s)/s"
        profiles = [custom_profile(text, {"m": 2.0 + 0.25 * i, "c": 0.5}) for i in range(10)]
        for p in profiles:
            assert _check_curvature(p, p.horizon.radius).passed
        mass = profiles[0].mass_aspect
        assert all(p.mass_aspect is mass for p in profiles)
        assert [(mode, jet) for e, mode, jet in compiled if e is mass] == [("interval", True)]

    def test_certified_failure_wins_over_an_undecided_block(self):
        # (s q)' = c (4 - s) e^-s + 2 k/(s - 2)^2: the blocks at the pole
        # s = 2 have no enclosure and cannot be decided, and above s = 4
        # the first term wins and R drops below -6
        p = custom_profile(
            "1 + s^2 - m/s - c*(s - 3)*exp(-s)/s + k/(s - 2)", {"m": 2.0, "c": 0.5, "k": 1e-3}
        )
        check = _check_curvature(p, 1.5)
        assert not check.passed
        lo, hi = _interval(check.detail, "(certified: R < -6 - 1e-09 on [")
        assert 4.0 < lo <= hi
        with mpmath.workdps(50):
            s = (mpmath.mpf(lo) + mpmath.mpf(hi)) / 2
            slope = 0.5 * (4 - s) * mpmath.exp(-s) + 2e-3 / (s - 2) ** 2
            assert 2 * slope / s**2 < -renvol.comparison.CURVATURE_SLACK

    def test_certified_failure_wins_over_a_pole_of_sqrt(self):
        # as above with the pole of k/(sqrt(s) - a) at s = 2: near it the
        # widened sqrt leaves a divisor holding 0, which is no overflow
        p = custom_profile(
            "1 + s^2 - m/s - c*(s - 3)*exp(-s)/s + k/(sqrt(s) - a)",
            {"m": 2.0, "c": 0.5, "k": 1e-3, "a": math.sqrt(2.0)},
        )
        check = _check_curvature(p, 1.5)
        assert not check.passed
        lo, hi = _interval(check.detail, "(certified: R < -6 - 1e-09 on [")
        assert 4.0 < lo <= hi

    def test_slack_grows_with_the_radius(self):
        # s q = -k s, so R = -6 - 2k/s^2, below -6 - 1e-09 exactly for
        # s < sqrt(2k/1e-9) = 10: every block that fails must lie below 10
        p = custom_profile("1 + s^2 + k + 0*exp(-s)", {"k": 5e-8})
        check = _check_curvature(p, 1.0)
        assert not check.passed
        lo, hi = _interval(check.detail, "(certified: R < -6 - 1e-09 on [")
        assert 1.0 <= lo < hi < 10.0
        assert _check_curvature(p, 10.5).passed

    def test_tiny_and_huge_model_masses(self):
        for m in np.geomspace(1e-15, 1e15, 61):
            m = float(m)
            p = custom_profile("1 + s^2 - m/s + 0*exp(-s)", {"m": m})
            check = _check_curvature(p, ads_horizon_radius(m))
            assert check.passed, (m, check.detail)


# mu = m + c s^k/(s^k + a^k) rises from m to m + c for c >= 0
RISING_MASS = "1 + s^2 - (m + c*s^%d/(s^%d + a^%d))/s"


class TestPaperTheorem:
    """The theorem as an oracle.  f = 1 + s^2 - mu(s)/s has R + 6 =
    2 mu'/s^2, so a nondecreasing mu meets the curvature hypothesis; the
    model of mass r (s_h^3 + s_h), r in (0, 1], has its horizon at or
    inside s_h, so it meets the area hypothesis.  The comparison then
    holds, strictly unless the profile is the model: "violated" is always
    a fault."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        k=st.sampled_from([1, 2, 3]),
        m=st.floats(0.5, 5.0),
        a=st.floats(0.1, 5.0),
        # below about 1e-290, k = 3 leaves the exact path for the enclosures
        # of test_tiny_rising_term_is_decided
        c=st.one_of(st.just(0.0), st.floats(1e-280, 2.0)),
        r=st.floats(0.01, 1.0),
    )
    def test_rising_mass_is_never_violated(self, k, m, a, c, r):
        p = custom_profile(RISING_MASS % (k, k, k), {"m": m, "a": a, "c": c})
        s_h = p.horizon.radius
        report = compare_volumes(p, r * (s_h**3 + s_h))
        assert report.hypotheses_ok, report.hypotheses
        assert report.verdict in ("holds", "equality"), (report.verdict, report.margin)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        text=st.sampled_from(sorted(MASS_ASPECTS)),
        m=st.floats(0.5, 5.0),
        a=st.floats(0.1, 5.0),
        c=st.one_of(st.just(0.0), st.floats(1e-6, 2.0)),
        r=st.floats(0.01, 1.0),
    )
    def test_transcendental_rising_mass_is_never_violated(self, text, m, a, c, r):
        # mu = m + c (1 - exp(-s/a)) or m + c s/sqrt(s^2 + a): the decay and
        # curvature hypotheses are decided by leading terms and enclosures
        p = custom_profile(text, {"m": m, "a": a, "c": c})
        s_h = p.horizon.radius
        report = compare_volumes(p, r * (s_h**3 + s_h))
        assert report.hypotheses_ok, report.hypotheses
        assert report.verdict in ("holds", "equality"), (report.verdict, report.margin)

    def test_equality_only_for_the_model(self):
        # a non-model of the model's own mass: its margin, 1.4e-8, is
        # within EQUALITY_TOL, but its P/Q is not the model's
        p = custom_profile(RISING_MASS % (1, 1, 1), {"m": 2.0, "a": 1.0, "c": 1e-8})
        s_h = p.horizon.radius
        report = compare_volumes(p, s_h**3 + s_h)
        assert report.verdict == "holds", (report.verdict, report.margin)
        # the model itself, written as a custom profile, is still equal
        model = custom_profile("1 + s^2 - m/s", {"m": 2.0})
        assert compare_volumes(model, 2.0).verdict == "equality"

    @pytest.mark.parametrize(
        "text, certificate",
        [
            ("1 + s^2 - m/s + 1/(s+1) - 1/(1+s)", "an exact Sturm count"),
            ("1 + s^2 - m/s + exp(-s)/(s+1) - exp(-s)/(1+s)", "enclosures"),
        ],
    )
    def test_disguised_model_is_equal(self, text, certificate):
        # two atoms equal in exact form but written in another order cancel,
        # so the defect is the model's m/s and R = -6 is certified
        p = custom_profile(text, {"m": 2.0})
        assert str(p.f._mass_aspect) == "m"
        report = compare_volumes(p, 2.0)
        assert report.verdict == "equality"
        assert abs(report.margin) < 1e-12
        assert report.hypotheses[0].passed
        assert report.hypotheses[0].detail.endswith(
            "certified by %s of (s q)'" % certificate)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="exp(-s)^2 and exp(-2*s) are two atoms until the normal form "
        "rewrites exp(a)^k as exp(k a) (ROADMAP item 8), so R >= -6 is "
        "undecided near s = 1.0166 and the verdict is hypothesis_failed",
    )
    def test_disguised_model_with_a_power_of_exp_is_equal(self):
        p = custom_profile("1 + s^2 - m/s + exp(-s)^2 - exp(-2*s)", {"m": 2})
        assert compare_volumes(p, 2).verdict == "equality"

    def test_smaller_volume_is_violated(self, monkeypatch):
        # the theorem rules this out on admitted inputs
        patch_volumes(monkeypatch, 1.0, 2.0)
        report = compare_volumes(ads_schwarzschild(2.0), 2.0)
        assert report.hypotheses_ok
        assert (report.volume, report.model_volume, report.margin) == (1.0, 2.0, -1.0)
        assert report.verdict == "violated"

    def test_tiny_rising_term_is_decided(self):
        # c = 1e-300 has too many bits for algebra.small, so the enclosures
        # decide R >= -6; (s^3 + a^3)^2 overflows at s = 2.4e51, where
        # (s q)' rounds to 0/inf = 0, and the interval code sees it
        p = custom_profile(RISING_MASS % (3, 3, 3), {"m": 1.0, "a": 1.0, "c": 1e-300})
        s_h = p.horizon.radius
        report = compare_volumes(p, s_h**3 + s_h)
        assert report.hypotheses_ok, report.hypotheses
        check = report.hypotheses[0]
        assert check.detail.startswith("R >= -6 - 1e-09 on [0.682328, 2.37567e+51]")


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

    def test_falling_volume_is_not_monotone(self, monkeypatch):
        # the model volume rises with the mass, so only a patch reaches this
        patch_volumes(monkeypatch, 3.0, 2.0, 4.0)
        result = mass_volume_sweep([1.0, 2.0, 3.0])
        assert not result.monotone
        assert [row.delta_prev for row in result.rows] == [None, -1.0, 2.0]

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            mass_volume_sweep([])

    def test_non_increasing_grid(self):
        with pytest.raises(ValueError):
            mass_volume_sweep([2.0, 1.0])
        with pytest.raises(ValueError):
            mass_volume_sweep([1.0, 1.0])
