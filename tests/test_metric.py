"""Profiles: horizons, curvature, quasi-local mass, decay validation."""

import copy
import dataclasses
import functools
import math
import pickle
import random
import re
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import renvol.metric
from renvol.errors import DecayError, DomainError
from renvol.metric import (
    RadialProfile,
    _scan_grid,
    ads_horizon_radius,
    ads_schwarzschild,
    custom_profile,
    hyperbolic,
    rn_ads,
    validate_asymptotics,
)

from helpers import bisect60, fd_derivative, forward_scan_horizon, sympy_decay_rate

FOUR_PI = 4.0 * math.pi


def _record_values(monkeypatch):
    """Wrap ``RadialProfile.value``; the returned list collects each s it is called at."""
    seen = []
    original = RadialProfile.value
    monkeypatch.setattr(
        RadialProfile, "value", lambda self, s: seen.append(s) or original(self, s)
    )
    return seen


class TestHorizon:
    def test_model_horizon_is_exact(self):
        assert ads_schwarzschild(2.0).horizon.radius == pytest.approx(1.0, abs=1e-13)
        assert ads_schwarzschild(30.0).horizon.radius == pytest.approx(3.0, abs=1e-12)

    def test_area_follows_radius(self):
        horizon = ads_schwarzschild(2.0).horizon
        assert horizon.area == pytest.approx(FOUR_PI * horizon.radius**2, rel=1e-15)

    def test_charged_profile(self):
        p = rn_ads(4.0, 1.0)
        radius = p.horizon.radius
        assert radius == pytest.approx(1.2493805576569206, rel=1e-12)
        assert abs(p.value(radius)) < 1e-12

    def test_outermost_root_wins(self):
        # f = 1 + s^2 - 3/s + 1/s^3 changes sign more than once below 1
        # but is positive for all s > 1; the horizon is the outermost root.
        p = custom_profile("1 + s^2 - 3/s + 1/s^3")
        assert p.horizon.radius == pytest.approx(1.0, abs=1e-12)
        assert p.value(0.5) > 0.0 and p.value(0.8) < 0.0

    def test_no_horizon_on_reference(self):
        assert hyperbolic().horizon is None

    def test_transcendental_profile(self):
        p = custom_profile("1 + s^2 - 2*exp(-s)/s")
        fn = lambda s: 1.0 + s * s - 2.0 * math.exp(-s) / s
        want = bisect60(fn, 0.3, 1.0)
        assert p.horizon.radius == pytest.approx(want, rel=1e-12)
        assert p.horizon.radius == pytest.approx(0.6855155141512614, rel=1e-10)

    def test_negative_at_scan_edge_is_decay_error(self):
        with pytest.raises(DecayError):
            custom_profile("1 + s^2 - s^3/100").horizon

    def test_horizon_is_cached(self):
        p = rn_ads(4.0, 1.0)
        assert p.horizon is p.horizon

    def test_model_horizon_is_closed_form(self):
        # against a 50-digit root of s^3 + s - m, far outside the scan
        # window (1e-6, 1e3] of general profiles
        for m in np.geomspace(1e-15, 1e15, 61):
            m = float(m)
            with mp.workdps(50):
                guess = mp.mpf(min(m, m ** (1 / 3)))
                root = mp.findroot(lambda s: s**3 + s - mp.mpf(m), guess)
            horizon = ads_schwarzschild(m).horizon
            assert float(abs(horizon.radius - root) / root) <= 1e-15, m
            assert horizon.area == FOUR_PI * horizon.radius * horizon.radius
            assert horizon.radius == ads_horizon_radius(m)

    def test_model_horizon_outside_the_scan_window(self):
        # the scan over (1e-6, 1e3] found no root at 1e-12 and raised at 1e10
        assert ads_schwarzschild(1e-12).horizon.radius == pytest.approx(1e-12, rel=1e-15)
        big = ads_schwarzschild(1e10).horizon.radius
        assert big**3 + big == pytest.approx(1e10, rel=1e-15)

    def test_model_horizon_runs_no_scan(self, monkeypatch):
        calls = _record_values(monkeypatch)
        assert ads_schwarzschild(3.0).horizon.radius == ads_horizon_radius(3.0)
        assert calls == []
        # the property itself stays on the class, where a wrapper can find it
        assert isinstance(RadialProfile.__dict__["horizon"], functools.cached_property)


# the outermost grid point where 1e300/s^2 overflows, so 0*(1e300/s^2) is NaN
_LAST_NAN = 2080
_ABOVE_LAST_NAN = 0.5 * (_scan_grid()[_LAST_NAN] + _scan_grid()[_LAST_NAN + 1])


def _walk_cases():
    """Profiles for the forward-scan oracle, drawn from a fixed seed."""
    rng = random.Random(2013)
    u = rng.uniform
    on_grid = _scan_grid()[6000]  # f is exactly zero there
    cases = []
    for _ in range(40):
        cases.append(("1 + s^2 - m/s + c/s^2", {"m": u(0.01, 50.0), "c": u(-3.0, 3.0)}))
    for _ in range(40):
        cases.append((
            "1 + s^2 - m/s + c/s^2 + k/s^3",
            {"m": u(0.01, 30.0), "c": u(-2.0, 2.0), "k": u(-2.0, 2.0)},
        ))
    for _ in range(10):
        cases.append(("1 + s^2 - m*exp(-s)/s", {"m": u(0.1, 20.0)}))
    for _ in range(10):
        cases.append(("1 + s^2 - m/s + sqrt(s - c)", {"m": u(0.1, 20.0), "c": u(0.0, 5.0)}))
    for _ in range(10):
        cases.append(("1 + s^2 - m/s + log(s - c)", {"m": u(0.1, 20.0), "c": u(0.0, 5.0)}))
    for _ in range(10):
        # undefined on (a, b), defined on both sides of the gap
        a = u(0.2, 1.5)
        cases.append((
            "1 + s^2 - m/s + c*sqrt((s - a)*(s - b))",
            {"m": u(0.1, 10.0), "c": u(0.0, 1.0), "a": a, "b": a + u(0.1, 2.0)},
        ))
    for _ in range(5):
        cases.append(("1 + s^2 + c*exp(-s)", {"c": u(0.0, 5.0)}))
    # the other volume-float families over their benchmark ranges
    for _ in range(10):
        cases.append(("1 + s^2 - m*exp(-s^2)/s", {"m": u(2.0, 8.0)}))
    for _ in range(10):
        cases.append(("1 + s^2 - m/s^3*exp(-1/s)", {"m": u(2.0, 5.0)}))
    pole = "1 + s^2 - m/s + 0*exp(-s) + c/(s - a)"
    cases += [
        # a pole above the root: its sign change is refined like a root's
        (pole, {"m": 2.0, "c": 0.1, "a": 2.5}),
        (pole, {"m": 2.0, "c": -0.1, "a": 2.5}),
        # a pole on a grid point, where f is undefined
        (pole, {"m": 2.0, "c": 0.1, "a": _scan_grid()[7000]}),
        # below the gap (2, 3), f < 0 down to the pole at a and f > 0 under it
        *[("(s - 2.5)/(s - a) + 0*sqrt((s - 2)*(s - 3))", {"a": a}) for a in (1.5, 1.6, 1.7)],
        # two roots 1e-9 apart inside one grid cell: no sign change on the grid
        ("(s - a)*(s - a - d)*(s + 1) + 0*exp(-s)", {"a": 1.7, "d": 1e-9}),
        # rational, but above the algebra.small cap, so walked
        ("1 + s^2 - m/s + c*(s - 1.1)^9/(s^2 + 1)^6", {"m": 2.0, "c": 1e-3}),
        ("1 + s^2 - m/s + c*(s - 1.1)^9/(s^2 + 1)^6", {"m": 0.5, "c": -2.0}),
        # f is NaN at the top of the grid, where s^120 overflows
        ("1 + s^2 + 0*s^120", {}),
        # f is NaN below s = 7.45e-5, where 1e300/s^2 overflows, with the
        # root below the NaN points or in the cell just above them
        ("s - 1e-5 + 0*(1e300/s^2)", {}),
        ("s - c + 0*(1e300/s^2)", {"c": _ABOVE_LAST_NAN}),
        # below the gap (1, 3), f < 0 down to a root at a, positive under it
        *[("(s - a)*(s - 2) + 0*sqrt((s - 1)*(s - 3))", {"a": a}) for a in (0.5, 1e-3, on_grid)],
        # and negative down to the grid's inner edge
        ("(s - 2)*(s + 1) + 0*sqrt((s - 1)*(s - 3))", {}),
    ]
    cases += [
        ("s - 1", {}),
        ("s - a", {"a": on_grid}),
        ("(s - a)^2", {"a": on_grid}),
        ("sqrt(a - s)", {"a": on_grid}),
        # zeros with no positive neighbour above: only the zero itself is an event
        ("0*sqrt(a - s) - (s - a)^2", {"a": on_grid}),
        ("(s - a)^2*(s - 3) + 0*sqrt((s - 2.5)*(s - 3.5))", {"a": on_grid}),
        ("sqrt(5 - s) - 1", {}),
        ("-sqrt(5 - s)", {}),
        ("s - 2 + 0*sqrt((s - 1)*(s - 3))", {}),
        # three roots within 2e-3 of each other; the outermost is a + 2d
        ("(s - a)*(s - a - d)*(s - a - 2*d)*(s + 1)", {"a": 1.7, "d": 1e-3}),
        ("1 + s^2 - 3/s + 1/s^3", {}),
        ("1 + s^2", {}),
        ("s^2 - 2000000", {}),
        ("-sqrt(s - 1)", {}),
    ]
    return cases


def _outcome(search):
    try:
        horizon = search()
    except Exception as exc:
        return type(exc), str(exc)
    return None if horizon is None else (repr(horizon.radius), repr(horizon.area))


class TestHorizonWalk:
    """The inward walk against the forward scan it replaced."""

    @pytest.mark.parametrize("text, params", _walk_cases())
    def test_matches_the_forward_scan(self, text, params):
        want = _outcome(lambda: forward_scan_horizon(custom_profile(text, params)))
        assert _outcome(lambda: custom_profile(text, params).horizon) == want

    def test_cases_reach_every_outcome(self):
        # the comparison above is only as strong as its cases
        a = _scan_grid()[6000]
        assert forward_scan_horizon(custom_profile("s - a", {"a": a})).radius == a
        close = custom_profile("(s - a)*(s - a - d)*(s - a - 2*d)*(s + 1)", {"a": 1.7, "d": 1e-3})
        assert forward_scan_horizon(close).radius == pytest.approx(1.702, rel=1e-12)
        assert forward_scan_horizon(custom_profile("1 + s^2")) is None
        # the sign changes only across the gap (1, 3), which breaks adjacency
        assert forward_scan_horizon(custom_profile("s - 2 + 0*sqrt((s - 1)*(s - 3))")) is None
        for text in ("s^2 - 2000000", "-sqrt(5 - s)"):
            with pytest.raises(DecayError):
                forward_scan_horizon(custom_profile(text))

    @pytest.mark.parametrize(
        "text, params",
        [
            # the only root on the innermost grid point
            ("s - a", {"a": _scan_grid()[0]}),
            # roots on two neighbouring grid points
            ("(s - a)*(s - b)", {"a": _scan_grid()[4000], "b": _scan_grid()[4001]}),
            # a double root above the outermost simple one, on and off the grid
            ("(s - a)^2*(s - 1)", {"a": _scan_grid()[8000]}),
            ("(s - 1.3)^2*(s - 1)", {}),
            ("(s - 1.3)^2*(s - 1)/(s^2 + 1)", {}),
        ],
    )
    def test_counted_cell_matches_the_forward_scan(self, text, params):
        # rational profiles whose root cell the Sturm counts cannot settle
        # alone: each outcome is that of the scan
        want = _outcome(lambda: forward_scan_horizon(custom_profile(text, params)))
        assert custom_profile(text, params).rational is not None
        assert _outcome(lambda: custom_profile(text, params).horizon) == want

    def test_call_budget_stops_at_the_outermost_root(self, monkeypatch):
        # the forward scan took 10,007 calls and the walk 3,207; the Sturm
        # counts find the cell near s = 1.32 without evaluating f
        calls = _record_values(monkeypatch)
        rn_ads(4.0, 0.5).horizon
        assert len(calls) <= 60

    def test_call_budget_without_a_root(self, monkeypatch):
        # enclosures certify blocks of 16, 32, ... points with one call at
        # the bottom of each: 11 calls for the 10,000 points
        calls = _record_values(monkeypatch)
        assert custom_profile("1 + s^2 + exp(-s)").horizon is None
        assert len(calls) <= 20

    def test_call_budget_with_a_transcendental_root(self, monkeypatch):
        # about 3,300 grid points lie above the root near s = 0.97
        calls = _record_values(monkeypatch)
        assert custom_profile("1 + s^2 - m*exp(-s)/s", {"m": 5.0}).horizon is not None
        assert len(calls) <= 80

    def test_call_budget_below_an_undefined_gap(self, monkeypatch):
        # f = s - 2 < 0 on the 6,666 grid points below the gap (1, 3), where
        # blocks bounded above by a negative number are certified; the
        # point walk took 7,209 calls, about 530 of them on the gap itself
        calls = _record_values(monkeypatch)
        assert custom_profile("s - 2 + 0*sqrt((s - 1)*(s - 3))").horizon is None
        assert len(calls) <= 600

    def test_nan_at_the_grid_top_names_the_point(self):
        with pytest.raises(DomainError, match=r"f is NaN at s=1000\.0"):
            custom_profile("1 + s^2 + 0*s^120").horizon

    @pytest.mark.parametrize(
        "text, params",
        [
            ("s - 1e-5 + 0*(1e300/s^2)", {}),
            # the Sturm count finds the root in the cell above the NaN point
            ("s - c + 0*(1e300/s^2)", {"c": _ABOVE_LAST_NAN}),
        ],
    )
    def test_nan_below_the_positive_points_names_the_outermost_one(self, text, params):
        grid = _scan_grid()
        nan_part = custom_profile("0*(1e300/s^2)")
        assert math.isnan(nan_part.value(grid[_LAST_NAN]))
        assert nan_part.value(grid[_LAST_NAN + 1]) == 0.0
        p = custom_profile(text, params)
        assert p.rational is not None
        with pytest.raises(DomainError, match=re.escape("f is NaN at s=%r" % grid[_LAST_NAN])):
            p.horizon


class TestAdsHorizonRadius:
    def test_pinned_values(self):
        assert abs(ads_horizon_radius(2.0) - 1.0) < 1e-15
        assert abs(ads_horizon_radius(30.0) - 3.0) < 1e-13

    @pytest.mark.parametrize("m", [1e-3, 0.3, 1.0, 17.5, 640.0, 1e3])
    def test_against_bisection(self, m):
        want = bisect60(lambda x: x**3 + x - m, 0.0, max(1.0, m))
        assert ads_horizon_radius(m) == pytest.approx(want, rel=1e-14)

    def test_monotone_in_mass(self):
        radii = [ads_horizon_radius(float(m)) for m in np.geomspace(0.01, 100.0, 30)]
        assert all(b > a for a, b in zip(radii, radii[1:]))

    @pytest.mark.parametrize("m", [0.0, -1.0, math.inf, math.nan])
    def test_invalid_mass(self, m):
        with pytest.raises(ValueError):
            ads_horizon_radius(m)

    def test_agrees_with_profile_horizon(self):
        # model profiles take this root; the scan, run on the same text as
        # a custom profile, finds it too
        for m in (0.5, 2.0, 5.0):
            scanned = custom_profile("1 + s^2 - m/s", {"m": m}).horizon.radius
            assert scanned == pytest.approx(ads_horizon_radius(m), rel=1e-13)
            assert ads_schwarzschild(m).horizon.radius == ads_horizon_radius(m)


class TestCurvature:
    def test_reference_space(self):
        p = hyperbolic()
        for s in (0.3, 1.0, 42.0, 300.0):
            assert p.scalar_curvature(s) == pytest.approx(-6.0, abs=1e-12)

    def test_model_family(self):
        p = ads_schwarzschild(2.0)
        for s in np.geomspace(1.0, 200.0, 12):
            assert p.scalar_curvature(float(s)) == pytest.approx(-6.0, abs=1e-9)

    def test_charged_closed_form(self):
        p = rn_ads(4.0, 1.0)
        assert p.scalar_curvature(1.5) == pytest.approx(-6.0 + 2.0 / 1.5**4, rel=1e-14)
        q = rn_ads(3.0, -1.0)
        assert q.scalar_curvature(2.0) == pytest.approx(-6.0 - 2.0 / 16.0, rel=1e-14)

    def test_exactly_minus_six_at_every_model_horizon(self):
        # 2 (1 - f - s f')/s^2 gave -6.000533 at the horizon of m = 1e-6;
        # s q = m has slope 0
        for m in np.geomspace(1e-15, 1e15, 61):
            p = ads_schwarzschild(float(m))
            assert p.scalar_curvature(p.horizon.radius) == -6.0, m

    def test_charged_family_against_the_closed_form(self):
        for m, c in ((4.0, 1.0), (3.0, -1.0), (1e-6, 1e-9), (1e6, -50.0)):
            p = rn_ads(m, c)
            for s in np.geomspace(1e-3, 1e6, 40):
                s = float(s)
                want = -6.0 + 2.0 * c / s**4
                assert p.scalar_curvature(s) == pytest.approx(want, rel=1e-14, abs=1e-300)

    def test_refused_defect_raises(self):
        p = custom_profile("sqrt(1 + 2*s^2 + s^4) - m/s", {"m": 1.0})
        with pytest.raises(DecayError, match="keeps a bare s\\^2 term"):
            p.scalar_curvature(2.0)

    def test_finite_difference_oracle(self):
        p = custom_profile("1 + s^2 - 2*exp(-s)/s")
        for s in (0.9, 1.7, 4.0):
            df = fd_derivative(p.value, s)
            want = 2.0 * (1.0 - p.value(s) - s * df) / (s * s)
            assert p.scalar_curvature(s) == pytest.approx(want, rel=1e-7)


class TestMeanCurvature:
    def test_closed_form_point(self):
        # ads m=2 at s=2: f = 1 + 4 - 1 = 4, H = 2*sqrt(f)/s = 2
        assert ads_schwarzschild(2.0).mean_curvature(2.0) == pytest.approx(2.0, rel=1e-15)

    def test_vanishes_at_horizon(self):
        p = ads_schwarzschild(2.0)
        assert p.mean_curvature(p.horizon.radius) == pytest.approx(0.0, abs=1e-6)

    def test_inside_horizon_is_domain_error(self):
        with pytest.raises(DomainError):
            ads_schwarzschild(2.0).mean_curvature(0.5)

    def test_nonpositive_radius(self):
        with pytest.raises(ValueError):
            hyperbolic().mean_curvature(0.0)


class TestHawkingMass:
    def test_constant_on_model_family(self):
        for m in (0.5, 2.0, 5.0):
            p = ads_schwarzschild(m)
            s0 = p.horizon.radius
            want = 32.0 * math.pi**1.5 * m
            for s in np.geomspace(s0, 1e3, 25):
                assert p.hawking_mass(float(s)) == pytest.approx(want, rel=1e-13)

    def test_horizon_value_formula(self):
        for m in (0.5, 1.0, 2.0, 5.0):
            p = ads_schwarzschild(m)
            area = p.horizon.area
            want = 4.0 * math.sqrt(area) * (area + FOUR_PI)
            assert p.hawking_mass(p.horizon.radius) == pytest.approx(want, rel=1e-12)

    def test_surface_integral_cross_check(self):
        # m_H = sqrt(A) * (16*pi - A*(H^2 - 4)) on a round sphere of area A
        p = rn_ads(4.0, 1.0)
        for s in (1.5, 3.0, 20.0):
            area = FOUR_PI * s * s
            h = p.mean_curvature(s)
            want = math.sqrt(area) * (16.0 * math.pi - area * (h * h - 4.0))
            assert p.hawking_mass(s) == pytest.approx(want, rel=1e-9)

    def test_exact_path_avoids_cancellation(self):
        # at s = 1000 the float difference (1 + s^2) - f keeps only ~5
        # significant digits of m/s - c/s^2; the normalized defect, which
        # evaluates m/s - c/s^2 itself, rounds to the exact value here
        p = rn_ads(4.0, 1.0)
        exact_defect = Fraction(4, 1000) - Fraction(1, 1000000)
        assert p.defect(1000.0) == float(exact_defect)
        want = 32.0 * math.pi**1.5 * 1000.0 * float(exact_defect)
        assert p.hawking_mass(1000.0) == pytest.approx(want, rel=1e-15)

    def test_below_horizon_rejected(self):
        with pytest.raises(ValueError):
            ads_schwarzschild(2.0).hawking_mass(0.9)

    def test_zero_on_reference(self):
        assert hyperbolic().hawking_mass(2.0) == 0.0


class TestDefectIdentity:
    # d/ds [s*q] = s^2 (R + 6) / 2 links mass monotonicity to curvature
    @pytest.mark.parametrize(
        "text,params",
        [
            ("1 + s^2 - m/s", {"m": 2.0}),
            ("1 + s^2 - m/s + c/s^2", {"m": 4.0, "c": 1.0}),
            ("1 + s^2 - m/s + c/s^2", {"m": 3.0, "c": -1.5}),
            ("1 + s^2 - 2*exp(-s)/s", {}),
        ],
    )
    def test_identity(self, text, params):
        p = custom_profile(text, params)
        for s in (0.7, 1.8, 6.0, 30.0):
            lhs = p.defect(s) + s * p.defect_slope(s)
            rhs = s * s * (p.scalar_curvature(s) + 6.0) / 2.0
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


class TestAsymptotics:
    def test_model_family_passes(self):
        # q/f = m/(s^3 + s - m): the rate is exactly -3
        report = validate_asymptotics(ads_schwarzschild(2.0))
        assert report.passed
        assert report.measured_rate == -3.0
        assert report.required_rate == pytest.approx(-2.8)

    def test_charged_family_passes(self):
        report = validate_asymptotics(rn_ads(4.0, 1.0))
        assert report.passed and report.measured_rate == -3.0

    def test_slow_decay_fails(self):
        report = validate_asymptotics(custom_profile("1 + s^2 - s"))
        assert not report.passed
        assert report.measured_rate == -1.0

    def test_rational_rate_evaluates_no_defect(self, monkeypatch):
        p = custom_profile("1 + s^2 - m/s + c/s^2 + k/s^3", {"m": 5.0, "c": 0.3, "k": 0.1})

        def refuse(*args):
            raise AssertionError("the exact decay path evaluated the defect")

        monkeypatch.setattr(renvol.metric, "_defect_kernels", refuse)
        monkeypatch.setattr(RadialProfile, "defect", refuse)
        report = validate_asymptotics(p)
        assert (report.passed, report.measured_rate, report.fit_points) == (True, -3.0, 0)
        # the q tree was not built
        assert "q" not in p.__dict__

    def test_exact_rate_has_no_slack(self):
        # q -> c is the rate -2, which misses -(2 + 4*delta) by 4*delta;
        # the fit's 0.05 of slack passed it for delta <= 0.0125
        p = custom_profile("1 + s^2 - c - m/s", {"c": 0.5, "m": 2.0}, delta=0.01)
        report = validate_asymptotics(p)
        assert report.measured_rate == -2.0 and report.required_rate == pytest.approx(-2.04)
        assert not report.passed

    @pytest.mark.parametrize(
        "text, params, rate",
        [
            ("1 + s^2 - c*s - m/s", {"c": 1e-12, "m": 2.0}, -1.0),
            ("1 + s^2 - c - m/s", {"c": 1e-8, "m": 2.0}, -2.0),
            # N = Q (1 + s^2) - P cancels to 0
            ("(1 + s^2)*(s - 1)/(s - 1)", {}, -math.inf),
            # q = 1/(s^2 + 1)^2 over f ~ s^2
            ("1 + s^2 - 1/(s^2 + 1)^2", {}, -6.0),
        ],
    )
    def test_rational_rate_against_sympy(self, text, params, rate):
        p = custom_profile(text, params)
        assert sympy_decay_rate(p.f, p.params) == rate
        assert validate_asymptotics(p).measured_rate == rate

    def test_zero_defect_short_circuits(self):
        report = validate_asymptotics(hyperbolic())
        assert report.passed
        assert report.measured_rate == -math.inf

    def test_exponential_defect_is_resolved(self):
        # q = 2*exp(-s)/s is far below the float resolution of 1 + s^2 on
        # the whole grid, yet the normalized defect evaluates it to full
        # relative precision until exp underflows near s = 745: the fit
        # sees the steep decay, d log(q/f) / d log s = -(s + 3), not noise
        p = custom_profile("1 + s^2 - 2*exp(-s)/s")
        report = validate_asymptotics(p)
        assert report.passed
        assert report.fit_points == 9
        assert -320.0 < report.measured_rate < -250.0
        s = 500.0
        want = 2.0 * math.exp(-s) / s
        assert p.defect(s) == pytest.approx(want, rel=4e-16)

    @pytest.mark.parametrize("m, moved", [(4.0, False), (1e7, True)])
    def test_fit_grid_spans_four_decades_outside_the_horizon(self, m, moved, monkeypatch):
        p = rn_ads(m, 1.0)
        s_lo = max(1e2, 10.0 * p.horizon.radius)
        assert (s_lo > 1e2) == moved
        # the fit calls the compiled f, not RadialProfile.value
        seen = []
        compiled = p.f._compiled
        monkeypatch.setitem(
            p.f.__dict__, "_compiled", lambda s, params: seen.append(s) or compiled(s, params)
        )
        validate_asymptotics(p)
        assert len(seen) == 41
        assert seen[0] == s_lo and seen[-1] == 1e4 * s_lo

    def test_negative_profile_on_grid(self):
        with pytest.raises(DomainError):
            validate_asymptotics(custom_profile("1 + s^2 - s^3/100"))

    def test_tighter_delta_raises_the_bar(self):
        # log(s)/s decays a hair slower than s^-1, so the fitted rate of
        # about -2.87 straddles the two thresholds
        lax = validate_asymptotics(custom_profile("1 + s^2 - log(s)/s", delta=0.01))
        assert lax.passed
        strict = validate_asymptotics(custom_profile("1 + s^2 - log(s)/s", delta=0.24))
        assert not strict.passed
        assert strict.measured_rate == pytest.approx(lax.measured_rate)


class TestProfileConstruction:
    def test_delta_range(self):
        for bad in (0.0, 0.25, -0.1, 1.0):
            with pytest.raises(ValueError):
                hyperbolic(delta=bad)
        assert ads_schwarzschild(2.0, delta=0.1).delta == 0.1

    def test_unbound_parameters_rejected(self):
        with pytest.raises(ValueError, match="unbound profile parameters: m"):
            custom_profile("1 + s^2 - m/s")

    def test_labels(self):
        assert ads_schwarzschild(2.0).label == "ads m=2"
        assert rn_ads(4.0, 1.0).label == "rn-ads m=4 c=1"
        assert custom_profile("1 + s^2").label == "1 + s^2"
        assert custom_profile("1 + s^2", label="flat").label == "flat"

    def test_immutability(self):
        p = hyperbolic()
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.delta = 0.1

    def test_invalid_model_mass(self):
        for bad in (0.0, -2.0, math.inf):
            with pytest.raises(ValueError):
                ads_schwarzschild(bad)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: rn_ads(4.0, 1.0),
            lambda: custom_profile("1 + s^2 - m/s + c*exp(-s)", {"m": 2.0, "c": 0.5}),
        ],
    )
    def test_evaluated_profile_pickles_and_copies(self, make):
        p = make()
        p.value(2.0)
        p.slope(2.0)
        assert p.horizon is not None
        for clone in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
            assert clone == p and clone.horizon == p.horizon
            for s in (0.5, p.horizon.radius, 3.0, 1e4):
                assert repr(clone.value(s)) == repr(p.value(s))
                assert repr(clone.slope(s)) == repr(p.slope(s))
