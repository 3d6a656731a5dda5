"""Profiles: horizons, curvature, quasi-local mass, decay validation."""

import copy
import dataclasses
import functools
import math
import pickle
import random
import re
from bisect import bisect_left
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import renvol.comparison
import renvol.metric
import renvol.volume
from renvol import algebra
from renvol.errors import DecayError, DomainError, EvaluationError
from renvol.expressions import Expression, Mul, Num, Sub, parse
from renvol.quadrature import geomspace
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

from helpers import (
    bisect60,
    counted_horizon,
    enclosing_walk,
    fd_derivative,
    forward_scan_horizon,
    mp_horizon,
    random_tree,
    sympy_decay_rate,
    sympy_limit_rate,
)
from test_algebra import _benchmark_like_profiles, _root, _roots, _with_roots

FOUR_PI = 4.0 * math.pi


def _record_values(monkeypatch):
    """Wrap the compiled f of every tree, which ``RadialProfile.value`` and
    the horizon walk call; the returned list collects each s it is called at."""
    seen = []
    compiled = Expression.__dict__["_compiled"]

    def counted(self):
        fn = compiled.__get__(self, Expression)
        return lambda s, params: seen.append(s) or fn(s, params)

    monkeypatch.setattr(Expression, "_compiled", property(counted))
    return seen


def _record_enclosures(monkeypatch):
    """Wrap ``Expression.enclose``; the returned list collects each range it is called on."""
    seen = []
    original = Expression.enclose
    monkeypatch.setattr(
        Expression, "enclose",
        lambda self, lo, hi, params=None: seen.append((lo, hi)) or original(self, lo, hi, params),
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

    def test_refined_horizons_match_the_oracle(self, monkeypatch):
        # 50 profiles of each family, rational and transcendental: every
        # refined horizon lies within 2 ulps of the 50-digit root.  Refined
        # to a bracket of 1e-14 max(1, s_h), they lay up to 67 ulps
        # (1.1e-14) off, after 5 to 42 f values (3,303 in all); refined to
        # adjacent floats, after 4 to 6 (951)
        refines = []
        original = renvol.metric.find_root_bracketed

        def counted(fn, *args, **kwargs):
            refines.append(0)

            def f(x):
                refines[-1] += 1
                return fn(x)

            return original(f, *args, **kwargs)

        monkeypatch.setattr(renvol.metric, "find_root_bracketed", counted)
        rng = random.Random(33)
        u = rng.uniform
        cases = []
        for _ in range(50):
            m, c = u(0.5, 20.0), u(-1.0, 1.0)
            cases.append((rn_ads(m, c), lambda s, m=m, c=c: m / s - mp.mpf(c) / s**2))
        for _ in range(50):
            m, c, k = u(1.0, 10.0), u(-0.5, 0.5), u(-1.0, 0.2)
            p = custom_profile("1 + s^2 - m/s + c/s^2 + k/s^3", {"m": m, "c": c, "k": k})
            cases.append((p, lambda s, m=m, c=c, k=k: m / s - mp.mpf(c) / s**2 - mp.mpf(k) / s**3))
        for _ in range(50):
            m, a = u(0.5, 10.0), u(0.2, 5.0)
            p = custom_profile("1 + s^2 - m*exp(-s/a)/s", {"m": m, "a": a})
            cases.append((p, lambda s, m=m, a=a: m * mp.exp(-s / a) / s))
        for _ in range(50):
            m, a, c = u(0.1, 5.0), u(0.2, 5.0), 10.0 ** u(-12.0, 0.0)
            p = custom_profile("1 + s^2 - (m + c*(1 - exp(-s/a)))/s", {"m": m, "a": a, "c": c})
            cases.append((p, lambda s, m=m, a=a, c=c: (m + c * (1 - mp.exp(-s / a))) / s))
        radii = [(p.horizon, q) for p, q in cases]
        # two rn-ads profiles with c > 0 have no horizon
        assert sum(horizon is None for horizon, _ in radii) == 2
        for horizon, q in radii:
            if horizon is not None:
                root = mp_horizon(q, horizon.radius)
                assert abs(horizon.radius - root) <= 2 * math.ulp(horizon.radius), horizon
        assert len(refines) == 198 and max(refines) <= 6

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

    def test_scan_grid_is_the_loop_built_grid(self):
        ratio = (renvol.metric._SCAN_HI / renvol.metric._SCAN_LO) ** (
            1.0 / (renvol.metric._SCAN_POINTS - 1)
        )
        want, s = [], renvol.metric._SCAN_LO
        for _ in range(renvol.metric._SCAN_POINTS):
            want.append(s)
            s *= ratio
        assert _scan_grid().tolist() == want

    def test_model_rational_form_is_closed_form(self):
        # the model stores f = (d s^3 + d s - n)/(d s) for m = n/d, the
        # form rational_form reduces to, from the subnormals to 1e300 and
        # at the compare-rational benchmark's masses
        masses = [5e-324, *(10.0**k for k in range(-300, 301))]
        rng = random.Random(7)
        masses += [rng.uniform(1.0, 8.0) for _ in range(20)] + [2.0, 3.0, 1.5]
        for m in masses:
            assert ads_schwarzschild(m).rational == algebra.rational_form(
                renvol.metric._ADS, {"m": m}
            ), m

    @pytest.mark.parametrize("delta", [0.01, 0.2, 0.249])
    def test_model_asymptotics_is_closed_form(self, delta):
        # the model stores the report that validate_asymptotics gives a
        # profile of the same f with nothing cached but the horizon, which
        # the scan does not reach beyond m ~ 1e9: rate -3, for log-uniform
        # masses and the extremes
        rng = random.Random(13)
        masses = [1e-300, 1e300] + [10.0 ** rng.uniform(-300.0, 300.0) for _ in range(40)]
        for m in masses:
            model = ads_schwarzschild(m, delta)
            fresh = RadialProfile(renvol.metric._ADS, {"m": m}, delta)
            fresh.__dict__["horizon"] = model.horizon
            assert model.asymptotics == validate_asymptotics(fresh), (m, delta)
            assert model.asymptotics.measured_rate == -3.0

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


def _rooted_profile(roots, extra, scale, pole):
    """(text, params) of f = P/Q, P = ``test_algebra._with_roots(roots,
    extra, scale)`` written as the product of its factors, so that the
    float f has the exact sign of P, and Q = (s - p)^k for pole = (p, k),
    or 1 for None."""
    params = {"c": float(scale)}
    text = "c"
    for n, (r, k) in enumerate(roots):
        params["r%d" % n] = r
        text += "*(s - r%d)^%d" % (n, k)
    text += ["", "*(s + 3)", "*(s^2 + 1)"][extra]
    if pole is not None:
        params["p"] = pole[0]
        text += "/(s - p)^%d" % pole[1]
    return text, params


def _holds_pole(outcome, den, grid):
    """Whether a search with this ``_outcome`` took a pole of Q = den for
    its root: Q changes sign or vanishes on the grid cell of its radius,
    or the search divided by zero on a grid with a root of Q."""
    if outcome is None:
        return False
    if outcome[0] is DomainError:
        seq = algebra.sturm(den)
        return "division by zero" in outcome[1] and (
            algebra.variations(seq, grid[0]) > algebra.variations(seq, grid[-1])
        )
    if not isinstance(outcome[0], str):
        return False
    k = bisect_left(grid, float(outcome[0]))
    lo, hi = algebra.sign(den, grid[max(k - 1, 0)]), algebra.sign(den, grid[k])
    return lo != hi or not lo * hi


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
        assert close.horizon.radius == pytest.approx(1.702, rel=1e-12)
        assert forward_scan_horizon(custom_profile("1 + s^2")) is None
        # the sign changes only across the gap (1, 3), which breaks adjacency
        assert forward_scan_horizon(custom_profile("s - 2 + 0*sqrt((s - 1)*(s - 3))")) is None
        for text in ("s^2 - 2000000", "-sqrt(5 - s)"):
            with pytest.raises(DecayError):
                forward_scan_horizon(custom_profile(text))

    def test_refine_takes_the_outermost_root_of_its_cell(self):
        # the three roots share one grid cell, where P' changes sign: the
        # solver on the cell alone takes 1.7, and on the isolating interval
        # of P's outermost root, 1.702
        p = custom_profile("(s - a)*(s - a - d)*(s - a - 2*d)*(s + 1)", {"a": 1.7, "d": 1e-3})
        grid = _scan_grid()
        k = bisect_left(grid, 1.7)
        lo, hi = grid[k - 1], grid[k]
        assert lo < 1.7 and 1.702 < hi
        assert not algebra.monotone(p.rational[0], lo, hi)
        args = p.value, lo, hi, p.value(lo), p.value(hi)
        assert renvol.metric._refine(*args, None).radius == 1.7
        assert renvol.metric._refine(*args, p.rational).radius == pytest.approx(1.702, rel=1e-12)

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
        # rational profiles whose root cell a Sturm count of P cannot
        # settle alone, so that the counted oracle scans: each outcome is
        # that of the scan
        want = _outcome(lambda: forward_scan_horizon(custom_profile(text, params)))
        assert custom_profile(text, params).rational is not None
        assert _outcome(lambda: custom_profile(text, params).horizon) == want

    def test_matches_the_counted_oracle(self):
        # P from test_algebra's root strategies, over no pole, a simple
        # pole or a double one; the two searches differ only where the
        # oracle's cell holds a pole, which its scan took for a root
        grid = _scan_grid()
        seen = set()

        @settings(max_examples=300, deadline=None, derandomize=True)
        @given(
            _roots,
            st.integers(0, 2),
            st.sampled_from([-2, 1]),
            st.one_of(st.none(), st.tuples(_root, st.integers(1, 2))),
        )
        def check(roots, extra, scale, pole):
            text, params = _rooted_profile(roots, extra, scale, pole)
            p = custom_profile(text, params)
            if p.rational is None:
                seen.add("above the size cap")  # walked like exp/log/sqrt
            else:
                # P/Q is _with_roots(...)/(s - p)^k up to a positive factor
                num, den = p.rational
                x = algebra.mul(num, [1] if pole is None else _with_roots([pole], 0, 1))
                y = algebra.mul(_with_roots(roots, extra, scale), den)
                assert [c * y[-1] for c in x] == [c * x[-1] for c in y] and x[-1] * y[-1] > 0
            got = _outcome(lambda: p.horizon)
            want = _outcome(lambda: counted_horizon(custom_profile(text, params)))
            if got != want:
                assert _holds_pole(want, p.rational[1], grid), (text, params, got, want)
                seen.add("the oracle's pole")
            if want is None or want[0] is DecayError:
                seen.add("no horizon" if want is None else "DecayError")
            seen.add("repeated root" if any(k > 1 for _, k in roots) else "simple roots")
            if len({bisect_left(grid, r) for r, _ in roots}) < len(roots):
                seen.add("two roots in one cell")
            if any(r in grid for r, _ in roots):
                seen.add("a root on a grid point")
            seen.add("no pole" if pole is None else "pole of order %d" % pole[1])

        check()
        assert seen == {
            "the oracle's pole", "no horizon", "DecayError", "repeated root", "simple roots",
            "two roots in one cell", "a root on a grid point", "no pole", "pole of order 1",
            "pole of order 2", "above the size cap",
        }

    def test_pinned_rational_cases(self):
        grid = _scan_grid()

        def both(text, params):
            p = custom_profile(text, params)
            return _outcome(lambda: p.horizon), _outcome(lambda: counted_horizon(p))

        # the oracle's count settles the double root's cell, finds f of one
        # sign at its ends and scans, and the scan refines the pole at p
        # down to p itself, where f divides by zero; the walk passes over
        # the pole and takes r0, the horizon
        pole = (DomainError, "division by zero in '(s - r0)*(s - r1)^2/(s - p)'")
        stress = {"r0": 0.0023732174541420577, "r1": 26.986285727832236, "p": 36.902577898482676}
        got, want = both("(s - r0)*(s - r1)^2/(s - p)", stress)
        assert got[0] == repr(stress["r0"]) and want == pole
        # with the double root above the pole, P keeps its sign across the
        # pole but has a root above it: only the sign of Q tells the pole
        got, want = both("(s - r0)*(s - r1)^2/(s - p)", {"r0": 0.5, "r1": 3.0, "p": 2.0})
        assert got[0] == "0.5" and want == pole
        # (s - a)^2 + 1e-300 has no real root; its float values change sign
        # by rounding near a, where the scan refines a "root"
        tangent = {"a": grid[1160], "e": 1e-300}
        text = "1 + s^2 - 1 - 2*a*s + a^2 + e"
        assert both(text, tangent) == (None, None)
        assert forward_scan_horizon(custom_profile(text, tangent)) is not None
        # the same times s - b is taken at b, not near a
        tangent = {"a": grid[3444], "e": 1e-300, "b": grid[3444] / 3}
        text = "(1 + s^2 - 1 - 2*a*s + a^2 + e)*(s - b)"
        got, want = both(text, tangent)
        assert got == want and got[0] == repr(tangent["b"])
        assert forward_scan_horizon(custom_profile(text, tangent)).radius > 2 * tangent["b"]
        # a triple root at a, expanded: P keeps its sign from grid point to
        # grid point around a, but has a root above the lower neighbour, so
        # the rounding sign change near a is taken, as the oracle's scan does
        for a in (0.6471154184923379, 0.0016342605912526183):
            cubic = {"a": a, "b": a / 3}
            got, want = both("(s^3 - 3*a*s^2 + 3*a^2*s - a^3)*(s - b)", cubic)
            assert got == want and float(got[0]) == pytest.approx(a, rel=1e-5)
        # a pole above the horizon of either sign
        for c in (1.0, -1.0):
            got, want = both("1 + s^2 - m/s + c/(s - 5)", {"m": 2.0, "c": c})
            assert got == want and float(got[0]) == pytest.approx(5.0, rel=0.01)

    @pytest.mark.parametrize(
        "profile, work",
        [
            (lambda: rn_ads(4.0, 0.5), (22, 8)),
            # the compare_custom_rational golden profile
            (lambda: custom_profile("1 + s^2 - m/s + c/s^2 + k/s^3",
                                    {"m": 5.0, "c": 0.3, "k": 0.1}), (21, 7)),
        ],
    )
    def test_work_pins_down_to_the_outermost_root(self, monkeypatch, profile, work):
        # the forward scan took 10,007 calls; the walk bisects the grid
        # below its outer edge down to the cell near s = 1.32 (1.48).  f at
        # a range's lowest point comes before its enclosure, and the 9
        # ranges that hold the root are split without one: the walk that
        # enclosed them took 17 values and 17 enclosures (15 and 16).  The
        # refine to adjacent floats takes 5 of the values, where a bracket
        # of 1e-14 s_h took 7 (see test_refined_horizons_match_the_oracle
        # for a corpus)
        calls = _record_values(monkeypatch)
        enclosures = _record_enclosures(monkeypatch)
        profile().horizon
        assert (len(calls), len(enclosures)) == work

    def test_call_budget_without_a_root(self, monkeypatch):
        # one enclosure certifies the 9,999 points below the outer edge,
        # with one call at the bottom
        calls = _record_values(monkeypatch)
        enclosures = _record_enclosures(monkeypatch)
        assert custom_profile("1 + s^2 + exp(-s)").horizon is None
        assert len(calls) <= 2 and len(enclosures) <= 1

    def test_call_budget_with_a_transcendental_root(self, monkeypatch):
        # about 3,300 grid points lie above the root near s = 0.97
        calls = _record_values(monkeypatch)
        enclosures = _record_enclosures(monkeypatch)
        assert custom_profile("1 + s^2 - m*exp(-s)/s", {"m": 5.0}).horizon is not None
        assert len(calls) <= 23 and len(enclosures) <= 6

    def test_call_budget_below_an_undefined_gap(self, monkeypatch):
        # f = s - 2 < 0 on the 6,666 grid points below the gap (1, 3), where
        # ranges bounded above by a negative number are certified; the
        # point walk took 7,209 calls, and about 530 of the 550 left fall on
        # the gap itself, where f raises.  Where the last value is defined,
        # f at a range's lowest point skips 12 of the 243 enclosures
        calls = _record_values(monkeypatch)
        enclosures = _record_enclosures(monkeypatch)
        assert custom_profile("s - 2 + 0*sqrt((s - 1)*(s - 3))").horizon is None
        assert len(calls) <= 550 and len(enclosures) <= 231

    def test_work_on_benchmark_like_profiles(self, monkeypatch):
        # about 21 f calls and 7 enclosures per horizon (39 calls while the
        # refine stopped at a bracket of 1e-14 s_h, and 32 calls and 18
        # enclosures with that refine when the ranges that hold the root
        # were enclosed), and every event accepted here is a sign change
        # of P, so no Sturm chain is built
        calls = _record_values(monkeypatch)
        enclosures = _record_enclosures(monkeypatch)
        chains = []
        original = algebra.sturm
        monkeypatch.setattr(algebra, "sturm", lambda p: chains.append(p) or original(p))
        for p in _benchmark_like_profiles():
            assert p.rational is not None
            assert p.horizon is not None, p.label
        assert len(calls) <= 836 and len(enclosures) <= 282
        assert chains == []

    def test_work_on_the_float_families(self, monkeypatch):
        # ten profiles across the benchmark range of each transcendental
        # family: about 22 calls and 8 enclosures per horizon with a root
        # (33 calls while the refine stopped at a bracket of 1e-14 s_h),
        # and 2 and 1 without one
        calls = _record_values(monkeypatch)
        enclosures = _record_enclosures(monkeypatch)
        for text, name, (a, b), work in [
            ("1 + s^2 - m*exp(-s)/s", "m", (2.0, 8.0), (206, 57)),
            ("1 + s^2 - m*exp(-s^2)/s", "m", (2.0, 8.0), (200, 54)),
            ("1 + s^2 - m/s^3*exp(-1/s)", "m", (2.0, 5.0), (240, 132)),
            ("1 + s^2 + c*exp(-s)", "c", (0.1, 1.0), (20, 10)),
        ]:
            calls.clear()
            enclosures.clear()
            for k in range(10):
                custom_profile(text, {name: a + (b - a) * k / 9}).horizon
            assert len(calls) <= work[0] and len(enclosures) <= work[1], text

    @pytest.mark.parametrize("text, params", _walk_cases())
    def test_skips_only_enclosures_that_would_be_refused(self, monkeypatch, text, params):
        # the walk that enclosed every range: the same outcome, bit for bit,
        # and every enclosure skipped is one it refused
        p = custom_profile(text, params)
        full = []
        want = _outcome(lambda: enclosing_walk(p, full))
        enclosures = _record_enclosures(monkeypatch)
        assert _outcome(lambda: custom_profile(text, params).horizon) == want
        kept = iter(enclosures)
        pending = next(kept, None)
        for lo, hi, passed in full:
            if (lo, hi) == pending:
                pending = next(kept, None)
            else:
                assert not passed, (lo, hi)
        assert pending is None  # the enclosures kept are the full walk's, in order

    def test_nan_ahead_of_the_walk_raises_nothing(self):
        # f is NaN below s = 7.45e-5, where 1e300/s^2 overflows; the lowest
        # point of the first range is among them, and the root at 2 is
        # found before the walk reaches any of them
        p = custom_profile("s - 2 + 0*(1e300/s^2)")
        assert math.isnan(p.value(_scan_grid()[0]))
        assert p.horizon.radius == 2.0

    def test_nan_at_the_grid_top_names_the_point(self):
        with pytest.raises(DomainError, match=r"f is NaN at s=1000\.0"):
            custom_profile("1 + s^2 + 0*s^120").horizon

    @pytest.mark.parametrize(
        "text, params",
        [
            ("s - 1e-5 + 0*(1e300/s^2)", {}),
            # the root lies in the cell just above the NaN point
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


def _cardano_root(m, dps=50):
    """The real root of s^3 + s - m at ``dps`` digits, by Cardano's
    formula in its hyperbolic form, which cancels no digits at tiny m:
    s = 2/sqrt(3) sinh(asinh(3 sqrt(3) m / 2) / 3)."""
    with mp.workdps(dps):
        m = mp.mpf(m)
        return 2 / mp.sqrt(3) * mp.sinh(mp.asinh(3 * mp.sqrt(3) * m / 2) / 3)


def _admitted_masses():
    """Log-uniform over the positive floats, plus edge values: below about
    1e-108 the root is m itself, and above about 2.2e307 the cubic overflows
    at twice the root."""
    rng = random.Random(36)
    masses = [2.0 ** rng.uniform(-1074.0, 1023.99) for _ in range(2000)]
    return masses + [5e-324, 1e-300, 1e-40, 1e40, 1.7976931348623157e308]


class TestAdsHorizonRadius:
    def test_pinned_values(self):
        assert ads_horizon_radius(2.0) == 1.0
        assert ads_horizon_radius(30.0) == 3.0

    def test_within_ulps_of_cardano_on_every_positive_float(self):
        for m in _admitted_masses():
            want = _cardano_root(m)
            got = ads_horizon_radius(m)
            assert abs(mp.mpf(got) - want) <= 1.2 * math.ulp(float(want)), (m, got)

    def test_few_values_per_root(self, monkeypatch):
        # the bracket lies within a factor 2 of the root, so the Illinois
        # steps reach adjacent floats in a few values; on [0, 2] the root
        # of m = 1e-300 took more than 200,000
        original = renvol.metric.find_root_bracketed
        calls = []

        def counted(fn, lo, hi, *args, **kwargs):
            calls.append(0)

            def value(s):
                calls[-1] += 1
                return fn(s)

            return original(value, lo, hi, *args, **kwargs)

        monkeypatch.setattr(renvol.metric, "find_root_bracketed", counted)
        for m in _admitted_masses():
            ads_horizon_radius(m)
        assert max(calls) <= 20
        assert sum(calls) <= 8 * len(calls)

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5, 7, 10, 100, 1000, 100000])
    def test_integer_roots_are_exact(self, s):
        # m = s^3 + s is a float for these s, so the nearest root is s itself
        assert ads_horizon_radius(float(s**3 + s)) == float(s)

    @pytest.mark.parametrize("m", [5e-324, 1e-300, 1e-40, 1e-10])
    def test_tiny_mass_is_its_own_root(self, m):
        # the root m - m^3 + ... rounds to m once m^2 is below half an ulp
        assert ads_horizon_radius(m) == m

    @pytest.mark.parametrize("m", [1e-300, 1e-40, 1e-6, 2.0, 30.0, 1e6, 1e40])
    def test_model_hawking_mass_is_constant_from_the_horizon(self, m):
        p = ads_schwarzschild(m)
        for k in (1.0, 2.0, 10.0):
            assert p.hawking_mass(k * p.horizon.radius) == pytest.approx(
                32.0 * math.pi**1.5 * m, rel=1e-15
            )

    def test_tiny_model_admits_a_radius_outside_its_horizon(self):
        # the horizon of m = 1e-40 is m itself, well inside s = 1e-30
        assert ads_schwarzschild(1e-40).horizon.radius == 1e-40
        assert math.isfinite(ads_schwarzschild(1e-40).hawking_mass(1e-30))

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

    @pytest.mark.parametrize("method", ["mean_curvature", "scalar_curvature", "hawking_mass"])
    @pytest.mark.parametrize("s", [0.0, -1.0, math.inf, -math.inf, math.nan])
    def test_radius_must_be_positive_and_finite(self, method, s):
        # an infinite radius passed a guard of s > 0: H, R and m_H came out
        # nan, -6 and nan
        with pytest.raises(ValueError, match=r"^radius must be positive and finite, got %r$" % s):
            getattr(ads_schwarzschild(2.0), method)(s)


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


# every profile with exp, log or sqrt quoted in tests/, README.md and the
# FLOAT_FAMILIES of bench/workloads.py, with k of |q|/f ~ c s^k log(s)^j from
# sympy's limit of log(|q|/f)/log(s) (helpers.sympy_limit_rate), frozen:
# the live limits take 0.1-4 s each on a 2-core Xeon, 17 s for the table
QUOTED_DECAY = [
    ("1 + s^2 - m*exp(-s)/s", {"m": 2.0}, -math.inf),
    ("1 + s^2 - m*exp(-s^2)/s", {"m": 2.0}, -math.inf),
    ("1 + s^2 - m/s^3*exp(-1/s)", {"m": 2.0}, -5.0),
    ("1 + s^2 + c*exp(-s)", {"c": 0.1}, -math.inf),
    ("1 + s^2 - m/s*exp(-1/s)", {"m": 2.0}, -3.0),
    ("1 + s^2 - m/s + c*exp(-s)", {"m": 2.0, "c": 0.5}, -3.0),
    ("1 + s^2 - 2*exp(-s)/s", {}, -math.inf),
    ("s - 2 + 0*sqrt((s - 1)*(s - 3))", {}, 1.0),
    ("1 + s^2 - s + m*exp(-s)", {"m": 1e-3}, -1.0),
    ("1 + s^2 - m/s + 0*exp(s-s)", {"m": 2.0}, -3.0),
    ("1 + s^2 - m/s + 0*exp(-s)", {"m": 1e-5}, -3.0),
    ("1 + s^2 - (m + c*(1 - exp(-s/a)))/s", {"m": 2.0, "a": 3.0, "c": 1.0}, -3.0),
    ("1 + s^2 - (m - c*(1 - exp(-s/a)))/s", {"m": 2.0, "c": 1e-6, "a": 3.0}, -3.0),
    ("1 + s^2 - m/s + c/sqrt(s^6 + 1)", {"m": 2.0, "c": 0.1}, -3.0),
    ("1 + s^2 - m/s - c/sqrt(s^6 + 1)", {"m": 2.0, "c": 0.1}, -3.0),
    ("1 + s^2 - m/s + c*sqrt(s^90)/s^46", {"m": 2.0, "c": 1e-3}, -3.0),
    ("1 + s^2 - m/s + c*exp(-s)/s^2", {"m": 2.0, "c": 0.5}, -3.0),
    ("1 + s^2 - m/s + c*exp(-s)/s", {"m": 2.0, "c": 0.5}, -3.0),
    ("1 + s^2 - m/s - c*exp(-s)/s", {"m": 2.0, "c": 0.5}, -3.0),
    # m/s + c/sqrt(s^2 + a) ties at s^-1, and the exact sum m + c leads
    ("1 + s^2 - (m + c*s/sqrt(s^2 + a))/s", {"m": 2.0, "c": 1.0, "a": 3.0}, -3.0),
    ("1 + s^2 - m/s - c*(s - 3)*exp(-s)/s + k/(s - 2)", {"m": 2.0, "c": 0.5, "k": 1e-3}, -3.0),
    ("1 + s^2 - m/s + c*log(s)/s^3", {"m": 2.0, "c": 0.1}, -3.0),
    ("1 + s^2 - log(s)/s", {}, -3.0),
    ("1 + s^2 - log(s)/sqrt(s)", {}, -2.5),
    ("1 + s^2 - 1/(sqrt(s)*log(s))", {}, -2.5),
    ("1 + s^2 - (m + c*log(1 + s))/s", {"m": 2.0, "c": 0.01}, -3.0),
    ("1 + s^2 - c*s - m/s + 0*exp(-s)", {"c": 1e-12, "m": 2.0}, -1.0),
    ("1 + s^2 - c - m/s + 0*exp(-s)", {"c": 1e-8, "m": 2.0}, -2.0),
    ("1 + s^2 + k + 0*exp(-s)", {"k": 5e-8}, -2.0),
    ("1 + s^2 + exp(-s)", {}, -math.inf),
    ("1 + s^2 - m/s + sqrt(s - c)", {"m": 2.0, "c": 1.0}, -1.5),
    ("1 + s^2 - m/s + log(s - c)", {"m": 2.0, "c": 1.0}, -2.0),
    ("1 + s^2 - m/s + c*sqrt((s - a)*(s - b))", {"m": 2.0, "c": 1e-3, "a": 1.0, "b": 2.0}, -1.0),
    ("1 + s^2 - m/s + 0*exp(-s) + c/(s - a)", {"m": 2.0, "c": 1.0, "a": 5.0}, -3.0),
    ("(s - a)*(s - a - d)*(s + 1) + 0*exp(-s)", {"a": 1.7, "d": 1e-3}, 0.0),
    ("(s - 2)*(s + 1) + 0*sqrt((s - 1)*(s - 3))", {}, -1.0),
    ("1 + s^2 - m*exp(-s)/s + exp(-s)", {"m": 2.0}, -math.inf),
    # and two more: q and f both lead with exp(s); log(s^2) is 2 log(s)
    ("1 + s^2 - m/s + exp(s)", {"m": 2.0}, 0.0),
    ("1 + s^2 - c*(log(s^2) - log(s))/s - m/s^2", {"m": 2.0, "c": 0.5}, -3.0),
]

# trees whose rate is not read, with the refusal that names the cause
REFUSED_DECAY = [
    # a*s^2/(s + 1) - a*s^2/(s + 2) = a s^2/((s + 1)(s + 2)) tends to a:
    # |q|/f ~ s^-2, but the tie of two divisor terms sums to exactly 0
    ("1 + s^2 - a*s^2/(s + 1) + a*s^2/(s + 2) + c*exp(-s)", {"a": 1.0, "c": 1.0},
     "the terms 'a*s^2/(s + 1.0)', '-a*s^2/(s + 2.0)' lead together and may cancel"),
    ("1 + s^2 - m/s + log(1 + 1/s)", {"m": 2.0},
     "the atom 'log(1.0 + 1.0/s)' has no leading term"),
    ("1 + s^2 - m/s - exp(s) - exp(2*s)", {"m": 2.0},
     "the terms 'exp(s)', 'exp(2.0*s)' lead together"),
    ("1 + s^2 - m/s + exp(s)*exp(-s^2)", {"m": 2.0},
     "the term 'exp(s)*exp(-s^2)' has no leading term"),
    # both ties cancel exactly: q = -m/s^2, |q|/f ~ s^-4
    ("1 + s^2 - c*(log(s^2) - 2*log(s))/s - m/s^2", {"m": 2.0, "c": 0.5},
     "the terms 'c*log(s^2)/s', '-2.0*c*log(s)/s' lead together and may cancel"),
    ("1 + s^2 - m/s - c*(sqrt(2)*s - sqrt(2*s^2))", {"m": 2.0, "c": 0.5},
     "the terms 'c*s*sqrt(2.0)', '-c*sqrt(2.0*s^2)' lead together and may cancel"),
    # a tie with a float coefficient is refused, however far apart its terms
    ("1 + s^2 - m*m - sqrt(1 + 0.5^2)", {"m": 1e300},
     "the terms 'm^2', 'sqrt(1.25)' lead together and may cancel"),
    # and so is log of a float limit, which may round from 1
    ("1 + s^2 - m/s + log(sqrt(2) + 1/s)", {"m": 2.0},
     "the atom 'log(sqrt(2.0) + 1.0/s)' has no leading term"),
    ("sqrt(1 + 2*s^2 + s^4) - m/s", {"m": 1.0}, "keeps a bare s^2 term"),
    ("1 + exp(-s)", {}, "keeps a bare s^2 term"),
]


class TestDecayRate:
    """``Expression.decay_rate``: the leading term of q, against sympy."""

    @pytest.mark.parametrize("text, params, rate", QUOTED_DECAY)
    def test_quoted_profiles_match_sympy(self, text, params, rate):
        assert float(parse(text).decay_rate(params)[0]) == rate

    def test_live_sympy_agrees(self):
        # the frozen table against the live limits: the FLOAT_FAMILIES rows,
        # whose limits the fused-kernel tests share, a tie and a log power
        for text, params, rate in QUOTED_DECAY[:4] + [QUOTED_DECAY[19], QUOTED_DECAY[23]]:
            assert sympy_limit_rate(str(parse(text)), tuple(sorted(params.items()))) == rate

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32), st.sampled_from([-2.5, -0.5, 0.75, 1.5, 3.0]))
    def test_random_trees_match_sympy(self, seed, m):
        # dyadic m keeps sympy's rationals short; with floats(-4, 4) a
        # constant exp(-(m*m)^2) took sympy over 10 s on a 2-core Xeon
        text = "1 + s^2 - (%s)" % random_tree(random.Random(seed), 3)
        params = {"m": m} if "m" in parse(text).parameters() else {}
        try:
            k, _ = parse(text).decay_rate(params)
        except DecayError as exc:
            assert "lead together and may cancel" in str(exc) or "bare s^2" in str(exc), exc
            return
        assert float(k) == sympy_limit_rate(text, tuple(params.items())), text

    @pytest.mark.parametrize("text, params, match", REFUSED_DECAY)
    def test_refusals_name_the_cause(self, text, params, match):
        with pytest.raises(DecayError, match=re.escape(match)):
            custom_profile(text, params).f.decay_rate(params)

    def test_pitfall_profile_does_not_pass(self):
        # a reader that skipped every exact zero would read -inf here
        text, params, match = REFUSED_DECAY[0]
        p = custom_profile(text, params)
        with pytest.raises(DecayError, match=re.escape(match)):
            validate_asymptotics(p)
        assert sympy_limit_rate(text, tuple(sorted(params.items()))) == -2.0

    def test_exact_tie_and_log_of_a_constant(self):
        # -a/s + b/s cancels exactly at a = b, so q = -c*exp(-s) decays
        # faster than every power; log(2 + 1/s) leads with the constant log 2
        for text, params, rate in [
            ("1 + s^2 - a/s + b/s + c*exp(-s)", {"a": 2.0, "b": 2.0, "c": 1.0}, -math.inf),
            ("1 + s^2 - m/s + c*log(2 + 1/s)/s^3", {"m": 2.0, "c": 1.0}, -3.0),
        ]:
            assert parse(text).decay_rate(params) == (rate, 0)
            assert sympy_limit_rate(text, tuple(sorted(params.items()))) == rate

    def test_unbound_parameter_is_named(self):
        with pytest.raises(EvaluationError, match="unbound parameter 'm'"):
            parse("1 + s^2 - m*exp(-s)/s").decay_rate()

    def test_non_finite_literal_is_named(self):
        f = Sub(parse("1 + s^2 - m/s"), Mul(Num(math.inf), parse("exp(-s)")))
        with pytest.raises(DecayError, match="the atom 'inf' has no leading term"):
            f.decay_rate({"m": 2.0})

    @pytest.mark.parametrize(
        "text, c, rate",
        [
            # c = 0 drops the term before its atom is read
            ("1 + s^2 - m/s - c*log(1 + 1/s)", 0.0, -3.0),
            # exp(-c*s) is 1 at c = 0, and decays faster than every power at c > 0
            ("1 + s^2 - m*exp(-c*s)/s", 0.0, -3.0),
            ("1 + s^2 - m*exp(-c*s)/s", 1.0, -math.inf),
            # q = m/s - c*s grows at c < 0 too: |q|/f ~ s^-1
            ("1 + s^2 - m/s - c*s*exp(-1/s)", -1e-9, -1.0),
        ],
    )
    def test_parameters_bind_exactly(self, text, c, rate):
        assert float(parse(text).decay_rate({"m": 2.0, "c": c})[0]) == rate


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

        monkeypatch.setattr(Expression, "decay_rate", refuse)
        monkeypatch.setattr(RadialProfile, "defect", refuse)
        report = validate_asymptotics(p)
        assert (report.passed, report.measured_rate) == (True, -3.0)
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
        # q = 2*exp(-s)/s decays faster than every power of s, read from
        # its leading term; the normalized defect evaluates it to full
        # relative precision until exp underflows near s = 745, far below
        # the float resolution of 1 + s^2
        p = custom_profile("1 + s^2 - 2*exp(-s)/s")
        report = validate_asymptotics(p)
        assert report.passed
        assert report.measured_rate == -math.inf
        s = 500.0
        want = 2.0 * math.exp(-s) / s
        assert p.defect(s) == pytest.approx(want, rel=4e-16)

    @pytest.mark.parametrize("m, moved", [(4.0, False), (1e7, True)])
    def test_fit_grid_spans_four_decades_outside_the_horizon(self, m, moved, monkeypatch):
        # one enclosure of f over the window certifies rn-ads, so no grid
        # point runs; the sqrt family's enclosure reaches below 0 (the
        # cancellation in sqrt(s^2 + a) - s), so its 41 points run, before
        # the decay reader refuses its leading terms
        certified = rn_ads(m, 1.0)
        gridded = custom_profile("1 + s^2 - m/s - c*(sqrt(s^2 + a) - s)",
                                 {"m": m, "c": 0.5, "a": 1.0})

        def check(p):
            try:
                validate_asymptotics(p)
            except DecayError:
                assert p is gridded
        for p, points in ((certified, 0), (gridded, 41)):
            s_lo = max(1e2, 10.0 * p.horizon.radius)
            assert (s_lo > 1e2) == moved
            # the grid calls the compiled f, not RadialProfile.value
            windows, seen = [], []
            compiled, enclose = p.f._compiled, p.f.enclose
            monkeypatch.setitem(
                p.f.__dict__, "enclose",
                lambda lo, hi, params: windows.append((lo, hi)) or enclose(lo, hi, params),
            )
            monkeypatch.setitem(
                p.f.__dict__, "_compiled", lambda s, params: seen.append(s) or compiled(s, params)
            )
            check(p)
            assert windows == [(s_lo, 1e4 * s_lo)]
            assert len(seen) == points
            # a second check reads the remembered grid: the same floats
            check(p)
            assert seen == 2 * geomspace(s_lo, 1e4 * s_lo, 41)[:points]

    def test_negative_profile_on_grid(self):
        with pytest.raises(DomainError):
            validate_asymptotics(custom_profile("1 + s^2 - s^3/100"))

    def test_infinite_profile_on_grid_fails_fast(self):
        # s^90 overflows above s = 2.7e3, so f = inf at the grid points
        # there; the decay rate alone, -3, would pass
        p = custom_profile("1 + s^2 - m/s + c*sqrt(s^90)/s^46", {"m": 2.0, "c": 1e-3})
        match = r"not positive and finite at s=(\S+) on the asymptotics grid: f = inf"
        with pytest.raises(DomainError, match=match) as info:
            validate_asymptotics(p)
        s = float(re.search(match, str(info.value)).group(1))
        assert 2.7e3 < s < 3.2e3 and math.isinf(p.value(s)) and math.isfinite(p.value(s / 1.3))
        with pytest.raises(DomainError, match=match):
            renvol.volume.renormalized_volume(p)
        check = renvol.comparison.compare_volumes(p, 1.0).hypotheses[-1]
        assert (check.name, check.passed, check.detail) == ("asymptotics", False, str(info.value))

    def test_log_factor_meets_every_delta(self):
        # |q|/f ~ s^-3 log s is O(s^-(2 + 4 delta)) for every delta < 1/4
        for delta in (0.01, 0.24):
            report = validate_asymptotics(custom_profile("1 + s^2 - log(s)/s", delta=delta))
            assert report.passed and report.measured_rate == -3.0

    @pytest.mark.parametrize(
        "text, passed", [("1 + s^2 - log(s)/sqrt(s)", False), ("1 + s^2 - 1/(sqrt(s)*log(s))", True)]
    )
    def test_log_power_decides_a_tie(self, text, passed):
        # |q|/f ~ s^-2.5 log(s)^(+-1) against the required s^-2.5 at delta = 1/8
        report = validate_asymptotics(custom_profile(text, delta=0.125))
        assert (report.measured_rate, report.required_rate) == (-2.5, -2.5)
        assert report.passed == passed


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
        p.scalar_curvature(2.0)
        p.mass_aspect.enclose_jet(2.0, 3.0, p.params)
        assert p.horizon is not None
        # the compiled functions, jets included, are dropped and rebuilt
        compiled = {"_compiled", "_jets", "_jet_enclosure"}
        for tree in (p.f, p.mass_aspect):
            assert compiled & set(tree.__dict__) and not compiled & set(tree.__getstate__())
        for clone in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
            assert clone == p and clone.horizon == p.horizon
            for s in (0.5, p.horizon.radius, 3.0, 1e4):
                assert repr(clone.value(s)) == repr(p.value(s))
                assert repr(clone.slope(s)) == repr(p.slope(s))
                assert repr(clone.scalar_curvature(s)) == repr(p.scalar_curvature(s))
            assert repr(clone.mass_aspect.enclose_jet(2.0, 3.0, p.params)) == repr(
                p.mass_aspect.enclose_jet(2.0, 3.0, p.params)
            )
