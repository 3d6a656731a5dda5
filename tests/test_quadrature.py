"""Deterministic adaptive quadrature, substitutions, and root finding."""

import math
import random
import re
from bisect import bisect_left
from functools import partial

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renvol.errors import QuadratureError
from renvol.metric import _scan_grid, custom_profile
from renvol.quadrature import (
    _KERNEL_GLOBALS,
    _SUBSTITUTIONS,
    _XGK,
    Integral,
    _integrate,
    Tolerance,
    find_root_bracketed,
    geomspace,
    integrate,
    integrate_semi_infinite,
    integrate_sqrt_endpoint,
    _panel_kernel,
    linspace,
)

from helpers import bisect60, inv_sqrt_diff, loop_panel, simpson_composite


class TestIntegrate:
    def test_polynomial_is_exact_in_one_panel(self):
        res = integrate(lambda x: x * x, 0.0, 1.0)
        assert res.value == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert res.evaluations == 15

    def test_high_degree_polynomial(self):
        res = integrate(lambda x: x**20, 0.0, 1.0)
        assert res.value == pytest.approx(1.0 / 21.0, rel=1e-13)

    def test_full_period_of_sine(self):
        res = integrate(math.sin, 0.0, 2.0 * math.pi)
        assert abs(res.value) < 1e-13

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            integrate(math.sin, 1.0, 0.0)

    def test_infinite_bound_rejected(self):
        with pytest.raises(ValueError):
            integrate(math.exp, 0.0, math.inf)

    def test_budget_exhaustion(self):
        with pytest.raises(QuadratureError, match=r"budget \(\d+ evaluations"):
            integrate(lambda x: math.sqrt(abs(x)), -1.0, 1.0,
                      Tolerance(rel=1e-14), max_evals=200)

    def test_error_sum_absorbed_by_a_huge_panel_is_not_accepted(self):
        # the guard value 1e300 at the node s = 0.3 gives one panel an error
        # near 1e293; once it is split, the running sums of values and
        # errors had absorbed every small term, and the loop stopped at an
        # estimate of 0.093 against a target of 7.5e-9 (with 1e20, 7.6e-9
        # against 7.58e-9); the exact sums, the target of the exact value
        # included, must meet it, and then the guard does not matter
        results = []
        for guard in (1e300, 1e20):
            res = integrate(lambda x: 1.0 / abs(x - 0.3) if x != 0.3 else guard, 0.0, 1.0)
            assert res.err_estimate <= Tolerance().target(res.value), guard
            results.append(res)
        assert results[0] == results[1]

    @pytest.mark.xfail(
        strict=True,
        reason="integrate accepts this divergent integral: it returns 75.84 "
        "'within tolerance' after 556,095 evaluations, since each halving "
        "adds a nearly constant log 2 that the Gauss/Kronrod difference does "
        "not see (ROADMAP item 2: a stall or divergence test, as in QUADPACK "
        "QAGS). Once it raises, "
        "test_error_sum_absorbed_by_a_huge_panel_is_not_accepted needs a "
        "convergent integrand in place of this one",
    )
    def test_divergent_integral_is_refused(self):
        with pytest.raises(QuadratureError):
            integrate(lambda x: 1.0 / abs(x - 0.3) if x != 0.3 else 1e300, 0.0, 1.0)

    def test_panel_too_small_to_refine(self):
        # an error that stays on the panel holding 0.3 however narrow it is
        with pytest.raises(
            QuadratureError, match=re.escape("panel [0.29999999999999993, 0.3] too small")
        ):
            _integrate(lambda a, b: (0.0, 1.0 if a <= 0.3 <= b else 0.0), 0.0, 1.0)

    def test_smooth_value_against_composite_simpson(self):
        fn = lambda x: math.exp(-x * x)
        res = integrate(fn, 0.0, 3.0)
        oracle = simpson_composite(fn, 0.0, 3.0, 100000)
        assert res.value == pytest.approx(oracle, rel=1e-12)

    def test_error_estimate_respects_tolerance(self):
        tol = Tolerance(rel=1e-10, abs=1e-14)
        for fn, a, b in [
            (lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0),
            (lambda x: math.log1p(x), 0.0, 1.0),
            (lambda x: math.exp(-x * x), 0.0, 3.0),
        ]:
            res = integrate(fn, a, b, tol)
            budgeted = max(tol.abs, tol.rel * abs(res.value))
            assert res.err_estimate <= budgeted * (1.0 + 1e-12)

    @pytest.mark.parametrize(
        "fn,a,b,truth",
        [
            (lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, math.pi / 4.0),
            (lambda x: math.log1p(x), 0.0, 1.0, 2.0 * math.log(2.0) - 1.0),
            (lambda x: math.exp(-x * x), 0.0, 3.0,
             math.sqrt(math.pi) / 2.0 * math.erf(3.0)),
        ],
    )
    def test_tightening_tolerance_does_not_lose_accuracy(self, fn, a, b, truth):
        loose = integrate(fn, a, b, Tolerance(rel=1e-6))
        tight = integrate(fn, a, b, Tolerance(rel=1e-13))
        assert abs(tight.value - truth) <= abs(loose.value - truth) + 1e-15 * abs(truth)
        assert tight.evaluations >= loose.evaluations

    def test_deterministic_reruns(self):
        first = integrate(lambda x: math.sin(x) / (1.0 + x), 0.0, 5.0)
        second = integrate(lambda x: math.sin(x) / (1.0 + x), 0.0, 5.0)
        assert first == second
        assert isinstance(first, Integral)

    @given(
        coeffs=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6),
        a=st.floats(-2.0, 1.0),
        width=st.floats(0.1, 2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_low_degree_polynomials_match_closed_form(self, coeffs, a, width):
        b = a + width

        def poly(x):
            total = 0.0
            for k, c in enumerate(coeffs):
                total += c * x**k
            return total

        truth = sum(
            c * (b ** (k + 1) - a ** (k + 1)) / (k + 1) for k, c in enumerate(coeffs)
        )
        res = integrate(poly, a, b)
        assert res.value == pytest.approx(truth, rel=1e-12, abs=1e-12)


def _panel_outcome(panel, fn, a, b):
    # the value bit for bit, or the error; then the nodes in call order
    calls = []

    def traced(u):
        calls.append(u)
        return fn(u)

    try:
        got = "value", repr(panel(traced, a, b))
    except Exception as exc:
        got = type(exc), str(exc)
    return got, calls


class TestPanel:
    """A kernel compiled by ``_panel_kernel`` against the loop over the
    abscissa table."""

    # a compiled panel whose integrand at u is origin(u)
    kernel = staticmethod(_panel_kernel("params, origin", "plain", ["w = origin(v)"]))

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=15, max_size=15),
        st.lists(
            st.tuples(st.integers(0, 14), st.sampled_from([math.nan, math.inf, -math.inf, None])),
            max_size=3,
        ),
        st.floats(-10.0, 10.0),
        st.floats(1e-3, 10.0),
    )
    def test_nodes_sums_and_refusals_match_the_loop(self, values, specials, a, width):
        b = a + width
        center, half = 0.5 * (a + b), 0.5 * (b - a)
        nodes = [center - half * x for x in _XGK] + [center + half * x for x in _XGK[:-1]]
        table = dict(zip(nodes, values))
        # a special value at a node: non-finite, or None for an error
        for i, special in specials:
            table[nodes[i]] = special

        def fn(u):
            value = table[u]
            if value is None:
                raise ZeroDivisionError("at %r" % u)
            return value

        want = _panel_outcome(loop_panel, fn, a, b)
        assert _panel_outcome(lambda f, a, b: self.kernel(None, f, a, b), fn, a, b) == want

    def test_sums_start_from_positive_zero(self):
        # 0.0 + -0.0 is 0.0: an integrand of -0.0 gives (0.0, 0.0)
        for panel in (loop_panel, lambda f, a, b: self.kernel(None, f, a, b)):
            assert repr(panel(lambda u: -0.0, 0.0, 1.0)) == "(0.0, 0.0)"

    def test_refusal_names_lo_first(self):
        for fn, bad in (
            (lambda u: math.nan, "lo"),
            (lambda u: math.inf if u > 0.5 else 1.0, "hi"),
            (lambda u: math.nan if u == 0.5 else 1.0, "center"),
        ):
            want = {"lo": 0.5 - 0.5 * _XGK[0], "hi": 0.5 + 0.5 * _XGK[0], "center": 0.5}[bad]
            for panel in (loop_panel, lambda f, a, b: self.kernel(None, f, a, b)):
                with pytest.raises(QuadratureError) as info:
                    panel(fn, 0.0, 1.0)
                assert str(info.value) == "non-finite integrand value at %r" % want

    def test_body_names_leave_the_panel_alone(self):
        # a body may name its own x and bad, as the power kernel names x
        kernel = _panel_kernel("fn", "plain", ["x = bad = values = -1.0", "w = fn(v)"])
        for fn in (lambda u: math.nan, lambda u: math.inf if u > 0.5 else 1.0, math.exp):
            assert _panel_outcome(kernel, fn, 0.0, 1.0) == _panel_outcome(loop_panel, fn, 0.0, 1.0)


# each substitution's map u -> v in mpmath, for a width L
_MP_MAPS = {
    "plain": lambda u, L: u,
    "sqrt": lambda u, L: u * u,
    "layer": lambda u, L: L * mpmath.expm1(u),
    "compact": lambda u, L: L * u * u / (1 - u * u),
    "far": lambda u, L: L * (1 - u) ** 2 / (u * (2 - u)),
}

# the u of each check: the compact maps' u lies in [0, 1) or (0, 1]
_MP_NODES = {"compact": (1e-6, 0.01, 0.3, 0.9, 0.99, 0.999999),
             "far": (1e-12, 1e-6, 0.01, 0.3, 0.9, 0.99)}


class TestSubstitutions:
    """Each entry of the table against its map at 30 digits: v(u), and the
    weight |dv/du| by ``mpmath.diff`` (the far map runs backwards)."""

    def test_every_entry_has_a_map(self):
        assert set(_MP_MAPS) == set(_SUBSTITUTIONS)

    @pytest.mark.parametrize("name", sorted(_SUBSTITUTIONS))
    def test_map_and_weight_against_the_derivative(self, name):
        mapped, weighted = _SUBSTITUTIONS[name]
        for width in (1.0, 2.5, 2e3):
            # the names a kernel's setup binds for the entries that use them
            env = dict(_KERNEL_GLOBALS, width=width)
            # one expression, as in a kernel: a weight may reuse v and
            # the names its map binds
            both = eval("lambda u, w: ((v := %s), %s)" % (mapped, weighted.format(v="v")), env)
            for u in _MP_NODES.get(name, (1e-6, 0.01, 0.3, 1.0, 2.5, 3.0)):
                with mpmath.workdps(30):
                    exact = partial(_MP_MAPS[name], L=width)
                    want_v = exact(mpmath.mpf(u))
                    want_w = abs(mpmath.diff(exact, mpmath.mpf(u)))
                    # the map's condition number: a rounding of the
                    # argument of expm1, or of 1 - u^2 or u (2 - u), moves
                    # v by about that many
                    kappa = float(abs(u * want_w / want_v))
                v, weight = both(u, 1.0)
                bound = 4.0 * (1.0 + kappa) * 2.0 ** -53
                assert abs(v - want_v) <= bound * abs(want_v), (name, width, u)
                assert abs(weight - want_w) <= bound * want_w, (name, width, u)


class TestSqrtEndpoint:
    def test_inverse_sqrt_at_lower_end(self):
        res = integrate_sqrt_endpoint(lambda x: 1.0 / math.sqrt(x), 0.0, 1.0)
        assert res.value == pytest.approx(2.0, rel=1e-12)

    def test_shifted_inverse_sqrt(self):
        res = integrate_sqrt_endpoint(lambda x: (1.0 + x) / math.sqrt(x), 0.0, 1.0)
        assert res.value == pytest.approx(8.0 / 3.0, rel=1e-12)

    def test_upper_end(self):
        res = integrate_sqrt_endpoint(
            lambda x: 1.0 / math.sqrt(1.0 - x), 0.0, 1.0, singular_end="upper"
        )
        assert res.value == pytest.approx(2.0, rel=1e-12)

    def test_bad_end_name(self):
        with pytest.raises(ValueError):
            integrate_sqrt_endpoint(math.sqrt, 0.0, 1.0, singular_end="left")


class TestSemiInfinite:
    def test_exponential_tail(self):
        res = integrate_semi_infinite(lambda x: math.exp(-0.5 * x), 0.0, decay_rate=0.5)
        assert res.value == pytest.approx(2.0, rel=1e-12)

    def test_shifted_start(self):
        res = integrate_semi_infinite(lambda x: math.exp(-x), 1.0)
        assert res.value == pytest.approx(1.0 / math.e, rel=1e-12)

    def test_bad_decay_rate(self):
        with pytest.raises(ValueError):
            integrate_semi_infinite(math.exp, 0.0, decay_rate=0.0)


class TestFindRoot:
    def test_linear(self):
        assert find_root_bracketed(lambda x: x - 0.25, 0.0, 1.0) == pytest.approx(0.25)

    def test_exact_zero_at_endpoint(self):
        assert find_root_bracketed(lambda x: x, 0.0, 1.0) == 0.0
        assert find_root_bracketed(lambda x: x - 1.0, 0.0, 1.0) == 1.0

    def test_against_bisection_oracle(self):
        for m in (0.3, 1.0, 2.0, 17.5, 800.0):
            fn = lambda x: x**3 + x - m
            got = find_root_bracketed(fn, 0.0, 10.0)
            want = bisect60(fn, 0.0, 10.0)
            assert got == pytest.approx(want, rel=1e-13)

    def test_no_tolerance_ends_on_adjacent_floats(self):
        # the result is one of two adjacent floats between which fn
        # changes sign, or a float where fn is exactly zero
        cases = [(lambda x, m=m: x**3 + x - m, 0.0, 10.0) for m in (0.3, 1.0, 17.5, 800.0)]
        cases += [(lambda x: math.cos(x) - x, 0.0, 1.0),
                  (lambda x: math.tanh(50.0 * (x - 0.7)), 0.0, 1.0),
                  (lambda x: math.exp(x) - 1e-300, -800.0, 1.0)]
        for fn, lo, hi in cases:
            root = find_root_bracketed(fn, lo, hi)
            up = fn(root) > 0.0
            assert fn(root) == 0.0 or any(
                (fn(math.nextafter(root, end)) > 0.0) != up for end in (lo, hi)
            ), root

    def test_calls_on_a_cubic(self):
        # the Illinois rule, run to adjacent floats, takes 15 to 19 values
        # of x^3 + x - m from [0, 10], the two ends included; secant steps
        # alternated with bisection took 19 to 58 to a width of 1e-14
        for m in (0.3, 1.0, 2.0, 17.5, 800.0):
            calls = []
            find_root_bracketed(lambda x: calls.append(x) or x**3 + x - m, 0.0, 10.0)
            assert len(calls) <= 19, m

    def test_root_far_below_the_bracket_ends(self):
        # from [0, 2] the rule steps onto 0, far below 2's ulp, and later
        # f(b) (b - a) underflows: a step of one ulp each, where bisection
        # reaches the root in about 1,050 values
        calls = []

        def fn(x):
            calls.append(x)
            assert len(calls) <= 2000
            return x**3 + x - 1e-300

        root = find_root_bracketed(fn, 0.0, 2.0)
        assert abs(root - 1e-300) <= 1.2 * math.ulp(1e-300)

    def test_noisy_sign_ends_within_a_fixed_number_of_calls(self):
        # the expanded triple root a of (s - a)^3 (s - b): its float values
        # are rounding noise near a, of either sign.  On the grid cell of
        # the horizon walk that holds its sign change, 12 calls end it
        a = 0.0016342605912526183
        fn = custom_profile("(s^3 - 3*a*s^2 + 3*a^2*s - a^3)*(s - b)", {"a": a, "b": a / 3}).value
        grid = _scan_grid()
        k = bisect_left(grid, a)
        lo, hi = grid[k], grid[k + 1]
        calls = []
        root = find_root_bracketed(lambda x: calls.append(x) or fn(x), lo, hi, fa=fn(lo), fb=fn(hi))
        assert len(calls) <= 12 and root == pytest.approx(a, rel=1e-6)

    def test_no_sign_change(self):
        with pytest.raises(ValueError, match="no sign change"):
            find_root_bracketed(lambda x: 1.0 + x * x, 0.0, 1.0)

    def test_deterministic(self):
        fn = lambda x: math.cos(x) - x
        assert find_root_bracketed(fn, 0.0, 1.0) == find_root_bracketed(fn, 0.0, 1.0)

    def test_steep_root(self):
        fn = lambda x: math.tanh(50.0 * (x - 0.7))
        root = find_root_bracketed(fn, 0.0, 1.0)
        assert root == pytest.approx(0.7, abs=1e-12)

    def test_nan_inside_the_bracket_is_named(self):
        # the first secant step lands on 0.5
        with pytest.raises(QuadratureError, match=re.escape("non-finite function value at 0.5")):
            find_root_bracketed(lambda x: math.nan if x == 0.5 else x - 0.5, 0.0, 1.0)

    def test_bracket_of_adjacent_floats_returns_at_once(self):
        calls = []
        hi = math.nextafter(1.0, 2.0)
        root = find_root_bracketed(
            lambda x: calls.append(x) or x - 1.0, 1.0, hi, tol=1e-300, fa=-1.0, fb=1.0
        )
        assert root in (1.0, hi) and calls == []

    def test_known_endpoint_values_are_not_recomputed(self):
        calls = []

        def fn(x):
            calls.append(x)
            return math.cos(x) - x

        want = find_root_bracketed(fn, 0.0, 1.0)
        assert calls[:2] == [0.0, 1.0]
        n_plain = len(calls)
        calls.clear()
        got = find_root_bracketed(fn, 0.0, 1.0, fa=1.0, fb=math.cos(1.0) - 1.0)
        assert got == want
        assert len(calls) == n_plain - 2 and 0.0 not in calls and 1.0 not in calls

    def test_known_endpoint_values_are_checked(self):
        with pytest.raises(ValueError, match="no sign change"):
            find_root_bracketed(lambda x: x - 0.5, 0.0, 1.0, fa=1.0)
        with pytest.raises(QuadratureError):
            find_root_bracketed(lambda x: x - 0.5, 0.0, 1.0, fb=math.nan)


class TestInvSqrtDiff:
    def test_benign_values_match_direct(self):
        for x, y in [(1.0, 4.0), (0.25, 9.0), (2.0, 3.0)]:
            direct = 1.0 / math.sqrt(x) - 1.0 / math.sqrt(y)
            assert inv_sqrt_diff(x, y) == pytest.approx(direct, rel=1e-14)

    def test_cancellation_regime(self):
        x = 1e8
        delta = 1e-6
        with mpmath.workdps(50):
            want = float(1 / mpmath.sqrt(x) - 1 / mpmath.sqrt(x + delta))
        got = inv_sqrt_diff(x, x + delta, y_minus_x=delta)
        assert got == pytest.approx(want, rel=1e-13)

    def test_explicit_difference_beats_subtraction(self):
        # with y - x supplied exactly, the result keeps full precision even
        # when y - x underflows the float subtraction
        x = 1.0
        delta = 1e-20
        got = inv_sqrt_diff(x, x + delta, y_minus_x=delta)
        assert got == pytest.approx(0.5 * delta, rel=1e-12)

    def test_zero_difference(self):
        assert inv_sqrt_diff(2.0, 2.0, y_minus_x=0.0) == 0.0

    @given(
        x=st.floats(1e-3, 1e6),
        ratio=st.floats(1e-12, 10.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_high_precision(self, x, ratio):
        y = x * (1.0 + ratio)
        delta = x * ratio
        with mpmath.workdps(50):
            want = float(1 / mpmath.sqrt(x) - 1 / mpmath.sqrt(mpmath.mpf(x) + delta))
        assert inv_sqrt_diff(x, x + delta, y_minus_x=delta) == pytest.approx(
            want, rel=1e-12, abs=1e-300
        )


class TestTolerance:
    def test_defaults(self):
        tol = Tolerance()
        assert tol.rel == 1e-10 and tol.abs == 1e-14

    def test_rel_floor(self):
        with pytest.raises(ValueError):
            Tolerance(rel=1e-15)

    def test_abs_positive(self):
        with pytest.raises(ValueError):
            Tolerance(abs=0.0)


class TestGridsAndSlope:
    """The numpy-free grids and fit against numpy itself."""

    def _cases(self):
        rng = random.Random(2024)
        cases = [(1e2, 1e6, 41), (1e-3, 1e3, 50), (0.5, 8.0, 4), (1.25, 1e4, 2000)]
        for _ in range(200):
            a = 10.0 ** rng.uniform(-6.0, 4.0)
            cases.append((a, a * 10.0 ** rng.uniform(-3.0, 8.0), rng.randint(2, 500)))
        return cases

    def test_linspace_equals_numpy(self):
        for a, b, n in self._cases() + [(-3.0, 5.0, 17), (2.0, -7.5, 9), (0.0, 1.0, 1001)]:
            assert linspace(a, b, n) == [float(x) for x in np.linspace(a, b, n)]

    def test_geomspace_within_one_ulp_of_numpy(self):
        # the grids the package samples on
        for a, b, n in ((1e2, 1e6, 41), (1e-3, 1e3, 50), (0.5, 100.0, 15),
                        (1e-2, 300.0, 20), (0.1, 10.0, 20), (1.25, 1e4, 2000)):
            got = geomspace(a, b, n)
            want = [float(x) for x in np.geomspace(a, b, n)]
            assert got[0] == a and got[-1] == b
            for x, y in zip(got, want):
                assert abs(x - y) <= math.ulp(y)

    def test_geomspace_close_to_numpy_on_random_endpoints(self):
        # a vectorized numpy log10 may differ from libm's by an ulp at an
        # endpoint, which 10**y amplifies by |y| ln 10; hence a relative bound
        for a, b, n in self._cases():
            got = geomspace(a, b, n)
            want = [float(x) for x in np.geomspace(a, b, n)]
            assert len(got) == n
            assert got[0] == a and got[-1] == b
            assert got == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_geomspace_pins_an_endpoint_whose_log_overflows(self):
        top = 1.7976931348623157e308
        grid = geomspace(1e307, top, 3)
        assert grid[0] == 1e307 and grid[-1] == top and 1e307 < grid[1] < top
