"""Expression DSL: parsing, printing, evaluation, differentiation."""

import math
import random
import re
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import renvol.expressions
from renvol.errors import DecayError, DomainError, EvaluationError, ParseError
from renvol.expressions import (
    Add,
    Call,
    ExactUnsupported,
    Neg,
    Num,
    Sub,
    load_profile_file,
    parse,
    parse_profile_text,
)
from renvol.metric import _scan_grid, ads_schwarzschild, custom_profile

from helpers import exact_walk, fd_derivative, random_tree, sympy_tree, walk_enclose, walk_evaluate


@pytest.mark.parametrize(
    "text,s,expected",
    [
        ("2 + 3*4", 0.0, 14.0),
        ("2^3^2", 0.0, 64.0),          # power is left-associative
        ("-s^2", 2.0, -4.0),           # unary minus binds looser than ^
        ("2*-3", 0.0, -6.0),
        ("s^-2", 2.0, 0.25),
        ("1 - 2 - 3", 0.0, -4.0),
        ("6/3/2", 0.0, 1.0),
        ("(1 + s)^3", 2.0, 27.0),
        ("sqrt(s)*sqrt(s)", 7.0, 7.0),
        ("exp(log(s))", 5.0, 5.0),
        ("exp(0)", 0.0, 1.0),
        ("1 + s^2", 3.0, 10.0),
    ],
)
def test_parse_and_evaluate(text, s, expected):
    assert parse(text).evaluate(s) == pytest.approx(expected, rel=1e-15)


def test_whitespace_is_insignificant():
    tight = parse("1+s^2-m/s")
    airy = parse(" 1 + s ^ 2 - m / s ")
    for s in (0.5, 1.0, 3.25):
        assert tight.evaluate(s, {"m": 2.5}) == airy.evaluate(s, {"m": 2.5})


@pytest.mark.parametrize(
    "text,offset",
    [
        ("1 + * s", 4),
        ("foo(s)", 0),
        ("s s", 2),
        ("(1 + s", 6),
        ("", 0),
        ("s^2.5", 2),
        ("s^(1/2)", 2),
        # literals that overflow to inf, which would print as a parameter
        ("1e400*exp(-s) + s", 0),
        ("s + 1.8e308", 4),
        ("s^2 - 1e999/s", 6),
    ],
)
def test_parse_errors_carry_offsets(text, offset):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.offset == offset
    assert "syntax error at offset %d" % offset in str(err.value)


def test_largest_finite_literal_parses():
    # one step beyond, 1.8e308, overflows to inf and is a parse error
    assert str(parse("1.7976931348623157e308*s")) == "1.7976931348623157e+308*s"


def test_parse_is_cached_by_text():
    text = "1 + s^2 - m/s + k/s^3"
    first = custom_profile(text, {"m": 2.0, "k": 0.1})
    second = custom_profile(text, {"m": 3.0, "k": -0.2})
    assert first.f is second.f
    first.defect(2.0)
    second.defect(2.0)
    assert first.q is second.q
    # errors are not cached: each call parses and raises again
    for _ in range(3):
        with pytest.raises(ParseError, match="offset 4"):
            parse("1 + * s")


def test_unbound_parameter_is_an_evaluation_error():
    expr = parse("1 + s^2 - m/s")
    with pytest.raises(EvaluationError, match="unbound parameter 'm'"):
        expr.evaluate(1.0)
    assert expr.parameters() == frozenset({"m"})


@pytest.mark.parametrize(
    "text,s",
    [
        ("sqrt(s)", -1.0),
        ("log(s)", 0.0),
        ("1/s", 0.0),
        ("s^-2", 0.0),
        # s^2 underflows to zero: a domain error, as for 1/s^2
        ("s^-2", 1e-300),
        ("1/s^2", 1e-300),
    ],
)
def test_domain_violations(text, s):
    with pytest.raises(DomainError):
        parse(text).evaluate(s)


DERIVATIVE_BATTERY = [
    "s^3",
    "1 + s^2 - m/s",
    "1 + s^2 - m/s + 2/s^2",
    "sqrt(1 + s^2)",
    "exp(-s)/s",
    "log(s)*s",
    "s^-2",
    "(1 + s)^4/s",
    "exp(-s^2)",
]


@pytest.mark.parametrize("text", DERIVATIVE_BATTERY)
@pytest.mark.parametrize("s", [0.7, 1.3, 2.9])
def test_derivative_matches_central_difference(text, s):
    import sympy

    expr = parse(text)
    params = {"m": 2.5}
    jet = expr.jet(s, params)
    assert jet[0] == expr.evaluate(s, params)
    num = fd_derivative(lambda x: expr.evaluate(x, params), s)
    assert jet[1] == pytest.approx(num, rel=1e-6, abs=1e-9)
    # both derivatives against sympy's, evaluated at 50 digits
    g, x = sympy_tree(expr, params)
    at = {x: sympy.Rational(*s.as_integer_ratio())}
    for order in (1, 2):
        want = float(sympy.diff(g, x, order).evalf(50, subs=at))
        assert jet[order] == pytest.approx(want, rel=1e-13), (text, order)


def test_second_derivative_of_square_folds_to_constant():
    assert parse("s^2").jet(123.456)[2] == 2.0
    # folded to the literal 2.0, so its bounds are exact
    assert parse("s^2").enclose_jet(1.0, 2.0)[2] == (2.0, 2.0)


def test_derivative_of_constant_is_zero():
    assert repr(parse("7").jet(0.3)) == "(7.0, 0.0, 0.0)"


@pytest.mark.parametrize(
    "text,want",
    [
        # -(0 - m) folds to m, whose derivative is 0.0, negated: -0.0
        ("2 - m*s", "(-2.5, -3.0, -0.0)"),
        # the derivative of the literal -2 is -0.0, and its own is 0.0
        ("-2", "(-2.0, -0.0, 0.0)"),
        # 0 - 1 folds to the constant -1.0, not to -(1.0)
        ("0 - s", "(-1.5, -1.0, 0.0)"),
        # (s*(-2))'' is the derivative of the node -(2), -(0.0)
        ("s*(-2)", "(-3.0, -2.0, -0.0)"),
    ],
)
def test_folds_keep_signed_zeros(text, want):
    assert repr(parse(text).jet(1.5, {"m": 3.0})) == want


def test_double_negation_folds():
    # in a derivative -(-x) folds to x; in a tree both negations run
    code = renvol.expressions._Code("value")
    twice = parse("s + s")._emit(code)
    assert code.neg(code.neg(twice), True) == twice
    lines = len(code.lines)
    assert code.neg(code.neg(twice)) != twice and len(code.lines) == lines + 1


def test_print_parse_round_trip_is_exact():
    # str() must reproduce the tree: reparsing and re-evaluating has to
    # give bitwise-identical results, divisions by zero excepted.
    rng = random.Random(1729)
    checked = 0
    for _ in range(100):
        text = random_tree(rng, 3)
        expr = parse(text)
        back = parse(str(expr))
        for _ in range(5):
            s = rng.uniform(0.1, 10.0)
            params = {"m": rng.uniform(0.5, 4.0)}
            try:
                want = expr.evaluate(s, params)
            except DomainError:
                continue
            assert back.evaluate(s, params) == want
            checked += 1
    assert checked > 300


def _outcome(fn, *args):
    # repr tells -0.0 from 0.0 and prints inf and nan
    try:
        return "value", repr(fn(*args))
    except (DomainError, EvaluationError) as exc:
        return type(exc), str(exc)


class TestCompiledEvaluation:
    """The compiled float evaluation against the recursive walk in helpers."""

    def test_random_trees_match_the_walk_bit_for_bit(self):
        rng = random.Random(4099)
        seen = set()
        for _ in range(300):
            text = random_tree(rng, 4)
            expr = parse(text)
            points = (0.0, -0.0, 1e-300, 1e300, rng.uniform(-10.0, 10.0), rng.uniform(0.0, 3.0))
            for s in points:
                for params in ({"m": rng.uniform(-4.0, 4.0)}, {}):
                    want = _outcome(walk_evaluate, expr, s, params)
                    assert _outcome(expr.evaluate, s, params) == want, (text, s, params)
                    seen.update(want)
        # the sample reaches every error and the special values
        assert {DomainError, EvaluationError} <= seen
        assert {"inf", "nan", "-0.0"} <= seen

    @pytest.mark.parametrize(
        "text,s,params,error",
        [
            ("1/(s-s)", 2.0, None, DomainError),
            ("s^-2", 0.0, None, DomainError),
            ("log(-s)", 2.0, None, DomainError),
            ("sqrt(s-5)", 2.0, None, DomainError),
            ("exp(s^4)", 100.0, None, DomainError),
            ("1 + s^2 - m/s", 2.0, None, EvaluationError),
            # the first error in post-order wins, left before right
            ("1/(s-s) + m", 2.0, None, DomainError),
            ("m + 1/(s-s)", 2.0, None, EvaluationError),
            ("m + 1/(s-s)", 2.0, {"m": 1.0}, DomainError),
            # s^2 underflows to zero
            ("s^-2", 1e-300, None, DomainError),
        ],
    )
    def test_errors_match_the_walk(self, text, s, params, error):
        expr = parse(text)
        got = _outcome(expr.evaluate, s, params)
        assert got[0] is error
        assert got == _outcome(walk_evaluate, expr, s, params)

    def _count_compiles(self, monkeypatch):
        compiled = []
        compile_ = renvol.expressions._compile

        def counting(expr, mode, jet=False):
            compiled.append(expr)
            return compile_(expr, mode, jet)

        monkeypatch.setattr(renvol.expressions, "_compile", counting)
        return compiled

    def test_profile_compiles_once(self, monkeypatch):
        compiled = self._count_compiles(monkeypatch)
        # a fresh tree, so no earlier test has compiled it
        parse.cache_clear()
        p = custom_profile("1 + s^2 - m/s", {"m": 2.0})
        for i in range(1000):
            p.value(1.0 + i / 1000.0)
        assert len(compiled) == 1 and compiled[0] is p.f

    def test_family_compiles_once_per_process(self, monkeypatch):
        compiled = self._count_compiles(monkeypatch)
        for m in (2.0, 3.0):
            p = ads_schwarzschild(m)
            for i in range(100):
                p.value(1.0 + i / 100.0)
                p.slope(1.0 + i / 100.0)
        first, second = ads_schwarzschild(2.0), ads_schwarzschild(3.0)
        assert first.f is second.f
        # f once, and its jet once
        assert sum(e is first.f for e in compiled) <= 2
        assert len(compiled) <= 2

    def test_negative_power_fold_keeps_underflow_unfolded(self):
        # d/ds 2^-3 folds to -3.0 * 2^-4 * 0.0, which is -0.0
        assert repr(parse("2^-3").jet(1.0)) == "(0.125, -0.0, 0.0)"
        # 1e-300^-2 underflows to zero: no fold, and the power raises,
        # though the factor 0.0 drops its result
        assert parse("1e-300^-1").evaluate(1.0) == 1.0 / 1e-300
        with pytest.raises(DomainError, match="zero raised to negative power"):
            parse("1e-300^-1").jet(1.0)


def _summands(expr):
    # the top-level terms of an emitted defect: t1 +- t2 +- ... or -t1
    if isinstance(expr, (Add, Sub)):
        return _summands(expr.left) + [expr.right]
    if isinstance(expr, Neg):
        return [expr.arg]
    return [expr]


class TestDefect:
    """``Expression.defect()``: the normalized tree of 1 + s^2 - f."""

    @pytest.mark.parametrize(
        "text,want",
        [
            ("1 + s^2 - m/s", "m/s"),
            ("1 + s^2 - m/s + c/s^2", "m/s - c/s^2"),
            ("1 + s^2 - m/s + c/s^2 + k/s^3", "m/s - c/s^2 - k/s^3"),
            ("1 + s^2 - m/s + 0*exp(s-s)", "m/s"),
            ("(s^3 + s - m)/s", "m/s"),
            ("1 + s^2 - m/s*exp(-1/s)", "m*exp(-1.0/s)/s"),
            ("1 + s^2 - m/s + c*exp(-s)", "m/s - c*exp(-s)"),
            ("1 + s^2 + c*exp(-s)", "-c*exp(-s)"),
            # a divisor that is not a single term stays whole
            ("(1 + s)^2 - 2*s - m/(s + 1)", "m/(s + 1.0)"),
            ("1 + s^2 - m/(3*s)", "m/(3.0*s)"),
            ("1 + s^2", "0.0"),
            # too long to expand: both powers stay whole and cancel
            ("1 + s^2 - m/s + (1 + m/s)^400 - (1 + m/s)^400", "m/s"),
            # a sum to the power 0 is 1, and an empty base to a power is 0
            ("1 + s^2 - m/s + (s + m)^0 - 1", "m/s"),
            ("1 + s^2 - m/s + (s - s)^2", "m/s"),
            # equal atoms whose terms are written in another order cancel
            ("1 + s^2 - m/s + 1/(s+1) - 1/(1+s)", "m/s"),
            ("1 + s^2 - m/s + exp(-s)/(s+1) - exp(-s)/(1+s)", "m/s"),
            # unequal divisors whose constants, one float apart, print
            # alike stay apart
            ("1 + s^2 - m/s + 1/(s + 0.1 + 0.2) - 1/(s + 0.1 + 0.2 + 5.551115123125783e-17)",
             "m/s - 1.0/(s + 1.0808639105689192e+16/3.602879701896397e+16)"
             " + 1.0/(s + 1.0808639105689192e+16/3.602879701896397e+16)"),
        ],
    )
    def test_normal_form(self, text, want):
        assert str(parse(text).defect()) == want

    def test_model_defect_is_the_correctly_rounded_quotient(self):
        q = parse("1 + s^2 - m/s").defect()
        rng = random.Random(31)
        for _ in range(200):
            s, m = rng.uniform(0.1, 1e4), rng.uniform(0.1, 10.0)
            assert q.evaluate(s, {"m": m}) == float(Fraction(m) / Fraction(s))

    def test_cancellation_inside_an_atom_is_refused(self):
        with pytest.raises(DecayError, match="bare s\\^2 term"):
            parse("sqrt(1 + 2*s^2 + s^4) - m/s").defect()
        # an s^2 term with nothing left to cancel against is an ordinary
        # slow decay, which the decay check reports
        assert str(parse("2 + 2*s^2 - m/s").defect()) == "-1.0 - s^2 + m/s"

    def test_non_finite_literals_never_cancel(self):
        # inf - inf is NaN at every s, so the two literals are two atoms:
        # the defect keeps both, and the rate is refused naming one
        inf = Num(math.inf)
        for nan in (Sub(Num(math.inf), Num(math.inf)), Sub(inf, inf)):
            f = Add(parse("1 + s^2 - m/s"), nan)
            assert math.isnan(f.evaluate(2.0, {"m": 1.0}))
            assert str(f.defect()) == "m/s - inf + inf"
            with pytest.raises(DecayError, match="the atom 'inf' has no leading term"):
                f.decay_rate({"m": 1.0})

    def test_cached_and_shared_by_the_family(self, monkeypatch):
        f = parse("1 + s^2 - m/s + c/s^2")
        assert f.defect() is f.defect()
        assert f.defect()._jets is f.defect()._jets
        compiled = TestCompiledEvaluation()._count_compiles(monkeypatch)
        first, second = ads_schwarzschild(2.0), ads_schwarzschild(3.0)
        for p in (first, second):
            for i in range(50):
                p.defect(1.0 + i)
                p.defect_slope(1.0 + i)
        assert first.q is second.q
        # q once, and its jet once
        assert sum(e is first.q for e in compiled) <= 2

    def test_random_rational_defects_match_exact_arithmetic(self):
        # the compiled defect against 1 + s^2 - f in Fraction arithmetic,
        # within 8 ulp of the sum of its terms' magnitudes
        rng = random.Random(2718)
        ulp = 2.0**-52
        checked = refused = 0
        for _ in range(300):
            f = parse(random_tree(rng, 3))
            try:
                f.evaluate_exact(Fraction(1, 3), {"m": Fraction(1)})
            except ExactUnsupported:
                continue  # exp or sqrt: no exact value to compare against
            except DomainError:
                pass
            try:
                q = f.defect()
            except DecayError:
                refused += 1  # an s^2 term beside a divisor
                continue
            for _ in range(4):
                s, m = rng.uniform(0.1, 10.0), rng.uniform(0.5, 4.0)
                exact_s, exact_params = Fraction(s), {"m": Fraction(m)}
                try:
                    want = 1 + exact_s**2 - f.evaluate_exact(exact_s, exact_params)
                    got = q.evaluate(s, {"m": m})
                except DomainError:
                    continue
                scale = sum(abs(t.evaluate_exact(exact_s, exact_params)) for t in _summands(q))
                assert abs(Fraction(got) - want) <= 8 * ulp * scale, (str(f), str(q), s, m)
                checked += 1
        assert checked > 500 and refused < 30


def _exact_outcome(fn, *args):
    # exact_walk's errors under the names evaluate_exact gives them
    try:
        value = fn(*args)
    except (ExactUnsupported, TypeError):
        return "unsupported", None
    except (DomainError, ZeroDivisionError):
        return "domain", None
    except (EvaluationError, KeyError):
        return "unbound", None
    return type(value), value


class TestExactEvaluation:
    def test_rational_profile_is_exact(self):
        expr = parse("1 + s^2 - m/s")
        got = expr.evaluate_exact(Fraction(1, 3), {"m": Fraction(2)})
        assert got == Fraction(-44, 9)

    def test_negative_power(self):
        assert parse("s^-2").evaluate_exact(Fraction(2, 3)) == Fraction(9, 4)

    def test_transcendental_is_refused(self):
        with pytest.raises(ExactUnsupported):
            parse("exp(s)").evaluate_exact(Fraction(1))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        s=st.one_of(st.sampled_from([0.0, 1.0, 2.0, 0.5, -1.0]), st.floats(-10.0, 10.0)),
        m=st.one_of(st.none(), st.sampled_from([0.0, 2.0]), st.floats(-4.0, 4.0)),
    )
    def test_random_trees_match_the_walk(self, seed, s, m):
        # equal Fractions, or a failure of the same kind
        expr = parse(random_tree(random.Random(seed), 3))
        params = {} if m is None else {"m": m}
        want = _exact_outcome(exact_walk, expr, s, params)
        assert _exact_outcome(expr.evaluate_exact, s, params) == want, str(expr)

    @pytest.mark.parametrize("text,want", [("s^0", 1), ("(s - 1)^0", 1), ("2^-1", Fraction(1, 2))])
    def test_powers_stay_exact(self, text, want):
        got = parse(text).evaluate_exact(1)
        assert type(got) is Fraction and got == want

    def test_first_refusal_in_post_order_wins(self):
        with pytest.raises(DomainError, match="division by zero"):
            parse("1/(s - 1) + exp(s)").evaluate_exact(1)
        # the call refuses before its argument runs
        with pytest.raises(ExactUnsupported):
            parse("exp(1/(s - 1))").evaluate_exact(1)

    def test_unbound_parameter_is_an_evaluation_error(self):
        with pytest.raises(EvaluationError, match="unbound parameter 'm'"):
            parse("1 + s^2 - m/s").evaluate_exact(1)


def _check_enclosure(expr, points, params):
    """Enclose ``expr`` over the span of ``points``, require the bounds of
    the recursive walk in helpers bit for bit, and hold every value at the
    points to them; returns the bounds, or None."""
    bounds = expr.enclose(points[0], points[-1], params)
    # repr tells -0.0 from 0.0
    assert repr(bounds) == repr(walk_enclose(expr, points[0], points[-1], params)), str(expr)
    for s in points:
        try:
            value = expr.evaluate(s, params)
        except DomainError:
            assert bounds is None, (str(expr), s)
            continue
        # a NaN value fails the comparison too
        assert bounds is None or bounds[0] <= value <= bounds[1], (str(expr), s, value, bounds)
    _check_jet_enclosure(expr, points, params, bounds)
    return bounds


def _check_jet_enclosure(expr, points, params, bounds):
    """``enclose_jet`` over the span of ``points``: its value pair is that
    of ``enclose`` bit for bit, and each pair holds the jet's component at
    every point; where a point raises, some pair is None."""
    jet_bounds = expr.enclose_jet(points[0], points[-1], params)
    if jet_bounds is None:
        return
    assert repr(jet_bounds[0]) == repr(bounds), str(expr)
    for s in points:
        try:
            jet = expr.jet(s, params)
        except DomainError:
            # the value and first derivative have bounds, so they run
            assert jet_bounds[2] is None, (str(expr), s)
            continue
        for value, pair in zip(jet, jet_bounds):
            assert pair is None or pair[0] <= value <= pair[1], (str(expr), s, jet, jet_bounds)


class TestEnclosure:
    """``Expression.enclose`` against the compiled evaluation it bounds."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        top=st.integers(0, len(_scan_grid()) - 1),
        width=st.integers(1, 64),
        m=st.floats(-4.0, 4.0),
    )
    def test_random_trees_on_grid_blocks(self, seed, top, width, m):
        grid = _scan_grid()
        expr = parse(random_tree(random.Random(seed), 3))
        _check_enclosure(expr, grid[max(top - width + 1, 0) : top + 1], {"m": m})

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lo=st.floats(-10.0, 10.0),
        width=st.floats(0.0, 5.0),
        m=st.floats(-4.0, 4.0),
    )
    def test_random_trees_on_intervals(self, seed, lo, width, m):
        # negative radii and intervals around zero reach the domain errors
        expr = parse(random_tree(random.Random(seed), 3))
        _check_enclosure(expr, [lo + width * k / 16 for k in range(17)], {"m": m})

    @pytest.mark.parametrize(
        "text,lo,hi,bounded",
        [
            ("1 + s^2 - m*exp(-s)/s", 0.5, 1e3, True),
            ("1/(s - 2)", 1.0, 3.0, False),  # the divisor's bounds hold 0
            ("1/(s - 2)", 2.5, 3.0, True),
            ("log(s - 2)", 2.0, 3.0, False),  # log(0) at the lower end
            ("log(s - 2)", 2.5, 3.0, True),
            ("sqrt(s - 1)", 0.5, 2.0, False),
            ("sqrt(s - 1)", 1.0, 2.0, True),  # sqrt(0) is defined
            ("exp(s^2)", 1.0, 30.0, False),  # exp(900) overflows
            ("exp(s^2)", 1.0, 20.0, True),
            ("0*s^120", 300.0, 1e3, False),  # s^120 overflows and 0*inf is NaN
            ("0*s^120", 1.0, 300.0, True),
            ("s^-2", -1.0, 1.0, False),
            ("s^-2", 1e-300, 1e-299, False),  # s^2 underflows to zero
            ("s^-2", 0.5, 2.0, True),
            ("(s - 1)^-3", 0.5, 2.0, False),
            ("(s - 1)^-3", 2.0, 5.0, True),
            ("s^0", -1.0, 1.0, True),
            ("sqrt(s - 1)^0", 0.5, 2.0, False),  # the base is still evaluated
        ],
    )
    def test_explicit_cases(self, text, lo, hi, bounded):
        expr = parse(text)
        points = [lo + (hi - lo) * k / 64 for k in range(64)] + [hi]
        bounds = _check_enclosure(expr, points, {"m": 2.0})
        assert (bounds is not None) == bounded

    def test_point_operands_emit_each_product_once(self):
        # m and c are point pairs (v, v): each of their products has two
        # distinct corners, not four
        code = renvol.expressions._Code("interval")
        parse("m/s + c*exp(-s)")._emit(code)
        product = re.compile(r"t\d+ = (\w+ [*/] \w+)")
        products = [m.group(1) for m in map(product.fullmatch, code.lines) if m]
        assert len(products) == 4 and len(set(products)) == 4
        bounds = _check_enclosure(parse("m/s + c*exp(-s)"), [0.5, 1.0, 2.0], {"m": 2.0, "c": -3.0})
        assert bounds is not None

    def test_calls_are_widened(self):
        for text, fn in (("exp(s)", math.exp), ("log(s)", math.log), ("sqrt(s)", math.sqrt)):
            lo, hi = parse(text).enclose(2.0, 2.0)
            assert lo < fn(2.0) < hi
        assert parse("s").enclose(1.0, 2.0) == (1.0, 2.0)

    def test_non_finite_literal_or_parameter_refuses(self):
        # exp(-inf) evaluates to 0.0, but an infinite end gives no bounds;
        # the parser refuses an infinite literal, so that tree is built
        literal = Call("exp", Neg(Num(math.inf)))
        for expr, params in ((literal, None), (parse("exp(-m)"), {"m": math.inf})):
            assert expr.enclose(1.0, 2.0, params) is None
            assert walk_enclose(expr, 1.0, 2.0, params) is None

    @pytest.mark.parametrize(
        "text,lo,hi",
        [
            ("1/s", 1.0, -1.0),  # reversed across the pole
            ("s", 2.0, 1.0),
            ("s", math.nan, 1.0),
            ("s", 1.0, math.nan),
            ("sqrt(s)", 3.0, -1.0),
        ],
    )
    def test_reversed_or_nan_interval_is_rejected(self, text, lo, hi):
        with pytest.raises(ValueError, match="lo <= hi"):
            parse(text).enclose(lo, hi)

    def test_unbound_parameter_is_an_evaluation_error(self):
        expr = parse("1 + s^2 - m/s")
        for enclose in (expr.enclose, partial(walk_enclose, expr)):
            with pytest.raises(EvaluationError, match="unbound parameter 'm'"):
                enclose(1.0, 2.0)
        # the first refusal in post-order wins: None before the unbound m
        assert parse("exp(s^4) + m").enclose(100.0, 200.0) is None
        with pytest.raises(EvaluationError):
            parse("m + exp(s^4)").enclose(100.0, 200.0)


class TestProfileText:
    def test_names_comments_and_inline_comments(self):
        table = parse_profile_text(
            "# reference\n"
            "flat = 1 + s^2\n"
            "\n"
            "bh = 1 + s^2 - m/s  # one parameter\n"
        )
        assert list(table) == ["flat", "bh"]
        assert table["flat"].evaluate(2.0) == 5.0
        assert table["bh"].parameters() == frozenset({"m"})

    def test_duplicate_name(self):
        with pytest.raises(ValueError, match="line 2: duplicate profile name 'a'"):
            parse_profile_text("a = s\na = s^2\n")

    def test_missing_equals(self):
        with pytest.raises(ValueError, match="line 1: expected 'name = expression'"):
            parse_profile_text("just text\n")

    def test_bad_name(self):
        with pytest.raises(ValueError, match="invalid profile name"):
            parse_profile_text("2b = s\n")

    def test_expression_error_names_the_line(self):
        with pytest.raises(ParseError) as err:
            parse_profile_text("ok = s\nbroken = 1 +\n")
        assert err.value.line == 2
        assert str(err.value).startswith("line 2: syntax error at offset 3")

    def test_empty_text(self):
        assert parse_profile_text("") == {}

    def test_load_from_disk(self, tmp_path):
        path = tmp_path / "profiles.txt"
        path.write_text("one = 1 + s^2 - 1/s\ntwo = 1 + s^2 - 2/s\n")
        table = load_profile_file(path)
        assert set(table) == {"one", "two"}
        assert table["two"].evaluate(1.0) == 0.0
