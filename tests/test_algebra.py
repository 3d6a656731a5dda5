"""Exact integer polynomials: Sturm counts against sympy, f = P/Q against
Fraction arithmetic, and the certified curvature verdict against its
closed form."""

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import test_expressions
from helpers import exact_walk, random_tree, two_pass_sturm
from renvol import algebra
from renvol.comparison import _check_curvature
from renvol.expressions import parse
from renvol.metric import RadialProfile, custom_profile, rn_ads

X = sympy.Symbol("x")


def _sympy_poly(p):
    return sympy.Poly(list(reversed(p)), X)


def _random_poly(rng):
    """An integer polynomial with repeated roots k/4, which float query
    points can hit exactly, times a random factor; and those roots."""
    p, roots = [rng.choice([-3, -1, 1, 2])], []
    for _ in range(rng.randint(0, 4)):
        k = rng.randint(-12, 12)
        for _ in range(rng.choice([1, 1, 2, 3])):
            p = algebra.mul(p, [-k, 4])
        roots.append(k / 4)
    if rng.random() < 0.6:
        factor = [rng.randint(-9, 9) for _ in range(rng.randint(1, 4))] + [rng.randint(1, 9)]
        p = algebra.mul(p, factor)
    return p, roots


def _count(poly, a, b):
    """Distinct roots of a sympy Poly in (a, b]; b None is +infinity."""
    ra = sympy.Rational(*a.as_integer_ratio())
    rb = None if b is None else sympy.Rational(*b.as_integer_ratio())
    return poly.count_roots(ra, rb) - (1 if poly.eval(ra) == 0 else 0)


def test_sturm_counts_match_sympy():
    rng = random.Random(1996)
    queries = on_root = repeated = 0
    for _ in range(210):
        p, roots = _random_poly(rng)
        poly = _sympy_poly(p)
        seq = algebra.sturm(p)
        points = sorted(set(roots + [rng.randint(-40, 40) / 8 for _ in range(2)]))
        repeated += any(k > 1 for _, k in sympy.sqf_list(poly)[1])
        for i, a in enumerate(points):
            for b in points[i + 1:] + [None]:
                got = algebra.variations(seq, a) - algebra.variations(seq, b)
                assert got == _count(poly, a, b), (p, a, b)
                queries += 1
                on_root += a in roots or b in roots
    assert queries > 1000 and on_root > 500 and repeated > 100


def test_odd_part_matches_sympy_square_free_factors():
    rng = random.Random(7)
    for _ in range(200):
        p, _ = _random_poly(rng)
        want = sympy.Poly(1, X)
        for factor, k in sympy.sqf_list(_sympy_poly(p))[1]:
            if k % 2:
                want *= factor
        if want.LC() < 0:
            want = -want
        assert algebra.odd_part(p) == list(reversed([int(c) for c in want.all_coeffs()]))


# an integer polynomial as a product of small factors, each raised to a
# multiplicity of 1 to 3, so that repeated factors and powers of s are common
_factor = st.lists(st.integers(-6, 6), min_size=1, max_size=4).filter(lambda c: c[-1] != 0)
_product = st.lists(st.tuples(_factor, st.integers(1, 3)), min_size=1, max_size=5)


def _multiply(factors):
    p = [1]
    for factor, k in factors:
        for _ in range(k):
            p = algebra.mul(p, factor)
    return p


def test_one_pass_sturm_matches_the_two_pass_chain():
    square_free = set()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_product, st.sampled_from([-2, 1, 3]))
    def check(factors, scale):
        p = algebra.mul(_multiply(factors), [scale])
        seq = algebra.sturm(p)
        assert seq == two_pass_sturm(p)
        if len(p) > 2:
            square_free.add(seq[0] == algebra._primitive(p))

    check()
    # both the one-pass answer and the fallback were met
    assert square_free == {True, False}


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    st.integers(0, 6),
    st.sampled_from([-5, -1, 1, 4]),
    st.lists(st.integers(-9, 9), max_size=8),
    st.booleans(),
)
def test_monomial_gcd_matches_sympy(k, c, other, first):
    monomial = [0] * k + [c]
    other = algebra._trim(list(other))
    want = sympy.gcd(_sympy_poly(monomial), _sympy_poly(other)) if other else _sympy_poly(monomial)
    want = [int(x) for x in reversed(want.primitive()[1].all_coeffs())]
    if want[-1] < 0:
        want = [-x for x in want]
    args = (monomial, other) if first else (other, monomial)
    assert algebra._gcd(*args) == want


def test_isolating_intervals_hold_one_root_each():
    # three roots 1e-3 apart and a double root above them
    p = algebra.mul(algebra.mul([-1700, 1000], [-1701, 1000]), [-1702, 1000])
    p = algebra.mul(p, algebra.mul([-3, 1], [-3, 1]))
    seq = algebra.sturm(p)
    intervals = algebra.isolate(seq, 0.0, algebra.root_bound(p), 4)
    ends = [(a[0] / a[1], b[0] / b[1]) for a, b in intervals]
    for (a, b), root in zip(ends, [3.0, 1.702, 1.701, 1.7]):
        assert a < root <= b and b - a <= 2.0**-40 * b


def _rational_trees():
    """Every tree without exp/log/sqrt in tests/test_expressions.py."""
    texts = []
    for test in (
        test_expressions.test_parse_and_evaluate,
        test_expressions.test_domain_violations,
        test_expressions.TestDefect.test_normal_form,
    ):
        for mark in test.pytestmark:
            if mark.name == "parametrize":
                texts += [case[0] for case in mark.args[1]]
    texts += test_expressions.DERIVATIVE_BATTERY
    rng = random.Random(2718)
    texts += [random_tree(rng, 3) for _ in range(300)]
    trees = [parse(text) for text in dict.fromkeys(texts)]
    return [t for t in trees if not any(n in str(t) for n in ("exp", "log", "sqrt"))]


def _at(p, s):
    return sum(c * s**i for i, c in enumerate(p))


def test_rational_form_matches_fraction_arithmetic():
    rng = random.Random(404)
    params = {"m": 2.5, "c": -0.75, "k": 1.0 / 3.0}
    checked = 0
    above_cap = []
    for tree in _rational_trees():
        form = algebra.rational_form(tree, params)
        if form is None:
            above_cap.append(str(tree))
            continue
        num, den = form
        assert den[-1] > 0 and math.gcd(math.gcd(*num), math.gcd(*den)) in (0, 1)
        assert sympy.gcd(_sympy_poly(num), _sympy_poly(den)).degree() <= 0
        for _ in range(12):
            s = Fraction(rng.randint(-400, 400), rng.randint(1, 64))
            q_s = _at(den, s)
            try:
                want = exact_walk(tree, s, params)
            except ZeroDivisionError:
                continue
            assert q_s != 0, (str(tree), s)
            assert Fraction(_at(num, s), q_s) == want, (str(tree), s)
            checked += 1
    # the two 400th powers of TestDefect are not algebra.small
    assert above_cap == ["1.0 + s^2 - m/s + (1.0 + m/s)^400 - (1.0 + m/s)^400"]
    assert checked > 800


def test_rational_form_refuses_what_has_no_exact_form():
    assert algebra.rational_form(parse("1 + exp(-s)"), {}) is None
    assert algebra.rational_form(parse("1/(s - s)"), {}) is None
    assert algebra.rational_form(parse("1 + m/s"), {"m": math.inf}) is None
    assert algebra.rational_form(parse("s^90 - s^90 + 1"), {}) == ([1], [1])
    # (1 + 2476979795053773 s/2^51)^60 has 3,000-bit coefficients
    assert algebra.rational_form(parse("(s - 1.1)^60"), {}) is None


def test_rational_form_refuses_a_call_before_building_anything(monkeypatch):
    # the flag is cached on each node; no P/Q of any subtree is built
    built = []
    original = algebra._rational
    monkeypatch.setattr(
        algebra, "_rational", lambda e, params: built.append(e) or original(e, params)
    )
    for text in ("1 + s^2 - m*exp(-s)/s", "1 + s^2 - m/s^3*exp(-1/s)", "(s - 1)^9 + log(s)"):
        assert algebra.rational_form(parse(text), {"m": 2.0}) is None
    assert built == []
    assert algebra.rational_form(parse("1 + s^2 - m/s"), {"m": 2.0}) == ([-2, 1, 0, 1], [0, 1])
    assert built


def test_call_flag_matches_the_text():
    rng = random.Random(31)
    for _ in range(300):
        tree = parse(random_tree(rng, 4))
        assert tree._has_call == any(name in str(tree) for name in ("exp", "log", "sqrt"))


def _curvature_verdict(m, c, k):
    p = custom_profile("1 + s^2 - m/s + c/s^2 + k/s^3", {"m": m, "c": c, "k": k})
    return p, _check_curvature(p, p.horizon.radius)


def test_certified_verdict_matches_the_closed_form():
    # R + 6 = 2 (c s + 2 k)/s^5, so R >= -6 on [s_h, inf) exactly when
    # c >= 0 and c s_h + 2 k >= 0
    rng = random.Random(11)
    seen = set()
    for _ in range(120):
        m, c, k = rng.uniform(5.0, 30.0), rng.uniform(-1.0, 1.0), rng.uniform(-2.0, 2.0)
        p, check = _curvature_verdict(m, c, k)
        s_h = p.horizon.radius
        assert abs(c * s_h + 2 * k) > 1e-9
        want = c >= 0.0 and c * s_h + 2 * k >= 0.0
        assert check.passed == want, (m, c, k, check.detail)
        assert "certified" in check.detail
        seen.add((want, c >= 0.0))
    assert seen == {(True, True), (False, True), (False, False)}


@pytest.mark.parametrize(
    "m,c,k,passed",
    [
        # c = 0: R + 6 = 4 k/s^5
        (4.0, 0.0, 0.5, True),
        (4.0, 0.0, 0.0, True),
        (4.0, 0.0, -0.5, False),
        # s^5 + s^3 - 10.25 s^2 + s - 1 has the root 2 = -2k/c: R = -6 at
        # the horizon and above -6 outside it
        (10.25, 1.0, -1.0, True),
        (10.25, 1.0, -1.0 - 2.0**-40, False),
    ],
)
def test_certified_verdict_on_the_boundary(m, c, k, passed):
    p, check = _curvature_verdict(m, c, k)
    if (m, k) == (10.25, -1.0):
        assert p.horizon.radius == 2.0
    assert check.passed == passed, check.detail
    if not passed:
        assert "falls below -6 (certified" in check.detail


def test_certified_check_samples_nothing(monkeypatch):
    calls = []
    for name in ("value", "slope", "scalar_curvature"):
        original = getattr(RadialProfile, name)
        monkeypatch.setattr(
            RadialProfile, name,
            lambda self, s, _o=original, _n=name: calls.append(_n) or _o(self, s),
        )
    checks = [_check_curvature(rn_ads(4.0, c), 1.25) for c in (1.0, -1.0)]
    assert [check.passed for check in checks] == [True, False]
    assert calls == []
