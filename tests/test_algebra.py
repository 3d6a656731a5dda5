"""Exact integer polynomials: Sturm counts against sympy, f = P/Q against
Fraction arithmetic, and the certified curvature verdict against its
closed form."""

import itertools
import math
import random
from fractions import Fraction
from functools import cached_property

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import test_expressions
from helpers import (
    counted_isolate,
    divided_isolated,
    divided_midpoint,
    divided_value,
    exact_walk,
    random_tree,
    two_pass_sturm,
    walk_rational_form,
    yun_odd_part,
)
from renvol import algebra
from renvol.comparison import _check_curvature
from renvol.expressions import Add, Expression, Mul, Num, parse
from renvol.metric import RadialProfile, _scan_grid, ads_schwarzschild, custom_profile, rn_ads

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


def test_monomial_sturm_is_the_generic_chain():
    # c s^k for k >= 2 is read off as the chain of sgn(c) s; the generic
    # build keeps the sign of c, which a chain of s alone would drop
    assert algebra.sturm([0, 0, 0, -7]) == two_pass_sturm([0, 0, 0, -7]) == [[0, -1], [-1]]
    signs = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(0, 12), st.integers(-(2**80), 2**80).filter(bool))
    def check(k, c):
        p = [0] * k + [c]
        assert algebra.sturm(p) == two_pass_sturm(p)
        signs.add(c > 0)

    check()
    assert signs == {True, False}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(0, 7),
    st.integers(-(2**70), 2**70),
    st.integers(-(2**70), 2**70).filter(bool),
    st.sampled_from([-6, -1, 1, 4]),
)
def test_odd_part_of_a_power_of_s_times_a_linear_factor_is_yuns(j, a, b, scale):
    p = algebra.mul([0] * j + [scale], [a, b])
    assert algebra.odd_part(p) == yun_odd_part(p)


# dyadic points (num, 2^k) with 0 <= num, and floats, where the integer
# routines align numerators and multiply by powers of den
_dyadic = st.tuples(st.integers(0, 2**90), st.integers(0, 200).map(lambda k: 1 << k))
_point = st.one_of(_dyadic, st.floats(0.0, 1e300))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(st.integers(-(2**70), 2**70), max_size=9), _point, _point)
def test_shifts_match_the_divided_forms(p, a, b):
    p = algebra._trim(p)
    assert algebra.value(p, a) == divided_value(p, a)
    a, b = algebra._point(a), algebra._point(b)
    assert algebra.midpoint(a, b) == divided_midpoint(a, b)
    a, b = sorted((a, b), key=lambda x: Fraction(*x))
    if Fraction(*a) < Fraction(*b):
        assert algebra._isolated(a, b) == divided_isolated(a, b)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(st.integers(-(2**70), 2**70), max_size=9), st.floats(0.0, 1e3),
       st.floats(0.0, 1e3))
def test_monotone_is_the_sign_split_bound(p, a, b):
    # p' = pos - neg bounded on [a, b] by its parts at the ends, in
    # Fraction arithmetic; where the bound has one sign, p' has no root
    p = algebra._trim(p)
    a, b = sorted((a, b))
    dp = algebra.derivative(p)

    def part(sign, x):
        return sum(abs(c) * Fraction(x) ** i for i, c in enumerate(dp) if c * sign > 0)

    want = part(1, a) > part(-1, b) or part(-1, a) > part(1, b)
    assert algebra.monotone(p, a, b) == want
    if want:
        ra, rb = (sympy.Rational(*x.as_integer_ratio()) for x in (a, b))
        assert _sympy_poly(dp).count_roots(ra, rb) == 0


def test_isolation_width_at_the_bound():
    # b - a = 2^-40 b is isolated and one unit more is not, at unlike dens
    b = (1 << 100, 1 << 60)
    for den in (1 << 60, 1 << 61, 1 << 200):
        shift = den.bit_length() - 61
        a = ((b[0] - (b[0] >> 40)) << shift, den)
        assert algebra._isolated(a, b) and divided_isolated(a, b)
        a = (a[0] - 1, den)
        assert not algebra._isolated(a, b) and not divided_isolated(a, b)


def _bit_length_size(p):
    # the size measure as first written: one bit_length per coefficient
    return len(p) ** 2 * max(abs(c).bit_length() for c in p) <= algebra.MAX_SIZE if p else True


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    st.lists(
        st.one_of(
            st.integers(-9, 9),
            st.integers(-(2**2100), 2**2100),
            st.integers(0, 120).map(lambda k: 2**k * 419 - 1),
        ),
        max_size=12,
    ),
    st.booleans(),
)
def test_size_takes_one_bit_length(p, negate):
    # bit length grows with |c|, so the largest |c| has the largest length;
    # the coefficient counts and magnitudes straddle MAX_SIZE
    if negate:
        p = [-c for c in p]
    assert algebra.small(p) == _bit_length_size(p)


def test_size_boundary():
    # 10^2 coefficients times 500 bits is MAX_SIZE exactly
    for top in (2**499, -(2**499), 2**500 - 1, 2**500, -(2**500)):
        for p in ([0] * 9 + [top], [top] + [0] * 9, [1, -1] * 4 + [0, top]):
            assert algebra.small(p) == _bit_length_size(p)
    assert algebra.small([0] * 9 + [2**499]) and not algebra.small([0] * 9 + [2**500])


def test_isolating_intervals_hold_one_root_each():
    # three roots 1e-3 apart and a double root above them
    p = algebra.mul(algebra.mul([-1700, 1000], [-1701, 1000]), [-1702, 1000])
    p = algebra.mul(p, algebra.mul([-3, 1], [-3, 1]))
    seq = algebra.sturm(p)
    intervals = algebra.isolate(seq, 0.0, algebra.root_bound(p), 4)
    ends = [(a[0] / a[1], b[0] / b[1]) for a, b in intervals]
    for (a, b), root in zip(ends, [3.0, 1.702, 1.701, 1.7]):
        assert a < root <= b and b - a <= 2.0**-40 * b


def _grid_root(i, j):
    """A point j quarters of the grid cell (grid[i], grid[i + 1]] above
    grid[i]: the grid point itself for j = 0."""
    grid = _scan_grid()
    return grid[i] + (grid[i + 1] - grid[i]) * j / 4


# roots for the sign-step properties, each with a multiplicity: dyadic
# points k/8, grid points and points inside a grid cell, and pairs of
# roots inside one cell
_root = st.one_of(
    st.integers(1, 40).map(lambda k: k / 8),
    st.builds(_grid_root, st.integers(0, 9998), st.integers(0, 3)),
)
_roots = st.one_of(
    st.lists(st.tuples(_root, st.integers(1, 3)), min_size=1, max_size=3),
    st.integers(0, 9998).map(lambda i: [(_grid_root(i, 1), 1), (_grid_root(i, 3), 1)]),
)


def _with_roots(roots, extra, scale):
    """scale times the product of (s - r)^k over roots, times a factor with
    no root above 0 (s + 3, s^2 + 1) when extra is 1 or 2."""
    p = [scale]
    for r, k in roots:
        num, den = r.as_integer_ratio()
        for _ in range(k):
            p = algebra.mul(p, [-num, den])
    return algebra.mul(p, [[1], [3, 1], [1, 0, 1]][extra])


def test_sign_steps_isolate_the_counted_intervals():
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        _roots,
        st.integers(0, 2),
        st.sampled_from([-2, 1]),
        st.integers(0, 16).map(lambda k: k / 8),
        st.one_of(st.none(), st.integers(3, 48).map(lambda k: k / 8)),
        st.integers(1, 4),
    )
    def check(roots, extra, scale, lo, hi, count):
        p = _with_roots(roots, extra, scale)
        seq = algebra.sturm(p)
        hi = algebra.root_bound(p) if hi is None or hi <= lo else hi.as_integer_ratio()
        intervals = algebra.isolate(seq, lo, hi, count)
        assert intervals == counted_isolate(seq, lo, hi, count), roots
        for r, k in roots:
            for a, b in intervals:
                if a[0] < r * a[1] and r * b[1] <= b[0]:
                    seen.add("repeated root" if k > 1 else "simple root")
                    seen.add("at a dyadic k/8" if r * 8 == int(r * 8) else "off the k/8")
                    seen.add("at the upper end" if r * b[1] == b[0] else "inside")

    check()
    assert seen == {
        "repeated root", "simple root", "at a dyadic k/8", "off the k/8", "at the upper end",
        "inside",
    }


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
    # the normal form cancels the two 400th powers of TestDefect as equal
    # atoms; the walk expands them, above the cap
    cancelled = "1.0 + s^2 - m/s + (1.0 + m/s)^400 - (1.0 + m/s)^400"
    seen = []
    for tree in _rational_trees():
        form = algebra.rational_form(tree, params)
        if str(tree) == cancelled:
            seen.append(form)
            assert walk_rational_form(tree, params) is None
        else:
            # bit for bit the form of the walk that reduced at every node
            assert form == walk_rational_form(tree, params), str(tree)
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
    assert above_cap == []
    assert seen == [([-5, 2, 0, 2], [0, 2])]
    assert checked > 800


# far from the size cap: 2^-30 and 1e30 have 31 and 100 bits; magnitudes
# much further out can move a form across the cap (see walk_rational_form)
_SWEEP_VALUES = (0.0, -0.0, 1.0, -0.75, 2.5, 1.0 / 3.0, 2.0**-30, 1e-30, 1e30)


@pytest.mark.parametrize(
    "text",
    [
        # rn-ads: at c = 0 the factor s of P and Q cancels
        "1 + s^2 - m/s + c/s^2",
        # the benchmark's custom family: at k = 0 a factor s cancels
        "1 + s^2 - m/s + c/s^2 + k/s^3",
        # divisors that hold a parameter, some vanishing at zero values,
        # and factors shared at some values
        "(s - c)*(s + m)/(s - c)",
        "m*s/(c*s + k) + 1/(s + m)^2",
        "1 + s^2 - m/s + c*(s - k)^2/(s^2 + k^2*s)",
        "(m*s + c)^-2 - (c + m*s)^-2 + k*s",
        "(s^5 + s^3 - m*s^2)/(s^3 + 1)",
        "1 + s^2 - (m + c*s^3/(s^3 + a^3))/s",
        # at c = 0 the divisor c binds to 0, so there is no form; each is
        # refused at the divisor check, before a term is bound
        "k/c",
        "1/(1/c)",
        "k*c^-1",
    ],
)
def test_symbolic_form_matches_the_walk_over_sweeps(text):
    # every binding over the sweep values of the tree's parameters
    tree = parse(text)
    names = sorted(tree.parameters())
    rng = random.Random(text)
    for values in itertools.product(_SWEEP_VALUES, repeat=len(names)):
        params = dict(zip(names, values))
        form = algebra.rational_form(tree, params)
        assert form == walk_rational_form(tree, params), params
        if form is None:
            continue
        num, den = form
        for _ in range(3):
            s = Fraction(rng.randint(-400, 400), rng.randint(1, 64))
            try:
                want = exact_walk(tree, s, params)
            except ZeroDivisionError:
                continue
            assert Fraction(_at(num, s), _at(den, s)) == want, (params, s)


def test_symbolic_form_cancels_shared_factors():
    rn = parse("1 + s^2 - m/s + c/s^2")
    assert algebra.rational_form(rn, {"m": 2.0, "c": 0.0}) == ([-2, 1, 0, 1], [0, 1])
    assert algebra.rational_form(rn, {"m": 2.0, "c": 0.5}) == ([1, -4, 2, 0, 2], [0, 0, 2])
    custom = parse("1 + s^2 - m/s + c/s^2 + k/s^3")
    assert algebra.rational_form(custom, {"m": 2.0, "c": 0.5, "k": 0.0}) == (
        [1, -4, 2, 0, 2], [0, 0, 2]
    )
    # disguised models: equal divisors printed apart, and equal powers
    # beyond _MAX_TERMS that the normal form cancels as one atom
    for text in (
        "1 + s^2 - m/s + 1/(s+1) - 1/(1+s)",
        "1.0 + s^2 - m/s + (1.0 + m/s)^400 - (1.0 + m/s)^400",
    ):
        assert algebra.rational_form(parse(text), {"m": 2.5}) == ads_schwarzschild(2.5).rational
    # unequal divisors that print alike, with constants 10808639105689191
    # and ...193 over 2^55, one float apart, do not cancel
    tree = parse("1 + s^2 - m/s + 1/(s + 0.1 + 0.2) - 1/(s + 0.1 + 0.2 + 5.551115123125783e-17)")
    form = algebra.rational_form(tree, {"m": 2.5})
    assert form is not None
    assert form == walk_rational_form(tree, {"m": 2.5}) != ads_schwarzschild(2.5).rational


def test_symbolic_form_meets_the_cap_where_the_walk_does():
    # the rising-mass family of the theorem oracle leaves the exact path
    # near c = 1e-290 for k = 3; on both sides of that edge, with the
    # substitution's scale divided out, the forms and refusals are the walk's
    rng = random.Random(290)
    refused = set()
    for k in (1, 2, 3):
        tree = parse("1 + s^2 - (m + c*s^%d/(s^%d + a^%d))/s" % (k, k, k))
        for e in range(250, 311, 3):
            params = {"m": rng.uniform(0.5, 5.0), "a": rng.uniform(0.1, 5.0), "c": 10.0**-e}
            form = algebra.rational_form(tree, params)
            assert form == walk_rational_form(tree, params), (k, params)
            refused.add((k, form is None))
    assert refused == {(1, False), (2, False), (3, False), (3, True)}


def test_symbolic_sums_take_the_lcm_of_constant_denominators():
    # s^2, not s * s^2, so no degree is added in vain; the parameters'
    # denominators 2 and 3 meet in their lcm 6, not in their product
    terms, atoms = parse("1 + s^2 - m/s + c/s^2")._normal_form
    assert atoms == {} and atoms.divisors == []
    assert algebra._bind(terms, {"m": (1, 2), "c": (1, 3)}, atoms, {}) == (
        [2, -3, 6, 0, 6], [0, 0, 6]
    )


def test_symbolic_cap_holds_for_every_binding():
    # the normal form keeps the 400th powers as one atom, whose terms
    # cancel, so no binding expands them; the walk built them at m = 0,
    # where the power is 1, and refuses them at m = 2.5
    tree = parse("1.0 + s^2 - m/s + (1.0 + m/s)^400 - (1.0 + m/s)^400")
    assert algebra.rational_form(tree, {"m": 0.0}) == ([1, 0, 1], [1])
    assert walk_rational_form(tree, {"m": 0.0}) == ([1, 0, 1], [1])
    assert algebra.rational_form(tree, {"m": 2.5}) == ([-5, 2, 0, 2], [0, 2])
    assert walk_rational_form(tree, {"m": 2.5}) is None


def test_rational_form_refuses_what_has_no_exact_form():
    assert algebra.rational_form(parse("1 + exp(-s)"), {}) is None
    assert algebra.rational_form(parse("1/(s - s)"), {}) is None
    assert algebra.rational_form(parse("(s - s)/(s - s)"), {}) is None
    assert algebra.rational_form(parse("0*(1/(s - s))"), {}) is None
    assert algebra.rational_form(parse("c*s/(c*s)"), {"c": 0.0}) is None
    assert algebra.rational_form(parse("c*s/(c*s)"), {"c": 2.0}) == ([1], [1])
    assert algebra.rational_form(parse("(1/(c*s))^0"), {"c": 0.0}) is None
    assert algebra.rational_form(parse("((c*s)^-1)^0"), {"c": 0.0}) is None
    assert algebra.rational_form(parse("((c*s)^-1)^0"), {"c": 2.0}) == ([1], [1])
    assert algebra.rational_form(parse("1 + m/s"), {"m": math.inf}) is None
    assert algebra.rational_form(parse("1 + 0*m/s"), {"m": math.inf}) is None
    # the parser refuses inf; a non-finite literal refuses even where its
    # term vanishes
    zero_inf = Add(parse("1 + s^2 - m/s"), Mul(Num(0.0), Num(math.inf)))
    assert algebra.rational_form(zero_inf, {"m": 2.0}) is None
    assert algebra.rational_form(parse("s^90 - s^90 + 1"), {}) == ([1], [1])
    # the defect's normal form refuses this tree with a DecayError
    assert algebra.rational_form(parse("2 + s + 2 + s/(2 + s)"), {}) == ([8, 7, 1], [2, 1])
    # (1 + 2476979795053773 s/2^51)^60 has 3,000-bit coefficients
    assert algebra.rational_form(parse("(s - 1.1)^60"), {}) is None


def _count_normalizations(monkeypatch):
    """The trees whose normal form is built from now on, in order."""
    built = []
    original = Expression._normal_form.func
    counted = cached_property(lambda tree: built.append(tree) or original(tree))
    counted.__set_name__(Expression, "_normal_form")
    monkeypatch.setattr(Expression, "_normal_form", counted)
    return built


def test_rational_form_refuses_a_call_before_building_anything(monkeypatch):
    # the flag is cached on each node; no normal form is built or cached
    built = _count_normalizations(monkeypatch)
    for text in ("1 + s^2 - m*exp(-s)/s", "1 + s^2 - m/s^3*exp(-1/s)", "(s - 1)^9 + log(s)"):
        tree = parse(text)
        assert algebra.rational_form(tree, {"m": 2.0}) is None
        assert "_normal_form" not in tree.__dict__
    assert built == []
    tree = parse("1 + s^2 - m/s + 0*m/s^7")  # parsed by no other test
    assert algebra.rational_form(tree, {"m": 2.0}) == ([-2, 1, 0, 1], [0, 1])
    assert built == [tree]
    assert str(tree.defect()) == "m/s"  # the defect reads the same form
    assert built == [tree]


def test_a_family_builds_one_symbolic_form(monkeypatch):
    # one normalization per tree, shared by every profile and by defect()
    built = _count_normalizations(monkeypatch)
    text = "1 + s^2 - m/s + c/s^2 + k/s^3 + 0*k/s^4"  # parsed by no other test
    profiles = [custom_profile(text, {"m": m, "c": 0.3, "k": 0.1}) for m in (4.0, 5.0, 6.0)]
    assert len({str(p.rational) for p in profiles}) == 3
    assert len({str(p.q) for p in profiles}) == 1
    assert built == [profiles[0].f]
    rn_ads(4.0, 0.5).rational
    before = len(built)
    rn_ads(5.0, -0.5).rational
    assert len(built) == before <= 2


def _benchmark_like_profiles():
    """rn-ads and 1 + s^2 - m/s + c/s^2 + k/s^3 over the parameter ranges
    of the compare-rational benchmark."""
    rng = random.Random(23)
    u = rng.uniform
    custom = "1 + s^2 - m/s + c/s^2 + k/s^3"
    for _ in range(10):
        yield rn_ads(u(3.0, 6.0), u(0.1, 1.0))
        yield rn_ads(u(3.0, 6.0), u(-1.0, -0.1))
        yield custom_profile(custom, {"m": u(4.0, 8.0), "c": u(0.1, 0.5), "k": u(0.02, 0.2)})
        yield custom_profile(custom, {"m": u(3.0, 6.0), "c": u(0.05, 0.2), "k": u(-1.0, -0.5)})


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
