"""Exact integer polynomials for rational profiles: f = P/Q and Sturm counts.

A profile tree without exp/log/sqrt is a rational function of ``s`` once
its parameters are bound.  ``rational_form`` binds every literal and
parameter to the exact rational of its float (``float.as_integer_ratio``)
and returns f = P/Q as integer polynomials with gcd(P, Q) cancelled.
P/Q is built once per tree with the parameters symbolic, and cached on
the tree; each profile substitutes its values and reduces once.  The
rest of the module answers sign questions about such polynomials
exactly:

* gcds by primitive pseudo-remainders, except that a gcd with a
  monomial c s^k is the power of s the other operand holds, up to s^k,
  read off without a remainder (every denominator of a
  Laurent-polynomial profile is such a monomial);
* the product of the odd-multiplicity factors (Yun's algorithm, after the
  power of s is split off), so counting roots counts sign changes; that
  of s^j (a + b s), the curvature numerator of 1 + s^2 - m/s + c/s^2 +
  k/s^3, is read off without a gcd;
* Sturm sequences of square-free parts by primitive pseudo-remainders,
  whose multipliers are kept positive so every remainder has the sign of
  the true one.  One remainder sequence per chain: the chain of p is
  built first, and when it ends in a nonzero constant p is square-free
  and the chain is the answer; only otherwise is p divided by gcd(p, p'),
  the chain's last nonzero entry, and a second chain built.  The chain
  of a monomial c s^k, k >= 2, is that of sgn(c) s and is read off;
* sign variations at a point, which is a float, an exact dyadic pair
  ``(num, den)`` with den a power of two, or ``None`` for +infinity.  A
  polynomial of degree n is evaluated there as den^n * p(num/den) by
  integer Horner steps, so the sign is exact; the powers of den are
  shifts, and so are the alignments of two points' numerators in
  midpoints and widths.  ``variations(seq, a) - variations(seq, b)`` is the
  number of distinct roots in (a, b] (Sturm's theorem in the form of
  Basu, Pollack and Roy, *Algorithms in Real Algebraic Geometry*, 2.50);
* bisection of a bracket that holds one root by the sign of the
  square-free ``seq[0]`` alone (``root_above``, ``narrow``): once counts
  have bracketed one root, one polynomial is evaluated per step instead
  of the whole chain.

A polynomial is a list of ``int`` coefficients, constant term first,
without trailing zeros; the zero polynomial is the empty list.  Only
``int`` arithmetic is used.  The symbolic P/Q is built once per tree;
the other routines run a few times per profile, never per evaluation.
"""

from __future__ import annotations

import math

from .expressions import Add, Div, Mul, Neg, Num, Param, Pow, Sub, Var

__all__ = [
    "rational_form",
    "mul",
    "sub",
    "derivative",
    "odd_part",
    "sturm",
    "variations",
    "value",
    "isolate",
    "narrow",
    "sign",
    "root_above",
    "root_bound",
    "midpoint",
    "small",
    "MAX_SIZE",
]

# The cost of a gcd or a Sturm sequence grows about like (deg + 1)^2 times
# the coefficient bit length; at this size the gcd, the Sturm sequence and
# the odd part of one polynomial take about 0.1 s together.  Larger forms
# are not built, and the tree is treated like one with exp/log/sqrt.
MAX_SIZE = 50_000


class _NotRational(Exception):
    """Internal: the tree has no exact P/Q form (see rational_form)."""


def _trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _neg(a):
    return [-c for c in a]


def sub(a, b):
    """a - b."""
    return _add(a, _neg(b))


def mul(a, b):
    """a * b."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def derivative(a):
    """d/ds of a."""
    return [i * c for i, c in enumerate(a)][1:]


def small(p):
    """True when (deg p + 1)^2 times p's largest coefficient bit length is
    at most MAX_SIZE.  Bit length grows with |c|, so it is taken once, of
    the largest |c|."""
    return len(p) ** 2 * max(map(abs, p)).bit_length() <= MAX_SIZE if p else True


def _primitive(a):
    g = math.gcd(*a)
    return [c // g for c in a] if g > 1 else a


def _prem(a, b):
    """A positive multiple of the remainder of a by b, b nonzero."""
    a = list(a)
    n = len(b)
    scale = abs(b[-1])
    sign = 1 if b[-1] > 0 else -1
    while len(a) >= n:
        c = a[-1] * sign
        k = len(a) - n
        a = [scale * x for x in a]
        for i, y in enumerate(b):
            a[k + i] -= c * y
        _trim(a)
    return a


def _gcd(a, b):
    """Primitive gcd with a positive leading coefficient; [] when both are 0.

    When one operand is a monomial c s^k, the gcd is s^j for the least j
    of k and the order of s in the other; no remainder is taken."""
    for x, y in ((a, b), (b, a)):
        if x and not any(x[:-1]):
            j = next((i for i, c in enumerate(y) if c), len(x) - 1)
            return [0] * min(j, len(x) - 1) + [1]
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_prem(a, b))
    return _neg(a) if a and a[-1] < 0 else a


def _exquo(a, b):
    """a / b for a primitive b that divides a; the quotient is integral."""
    a = list(a)
    n = len(b)
    q = [0] * (len(a) - n + 1)
    for k in range(len(a) - n, -1, -1):
        c = a[k + n - 1] // b[-1]
        q[k] = c
        if c:
            for i, y in enumerate(b):
                a[k + i] -= c * y
    return q


def odd_part(p):
    """Product of the square-free factors of p of odd multiplicity, with a
    positive leading coefficient; its roots are where p changes sign."""
    # p = s^j r with r(0) != 0: the factor s, of multiplicity j, is split
    # off, and Yun's algorithm runs on r
    j = next((i for i, c in enumerate(p) if c), 0)
    out = [0] * (j % 2) + [1]
    p = _primitive(p[j:])
    if len(p) <= 1:
        return out
    if len(p) == 2:  # a linear r is square-free, and Yun's gcds return it
        return out[:-1] + (p if p[-1] > 0 else _neg(p))
    dp = derivative(p)
    a = _gcd(p, dp)
    b, c = _exquo(p, a), _exquo(dp, a)
    odd = True
    while len(b) > 1:
        d = sub(c, derivative(b))
        a = _gcd(b, d)  # the factor of the current multiplicity
        if odd:
            out = mul(out, a)
        b, c = _exquo(b, a), _exquo(d, a)
        odd = not odd
    return _primitive(out)


def _chain(p):
    """p, p' and the negated primitive pseudo-remainders down to a
    constant or zero."""
    seq = [p]
    if len(p) > 1:
        seq.append(_primitive(derivative(p)))
        while len(seq[-1]) > 1:
            seq.append(_primitive(_neg(_prem(seq[-2], seq[-1]))))
    return seq


def sturm(p):
    """Sturm sequence of the square-free part of a nonzero p.

    The chain of p is built first.  It ends in a nonzero constant exactly
    when gcd(p, p') = 1, and is then the answer.  Otherwise it ends in
    zero, its last nonzero entry is gcd(p, p') up to sign, and the chain
    is built again from p over that gcd.  For a monomial c s^k, k >= 2,
    that gcd is s^(k-1), so the answer is read off: the chain of the sign
    of c times s.
    """
    if len(p) <= 2:
        return _chain(p)
    if not any(p[:-1]):
        return [[0, 1], [1]] if p[-1] > 0 else [[0, -1], [-1]]
    seq = _chain(_primitive(p))
    if seq[-1]:
        return seq
    g = seq[-2] if seq[-2][-1] > 0 else _neg(seq[-2])
    return _chain(_exquo(seq[0], g))


def _point(x):
    return x.as_integer_ratio() if isinstance(x, float) else x


def value(p, x):
    """den^deg(p) * p(num/den) at the point x = num/den, an exact int; den
    must be a power of two, so the Horner steps multiply by it by shifts."""
    num, den = _point(x)
    step = den.bit_length() - 1
    acc = shift = 0
    for c in reversed(p):
        acc = acc * num + (c << shift)
        shift += step
    return acc


def variations(seq, x):
    """Sign changes along ``seq`` at x; x is a float, a pair (num, den)
    with den a power of two, or None for +infinity.  Zeros are skipped."""
    count = 0
    last = 0
    if x is not None:
        x = _point(x)
    for p in seq:
        v = p[-1] if x is None else value(p, x)
        if v:
            if (v > 0) != (last > 0) and last:
                count += 1
            last = v
    return count


def _aligned(a, b):
    """The numerators of the dyadic points a and b over the larger of their
    denominators, and that denominator."""
    (na, da), (nb, db) = a, b
    shift = db.bit_length() - da.bit_length()
    return (na << shift, nb, db) if shift > 0 else (na, nb << -shift, da)


def midpoint(a, b):
    """Exact midpoint of two dyadic points (num, den), den a power of two."""
    na, nb, d = _aligned(a, b)
    return na + nb, d << 1


def root_bound(p):
    """An integer point (num, 1) above every real root of p (Cauchy)."""
    return 2 + max(map(abs, p[:-1]), default=0) // abs(p[-1]), 1


def sign(p, x):
    """The sign of p at the point x (see ``variations``): -1, 0 or 1."""
    v = value(p, x)
    return (v > 0) - (v < 0)


def root_above(at_x, at_b):
    """Whether the one root r of a square-free p in (a, b] lies above x,
    for a < x < b, from the signs of p at x and at b.  p has one sign on
    (r, b] and the other on (a, r), so r > x exactly when p(x) is nonzero
    and not the sign at b, which is 0 when r = b.  Once a bracket holds
    one root, this one evaluation of p decides what a Sturm count of the
    whole chain would."""
    return at_x != 0 and at_x != at_b


def narrow(p, a, b, done):
    """Bisect the dyadic (a, b], which holds exactly one root of the
    square-free p, at midpoints by the sign of p (``root_above``) until
    ``done(a, b)``; the intervals are those Sturm counts give."""
    at_b = sign(p, b)
    while not done(a, b):
        m = midpoint(a, b)
        at_m = sign(p, m)
        if root_above(at_m, at_b):
            a = m
        else:
            b, at_b = m, at_m
    return a, b


def _isolated(a, b):
    """b - a <= 2^-40 b for dyadic points 0 <= a < b."""
    na, nb, _ = _aligned(a, b)
    return (nb - na) << 40 <= abs(nb)


def isolate(seq, lo, hi, count):
    """Isolating intervals (a, b] of the ``count`` outermost roots of
    ``seq[0]`` in (lo, hi], 0 <= lo, outermost first, as dyadic pairs.
    Each holds exactly one root and is narrowed by bisection to
    b - a <= 2^-40 b: by Sturm counts while an interval holds more than
    one root, and by the sign of ``seq[0]`` from the first that holds
    one."""
    out = []
    lo, hi = _point(lo), _point(hi)
    stack = [(lo, variations(seq, lo), hi, variations(seq, hi))]
    while stack and len(out) < count:
        a, va, b, vb = stack.pop()
        if va - vb == 1:
            out.append(narrow(seq[0], a, b, _isolated))
        elif va != vb:
            m = midpoint(a, b)
            vm = variations(seq, m)
            stack.append((a, va, m, vm))
            stack.append((m, vm, b, vb))  # the upper half is searched first
    return out


# ---------------------------------------------------------------------------
# f = P/Q from a tree
#
# The form of a tree is built once, with its parameters symbolic
# (``_symbolic``, cached on the tree as ``Expression._symbolic_form``), in
# family polynomials: a dict that maps a tuple of exponents, one per
# parameter of the tree in sorted order, to the integer polynomial in s
# that multiplies that monomial of the parameters; the zero polynomial is
# {}.  A profile substitutes its parameters' values into it.


def rational_form(expr, params):
    """f = P/Q as integer polynomials, or None when there is none.

    Literals and parameters enter as the exact rationals of their floats.
    gcd(P, Q) is cancelled, the integer contents are coprime and Q has a
    positive leading coefficient, so the form depends on the rational
    function alone.  The tree's symbolic form is built on the first call
    and cached on the tree; each call substitutes the parameters' values
    into it and reduces P/Q once.  None is returned for a tree with
    exp/log/sqrt, a non-finite literal or parameter, a division by the
    zero polynomial, or a form that is not ``small``: a polynomial of the
    symbolic build, or P or Q after substitution, with their common
    content divided out but before gcd(P, Q) is cancelled.  A tree with
    exp/log/sqrt is refused at once, from a flag cached on the tree, and
    builds nothing.
    """
    if expr._has_call:
        return None
    form = expr._symbolic_form
    if form is None:
        return None
    names, num, den, divisors = form
    values = []
    for name in names:
        x = float(params[name])
        if not math.isfinite(x):
            return None
        values.append(x.as_integer_ratio())
    if not all(_substitute((d,), values)[0] for d in divisors):
        return None
    p, q = _substitute((num, den), values)
    if _free(num) and _free(den):
        return p, q  # reduced by the build
    # the content P and Q share, the substitution's scale among it, goes
    # before the size cap applies
    c = math.gcd(*p, *q)
    try:
        return _reduce([x // c for x in p], [x // c for x in q])
    except _NotRational:
        return None


def _reduce(p, q):
    if not (q and small(p) and small(q)):
        raise _NotRational
    if not p:
        return [], [1]
    g = _gcd(p, q)
    if len(g) > 1:
        p, q = _exquo(p, g), _exquo(q, g)
    c = math.gcd(math.gcd(*p), math.gcd(*q))
    if q[-1] < 0:
        c = -c
    if c != 1:
        p, q = [x // c for x in p], [x // c for x in q]
    return p, q


def _exact(x):
    x = float(x)
    if not math.isfinite(x):
        raise _NotRational
    n, d = x.as_integer_ratio()
    return ([n] if n else []), [d]


def _free(a):
    """True when the family polynomial a holds no parameter."""
    return not any(map(any, a))


def _fadd(a, b):
    out = dict(a)
    for key, p in b.items():
        p = _add(out.get(key, []), p)
        if p:
            out[key] = p
        else:
            del out[key]
    return out


def _fneg(a):
    return {key: _neg(p) for key, p in a.items()}


def _fmul(a, b):
    out = {}
    for ka, pa in a.items():
        for kb, pb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            out[key] = _add(out.get(key, []), mul(pa, pb))
    return {key: p for key, p in out.items() if p}


def _fsmall(a):
    return all(map(small, a.values()))


def _substitute(forms, values):
    """The integer polynomials of the family polynomials ``forms`` with
    each parameter bound to its value (num, den), all times the one
    positive factor den^t per parameter, t its highest exponent there."""
    top = [max(column) for column in zip(*(key for form in forms for key in form))]
    out = []
    for form in forms:
        acc = [0] * max(map(len, form.values()), default=0)
        for key, p in form.items():
            c = 1
            for (n, d), e, t in zip(values, key, top):
                c *= n**e * d ** (t - e)
            for i, x in enumerate(p):
                acc[i] += c * x
        out.append(_trim(acc))
    return out


def _symbolic(expr):
    """``(names, P, Q, divisors)`` of a tree without exp/log/sqrt, or None
    when no binding of its parameters gives a form.

    names are the tree's parameters, sorted.  P, Q and the divisors are
    family polynomials in them, and f = P/Q at every binding where no
    divisor vanishes: the divisors are the numerators of the right
    operands of / and of the bases of negative powers that hold a
    parameter.  An operation whose P and Q hold no parameter is reduced as
    ``rational_form`` reduces its result, and refused where it divides by
    zero; the others are not reduced, and sum over the lcm of their
    denominators when neither holds a parameter, over their product
    otherwise.  None also for a non-finite literal, and where a polynomial
    built, at any operation and any step of a power, is not ``small``.
    """
    names = sorted(expr.parameters())
    zero = (0,) * len(names)
    one = {zero: [1]}
    divisors = []

    def const(p):
        return {zero: p} if p else {}

    def walk(e):
        if isinstance(e, Num):
            p, q = _exact(e.value)
            return const(p), const(q)
        if isinstance(e, Var):
            return const([0, 1]), one
        if isinstance(e, Param):
            key = [0] * len(names)
            key[names.index(e.name)] = 1
            return {tuple(key): [1]}, one
        if isinstance(e, Neg):
            p, q = walk(e.arg)
            return _fneg(p), q
        if isinstance(e, Pow):
            p, q = walk(e.base)
            n = e.exponent
            if n < 0:
                p, q, n = q, p, -n
                if not _free(q):
                    divisors.append(q)
            if not q:
                raise _NotRational
            pn, qn = one, one
            for _ in range(n):
                pn, qn = _fmul(pn, p), _fmul(qn, q)
                if not (_fsmall(pn) and _fsmall(qn)):
                    raise _NotRational
            # powers of coprime polynomials and contents stay coprime
            if _free(qn) and qn[zero][-1] < 0:
                return _fneg(pn), _fneg(qn)
            return pn, qn
        if isinstance(e, (Add, Sub, Mul, Div)):
            p1, q1 = walk(e.left)
            p2, q2 = walk(e.right)
            if isinstance(e, Mul):
                p, q = _fmul(p1, p2), _fmul(q1, q2)
            elif isinstance(e, Div):
                if not _free(p2):
                    divisors.append(p2)
                p, q = _fmul(p1, q2), _fmul(q1, p2)
            else:
                if isinstance(e, Sub):
                    p2 = _fneg(p2)
                r1, r2 = q1, q2
                if _free(q1) and _free(q2):
                    # over the lcm of the denominators, so no degree is added in vain
                    g = _gcd(q1[zero], q2[zero])
                    r1, r2 = const(_exquo(q1[zero], g)), const(_exquo(q2[zero], g))
                p, q = _fadd(_fmul(p1, r2), _fmul(p2, r1)), _fmul(q1, r2)
            if _free(p) and _free(q):
                p, q = _reduce(p.get(zero, []), q.get(zero, []))
                return const(p), const(q)
            if not (q and _fsmall(p) and _fsmall(q)):
                raise _NotRational
            return p, q
        raise _NotRational  # exp, log or sqrt, which rational_form refuses first

    try:
        num, den = walk(expr)
    except _NotRational:
        return None
    return names, num, den, divisors
