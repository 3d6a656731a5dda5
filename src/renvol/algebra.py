"""Exact integer polynomials for rational profiles: f = P/Q and Sturm counts.

A profile tree without exp/log/sqrt is a rational function of ``s`` once
its parameters are bound.  ``rational_form`` binds every literal and
parameter to the exact rational of its float (``float.as_integer_ratio``)
and returns f = P/Q as integer polynomials with gcd(P, Q) cancelled.  The
rest of the module answers sign questions about such polynomials
exactly:

* gcds by primitive pseudo-remainders, except that a gcd with a
  monomial c s^k is the power of s the other operand holds, up to s^k,
  read off without a remainder (every denominator of a
  Laurent-polynomial profile is such a monomial);
* the product of the odd-multiplicity factors (Yun's algorithm, after the
  power of s is split off), so counting roots counts sign changes;
* Sturm sequences of square-free parts by primitive pseudo-remainders,
  whose multipliers are kept positive so every remainder has the sign of
  the true one.  One remainder sequence per chain: the chain of p is
  built first, and when it ends in a nonzero constant p is square-free
  and the chain is the answer; only otherwise is p divided by gcd(p, p'),
  the chain's last nonzero entry, and a second chain built;
* sign variations at a point, which is a float, an exact dyadic pair
  ``(num, den)`` or ``None`` for +infinity.  A polynomial of degree n is
  evaluated there as den^n * p(num/den) by integer Horner steps, so the
  sign is exact.  ``variations(seq, a) - variations(seq, b)`` is the
  number of distinct roots in (a, b] (Sturm's theorem in the form of
  Basu, Pollack and Roy, *Algorithms in Real Algebraic Geometry*, 2.50).

A polynomial is a list of ``int`` coefficients, constant term first,
without trailing zeros; the zero polynomial is the empty list.  Only
``int`` arithmetic is used, and each routine runs once per profile,
never per evaluation.
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
    at most MAX_SIZE."""
    return len(p) ** 2 * max(abs(c).bit_length() for c in p) <= MAX_SIZE if p else True


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
    is built again from p over that gcd.
    """
    if len(p) <= 2:
        return _chain(p)
    seq = _chain(_primitive(p))
    if seq[-1]:
        return seq
    g = seq[-2] if seq[-2][-1] > 0 else _neg(seq[-2])
    return _chain(_exquo(seq[0], g))


def _point(x):
    return x.as_integer_ratio() if isinstance(x, float) else x


def value(p, x):
    """den^deg(p) * p(num/den) at the point x = num/den, an exact int."""
    num, den = _point(x)
    acc = 0
    power = 1
    for c in reversed(p):
        acc = acc * num + c * power
        power *= den
    return acc


def variations(seq, x):
    """Sign changes along ``seq`` at x; x is a float, a pair (num, den)
    with den > 0, or None for +infinity.  Zeros are skipped."""
    count = 0
    last = 0
    for p in seq:
        v = p[-1] if x is None else value(p, x)
        if v:
            if (v > 0) != (last > 0) and last:
                count += 1
            last = v
    return count


def midpoint(a, b):
    """Exact midpoint of two dyadic points (num, den), den a power of two."""
    (na, da), (nb, db) = _point(a), _point(b)
    d = max(da, db)
    return na * (d // da) + nb * (d // db), 2 * d


def root_bound(p):
    """An integer point (num, 1) above every real root of p (Cauchy)."""
    return 2 + max(map(abs, p[:-1]), default=0) // abs(p[-1]), 1


def isolate(seq, lo, hi, count):
    """Isolating intervals (a, b] of the ``count`` outermost roots of
    ``seq[0]`` in (lo, hi], 0 <= lo, outermost first, as dyadic pairs.
    Each holds exactly one root and is narrowed by bisection to
    b - a <= 2^-40 b."""
    out = []
    lo, hi = _point(lo), _point(hi)
    stack = [(lo, variations(seq, lo), hi, variations(seq, hi))]
    while stack and len(out) < count:
        a, va, b, vb = stack.pop()
        if va == vb:
            continue
        (na, da), (nb, db) = a, b
        d = max(da, db)
        width = nb * (d // db) - na * (d // da)
        if va - vb == 1 and width << 40 <= abs(nb * (d // db)):
            out.append((a, b))
            continue
        m = midpoint(a, b)
        vm = variations(seq, m)
        stack.append((a, va, m, vm))
        stack.append((m, vm, b, vb))  # the upper half is searched first
    return out


# ---------------------------------------------------------------------------
# f = P/Q from a tree


def rational_form(expr, params):
    """f = P/Q as integer polynomials, or None when there is none.

    Literals and parameters enter as the exact rationals of their floats.
    gcd(P, Q) is cancelled, the integer contents are coprime and Q has a
    positive leading coefficient.  None is returned for a tree with
    exp/log/sqrt, a non-finite literal or parameter, a division by the
    zero polynomial, or a form that is not ``small``.  A tree with
    exp/log/sqrt is refused at once, from a flag cached on the tree.
    """
    if expr._has_call:
        return None
    try:
        return _rational(expr, params)
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


def _rational(e, params):
    if isinstance(e, Num):
        return _exact(e.value)
    if isinstance(e, Var):
        return [0, 1], [1]
    if isinstance(e, Param):
        return _exact(params[e.name])
    if isinstance(e, Neg):
        p, q = _rational(e.arg, params)
        return _neg(p), q
    if isinstance(e, Pow):
        p, q = _rational(e.base, params)
        n = e.exponent
        if n < 0:
            p, q, n = q, p, -n
        if not q:
            raise _NotRational
        pn, qn = [1], [1]
        for _ in range(n):
            pn, qn = mul(pn, p), mul(qn, q)
            if not (small(pn) and small(qn)):
                raise _NotRational
        # powers of coprime polynomials and contents stay coprime
        return (_neg(pn), _neg(qn)) if qn[-1] < 0 else (pn, qn)
    if isinstance(e, (Add, Sub, Mul, Div)):
        p1, q1 = _rational(e.left, params)
        p2, q2 = _rational(e.right, params)
        if isinstance(e, Mul):
            return _reduce(mul(p1, p2), mul(q1, q2))
        if isinstance(e, Div):
            return _reduce(mul(p1, q2), mul(q1, p2))
        if isinstance(e, Sub):
            p2 = _neg(p2)
        # over the lcm of the denominators, so no degree is added in vain
        g = _gcd(q1, q2)
        r1, r2 = _exquo(q1, g), _exquo(q2, g)
        return _reduce(_add(mul(p1, r2), mul(p2, r1)), mul(q1, r2))
    raise _NotRational  # exp, log or sqrt, which rational_form refuses first
