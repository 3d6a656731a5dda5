"""Exact integer polynomials for rational profiles: f = P/Q and Sturm counts.

A profile tree without exp/log/sqrt is a rational function of ``s`` once
its parameters are bound.  ``rational_form`` binds every literal and
parameter to the exact rational of its float (``float.as_integer_ratio``)
and returns f = P/Q as integer polynomials with gcd(P, Q) cancelled.
P/Q is read from the tree's normal form, the one its defect comes from,
built once and cached on the tree; each profile binds its values into
it and reduces once.  The rest of the module answers sign questions
about such polynomials exactly:

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
  square-free ``seq[0]`` alone (``narrow``): once counts have bracketed
  one root, one polynomial is evaluated per step instead of the chain;
* a bound of p' on an interval (``monotone``), which proves p to have at
  most one root there without a chain.

A polynomial is a list of ``int`` coefficients, constant term first,
without trailing zeros; the zero polynomial is the empty list.  Only
``int`` arithmetic is used.  Every routine runs a few times per
profile, never per evaluation.
"""

from __future__ import annotations

import math

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
    "monotone",
    "narrow",
    "sign",
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


def monotone(p, a, b):
    """Whether p' has one strict sign on [a, b], for floats 0 <= a <= b.
    Split into its terms of either sign, p' = pos - neg with both parts
    nondecreasing on [0, inf), so pos(a) - neg(b) <= p' <= pos(b) - neg(a)
    on [a, b]; the four values are exact (see ``value``), in one pass."""
    na, nb, d = _aligned(_point(a), _point(b))
    step, shift = d.bit_length() - 1, 0
    pos_a = pos_b = neg_a = neg_b = 0
    for i in range(len(p) - 1, 0, -1):
        c = i * p[i] << shift
        shift += step
        up, down = (c, 0) if c > 0 else (0, -c)
        pos_a, pos_b = pos_a * na + up, pos_b * nb + up
        neg_a, neg_b = neg_a * na + down, neg_b * nb + down
    return pos_a > neg_b or neg_a > pos_b


def narrow(p, a, b, done):
    """Bisect the dyadic (a, b], which holds exactly one root r of the
    square-free p, at midpoints m until ``done(a, b)``; the intervals are
    those Sturm counts give.  p has one sign on (r, b] and the other on
    (a, r), so r > m exactly when p(m) is nonzero and not the sign at b,
    which is 0 when r = b: one evaluation of p decides what a Sturm count
    of the whole chain would."""
    at_b = sign(p, b)
    while not done(a, b):
        m = midpoint(a, b)
        at_m = sign(p, m)
        if at_m != 0 and at_m != at_b:
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
# f = P/Q from a tree's normal form (``Expression._normal_form``), the one
# ``defect()`` reads; see ``expressions._padd`` for its representation


def rational_form(expr, params):
    """f = P/Q as integer polynomials, or None when there is none.

    Literals and parameters enter as the exact rationals of their floats.
    gcd(P, Q) is cancelled, the integer contents are coprime and Q has a
    positive leading coefficient, so the form depends on the rational
    function alone.  Each call binds the parameters' values into the
    tree's normal form, built on the first call and cached on the tree,
    and reduces P/Q once.  None is returned for a tree with exp/log/sqrt,
    a non-finite literal or parameter, a divisor that binds to the zero
    polynomial, or a form that is not ``small``: a step of an atom's
    power, a partial sum with its common content divided out, or P or Q
    before gcd(P, Q) is cancelled.  A tree with exp/log/sqrt is refused
    at once, from a flag cached on the tree, and builds nothing.
    """
    if expr._has_call:
        return None
    terms, atoms = expr._normal_form
    if any(inner is None for _, _, inner in atoms.values()):
        return None  # a non-finite literal, even in a term that vanished
    values = {}
    for name in expr.parameters():
        x = float(params[name])
        if not math.isfinite(x):
            return None
        values[name] = x.as_integer_ratio()
    bound = {}
    try:
        if not all(_bind(d, values, atoms, bound)[0] for d in atoms.divisors):
            return None
        return _reduce(*_bind(terms, values, atoms, bound))
    except _NotRational:
        return None


def _bind(terms, values, atoms, bound):
    """P/Q of the normal form ``terms`` with each parameter bound to its
    ``values`` entry (num, den).  The terms are grouped by their atoms;
    each group is a Laurent polynomial in s, scaled to integers by the lcm
    of its denominators, times the atoms' powers, and the groups are
    summed (``_sum``).  An atom's inner form is bound once, into
    ``bound`` by name."""
    groups = {}
    for key, c in terms.items():
        num, den, k, i = c.numerator, c.denominator, 0, 0
        for rank, name, e in key:
            if rank:
                if rank == 2:
                    break
                k = e
            else:
                n, d = values[name]
                if e < 0:
                    n, d, e = d, n, -e
                num, den = num * n**e, den * d**e
            i += 1
        if num:
            if den < 0:
                num, den = -num, -den
            groups.setdefault(key[i:], []).append((k, num, den))
    p = q = None
    for group_atoms, group in groups.items():
        lcm = math.lcm(*[den for _, _, den in group])
        ks = [k for k, _, _ in group]
        low = min(ks)
        a = [0] * (max(ks) - low + 1)
        for k, num, den in group:
            a[k - low] += num * (lcm // den)
        if not _trim(a):
            continue
        a, b = [0] * max(low, 0) + a, [0] * max(-low, 0) + [lcm]
        for _, name, e in group_atoms:
            if name not in bound:
                bound[name] = _bind(atoms[name][2], values, atoms, bound)
            pa, qa = _power(*bound[name], e)
            a, b = mul(a, pa), mul(b, qa)
        p, q = (a, b) if p is None else _sum(p, q, a, b)
    return ([], [1]) if p is None else (p, q)


def _power(p, q, n):
    """(p/q)^n for n != 0, refused unless each step is ``small``."""
    if n < 0:
        p, q, n = q, p, -n
    if not q:
        raise _NotRational
    pn, qn = p, q
    for _ in range(n - 1):
        pn, qn = mul(pn, p), mul(qn, q)
        if not (small(pn) and small(qn)):
            raise _NotRational
    return pn, qn


def _content_out(p, q):
    """p and q over their common content, taken with the sign of q's
    leading coefficient."""
    c = math.gcd(*p, *q)
    if q[-1] < 0:
        c = -c
    return (p, q) if c == 1 else ([x // c for x in p], [x // c for x in q])


def _sum(p1, q1, p2, q2):
    """p1/q1 + p2/q2 over q1 q2 / gcd(q1, q2), with the content common to
    numerator and denominator divided out; refused unless both are
    ``small``."""
    g = _gcd(q1, q2)
    r1, r2 = (_exquo(q1, g), _exquo(q2, g)) if len(g) > 1 else (q1, q2)
    p, q = _content_out(_add(mul(p1, r2), mul(p2, r1)), mul(q1, r2))
    if not (small(p) and small(q)):
        raise _NotRational
    return p, q


def _reduce(p, q):
    """p/q in lowest terms, q's leading coefficient positive; refused
    where q is zero, and unless p and q are ``small`` once their common
    content is out.  The content stays 1 and the sign positive when
    gcd(p, q), primitive with a positive leading coefficient, is divided
    out (Gauss's lemma)."""
    if not q:
        raise _NotRational
    p, q = _content_out(p, q)
    if not (small(p) and small(q)):
        raise _NotRational
    if not p:
        return [], [1]
    g = _gcd(p, q)
    return (_exquo(p, g), _exquo(q, g)) if len(g) > 1 else (p, q)
