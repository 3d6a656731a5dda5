"""Shared independent oracles for the test suite.

Everything here is deliberately dumb: plain bisection, composite
Simpson, central differences, one closed-form antiderivative, and a
recursive expression walk.  The
point is that none of it shares code (or failure modes) with the
library's adaptive machinery.
"""

import math

from renvol.errors import DomainError, EvaluationError
from renvol.expressions import Add, Call, Div, Mul, Neg, Num, Param, Pow, Sub, Var


def bisect60(fn, lo, hi):
    """60 rounds of bisection; assumes a sign change on [lo, hi]."""
    flo = fn(lo)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if fmid == 0.0:
            return mid
        if (flo < 0.0) == (fmid < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def simpson_composite(fn, a, b, panels):
    """Composite Simpson with `panels` even subdivisions."""
    if panels % 2:
        panels += 1
    h = (b - a) / panels
    total = fn(a) + fn(b)
    for i in range(1, panels):
        total += fn(a + i * h) * (4.0 if i % 2 else 2.0)
    return total * h / 3.0


def fd_derivative(fn, x, h=None):
    if h is None:
        h = 1e-6 * max(1.0, abs(x))
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def hyperbolic_ball_volume(s):
    """Closed form of the integral of 4*pi*t^2/sqrt(1+t^2) from 0 to s."""
    return 4.0 * math.pi * (0.5 * s * math.sqrt(1.0 + s * s) - 0.5 * math.asinh(s))


def walk_evaluate(expr, s, params=None):
    """Evaluate an expression tree by plain recursion, left before right.

    The reference for the compiled float evaluation: same operation
    order, same errors, parameters read from ``params`` at each use.
    """
    params = {} if params is None else params

    def walk(e):
        if isinstance(e, Num):
            return e.value
        if isinstance(e, Var):
            return s
        if isinstance(e, Param):
            try:
                return float(params[e.name])
            except KeyError:
                raise EvaluationError("unbound parameter '%s'" % e.name) from None
        if isinstance(e, Neg):
            return -walk(e.arg)
        if isinstance(e, Add):
            return walk(e.left) + walk(e.right)
        if isinstance(e, Sub):
            return walk(e.left) - walk(e.right)
        if isinstance(e, Mul):
            return walk(e.left) * walk(e.right)
        if isinstance(e, Div):
            num = walk(e.left)
            den = walk(e.right)
            if den == 0.0:
                raise DomainError("division by zero in '%s'" % e)
            return num / den
        if isinstance(e, Pow):
            b = walk(e.base)
            # binary exponentiation, multiplied out in the same order
            result = 1.0
            acc = b
            k = abs(e.exponent)
            while k:
                if k & 1:
                    result = result * acc
                k >>= 1
                if k:
                    acc = acc * acc
            if e.exponent >= 0:
                return result
            # a zero base, or a positive power that underflows to zero
            if result == 0.0:
                raise DomainError("zero raised to negative power in '%s'" % e)
            return 1.0 / result
        if isinstance(e, Call):
            x = walk(e.arg)
            fn = {"exp": math.exp, "log": math.log}.get(e.func, math.sqrt)
            try:
                return fn(x)
            except (ValueError, OverflowError):
                raise DomainError(
                    "%s of out-of-range value %r in '%s'" % (e.func, x, e)
                ) from None
        raise TypeError("unknown node %r" % (e,))

    return walk(expr)
