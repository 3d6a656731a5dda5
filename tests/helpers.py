"""Shared independent oracles for the test suite.

Everything here is deliberately dumb: plain bisection, composite
Simpson, central differences, one closed-form antiderivative, a
recursive expression walk and a forward horizon scan.  The
point is that none of it shares code (or failure modes) with the
library's adaptive machinery.
"""

import math

from renvol.errors import DecayError, DomainError, EvaluationError
from renvol.expressions import Add, Call, Div, Mul, Neg, Num, Param, Pow, Sub, Var
from renvol.metric import _SCAN_HI, _SCAN_LO, _SCAN_POINTS, Horizon
from renvol.quadrature import find_root_bracketed


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


def forward_scan_horizon(p):
    """The horizon search as a forward scan over the whole grid.

    The reference for ``RadialProfile.horizon``: it evaluates f at every
    point of the geometric grid on (1e-6, 1e3], from the inside out, keeps
    the last sign change or exact zero, and refines it with the same call.
    """
    ratio = (_SCAN_HI / _SCAN_LO) ** (1.0 / (_SCAN_POINTS - 1))
    fn = p.value
    prev_s = None
    prev_f = None
    bracket = None
    exact_hit = None
    s = _SCAN_LO
    last_f = None
    for i in range(_SCAN_POINTS):
        try:
            fs = fn(s)
        except DomainError:
            prev_s = None
            prev_f = None
            s *= ratio
            continue
        last_f = fs
        if fs == 0.0:
            exact_hit = s
            bracket = None
        elif prev_f is not None and (prev_f > 0.0) != (fs > 0.0):
            bracket = (prev_s, s, prev_f, fs)
            exact_hit = None
        prev_s = s
        prev_f = fs
        s *= ratio
    if last_f is not None and last_f < 0.0:
        raise DecayError(
            "profile %r is negative at the outer scan edge; no enclosing "
            "region exists" % p.label
        )
    if bracket is not None:
        lo, hi, f_lo, f_hi = bracket
        root = find_root_bracketed(
            fn, lo, hi, tol=1e-14 * max(1.0, hi), fa=f_lo, fb=f_hi
        )
    elif exact_hit is not None:
        root = exact_hit
    else:
        return None
    return Horizon(root, 4.0 * math.pi * root * root)


def mp_renormalized_volume(q, s_h, dps=50):
    """Renormalized volume at ``dps`` digits from the analytic defect ``q``.

    ``q`` maps an mpmath number to q(s) = 1 + s^2 - f(s); ``s_h`` is the
    horizon (an mpmath root) or None.  Integrates
    4 pi s^2 q / (sqrt(f) sqrt(P) (sqrt(f) + sqrt(P))), P = 1 + s^2, which
    is 4 pi s^2 (f^-1/2 - P^-1/2) without cancellation, from the horizon
    (through s = s_h + u^2, which removes the endpoint singularity) to
    infinity, and subtracts the reference volume inside the horizon in
    closed form.
    """
    import mpmath as mp

    with mp.workdps(dps):
        def d(s):
            p = 1 + s * s
            sf = mp.sqrt(p - q(s))
            sp = mp.sqrt(p)
            return 4 * mp.pi * s * s * q(s) / (sf * sp * (sf + sp))

        if s_h is None:
            return mp.quad(d, [0, 1, 10, 100, mp.inf])
        s_h = mp.mpf(s_h)
        floor = s_h * mp.mpf(10) ** (5 - dps)
        # 2 u d(s_h + u^2) tends to this as u -> 0, where f ~ f'(s_h) u^2
        limit = 8 * mp.pi * s_h * s_h / mp.sqrt(mp.diff(lambda s: 1 + s * s - q(s), s_h))

        def g(u):
            return limit if u * u <= floor else 2 * u * d(s_h + u * u)

        core = mp.quad(g, [0, 0.1, 1, 3, 10, 30, mp.inf])
        inner = 2 * mp.pi * (s_h * mp.sqrt(1 + s_h * s_h) - mp.asinh(s_h))
        return core - inner


def mp_horizon(q, guess, dps=50):
    """Root of f = 1 + s^2 - q near ``guess``, by mpmath's findroot."""
    import mpmath as mp

    with mp.workdps(dps):
        return mp.findroot(lambda s: 1 + s * s - q(s), mp.mpf(guess))
