"""Shared independent oracles for the test suite.

Everything here is deliberately dumb: plain bisection, composite
Simpson, central differences, one closed-form antiderivative, recursive
expression walks in float, interval and Fraction arithmetic, a forward
horizon scan and the counted horizon search it backs, the horizon walk
that encloses every range, the integer routines of ``algebra`` in their
multiply-and-divide forms, the Kronrod panel as a loop over its table,
the volume integrands as chains of the profile's public methods, the
model bounds' inner expression, the gap and kernel integrands as
closures, and sympy limits for decay rates.  The point is that none of
it shares code (or failure modes) with the library's adaptive machinery.
"""

import math
from fractions import Fraction
from functools import lru_cache

from renvol.errors import DecayError, DomainError, EvaluationError, QuadratureError
from renvol.expressions import Add, Call, Div, Mul, Neg, Num, Param, Pow, Sub, Var
from renvol.metric import _SCAN_HI, _SCAN_LO, _SCAN_POINTS, AsymptoticsReport, Horizon, _refine
from renvol.quadrature import _WG, _WGK, _XGK, _NonFinite, geomspace


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


def random_tree(rng, depth):
    """Text of a random profile tree in ``s`` and the parameter ``m``."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(["s", "m", "2", "3", "0.5"])
    op = rng.choice(["+", "-", "*", "/", "^", "sqrt", "exp"])
    if op == "sqrt":
        # keep the argument positive so evaluation stays in-domain
        return "sqrt(1 + (%s)^2)" % random_tree(rng, depth - 1)
    if op == "exp":
        return "exp(-(%s)^2)" % random_tree(rng, depth - 1)
    if op == "^":
        return "(%s)^%d" % (random_tree(rng, depth - 1), rng.choice([2, 3, -1, -2]))
    return "(%s) %s (%s)" % (random_tree(rng, depth - 1), op, random_tree(rng, depth - 1))


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


class _Unbounded(Exception):
    pass


def _finite(lo, hi):
    if -math.inf < lo and hi < math.inf:
        return lo, hi
    raise _Unbounded


def _corners(pairs):
    return _finite(min(pairs), max(pairs))


def _widened(lo, hi):
    # 4 nextafter steps outward: 2 ulps of exp/log error, see Expression.enclose
    for _ in range(4):
        lo = math.nextafter(lo, -math.inf)
        hi = math.nextafter(hi, math.inf)
    return _finite(lo, hi)


def walk_enclose(expr, lo, hi, params=None):
    """Bounds on an expression tree over ``[lo, hi]`` by plain recursion,
    or None.

    The reference for the compiled ``Expression.enclose``: interval
    operations in the order of the float operations, squares enclosed as
    one, exp/log/sqrt widened by 4 ulp steps, and None wherever an end is
    not finite or a point may raise DomainError.
    """
    params = {} if params is None else params

    def mul(a, b):
        return _corners((a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1]))

    def div(a, b):
        if b[0] <= 0.0 <= b[1]:
            raise _Unbounded
        return _corners((a[0] / b[0], a[0] / b[1], a[1] / b[0], a[1] / b[1]))

    def square(a):
        a_lo, a_hi = a
        if a_lo >= 0.0:
            return _finite(a_lo * a_lo, a_hi * a_hi)
        if a_hi <= 0.0:
            return _finite(a_hi * a_hi, a_lo * a_lo)
        return _finite(0.0, max(a_lo * a_lo, a_hi * a_hi))

    def walk(e):
        if isinstance(e, Num):
            return _finite(e.value, e.value)
        if isinstance(e, Var):
            return s_lo, s_hi
        if isinstance(e, Param):
            try:
                value = float(params[e.name])
            except KeyError:
                raise EvaluationError("unbound parameter '%s'" % e.name) from None
            return _finite(value, value)
        if isinstance(e, Neg):
            a_lo, a_hi = walk(e.arg)
            return -a_hi, -a_lo
        if isinstance(e, Pow):
            # binary exponentiation, multiplied out in the same order
            power = None
            acc = walk(e.base)
            k = abs(e.exponent)
            while k:
                if k & 1:
                    power = acc if power is None else mul(power, acc)
                k >>= 1
                if k:
                    acc = square(acc)
            if power is None:
                return 1.0, 1.0
            return power if e.exponent > 0 else div((1.0, 1.0), power)
        if isinstance(e, Call):
            a_lo, a_hi = walk(e.arg)
            if e.func == "exp":
                try:
                    return _widened(math.exp(a_lo), math.exp(a_hi))
                except OverflowError:
                    raise _Unbounded from None
            if e.func == "log":
                if not a_lo > 0.0:
                    raise _Unbounded
                return _widened(math.log(a_lo), math.log(a_hi))
            if a_lo < 0.0:
                raise _Unbounded
            return _widened(math.sqrt(a_lo), math.sqrt(a_hi))
        a, b = walk(e.left), walk(e.right)
        if isinstance(e, Add):
            return _finite(a[0] + b[0], a[1] + b[1])
        if isinstance(e, Sub):
            return _finite(a[0] - b[1], a[1] - b[0])
        if isinstance(e, Mul):
            return mul(a, b)
        return div(a, b)

    try:
        s_lo, s_hi = _finite(float(lo), float(hi))
        return walk(expr)
    except _Unbounded:
        return None


def exact_walk(expr, s, params=None):
    """Evaluate a tree without exp/log/sqrt in ``Fraction`` arithmetic.

    The reference for ``algebra.rational_form``: literals, ``s`` and the
    parameters enter as the exact rationals of their floats.  Raises
    ZeroDivisionError where a divisor is exactly zero.
    """
    params = {} if params is None else params

    def walk(e):
        if isinstance(e, Num):
            return Fraction(e.value)
        if isinstance(e, Var):
            return Fraction(s)
        if isinstance(e, Param):
            return Fraction(params[e.name])
        if isinstance(e, Neg):
            return -walk(e.arg)
        if isinstance(e, Pow):
            return walk(e.base) ** e.exponent
        if isinstance(e, Call):
            raise TypeError("no exact value for %s" % e.func)
        left, right = walk(e.left), walk(e.right)
        if isinstance(e, Add):
            return left + right
        if isinstance(e, Sub):
            return left - right
        if isinstance(e, Mul):
            return left * right
        return left / right

    return walk(expr)


def walk_rational_form(expr, params):
    """f = P/Q of a tree by a recursive walk per binding, or None.

    The reference for ``algebra.rational_form``, which binds the
    parameters into the tree's normal form: here every node is built
    from the exact rationals of the bound floats, and each sum, product
    and quotient is reduced at once, over the lcm of the denominators for
    a sum.  None where a literal or parameter is not finite, a divisor is
    the zero polynomial, or a product or power on the way is not
    ``algebra.small``.  The two apply that size cap to different
    polynomials, so close to the cap, as with parameters of magnitude
    1e-80 or 1e80 in some trees, one may build a form the other refuses;
    and a power the normal form keeps whole as an atom, whose terms
    cancel, is never expanded there, as ``(1 + m/s)^400 - (1 + m/s)^400``.
    Each reduction checks the size of p and q before it divides out
    their gcd and content, in a copy of its own, so no change of
    ``algebra._reduce`` moves this reference.
    """
    from renvol import algebra

    def reduce(p, q):
        if not (q and algebra.small(p) and algebra.small(q)):
            raise algebra._NotRational
        if not p:
            return [], [1]
        g = algebra._gcd(p, q)
        if len(g) > 1:
            p, q = algebra._exquo(p, g), algebra._exquo(q, g)
        c = math.gcd(math.gcd(*p), math.gcd(*q))
        if q[-1] < 0:
            c = -c
        return (p, q) if c == 1 else ([x // c for x in p], [x // c for x in q])

    def exact(x):
        x = float(x)
        if not math.isfinite(x):
            raise algebra._NotRational
        n, d = x.as_integer_ratio()
        return ([n] if n else []), [d]

    def walk(e):
        if isinstance(e, Num):
            return exact(e.value)
        if isinstance(e, Var):
            return [0, 1], [1]
        if isinstance(e, Param):
            return exact(params[e.name])
        if isinstance(e, Neg):
            p, q = walk(e.arg)
            return algebra._neg(p), q
        if isinstance(e, Pow):
            p, q = walk(e.base)
            n = e.exponent
            if n < 0:
                p, q, n = q, p, -n
            if not q:
                raise algebra._NotRational
            pn, qn = [1], [1]
            for _ in range(n):
                pn, qn = algebra.mul(pn, p), algebra.mul(qn, q)
                if not (algebra.small(pn) and algebra.small(qn)):
                    raise algebra._NotRational
            return (algebra._neg(pn), algebra._neg(qn)) if qn[-1] < 0 else (pn, qn)
        if isinstance(e, Call):
            raise algebra._NotRational
        p1, q1 = walk(e.left)
        p2, q2 = walk(e.right)
        if isinstance(e, Mul):
            return reduce(algebra.mul(p1, p2), algebra.mul(q1, q2))
        if isinstance(e, Div):
            return reduce(algebra.mul(p1, q2), algebra.mul(q1, p2))
        if isinstance(e, Sub):
            p2 = algebra._neg(p2)
        g = algebra._gcd(q1, q2)
        r1, r2 = algebra._exquo(q1, g), algebra._exquo(q2, g)
        top = algebra._add(algebra.mul(p1, r2), algebra.mul(p2, r1))
        return reduce(top, algebra.mul(q1, r2))

    try:
        return walk(expr)
    except algebra._NotRational:
        return None


def counted_isolate(seq, lo, hi, count):
    """``algebra.isolate`` by Sturm counts alone: every bisection of an
    interval, one root in it or more, counts sign variations of the whole
    chain at the midpoint."""
    from renvol import algebra

    out = []
    lo, hi = algebra._point(lo), algebra._point(hi)
    stack = [(lo, algebra.variations(seq, lo), hi, algebra.variations(seq, hi))]
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
        m = algebra.midpoint(a, b)
        vm = algebra.variations(seq, m)
        stack.append((a, va, m, vm))
        stack.append((m, vm, b, vb))
    return out


def counted_cell(seq, grid):
    """The grid cell (lo, hi] of the outermost root of ``seq[0]`` in
    (grid[0], grid[-1]], or None, by a binary search on Sturm counts
    alone: the reference for the sign steps of ``metric._root_cell``."""
    from renvol import algebra

    top = algebra.variations(seq, grid[-1])
    lo, hi = 0, len(grid) - 1
    if algebra.variations(seq, grid[lo]) == top:
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if algebra.variations(seq, grid[mid]) > top:
            lo = mid
        else:
            hi = mid
    return lo, hi


def counted_horizon(p):
    """The horizon search of a cell count, with the forward scan behind it.

    The reference for ``RadialProfile.horizon`` on rational profiles: for
    f = P/Q with f > 0 at the outer grid edge, ``counted_cell`` of P's
    Sturm sequence gives the cell of P's outermost root on the grid; no
    cell is no horizon, unless P vanishes on grid[0].  A cell whose ends
    give f = 0 at the upper one, or a sign change of f, is the horizon
    (the upper end, or the cell refined as the library does).  Every
    other case, and every tree without P/Q, is ``forward_scan_horizon``'s.
    """
    from renvol import algebra
    from renvol.metric import _scan_grid

    fn, grid, form = p.value, _scan_grid(), p.rational
    try:
        counted = form is not None and fn(grid[-1]) > 0.0
    except DomainError:
        counted = False
    if counted:
        seq = algebra.sturm(form[0])
        cell = counted_cell(seq, grid)
        if cell is None:
            if algebra.value(seq[0], grid[0]):
                return None
        else:
            lo, hi = grid[cell[0]], grid[cell[1]]
            try:
                f_lo, f_hi = fn(lo), fn(hi)
            except DomainError:
                f_lo = f_hi = math.nan
            if f_hi == 0.0:
                return Horizon(hi, 4.0 * math.pi * hi * hi)
            if (f_lo > 0.0) != (f_hi > 0.0) and not (math.isnan(f_lo) or math.isnan(f_hi)):
                return _refine(fn, lo, hi, f_lo, f_hi, form)
    return forward_scan_horizon(p)


def forward_scan_horizon(p):
    """The horizon search as a forward scan over the whole grid.

    The reference for ``RadialProfile.horizon``: it evaluates f at every
    point of the geometric grid on (1e-6, 1e3], from the inside out, keeps
    the last sign change or exact zero, and refines it with the same call.
    A point where f is NaN is an event too, which breaks adjacency; when it
    is the last one, the scan raises DomainError naming it.
    """
    ratio = (_SCAN_HI / _SCAN_LO) ** (1.0 / (_SCAN_POINTS - 1))
    fn = p.value
    prev_s = None
    prev_f = None
    bracket = None
    exact_hit = None
    nan_at = None
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
        if fs != fs:
            nan_at = s
            bracket = exact_hit = prev_s = prev_f = None
            s *= ratio
            continue
        if fs == 0.0:
            exact_hit = s
            bracket = nan_at = None
        elif prev_f is not None and (prev_f > 0.0) != (fs > 0.0):
            bracket = (prev_s, s, prev_f, fs)
            exact_hit = nan_at = None
        prev_s = s
        prev_f = fs
        s *= ratio
    if last_f is not None and last_f < 0.0:
        raise DecayError(
            "profile %r is negative at the outer scan edge; no enclosing "
            "region exists" % p.label
        )
    if nan_at is not None:
        raise DomainError(
            "profile %r: f is NaN at s=%r on the horizon search grid" % (p.label, nan_at)
        )
    if bracket is not None:
        return _refine(fn, *bracket, p.rational)
    if exact_hit is None:
        return None
    return Horizon(exact_hit, 4.0 * math.pi * exact_hit * exact_hit)


def loop_panel(fn, a, b, error=QuadratureError):
    """The Kronrod/Gauss pair on [a, b] as a loop over the abscissa table:
    the reference for the compiled panel kernels, which raise ``error`` at
    a non-finite value."""
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    sum_k = 0.0
    sum_g = 0.0
    for i in range(8):
        x = _XGK[i]
        if x == 0.0:
            fv = fn(center)
            if not math.isfinite(fv):
                raise error("non-finite integrand value at %r" % center)
            sum_k += _WGK[i] * fv
            sum_g += _WG[3] * fv
            continue
        lo = center - half * x
        hi = center + half * x
        flo = fn(lo)
        fhi = fn(hi)
        if not (math.isfinite(flo) and math.isfinite(fhi)):
            bad = lo if not math.isfinite(flo) else hi
            raise error("non-finite integrand value at %r" % bad)
        pair = flo + fhi
        sum_k += _WGK[i] * pair
        if i % 2 == 1:
            sum_g += _WG[i // 2] * pair
    return half * sum_k, abs(half * (sum_k - sum_g))


def inv_sqrt_diff(x, y, y_minus_x=None):
    """x**-0.5 - y**-0.5 without subtractive cancellation, as
    (y - x)/(sqrt(x) sqrt(y) (sqrt(x) + sqrt(y))); ``y_minus_x`` is y - x
    where it is known analytically.  Needs x, y > 0."""
    if not (x > 0.0 and y > 0.0):
        raise ValueError("arguments must be positive, got %r, %r" % (x, y))
    diff = (y - x) if y_minus_x is None else y_minus_x
    sx = math.sqrt(x)
    sy = math.sqrt(y)
    return diff / (sx * sy * (sx + sy))


def chain_difference_integrand(p):
    """4 pi s^2 (f^-1/2 - (1+s^2)^-1/2) through ``p.value``, ``p.defect``
    and ``inv_sqrt_diff``: the reference for the volume integrand that
    calls the compiled f and q itself."""
    def d(s):
        fs = p.value(s)
        if not fs > 0.0:
            raise DomainError("profile nonpositive at s=%r inside a volume integral" % (s,))
        ps = 1.0 + s * s
        return 4.0 * math.pi * s * s * inv_sqrt_diff(fs, ps, y_minus_x=p.defect(s))

    return d


def chain_shell_integrand(p):
    """4 pi s^2 / sqrt(f) through ``p.value``."""
    def integrand(s):
        fs = p.value(s)
        if not fs > 0.0:
            raise DomainError("profile nonpositive at s=%r inside a volume integral" % (s,))
        return 4.0 * math.pi * s * s / math.sqrt(fs)

    return integrand


def chain_flow_integrand(p, hz):
    """The flow-bound integrand in t through ``p.value`` and ``p.hawking_mass``."""
    area = hz.area
    sqrt_area = math.sqrt(area)
    a32 = area * sqrt_area

    def integrand(t):
        half = math.exp(0.5 * t)
        s = hz.radius * half
        fs = p.value(s)
        if not (fs > 0.0 or fs == 0.0 and t == 0.0):
            raise DomainError(
                "flow is not mean-convex: profile nonpositive at s=%r, t=%r" % (s, t)
            )
        grown = 4.0 * half * half * area
        if grown == math.inf:
            raise _NonFinite("4 e^t A overflows at t=%r" % t)
        direct = grown + 16.0 * math.pi - p.hawking_mass(s) / half / sqrt_area
        collapsed = 16.0 * math.pi * fs
        if not abs(direct - collapsed) <= 1e-9 * max(1.0, grown):
            raise ArithmeticError(
                "flow integrand cross-check failed at t=%r: %r vs %r" % (t, direct, collapsed)
            )
        return a32 / math.sqrt(collapsed) * half * half * half

    return integrand


def model_bound_inner(area, t, alpha=0.0, eps=0.0):
    """Shared inner expression of the model volume bounds,

        eps + area*(1 - e^(-3(t-alpha)/2)) + 4*pi*e^(-t)*(1 - e^(-(t-alpha)/2)),

    written with expm1 so it stays accurate near t = alpha: the reference
    for the area bound's compiled kernel."""
    dt = t - alpha
    return (
        eps
        + area * (-math.expm1(-1.5 * dt))
        + 4.0 * math.pi * math.exp(-t) * (-math.expm1(-0.5 * dt))
    )


def gap_kernel(y, eps, a, c):
    """eps + a (1 - u^3) + c u^2 (1 - u) at u = 1 - y, in the summed form
    the gap, slope and margin integrands take it in."""
    return eps + y * (a * (3.0 - y * (3.0 - y)) + c * (1.0 - y) ** 2)


def gap_arguments(a_bar, alpha, eps):
    """(eps, a_bar, c, d, scale) of the first gap integrand at alpha:
    c = 4 pi e^-alpha, Y - X = u^3 d and scale = 2 e^alpha d."""
    c = 4.0 * math.pi * math.exp(-alpha)
    d = -(a_bar * math.expm1(-1.5 * alpha) + c * math.expm1(-0.5 * alpha))
    return eps, a_bar, c, d, 2.0 * math.exp(alpha) * d


def gap_difference(eps, a, c, d, scale):
    """The first gap integrand in y as a closure, the square roots and
    their sum taken one node at a time: the reference for the compiled
    "difference" kernel."""
    def difference(y):
        u = 1.0 - y
        x = gap_kernel(y, eps, a, c)
        sx = math.sqrt(x)
        sy = math.sqrt(x + u * u * u * d)
        return scale / (sx * sy * (sx + sy))

    return difference


def gap_unshifted(eps, a, c):
    """The second gap integrand in t, e^t over the root of the kernel at
    y = 1 - e^(-t/2), as a closure."""
    def unshifted(t):
        return math.exp(t) / math.sqrt(gap_kernel(-math.expm1(-0.5 * t), eps, a, c))

    return unshifted


def kernel_power(eps, a, c, lead):
    """2 (K^-3/2 - L^-3/2) in y as a closure, with L = eps + lead y the
    kernel's tangent at y = 0 and K = L (1 - x) for x = (L - K)/L written
    without a subtraction: the integrand of the slope's and the kernel
    margin's J'."""
    def integrand(y):
        k = gap_kernel(y, eps, a, c)
        x = y * (y / (eps + lead * y)) * (a * (3.0 - y) + c * (2.0 - y))
        return -2.0 * math.expm1(1.5 * math.log1p(-x)) / k / math.sqrt(k)

    return integrand


def layer_map(fn, width):
    """``fn`` in u = log(1 + v/width), v = width (e^u - 1), with the weight
    dv/du = width + v, as a closure."""
    def mapped(u):
        v = width * math.expm1(u)
        return (width + v) * fn(v)

    return mapped


def _mp_kernel(y, eps, a, c):
    """eps + a (1 - u^3) + c u^2 (1 - u) at u = 1 - y, in mpmath."""
    u = 1 - y
    return eps + a * (1 - u**3) + c * u * u * (1 - u)


def _mp_layer_points(width, end=1):
    """Breakpoints 0, width, 100 width, ... up to ``end`` for mpmath.quad."""
    points = [0]
    while points[-1] * 100 < end:
        points.append(width if len(points) == 1 else points[-1] * 100)
    return points + [end]


def mp_gap_regularized(a, alpha, eps, dps=30):
    """I_eps(alpha) at ``dps`` digits: the first gap integral in y with the
    roots' difference as 2 e^alpha d/(sqrt(X) sqrt(Y) (sqrt(X) + sqrt(Y))),
    the second in t over [0, alpha], each with breakpoints two decades
    apart from its peak's width up."""
    import mpmath as mp

    with mp.workdps(dps):
        a, alpha, eps = mp.mpf(a), mp.mpf(alpha), mp.mpf(eps)
        c = 4 * mp.pi * mp.exp(-alpha)
        d = a * (1 - mp.exp(-1.5 * alpha)) + c * (1 - mp.exp(-alpha / 2))

        def first(y):
            x = _mp_kernel(y, eps, a, c)
            sx, sy = mp.sqrt(x), mp.sqrt(x + (1 - y) ** 3 * d)
            return 2 * mp.exp(alpha) * d / (sx * sy * (sx + sy))

        def second(t):
            return mp.exp(t) / mp.sqrt(_mp_kernel(-mp.expm1(-t / 2), eps, a, 4 * mp.pi))

        # e^t peaks at the end t = alpha
        head = _mp_layer_points(eps / (1.5 * a + 2 * mp.pi), min(alpha, 1))
        tail = [t for t in (alpha - 10, alpha - 3, alpha - 1, alpha) if t > head[-1]]
        return mp.quad(first, _mp_layer_points(eps / (3 * a + c))) - mp.quad(second, head + tail)


def mp_kernel_power(eps, a, c, dps=30):
    """J = integral_0^1 2 K^(-3/2) dy at ``dps`` digits."""
    import mpmath as mp

    with mp.workdps(dps):
        eps, a, c = mp.mpf(eps), mp.mpf(a), mp.mpf(c)
        return mp.quad(lambda y: 2 * _mp_kernel(y, eps, a, c) ** mp.mpf(-1.5),
                       _mp_layer_points(eps / (3 * a + c)))


def _cancelled_digits(eps, a):
    """The digits that the slope and the margin cancel when they subtract
    their multiple of eps^-1/2, about log10 sqrt(a/eps): J is computed
    with that many more."""
    return max(0, int(-0.5 * math.log10(eps / a)) + 1)


def mp_gap_slope(a, alpha, eps, dps=30):
    """The slope (e^alpha/4) b J - e^alpha eps^-1/2, b = 3 a + 4 pi e^-alpha,
    to ``dps`` digits."""
    import mpmath as mp

    with mp.workdps(dps + _cancelled_digits(eps, a)):
        a, alpha, eps = mp.mpf(a), mp.mpf(alpha), mp.mpf(eps)
        c = 4 * mp.pi * mp.exp(-alpha)
        j = mp_kernel_power(eps, a, c, mp.mp.dps)
        return mp.exp(alpha) * ((3 * a + c) * j / 4 - 1 / mp.sqrt(eps))


def mp_kernel_margin(eps, mu, dps=30):
    """The kernel margin 3 mu J - 4 eps^-1/2 - mu^-1/2 to ``dps`` digits."""
    import mpmath as mp

    with mp.workdps(dps + _cancelled_digits(eps, mu)):
        eps, mu = mp.mpf(eps), mp.mpf(mu)
        return 3 * mu * mp_kernel_power(eps, mu, 0, mp.mp.dps) - 4 / mp.sqrt(eps) - 1 / mp.sqrt(mu)


def _decay_grid(p):
    """The 41 points of the decay check, four decades from max(1e2, 10 s_h)."""
    s_lo = 1e2
    try:
        horizon = p.horizon
    except DecayError:
        horizon = None
    if horizon is not None:
        s_lo = max(s_lo, 10.0 * horizon.radius)
    return geomspace(s_lo, 1e4 * s_lo, 41)


def _grid_positive(p):
    """0 < f < inf on the 41 points of the decay check, through ``p.value``."""
    for s in _decay_grid(p):
        fs = p.value(s)
        if not (0.0 < fs < math.inf):
            raise DomainError(
                "profile not positive and finite at s=%r on the asymptotics grid: f = %r" % (s, fs)
            )


def chain_validate_asymptotics(p):
    """``validate_asymptotics`` for a tree with exp/log/sqrt, from
    independent parts: f checked positive on the 41-point grid through
    ``p.value``, the defect tree's refusal through ``p.q``, and the rate
    from ``sympy_limit_rate``."""
    required = -(2.0 + 4.0 * p.delta)
    _grid_positive(p)
    p.q  # raises the DecayError of a refused defect tree
    rate = sympy_limit_rate(str(p.f), tuple(sorted(p.params.items())))
    return AsymptoticsReport(rate <= required, rate, required)


def sympy_tree(expr, params=None):
    """A tree as a sympy expression in ``s``, with literals and parameters
    entered as the exact rationals of their floats."""
    import sympy

    params = {} if params is None else params
    s = sympy.Symbol("s")

    def walk(e):
        if isinstance(e, Num):
            return sympy.Rational(*e.value.as_integer_ratio())
        if isinstance(e, Var):
            return s
        if isinstance(e, Param):
            return sympy.Rational(*float(params[e.name]).as_integer_ratio())
        if isinstance(e, Neg):
            return -walk(e.arg)
        if isinstance(e, Pow):
            return walk(e.base) ** e.exponent
        if isinstance(e, Call):
            return getattr(sympy, e.func)(walk(e.arg))
        left, right = walk(e.left), walk(e.right)
        if isinstance(e, Add):
            return left + right
        if isinstance(e, Sub):
            return left - right
        if isinstance(e, Mul):
            return left * right
        return left / right

    return walk(expr), s


def sympy_decay_rate(expr, params=None):
    """The exponent r with |q|/f ~ s^r at infinity, q = 1 + s^2 - f, from
    the degrees of the numerators and denominators sympy finds for q and
    f; -inf when q is identically zero."""
    import sympy

    f, s = sympy_tree(expr, params)
    q = sympy.cancel(1 + s**2 - f)
    if q == 0:
        return -math.inf

    def degree(x):
        num, den = sympy.fraction(sympy.cancel(x))
        return sympy.degree(num, s) - sympy.degree(den, s)

    return float(degree(q) - degree(f))


@lru_cache(maxsize=None)
def sympy_limit_rate(text, params):
    """The exponent lim log(|q|/f)/log(s) as s -> inf, q = 1 + s^2 - f, by
    sympy's ``limit`` (Gruntz's algorithm), for the profile text and a
    tuple of parameter items; -inf when q is identically zero.  Cached by
    its arguments: one limit takes 0.1-4 s on a 2-core Xeon."""
    import sympy

    from renvol.expressions import parse

    f, s = sympy_tree(parse(text), dict(params))
    x = sympy.Symbol("x", positive=True)
    f = f.subs(s, x)
    q = 1 + x**2 - f
    if q == 0:
        return -math.inf
    # where q < 0, log(q/f) = log(|q|/f) + i pi, whose i pi/log(x) tends to 0
    return float(sympy.limit(sympy.log(q / f) / sympy.log(x), x, sympy.oo))


def exact_validate_asymptotics(p):
    """The exact decay path of ``validate_asymptotics`` from independent
    parts: f checked positive on the 41-point grid through ``p.value``, and
    the rate from ``sympy_decay_rate``."""
    required = -(2.0 + 4.0 * p.delta)
    _grid_positive(p)
    rate = sympy_decay_rate(p.f, p.params)
    return AsymptoticsReport(rate <= required, rate, required)


def two_pass_sturm(p):
    """Sturm sequence of the square-free part of a nonzero p, built as it
    was before the one-pass ``algebra.sturm``: gcd(p, p') by a full
    primitive remainder sequence, p divided by it, and the chain of the
    quotient built in a second pass."""
    from renvol import algebra

    def gcd(a, b):
        a, b = algebra._primitive(a), algebra._primitive(b)
        while b:
            a, b = b, algebra._primitive(algebra._prem(a, b))
        return algebra._neg(a) if a and a[-1] < 0 else a

    if len(p) > 2:
        p = algebra._exquo(algebra._primitive(p), gcd(p, algebra.derivative(p)))
    seq = [p]
    if len(p) > 1:
        seq.append(algebra._primitive(algebra.derivative(p)))
        while len(seq[-1]) > 1:
            seq.append(algebra._primitive(algebra._neg(algebra._prem(seq[-2], seq[-1]))))
    return seq


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


def yun_odd_part(p):
    """``algebra.odd_part`` with Yun's gcds run on every cofactor of the
    power of s, linear ones included: the reference for its shortcut."""
    from renvol import algebra

    j = next((i for i, c in enumerate(p) if c), 0)
    out = [0] * (j % 2) + [1]
    p = algebra._primitive(p[j:])
    if len(p) <= 1:
        return out
    dp = algebra.derivative(p)
    a = algebra._gcd(p, dp)
    b, c = algebra._exquo(p, a), algebra._exquo(dp, a)
    odd = True
    while len(b) > 1:
        d = algebra.sub(c, algebra.derivative(b))
        a = algebra._gcd(b, d)
        if odd:
            out = algebra.mul(out, a)
        b, c = algebra._exquo(b, a), algebra._exquo(d, a)
        odd = not odd
    return algebra._primitive(out)


def divided_value(p, x):
    """den^deg(p) * p(num/den) with the powers of den multiplied out: the
    reference for the shifts of ``algebra.value``."""
    num, den = x.as_integer_ratio() if isinstance(x, float) else x
    acc, power = 0, 1
    for c in reversed(p):
        acc = acc * num + c * power
        power *= den
    return acc


def divided_midpoint(a, b):
    """``algebra.midpoint`` with the numerators aligned by floor division."""
    (na, da), (nb, db) = a, b
    d = max(da, db)
    return na * (d // da) + nb * (d // db), 2 * d


def divided_isolated(a, b):
    """``algebra._isolated`` with the numerators aligned by floor division."""
    (na, da), (nb, db) = a, b
    d = max(da, db)
    width = nb * (d // db) - na * (d // da)
    return width << 40 <= abs(nb * (d // db))


def enclosing_walk(p, enclosures):
    """The horizon walk that encloses every range of at least
    ``_MIN_BLOCK`` points below the outer edge, as ``RadialProfile.horizon``
    did before it looked at f first.  Returns or raises what that walk
    did, and appends ``(lo, hi, passed)`` for each enclosure to
    ``enclosures``: the reference for which enclosures may be skipped."""
    from renvol.metric import _MIN_BLOCK, _is_root, _scan_grid

    fn, grid = p.value, _scan_grid()
    outermost = True
    upper_s = upper_f = None
    ranges = [(0, len(grid) - 1)]
    while ranges:
        lo, hi = ranges.pop()
        if outermost:
            if lo < hi:
                ranges.append((lo, hi - 1))
            lo = hi
        elif hi - lo >= _MIN_BLOCK - 1:
            bounds = p.f.enclose(grid[lo], grid[hi], p.params)
            passed = bounds is not None and (
                bounds[0] > 0.0 and (upper_f is None or upper_f > 0.0)
                or bounds[1] < 0.0 and (upper_f is None or upper_f < 0.0)
            )
            enclosures.append((grid[lo], grid[hi], passed))
            if passed:
                upper_s = grid[lo]
                upper_f = fn(upper_s)
            else:
                mid = (lo + hi + 1) // 2
                ranges += [(lo, mid - 1), (mid, hi)]
            continue
        for i in range(hi, lo - 1, -1):
            s = grid[i]
            try:
                fs = fn(s)
            except DomainError:
                upper_f = None
                continue
            if math.isnan(fs):
                raise DomainError(
                    "profile %r: f is NaN at s=%r on the horizon search grid" % (p.label, s)
                )
            if outermost:
                if fs < 0.0:
                    raise DecayError(
                        "profile %r is negative at the outer scan edge; no "
                        "enclosing region exists" % p.label
                    )
                outermost = False
            elif (
                upper_f is not None
                and (fs > 0.0) != (upper_f > 0.0)
                and _is_root(p.rational, grid, i, i + 1)
            ):
                return _refine(fn, s, upper_s, fs, upper_f, p.rational)
            if fs == 0.0 and _is_root(p.rational, grid, i, i):
                return Horizon(s, 4.0 * math.pi * s * s)
            upper_s = s
            upper_f = fs
    return None
