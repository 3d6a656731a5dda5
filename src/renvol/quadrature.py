"""Deterministic adaptive quadrature and bracketed root finding.

The integrator is a 15-point Kronrod rule with its embedded 7-point Gauss
partner on each panel.  Panels are split at their midpoint, worst
estimated error first, until the summed error estimate meets the
tolerance or the evaluation budget runs out.  The subdivision order is a
pure function of the integrand values, so identical inputs produce
bitwise-identical results.

One adaptive loop, ``_integrate``, runs every integral.  It takes the
rule as a panel function, ``panel(a, b) -> (value, err)``: ``integrate``
passes ``_panel`` over its integrand, and the volume, gap, slope and
kernel-margin integrals pass kernels compiled from ``_panel_source``,
which evaluate a whole panel of their integrand in one call with
``_panel``'s nodes, checks and sums, so both give the same bits.

Endpoint square-root singularities are handled by the substitution
u^2 = |t - endpoint| and half-infinite domains by u = exp(-lambda*(t-a)),
both of which map the problem onto a finite interval with a bounded
integrand.  Neither transform ever evaluates the integrand at the
singular point itself because all Kronrod abscissae are interior.

The sampling grids (``linspace``, ``geomspace``) stand in for numpy's
linspace and geomspace.  They follow numpy's formulas operation for
operation, so they give numpy's floats wherever numpy's log10 and power
agree with libm's.
"""

from __future__ import annotations

import heapq
import math
from functools import partial
from typing import Callable

from .errors import QuadratureError
from .records import Record

__all__ = [
    "Tolerance",
    "Integral",
    "integrate",
    "integrate_sqrt_endpoint",
    "integrate_semi_infinite",
    "find_root_bracketed",
]

DEFAULT_MAX_EVALS = 1_000_000

# 15-point Kronrod abscissae (positive half) and weights, with the
# embedded 7-point Gauss weights on the shared abscissae.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


class Tolerance(Record):
    """Relative and absolute error targets for an integral.

    The accepted error is max(abs, rel * |value|).
    """

    rel: float
    abs: float

    def __init__(self, rel: float = 1e-10, abs: float = 1e-14):
        if not (rel >= 1e-14):
            raise ValueError("rel tolerance must be >= 1e-14, got %r" % (rel,))
        if not (abs > 0.0):
            raise ValueError("abs tolerance must be positive, got %r" % (abs,))
        d = self.__dict__
        d["rel"] = rel
        d["abs"] = abs

    def target(self, value: float) -> float:
        return max(self.abs, self.rel * abs(value))


class Integral(Record):
    """Quadrature result: value, error estimate and evaluation count."""

    value: float
    err_estimate: float
    evaluations: int


_isfinite = math.isfinite


def _panel(fn, a, b):
    """Apply the Kronrod/Gauss pair on [a, b]; return (value, err).

    Straight-line code: the seven pairs of abscissae, lo before hi, each
    pair checked before the next is evaluated, then the center.  Both sums
    run from 0.0 in that order, the Gauss sum over the odd pairs.
    """
    x0, x1, x2, x3, x4, x5, x6, _ = _XGK
    k0, k1, k2, k3, k4, k5, k6, k7 = _WGK
    g0, g1, g2, g3 = _WG
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    dx = half * x0
    lo, hi = center - dx, center + dx
    f0, h0 = fn(lo), fn(hi)
    if not (_isfinite(f0) and _isfinite(h0)):
        _refuse(lo, hi, f0)
    dx = half * x1
    lo, hi = center - dx, center + dx
    f1, h1 = fn(lo), fn(hi)
    if not (_isfinite(f1) and _isfinite(h1)):
        _refuse(lo, hi, f1)
    dx = half * x2
    lo, hi = center - dx, center + dx
    f2, h2 = fn(lo), fn(hi)
    if not (_isfinite(f2) and _isfinite(h2)):
        _refuse(lo, hi, f2)
    dx = half * x3
    lo, hi = center - dx, center + dx
    f3, h3 = fn(lo), fn(hi)
    if not (_isfinite(f3) and _isfinite(h3)):
        _refuse(lo, hi, f3)
    dx = half * x4
    lo, hi = center - dx, center + dx
    f4, h4 = fn(lo), fn(hi)
    if not (_isfinite(f4) and _isfinite(h4)):
        _refuse(lo, hi, f4)
    dx = half * x5
    lo, hi = center - dx, center + dx
    f5, h5 = fn(lo), fn(hi)
    if not (_isfinite(f5) and _isfinite(h5)):
        _refuse(lo, hi, f5)
    dx = half * x6
    lo, hi = center - dx, center + dx
    f6, h6 = fn(lo), fn(hi)
    if not (_isfinite(f6) and _isfinite(h6)):
        _refuse(lo, hi, f6)
    fc = fn(center)
    if not _isfinite(fc):
        _refuse(center, center, fc)
    p1, p3, p5 = f1 + h1, f3 + h3, f5 + h5
    sum_k = (0.0 + k0 * (f0 + h0) + k1 * p1 + k2 * (f2 + h2) + k3 * p3
             + k4 * (f4 + h4) + k5 * p5 + k6 * (f6 + h6) + k7 * fc)
    sum_g = 0.0 + g0 * p1 + g1 * p3 + g2 * p5 + g3 * fc
    return half * sum_k, abs(half * (sum_k - sum_g))


def _refuse(lo, hi, flo):
    # the lo point is named when both values are non-finite
    bad = lo if not _isfinite(flo) else hi
    raise QuadratureError("non-finite integrand value at %r" % bad)


# the 15 abscissae of a panel as multiples of its half-width from the
# center, in _panel's order: the seven pairs, lo first, then the center,
# as -0.0 since center + half*-0.0 is center bit for bit, -0.0 included
_NODES = tuple(x for i in range(7) for x in (-_XGK[i], _XGK[i])) + (-0.0,)


def _panel_source(args, setup, body, value):
    """Source of ``def compiled(args, a, b)``, a panel function for
    ``_integrate``: ``_panel`` of the integrand that ``body`` computes.

    ``setup`` lines run once per panel; ``body`` lines run at each node,
    in one loop, with the node in ``u``, and ``value`` is then the
    integrand's value there.  Nodes and checks follow ``_panel``:
    a pair is checked after its hi node, the lo point named first, and the
    sums run in ``_panel``'s order over the shared tables.  The source
    names ``QuadratureError`` and ``_INF`` (math.inf), which the caller
    binds in the globals it execs the source with.
    """
    pairs = ["(v%d + v%d)" % (2 * i, 2 * i + 1) for i in range(7)] + ["v14"]
    sum_k = " + ".join("%r * %s" % (w, p) for w, p in zip(_WGK, pairs))
    sum_g = " + ".join("%r * %s" % (w, p) for w, p in zip(_WG, pairs[1::2]))
    lines = ["def compiled(%s, a, b):" % args]
    lines += ["    " + line for line in setup]
    lines += [
        "    center = 0.5 * (a + b)",
        "    half = 0.5 * (b - a)",
        "    values = []",
        "    bad = None",
        "    for x in %r:" % (_NODES,),
        "        u = center + half * x",
    ]
    lines += ["        " + line for line in body]
    lines += [
        "        v = %s" % value,
        "        if bad is not None:",
        "            raise QuadratureError('non-finite integrand value at %r' % bad)",
        "        if not -_INF < v < _INF:",
        "            if x >= 0.0:",
        "                raise QuadratureError('non-finite integrand value at %r' % u)",
        "            bad = u",
        "        values.append(v)",
        "    %s = values" % ", ".join("v%d" % i for i in range(15)),
        "    sum_k = 0.0 + %s" % sum_k,
        "    sum_g = 0.0 + %s" % sum_g,
        "    return half * sum_k, abs(half * (sum_k - sum_g))",
    ]
    return "".join(line + "\n" for line in lines)


def integrate(
    fn: Callable[[float], float],
    a: float,
    b: float,
    tol: Tolerance | None = None,
    max_evals: int = DEFAULT_MAX_EVALS,
) -> Integral:
    """Integrate ``fn`` over the finite interval [a, b].

    Requires a <= b and finite bounds; improper integrals go through
    ``integrate_semi_infinite``.  Raises QuadratureError when the budget
    is exhausted before the tolerance is met or the integrand returns a
    non-finite value.
    """
    return _integrate(partial(_panel, fn), a, b, tol, max_evals)


def _integrate(panel, a, b, tol=None, max_evals=DEFAULT_MAX_EVALS) -> Integral:
    """``integrate`` with the rule given as ``panel(a, b) -> (value, err)``:
    ``_panel`` over an integrand, or a compiled kernel (``_panel_source``)."""
    if tol is None:
        tol = Tolerance()
    _check_bounds(a, b)
    if a == b:
        return Integral(0.0, 0.0, 0)

    value, err = panel(a, b)
    evals = 15
    # heap entries: (-err, seq, a, b, value, err); seq makes ordering total
    seq = 0
    heap = [(-err, seq, a, b, value, err)]
    total_value = value
    total_err = err

    while True:
        if not total_err > tol.target(total_value):
            # the running sums can absorb small terms after a huge one: the
            # exact sums, which are returned, must meet the target too
            total_value = math.fsum(entry[4] for entry in heap)
            total_err = math.fsum(entry[5] for entry in heap)
            if not total_err > tol.target(total_value):
                return Integral(total_value, total_err, evals)
        if evals + 30 > max_evals:
            raise QuadratureError(
                "tolerance not met within evaluation budget (%d evaluations, "
                "err estimate %.3e)" % (evals, total_err)
            )
        neg_err, _, pa, pb, pval, perr = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        if not (pa < mid < pb):
            raise QuadratureError(
                "panel [%r, %r] too small to refine (err estimate %.3e)"
                % (pa, pb, total_err)
            )
        lval, lerr = panel(pa, mid)
        rval, rerr = panel(mid, pb)
        evals += 30
        total_value += (lval + rval) - pval
        total_err += (lerr + rerr) - perr
        seq += 1
        heapq.heappush(heap, (-lerr, seq, pa, mid, lval, lerr))
        seq += 1
        heapq.heappush(heap, (-rerr, seq, mid, pb, rval, rerr))


def _check_bounds(a, b):
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration bounds must be finite, got [%r, %r]" % (a, b))
    if a > b:
        raise ValueError("lower bound %r exceeds upper bound %r" % (a, b))


def _sqrt_range(a: float, b: float) -> float:
    """The upper end sqrt(b - a) of the u-range of the substitution
    u^2 = |t - endpoint| on [a, b], after the bound checks of ``integrate``."""
    _check_bounds(a, b)
    return math.sqrt(b - a)


def integrate_sqrt_endpoint(
    fn: Callable[[float], float],
    a: float,
    b: float,
    singular_end: str = "lower",
    tol: Tolerance | None = None,
    max_evals: int = DEFAULT_MAX_EVALS,
) -> Integral:
    """Integrate ``fn`` over [a, b] with an inverse-sqrt endpoint singularity.

    ``singular_end`` names the endpoint where fn may blow up like
    |t - end|**-0.5.  The substitution u^2 = |t - end| makes the
    transformed integrand bounded there.
    """
    if singular_end not in ("lower", "upper"):
        raise ValueError("singular_end must be 'lower' or 'upper', got %r" % singular_end)
    width = _sqrt_range(a, b)
    if a == b:
        return Integral(0.0, 0.0, 0)
    if singular_end == "lower":
        def transformed(u):
            return 2.0 * u * fn(a + u * u)
    else:
        def transformed(u):
            return 2.0 * u * fn(b - u * u)
    return integrate(transformed, 0.0, width, tol, max_evals)


def integrate_semi_infinite(
    fn: Callable[[float], float],
    a: float,
    tol: Tolerance | None = None,
    decay_rate: float = 1.0,
    max_evals: int = DEFAULT_MAX_EVALS,
) -> Integral:
    """Integrate ``fn`` over [a, infinity).

    ``decay_rate`` is a lower bound lambda > 0 on the exponential decay of
    fn; the substitution u = exp(-lambda*(t-a)) maps the domain to (0, 1].
    An overestimated rate makes the transformed integrand unbounded near
    u = 0 and surfaces as budget exhaustion rather than a wrong answer.
    """
    if not math.isfinite(a):
        raise ValueError("lower bound must be finite, got %r" % (a,))
    if not (decay_rate > 0.0 and math.isfinite(decay_rate)):
        raise ValueError("decay_rate must be positive and finite, got %r" % (decay_rate,))
    lam = decay_rate

    def transformed(u):
        t = a - math.log(u) / lam
        return fn(t) / (lam * u)

    return integrate(transformed, 0.0, 1.0, tol, max_evals)


def find_root_bracketed(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-14,
    fa: float | None = None,
    fb: float | None = None,
) -> float:
    """Locate a root of ``fn`` inside the sign-changing bracket [lo, hi].

    Alternates secant steps with bisection so the bracket width is
    guaranteed to halve at least every other iteration; the returned
    point lies in a bracket of width <= tol.  An endpoint where fn is
    exactly zero is returned as-is.  Raises ValueError when fn has the
    same strict sign at both endpoints.  ``fa`` and ``fb``, when given,
    are fn(lo) and fn(hi) already known to the caller; fn is then not
    called there again.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError("invalid bracket [%r, %r]" % (lo, hi))
    if not (tol > 0.0):
        raise ValueError("tol must be positive, got %r" % (tol,))
    if fa is None:
        fa = fn(lo)
    if fb is None:
        fb = fn(hi)
    if not (math.isfinite(fa) and math.isfinite(fb)):
        raise QuadratureError("non-finite function value at bracket endpoint")
    if fa == 0.0:
        return lo
    if fb == 0.0:
        return hi
    if (fa > 0.0) == (fb > 0.0):
        raise ValueError(
            "no sign change on [%r, %r]: f(lo)=%r, f(hi)=%r" % (lo, hi, fa, fb)
        )
    a, b = lo, hi
    iteration = 0
    while b - a > tol:
        mid = 0.5 * (a + b)
        if not (a < mid < b):
            break
        x = mid
        if iteration % 2 == 0 and fb != fa:
            secant = b - fb * (b - a) / (fb - fa)
            if a < secant < b:
                x = secant
        fx = fn(x)
        if not math.isfinite(fx):
            raise QuadratureError("non-finite function value at %r" % (x,))
        if fx == 0.0:
            return x
        if (fx > 0.0) == (fa > 0.0):
            a, fa = x, fx
        else:
            b, fb = x, fx
        iteration += 1
    return 0.5 * (a + b)


def linspace(start: float, stop: float, num: int) -> list[float]:
    """``num`` >= 2 evenly spaced floats from start to stop, both included.

    numpy's formula: i*step + start with step = (stop - start)/(num - 1),
    and the last point set to stop exactly.
    """
    step = (stop - start) / (num - 1)
    points = [i * step + start for i in range(num)]
    points[-1] = stop
    return points


def geomspace(start: float, stop: float, num: int) -> list[float]:
    """``num`` >= 2 log-spaced floats from start to stop (both positive),
    both included exactly.

    numpy's algorithm: 10**y over the linspace of log10(start) to
    log10(stop), with both endpoints pinned.
    """
    # the pinned endpoints are not computed: 10**log10(x) may overflow
    exponents = linspace(math.log10(start), math.log10(stop), num)[1:-1]
    return [start] + [10.0**y for y in exponents] + [stop]
