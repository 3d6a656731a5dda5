"""Deterministic adaptive quadrature and bracketed root finding.

The integrator is a 15-point Kronrod rule with its embedded 7-point Gauss
partner on each panel.  Panels are split at their midpoint, worst
estimated error first, until the summed error estimate meets the
tolerance or the evaluation budget runs out.  The subdivision order is a
pure function of the integrand values, so identical inputs produce
bitwise-identical results.

One adaptive loop, ``_integrate``, runs every integral.  It takes the
rule as a panel function, ``panel(a, b) -> (value, err)``, compiled by
``_panel_kernel``: a loop over the 15 nodes of a panel with the
integrand's operations written inline, in the node variable u of one
substitution from one table (``_SUBSTITUTIONS``).  The volume, flow,
area, gap, slope and kernel-margin integrals each have a kernel of
their own; ``integrate`` and ``integrate_sqrt_endpoint`` run a callable
through a kernel that calls it at each node.

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
from functools import lru_cache, partial
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
        # an infinite target would accept the first panel's estimate
        if rel == math.inf:
            raise ValueError("rel tolerance must be finite, got %r" % (rel,))
        if abs == math.inf:
            raise ValueError("abs tolerance must be finite, got %r" % (abs,))
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


# the 15 abscissae of a panel as multiples of its half-width from the
# center: the seven pairs, lo first, then the center, as -0.0 since
# center + half*-0.0 is center bit for bit, -0.0 included
_NODES = tuple(x for i in range(7) for x in (-_XGK[i], _XGK[i])) + (-0.0,)

# substitution -> (the integrand's variable v at the node u, the integrand's
# value w there times dv/du); {v} stands for the variable's name
_SUBSTITUTIONS = {
    "plain": ("u", "w"),
    # an inverse-sqrt endpoint at v = 0
    "sqrt": ("u * u", "2.0 * u * w"),
    # u = log(1 + v/width), for a peak in a layer of that width at v = 0
    "layer": ("width * _expm1(u)", "(width + {v}) * w"),
    # v = width*u^2/(1 - u^2) over u in [0, 1): an inverse-sqrt endpoint at
    # v = 0, and v ~ 1/(1 - u) beyond the width, where w decays like 1/v^2
    "compact": ("width * u * u / ((1.0 - u) * (1.0 + u))",
                "2.0 * width * u / ((1.0 - u) * (1.0 + u)) ** 2 * w"),
    # the compact map in t = 1 - u, run backwards over t in (0, 1]: v = inf
    # at t = 0, where floats are dense enough to resolve an integrable t^-a;
    # the weight 2 W (1 - t)/(t (2 - t))^2 reuses v and the map's factors
    "far": ("width * (_c := 1.0 - u) * _c / (_g := u * (2.0 - u))",
            "2.0 * {v} / (_c * _g) * w"),
}


class _NonFinite(QuadratureError):
    """A kernel's refusal of a non-finite value of an integrand whose
    factors are positive, so an overflow: raised by a kernel built with it
    as ``QuadratureError``, or by the integrand itself.  The caller names
    the quantity that grew."""


_KERNEL_GLOBALS = {
    "QuadratureError": QuadratureError,
    "_INF": math.inf,
    "_exp": math.exp,
    "_expm1": math.expm1,
    "_log1p": math.log1p,
    "_sqrt": math.sqrt,
}


def _panel_kernel(args, substitution, body, var="v", setup=(), constants=None):
    """The panel function ``kernel(args, a, b) -> (value, err)`` of an
    integrand in ``var``, run in the node variable u of ``substitution``,
    compiled.  ``setup`` lines run once per panel; at each node, ``var``
    is set from u and the ``body`` lines leave the integrand's value in
    ``w``.  The nodes run as the seven pairs, lo first, then the center.
    A non-finite value raises ``QuadratureError`` naming its node once
    the pair's hi node has run: the lo node where both are non-finite.
    Both sums run from 0.0 in the order of the tables.  ``constants`` add
    to ``_KERNEL_GLOBALS`` or replace them.  The panel's own locals start
    with an underscore; the body's names must not."""
    mapped, weighted = _SUBSTITUTIONS[substitution]
    pairs = ["(_v%d + _v%d)" % (2 * i, 2 * i + 1) for i in range(7)] + ["_v14"]
    sum_k = " + ".join("%r * %s" % (w, p) for w, p in zip(_WGK, pairs))
    sum_g = " + ".join("%r * %s" % (w, p) for w, p in zip(_WG, pairs[1::2]))
    lines = ["def compiled(%s, a, b):" % args]
    lines += ["    " + line for line in setup]
    lines += [
        "    _center = 0.5 * (a + b)",
        "    _half = 0.5 * (b - a)",
        "    _values = []",
        "    _bad = None",
        "    for _x in %r:" % (_NODES,),
        "        u = _center + _half * _x",
        "        %s = %s" % (var, mapped),
    ]
    lines += ["        " + line for line in body]
    lines += [
        "        _w = %s" % weighted.format(v=var),
        "        if _bad is not None:",
        "            raise QuadratureError('non-finite integrand value at %r' % _bad)",
        "        if not -_INF < _w < _INF:",
        "            if _x >= 0.0:",
        "                raise QuadratureError('non-finite integrand value at %r' % u)",
        "            _bad = u",
        "        _values.append(_w)",
        "    %s = _values" % ", ".join("_v%d" % i for i in range(15)),
        "    _sum_k = 0.0 + %s" % sum_k,
        "    _sum_g = 0.0 + %s" % sum_g,
        "    return _half * _sum_k, abs(_half * (_sum_k - _sum_g))",
    ]
    namespace = dict(_KERNEL_GLOBALS, **(constants or {}))
    exec(compile("".join(line + "\n" for line in lines), "<panel>", "exec"), namespace)
    # popped so that the function and its globals form no reference cycle
    return namespace.pop("compiled")


@lru_cache(maxsize=None)
def _callable_kernel(substitution, point):
    """The panel kernel ``kernel(fn, origin, a, b)`` of a callable fn,
    called at ``point``, an expression in v and ``origin``, with v the
    variable of ``substitution``; compiled on first use."""
    return _panel_kernel("fn, origin", substitution, ["w = fn(%s)" % point])


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
    return _integrate(partial(_callable_kernel("plain", "v"), fn, None), a, b, tol, max_evals)


def _integrate(panel, a, b, tol=None, max_evals=DEFAULT_MAX_EVALS) -> Integral:
    """``integrate`` with the rule given as ``panel(a, b) -> (value, err)``,
    a kernel compiled by ``_panel_kernel``."""
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
    lower = singular_end == "lower"
    kernel = _callable_kernel("sqrt", "origin + v" if lower else "origin - v")
    return _integrate(partial(kernel, fn, a if lower else b), 0.0, _sqrt_range(a, b),
                      tol, max_evals)


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
    tol: float | None = None,
    fa: float | None = None,
    fb: float | None = None,
) -> float:
    """Locate a root of ``fn`` inside the sign-changing bracket [lo, hi];
    the root finder of the horizon walk, the model horizon and the
    kernel threshold.

    Runs the Illinois rule (Dowell and Jarratt, BIT 11, 1971): regula
    falsi steps, where the value kept at an end for a second step in a row
    is halved, and the float next to an end where a step rounds onto it,
    or the midpoint where that float would gain an ulp a step.  It
    returns the midpoint of the bracket once that is at most ``tol``
    wide, or with no ``tol`` two adjacent floats, between which fn changes
    sign.  A point where fn is exactly zero is returned as-is.  Raises
    ValueError when fn has the same strict sign at both endpoints.  ``fa``
    and ``fb``, when given, are fn(lo) and fn(hi) already known to the
    caller; fn is then not called there again.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError("invalid bracket [%r, %r]" % (lo, hi))
    if tol is not None and not (tol > 0.0):
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
    rising = fb > 0.0
    if (fa > 0.0) == rising:
        raise ValueError(
            "no sign change on [%r, %r]: f(lo)=%r, f(hi)=%r" % (lo, hi, fa, fb)
        )
    a, b, side = lo, hi, 0
    while tol is None or b - a > tol:
        x = b - fb * (b - a) / (fb - fa)
        if not a < x < b:
            # a step that rounds onto an end, or past it, says the root
            # lies within a rounding of that end: the float next to it;
            # not where fb (b - a) underflowed or the end lies below the
            # other end's ulp, where each step would gain an ulp
            end, other = (b, a) if x >= b else (a, b)
            if fb * (b - a) == 0.0 or abs(end) < math.ulp(other):
                x = 0.5 * (a + b)
            else:
                x = math.nextafter(end, other)
            if not a < x < b:
                break
        fx = fn(x)
        if not math.isfinite(fx):
            raise QuadratureError("non-finite function value at %r" % (x,))
        if fx == 0.0:
            return x
        # the sign of b is kept apart from fb, which halving may take to 0
        if (fx > 0.0) == rising:
            b, fb = x, fx
            if side > 0:
                fa *= 0.5
            side = 1
        else:
            a, fa = x, fx
            if side < 0:
                fb *= 0.5
            side = -1
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
