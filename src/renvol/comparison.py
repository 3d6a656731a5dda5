"""Volume comparison against the one-parameter model family.

``compare_volumes`` is the top of the pipeline: it checks the standing
hypotheses (curvature bounded below by -6, an outermost horizon, an area
at least the model's, admissible decay), then computes both renormalized
volumes and classifies the margin.  The curvature bound is certified by
exact Sturm counts for rational profiles, and by float enclosures of the
jet of ``RadialProfile.mass_aspect`` for profiles with exp/log/sqrt.
The decay rate is exact too: read from the degrees of f = P/Q for a
rational profile, and from the leading terms of q otherwise.  Rigidity is
exact for rational profiles: "equality" needs f = P/Q to be the model's.

The rest of the module is the machinery behind the strictness of that
comparison when the areas differ: the gap function

    I(alpha) = integral_alpha^inf e^t (X^-1/2 - Y^-1/2) dt
             - integral_0^alpha e^t Y^-1/2 dt

(X, Y the shifted and unshifted model bound kernels), its regularized
version, the lower bound for its derivative in alpha, and the kernel
inequality that drives that bound.  The kernel, the slope and the first
gap integral run in y = 1 - u, u = e^(-(t-alpha)/2) (alpha = 0 for the
kernel and the slope), where their integrands are algebraic.  The
kernels become eps + y (a (3 - y (3 - y)) + c (1 - y)^2), a sum with no
subtraction that keeps its relative accuracy down to y = 0, where the
integrands peak; in t, 1 - e^(-3t/2) resolved t only to about 4e-16
there.  And Y - X = u^3 d for a constant d, so the u^3 cancels against
e^t dt = 2 e^alpha dy/u^3: the first gap integrand is
2 e^alpha d/(sqrt(X) sqrt(Y) (sqrt(X) + sqrt(Y))), with neither a
difference of roots nor a huge e^t times a tiny e^(-3t/2).  The second
gap integral stays in t, where its weight e^t peaks at the end
t = alpha, and takes its kernel at y = 1 - e^(-t/2).  At eps = 0 they
run in u^2 = y and u^2 = t.  At eps > 0 each peaks in a layer of width
eps/b at 0, b the kernel's slope there, and runs in u = log(1 + y/width),
the second on t in [0, min(alpha, 1)], its tail in plain t.  The slope
and the margin take the eps^-1/2 of the tangent eps + b y out in closed
form.  Each integral runs as a panel kernel compiled on first use
(``_kernel``), with the bits of its integrand evaluated node by node.
The kernel threshold is searched once per tolerance.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache, partial
from typing import Sequence

from . import algebra
from .errors import DecayError, DomainError
from .expressions import _Overflow, _Unbounded
from .metric import RadialProfile, ads_schwarzschild
from .quadrature import Tolerance, _integrate, _NonFinite, _panel_kernel, find_root_bracketed
from .records import Record
from .volume import renormalized_volume

__all__ = [
    "GapSpec",
    "SlopeBound",
    "HypothesisCheck",
    "ComparisonReport",
    "SweepRow",
    "SweepResult",
    "volume_gap",
    "volume_gap_regularized",
    "volume_gap_slope",
    "kernel_margin",
    "kernel_threshold",
    "compare_volumes",
    "mass_volume_sweep",
]

_FOUR_PI = 4.0 * math.pi

CURVATURE_SLACK = 1e-9
EQUALITY_TOL = 1e-8

# the interval work one curvature check by enclosures may spend, in nodes
# of the s q tree enclosed (``Expression._size``); at 0.2-1.2 us each,
# 0.02-0.12 s whatever the tree
_CURVATURE_WORK = 100_000


class GapSpec(Record):
    """Arguments of the gap function: model area, log-area ratio, regularizer."""

    model_area: float
    alpha: float
    epsilon: float

    def __init__(self, model_area: float, alpha: float, epsilon: float = 0.0):
        if not (model_area > 0.0 and math.isfinite(model_area)):
            raise ValueError("model area must be positive and finite, got %r" % (model_area,))
        if not (alpha >= 0.0 and math.isfinite(alpha)):
            raise ValueError("alpha must be nonnegative and finite, got %r" % (alpha,))
        if not (epsilon >= 0.0 and math.isfinite(epsilon)):
            raise ValueError("epsilon must be nonnegative and finite, got %r" % (epsilon,))
        d = self.__dict__
        d["model_area"] = model_area
        d["alpha"] = alpha
        d["epsilon"] = epsilon


class SlopeBound(Record):
    """d/dalpha of the regularized gap, with its claimed lower bound."""

    value: float
    lower_bound: float
    satisfied: bool


class HypothesisCheck(Record):
    name: str
    passed: bool
    detail: str


class ComparisonReport(Record):
    """Hypothesis checklist plus the volume comparison itself.

    ``volume``, ``model_volume``, ``margin`` are None when a hypothesis
    failed (the comparison is then never computed).  The verdict is one of
    "holds", "equality", "violated", "hypothesis_failed"; "equality"
    additionally requires the areas to match (alpha below tolerance) and a
    rational profile to be the model's f = P/Q.
    """

    profile_label: str
    model_mass: float
    hypotheses: tuple[HypothesisCheck, ...]
    area: float | None
    model_area: float
    alpha: float | None
    volume: float | None
    model_volume: float | None
    margin: float | None
    verdict: str

    @property
    def hypotheses_ok(self) -> bool:
        return all(h.passed for h in self.hypotheses)


class SweepRow(Record):
    m: float
    volume: float
    delta_prev: float | None


class SweepResult(Record):
    rows: tuple[SweepRow, ...]
    monotone: bool


# The gap, slope and margin integrands, each run as a compiled panel kernel
# (quadrature._panel_kernel) with the operations of the integrand evaluated
# node by node, bit for bit.  _K is the kernel at y in the summed form of
# the module docstring.
_K = "k = eps + y * (area * (3.0 - y * (3.0 - y)) + c * (1.0 - y) ** 2)"

# integrand -> (kernel arguments, its variable, body lines, the value w of
# the integrand there)
_INTEGRANDS = {
    # the first gap integrand in y, X = k, Y = X + (1 - y)^3 d, scale = 2 e^alpha d
    "difference": ("eps, area, c, d, scale", "y",
                   ["r = 1.0 - y", _K, "sx = _sqrt(k)", "sy = _sqrt(k + r * r * r * d)"],
                   "scale / (sx * sy * (sx + sy))"),
    # the second gap integrand in t, with its kernel at y = 1 - e^(-t/2)
    "unshifted": ("eps, area, c", "t", ["y = -_expm1(-0.5 * t)", _K], "_exp(t) / _sqrt(k)"),
    # J' of the slope and the margin, 2 (K^-3/2 - L^-3/2) in y: L = eps + lead y, and K = L (1 - x)
    # for x = (L - K)/L = y (y/L) (area (3 - y) + c (2 - y)), with no subtraction
    "power": ("eps, area, c, lead", "y",
              [_K, "x = y * (y / (eps + lead * y)) * (area * (3.0 - y) + c * (2.0 - y))"],
              "-2.0 * _expm1(1.5 * _log1p(-x)) / k / _sqrt(k)"),
}


@lru_cache(maxsize=None)
def _kernel(integrand: str, substitution: str):
    """The panel kernel ``kernel(*args, a, b) -> (value, err)`` of
    ``integrand``, with the ``args`` that ``_INTEGRANDS`` names, compiled
    on first use: "plain", "sqrt" or "layer" of quadrature._SUBSTITUTIONS,
    with ``width`` after ``args`` for "layer"."""
    args, v, body, value = _INTEGRANDS[integrand]
    args += ", width" if substitution == "layer" else ""
    # the roots and divisors are positive, so a non-finite value is an overflow
    return _panel_kernel(args, substitution, body + ["w = " + value], v,
                         constants={"QuadratureError": _NonFinite})


def _layered(integrand: str, args: tuple, b: float, end: float, tol: Tolerance) -> float:
    """The integral of ``integrand`` over [0, end] in the layer variable of
    width eps/b, eps = args[0]; ValueError naming eps where that width is
    not a normal float (0.0 at eps = 5e-324), so that 1/width is finite."""
    width = args[0] / b
    if not width >= sys.float_info.min:
        raise ValueError("eps = %r is too small: the layer width eps/%r is not a normal float"
                         % (args[0], b))
    kernel = partial(_kernel(integrand, "layer"), *args, width)
    return _integrate(kernel, 0.0, math.log1p(end / width), tol).value


def _grow(alpha: float) -> float:
    """e^alpha; ValueError naming alpha where it overflows."""
    try:
        return math.exp(alpha)
    except OverflowError:
        raise ValueError("alpha = %r is too large: e^alpha overflows" % (alpha,)) from None


def _gap_value(a_bar: float, alpha: float, eps: float, tol: Tolerance) -> float:
    if alpha == 0.0:
        # both integrands vanish identically
        return 0.0
    grow = _grow(alpha)
    c = _FOUR_PI * math.exp(-alpha)
    # Y - X = u^3 d in the shifted variable, and e^t dt = 2 e^alpha dy/u^3
    d = -(a_bar * math.expm1(-1.5 * alpha) + c * math.expm1(-0.5 * alpha))
    scale = 2.0 * grow * d
    # the second integral stays in t: a y-range would end at 1 - e^(-alpha/2),
    # rounded, where its weight e^t peaks
    try:
        if eps == 0.0:
            # X and Y vanish like y at y = 0, Y like t at t = 0
            first = _integrate(partial(_kernel("difference", "sqrt"), eps, a_bar, c, d, scale),
                               0.0, 1.0, tol).value
            second = _integrate(partial(_kernel("unshifted", "sqrt"), eps, a_bar, _FOUR_PI),
                                0.0, math.sqrt(alpha), tol).value
        else:
            # the tail runs in plain t: the layer's weight would scale e^t by alpha
            first = _layered("difference", (eps, a_bar, c, d, scale), 3.0 * a_bar + c, 1.0, tol)
            second = _layered("unshifted", (eps, a_bar, _FOUR_PI), 1.5 * a_bar + 0.5 * _FOUR_PI,
                              min(alpha, 1.0), tol)
            if alpha > 1.0:
                second += _integrate(partial(_kernel("unshifted", "plain"), eps, a_bar, _FOUR_PI),
                                     1.0, alpha, tol).value
    except _NonFinite:
        value = math.inf
    else:
        value = first - second
    if not math.isfinite(value):
        # an integrand value, a panel's sum or an integral overflowed
        raise ValueError("alpha = %r is too large: the gap integrals overflow with e^alpha"
                         % (alpha,))
    return value


def volume_gap(spec: GapSpec, tol: Tolerance | None = None) -> float:
    """I(alpha): the limiting volume gap per unit model_area^(3/2).

    Zero at alpha = 0, strictly positive and increasing for alpha > 0.
    The spec must carry epsilon = 0; use volume_gap_regularized otherwise.
    Raises ValueError naming alpha where e^alpha, or the gap integrals
    it scales, overflow.
    """
    if spec.epsilon != 0.0:
        raise ValueError("volume_gap requires epsilon = 0; got %r" % (spec.epsilon,))
    return _gap_value(spec.model_area, spec.alpha, 0.0, tol or Tolerance())


def volume_gap_regularized(spec: GapSpec, tol: Tolerance | None = None) -> float:
    """The regularized gap I_eps(alpha); converges to volume_gap as eps -> 0,
    and raises where it does."""
    if not spec.epsilon > 0.0:
        raise ValueError("regularized gap requires epsilon > 0; got %r" % (spec.epsilon,))
    return _gap_value(spec.model_area, spec.alpha, spec.epsilon, tol or Tolerance())


def volume_gap_slope(spec: GapSpec, tol: Tolerance | None = None) -> SlopeBound:
    """Derivative of the regularized gap in alpha, versus its lower bound.

    value = (e^alpha/4) b J - e^alpha eps^-1/2 with b = 3 A + 4 pi e^-alpha,
    where J integrates e^(-t/2) against the kernel to the power -3/2; the
    bound is (e^alpha/4) (A + (4 pi/3) e^-alpha)^-1/2.  ``satisfied``
    honestly reports value >= bound, which fails for large eps by design.
    Raises ValueError naming alpha where e^alpha, or the value, overflows.

    In y = 1 - e^(-t/2), J = integral_0^1 2 K^(-3/2) dy with
    K = eps + y (A (3 - 3y + y^2) + 4 pi e^-alpha (1 - y)^2), which peaks
    in a layer of width eps/b at y = 0.  Its tangent L = eps + b y gives
    value = e^alpha (b J'/4 - (eps + b)^-1/2), J' = integral 2 (K^-3/2 -
    L^-3/2) dy, with no e^alpha eps^-1/2 to cancel.
    """
    if not spec.epsilon > 0.0:
        raise ValueError("slope bound requires epsilon > 0; got %r" % (spec.epsilon,))
    tol = tol or Tolerance()
    a_bar = spec.model_area
    alpha = spec.alpha
    eps = spec.epsilon
    shrink = math.exp(-alpha)
    c, b = _FOUR_PI * shrink, 3.0 * a_bar + _FOUR_PI * shrink
    j = _layered("power", (eps, a_bar, c, b), b, 1.0, tol)
    grow = _grow(alpha)
    value = grow * (0.25 * b * j - 1.0 / math.sqrt(eps + b))
    if not math.isfinite(value):
        raise ValueError(
            "alpha = %r is too large: the slope %r overflows with e^alpha" % (alpha, value)
        )
    lower = 0.25 * grow / math.sqrt(a_bar + (_FOUR_PI / 3.0) * shrink)
    return SlopeBound(value, lower, value >= lower)


def kernel_margin(eps: float, mu: float, tol: Tolerance | None = None) -> float:
    """LHS - RHS of the kernel inequality

        3 mu * integral_0^inf e^(-t/2) (eps + mu (1 - e^(-3t/2)))^(-3/2) dt
            >= 4 eps^-1/2 + mu^-1/2.

    Positive margin means the inequality holds; it does for small eps/mu
    and fails near eps = mu.  Scales exactly like (eps, mu) -> lambda^-1/2,
    so it is computed as the margin at (eps/mu, 1) over sqrt(mu): the
    integrand at mu itself overflows where mu is tiny (1e-300).

    In y = 1 - e^(-t/2) the left side is 6 mu integral_0^1 K^(-3/2) dy,
    K = eps + mu y (3 - 3y + y^2).  As in ``volume_gap_slope`` (A = mu,
    b = 3 mu), the margin is 3 mu J' - 4 (eps + 3 mu)^-1/2 - mu^-1/2: it
    keeps its digits to the limit 1.8043642106509085 mu^-1/2 as eps/mu
    -> 0, and raises ValueError naming eps below eps/mu = 7e-308.
    """
    if not (eps > 0.0 and math.isfinite(eps)):
        raise ValueError("eps must be positive and finite, got %r" % (eps,))
    if not (mu > 0.0 and math.isfinite(mu)):
        raise ValueError("mu must be positive and finite, got %r" % (mu,))
    tol = tol or Tolerance()
    ratio = eps / mu
    try:
        j = _layered("power", (ratio, 1.0, 0.0, 3.0), 3.0, 1.0, tol)
    except ValueError:
        raise ValueError("eps = %r is too small: the layer width eps/%r is not a normal float"
                         % (eps, 3.0 * mu)) from None
    return (3.0 * j - 4.0 / math.sqrt(ratio + 3.0) - 1.0) / math.sqrt(mu)


def kernel_threshold(mu: float, tol: Tolerance | None = None) -> float:
    """Largest ratio eps/mu at which the kernel margin crosses zero.

    The margin scales exactly as (eps, mu) -> lambda^-1/2, so its sign
    depends on eps/mu alone; the search therefore runs at mu = 1 and the
    result is the same float for every valid mu.  The search runs once
    per tolerance (the last 64 are remembered, a raising search is not);
    a later call at any mu returns its float without a margin call.
    Starting from ratio 1, where the margin must be negative, it walks
    down one decade at a time to the first positive margin, so it finds
    the largest crossing.  It then refines that bracket on log10(eps/mu)
    to width 1e-11 by ``find_root_bracketed`` and returns the midpoint.
    Raises ValueError when the margin is not negative at ratio 1 or stays
    nonpositive down to ratio 1e-12.
    """
    if not (mu > 0.0 and math.isfinite(mu)):
        raise ValueError("mu must be positive and finite, got %r" % (mu,))
    return _threshold(tol or Tolerance())


@lru_cache(maxsize=64)
def _threshold(tol: Tolerance) -> float:
    """The search of ``kernel_threshold``, at mu = 1."""

    def margin(x: float) -> float:
        return kernel_margin(10.0**x, 1.0, tol)

    f_hi = margin(0.0)
    if not f_hi < 0.0:
        raise ValueError("kernel margin %.3e at ratio 1 is not negative" % (f_hi,))
    for hi in range(0, -12, -1):
        f_lo = margin(hi - 1.0)
        if not f_lo <= 0.0:
            return 10.0 ** find_root_bracketed(margin, hi - 1.0, float(hi), 1e-11, f_lo, f_hi)
        f_hi = f_lo
    raise ValueError("kernel margin is nonpositive at every decade from ratio 1 down to "
                     "1e-12; no crossing to bracket")


def _check_curvature(p: RadialProfile, s_lo: float) -> HypothesisCheck:
    """The hypothesis R >= -6 on [s_lo, inf).

    R + 6 = 2 (s q)'/s^2, so it asks that the mass aspect s q be
    nondecreasing.  For a rational profile the check is certified: with
    f = P/Q, s q = M/Q for M = s (Q (1 + s^2) - P), and (s q)' has the
    sign of N = M'Q - MQ'.  It passes when Q has no root on [s_lo, inf)
    and N is identically 0, or has a positive leading coefficient and no
    root of odd multiplicity above s_lo, both by exact Sturm counts.  A
    pole fails and is named; otherwise a failure names an interval on
    which (s q)' < 0 and R at the lowest of a few points tried there.

    Profiles with exp/log/sqrt, and forms too large for ``algebra.small``,
    bisect [s_lo, inf) in log s, lowest block first.  A block [a, b]
    bounds (s q)' by ``Expression.enclose_jet`` of ``p.mass_aspect``,
    intersected with the mean-value form (s q)'(c) + (s q)''([a, b])
    ([a, b] - c) against the blow-up of cancelling terms (Moore, Interval
    Analysis, 1966).  It passes when the lower bound clears
    -CURVATURE_SLACK a^2/2 and fails the check, certified, when the upper
    bound is below -CURVATURE_SLACK b^2/2.  The certified range ends at a
    block that cannot be halved, has no enclosure, and where the interval
    code of the jet of f or s q has an infinite end at the point b while
    its jet raises nothing there (``_overflows``).  Any other such block, or
    the lowest one left after _CURVATURE_WORK nodes of s q enclosed,
    fails the check undecided unless a certified failure is found first.
    Nothing is sampled.  Where ``p.mass_aspect`` raises DecayError, the
    check fails.
    """
    if p.rational is None:
        return _enclosed_curvature(p, s_lo)
    f_num, f_den = p.rational
    lo = s_lo.as_integer_ratio()
    poles = algebra.sturm(f_den)
    if algebra.value(f_den, lo) == 0:
        return _curvature_fails("f has a pole at s = %.12g (certified)" % s_lo)
    if algebra.variations(poles, lo) > algebra.variations(poles, None):
        ((a, b),) = algebra.isolate(poles, lo, algebra.root_bound(poles[0]), 1)
        return _curvature_fails(
            "f has a pole in (%.15g, %.15g], where R is unbounded, above s = "
            "%.6g (certified)" % (_to_float(a), _to_float(b), s_lo)
        )
    mass = algebra.mul([0, 1], algebra.sub(algebra.mul(f_den, [1, 0, 1]), f_num))
    n = algebra.sub(
        algebra.mul(algebra.derivative(mass), f_den),
        algebra.mul(mass, algebra.derivative(f_den)),
    )
    if not algebra.small(n):
        return _enclosed_curvature(p, s_lo)
    if n:
        seq = algebra.sturm(algebra.odd_part(n))
        if n[-1] < 0 or algebra.variations(seq, lo) > algebra.variations(seq, None):
            a, b = _negative_interval(seq, lo, n[-1] > 0)
            point, gap = min(
                (_curvature_gap(n, f_den, x) for x in _probe_points(a, b)),
                key=lambda pair: pair[1],
            )
            return _curvature_fails(
                "R(s = %.6g) = -6 - %.6g falls below -6 (certified: (s q)' < 0 "
                "on (%.15g, %.15g))"
                % (_to_float(point), -gap, _to_float(a), math.inf if b is None else _to_float(b))
            )
    return HypothesisCheck(
        "scalar_curvature",
        True,
        "R >= -6 on [%.6g, inf), certified by an exact Sturm count of (s q)'" % s_lo,
    )


def _curvature_fails(detail: str) -> HypothesisCheck:
    return HypothesisCheck("scalar_curvature", False, detail)


def _to_float(x) -> float:
    num, den = x
    return num / den


def _negative_interval(seq, lo, rising: bool):
    """Dyadic (a, b) above lo on which the polynomial with sign changes at
    the roots of ``seq[0]`` is negative; b is None for infinity.  Rising
    means positive at infinity, so negative just below its last change."""
    roots = algebra.isolate(seq, lo, algebra.root_bound(seq[0]), 2)
    if not rising:
        return (roots[0][1] if roots else lo), None
    a, b = roots[0]
    lower = roots[1][1] if len(roots) > 1 else lo
    # isolating intervals may share an end; narrow the upper one off it
    a, b = algebra.narrow(seq[0], a, b, lambda a, b: a[0] * lower[1] > lower[0] * a[1])
    return lower, a


def _probe_points(a, b):
    """Dyadic points inside (a, b), most of them near its ends; b None is
    read as 2a."""
    na, nb, d = algebra._aligned(a, (2 * a[0], a[1]) if b is None else b)
    one = 1 << 40
    for j in (1, 1 << 20, 1 << 30, 1 << 39, one - (1 << 30), one - (1 << 20), one - 1):
        yield na * (one - j) + nb * j, d * one


def _curvature_gap(n, f_den, x):
    """(x, R(x) + 6) with R + 6 = 2 N/(s Q)^2 evaluated exactly at x and
    rounded once; the powers of den, a power of two, are shifts."""
    num, den = x
    e = (2 + 2 * (len(f_den) - 1) - (len(n) - 1)) * (den.bit_length() - 1)
    top = 2 * algebra.value(n, x) << max(e, 0)
    bottom = (num * algebra.value(f_den, x)) ** 2 << max(-e, 0)
    try:
        return x, top / bottom
    except OverflowError:
        return x, math.copysign(math.inf, top)


def _enclosed_curvature(p: RadialProfile, s_lo: float) -> HypothesisCheck:
    try:
        mass = p.mass_aspect
    except DecayError as exc:
        return _curvature_fails(str(exc))
    enclose, params = mass.enclose_jet, p.params
    limit = _CURVATURE_WORK // mass._size
    spent, top, undecided = 0, math.inf, None
    blocks = [(s_lo, sys.float_info.max)]  # depth first, lowest block first
    while blocks and spent < limit:
        a, b = blocks.pop()
        c = math.exp(0.5 * (math.log(a) + math.log(b)))
        passes, fails = -0.5 * CURVATURE_SLACK * a * a, -0.5 * CURVATURE_SLACK * b * b
        jet = enclose(a, b, params)
        spent += 1
        bounds = jet and jet[1]
        if bounds and bounds[0] < passes and bounds[1] >= fails:
            # intersect with the mean-value form (s q)'(c) + (s q)''([a, b]) ([a, b] - c)
            curve = jet[2]
            point = curve and enclose(c, c, params)
            spent += curve is not None
            if point:
                point = point[1]
                bounds = (max(bounds[0], point[0] + min(curve[0] * (b - c), curve[1] * (a - c))),
                          min(bounds[1], point[1] + max(curve[1] * (b - c), curve[0] * (a - c))))
        if bounds and bounds[0] >= passes:
            continue
        if bounds and bounds[1] < fails:
            return _curvature_fails(
                "R(s = %.6g) = %.12g falls below -6 (certified: R < -6 - %g on [%.15g, %.15g] "
                "by enclosures of (s q)')" % (c, p.scalar_curvature(c), CURVATURE_SLACK, a, b)
            )
        if a < c < b:
            blocks += [(c, b), (a, c)]
        elif bounds is None and _overflows(p, b):
            top, blocks = a, []  # the range ends here, below every block left
        elif undecided is None:
            undecided = a, b  # too narrow to split
    if undecided or blocks:  # or the lowest block left when the budget ran out
        return _curvature_fails("R >= -6 is undecided on [%r, %r] after %d enclosures of "
                                "(s q)' (no certificate)" % ((undecided or blocks[-1]) + (spent,)))
    end = "inf)" if top == math.inf else "%.6g] (f, s q or (s q)' is not finite above it)" % top
    return HypothesisCheck("scalar_curvature", True, "R >= -6 - %g on [%.6g, %s, certified by "
                           "enclosures of (s q)'" % (CURVATURE_SLACK, s_lo, end))


def _overflows(p: RadialProfile, s: float) -> bool:
    """True where the interval code of the jet of f or s q has an infinite
    or NaN end at the point s, though the jet raises nothing: some
    operation overflows, even one a quotient rounds away, as in
    0/inf = 0.  A divisor, log or sqrt argument whose bounds merely hold
    0 is refused otherwise and is no overflow."""
    for tree in (p.f, p.mass_aspect):
        try:
            tree._jet_enclosure(s, s, p.params)
        except _Overflow:
            try:
                tree.jet(s, p.params)
            except DomainError:
                continue
            return True
        except _Unbounded:
            pass
    return False


def compare_volumes(
    p: RadialProfile, model_mass: float, tol: Tolerance | None = None
) -> ComparisonReport:
    """Full hypothesis-checked comparison of p against the model of mass m.

    Hypothesis failures land in the report (verdict "hypothesis_failed"),
    never in exceptions, so a batch sweep over profiles can record honest
    negatives.  The asymptotics check names the exact decay rate and where
    it was read, f = P/Q or the leading term of q; it fails, with the
    refusal, where the rate cannot be read or the defect tree the volumes
    evaluate cannot be built.  Numerical breakdowns (quadrature budget,
    instability) still raise.  A margin within EQUALITY_TOL is "equality"
    only for a profile whose P/Q, if it has one, is the model's.
    """
    if not (model_mass > 0.0 and math.isfinite(model_mass)):
        raise ValueError("model mass must be positive and finite, got %r" % (model_mass,))
    tol = tol or Tolerance()
    model = ads_schwarzschild(model_mass, p.delta)
    model_s0 = model.horizon.radius
    model_area = _FOUR_PI * model_s0 * model_s0

    horizon = None
    horizon_error = None
    try:
        horizon = p.horizon
    except DecayError as exc:
        horizon_error = str(exc)

    if horizon is not None:
        horizon_check = HypothesisCheck(
            "horizon",
            True,
            "outermost root s_h = %.12g, area = %.12g" % (horizon.radius, horizon.area),
        )
    else:
        horizon_check = HypothesisCheck(
            "horizon", False, horizon_error or "profile has no root on the scan range"
        )

    s_lo = horizon.radius if horizon is not None else 1e-2
    curvature_check = _check_curvature(p, s_lo)

    area = horizon.area if horizon is not None else None
    alpha = None
    if area is not None:
        if area >= model_area * (1.0 - 1e-12):
            alpha = max(0.0, math.log(area / model_area))
            area_check = HypothesisCheck(
                "area",
                True,
                "A = %.12g >= model area %.12g (alpha = %.6g)" % (area, model_area, alpha),
            )
        else:
            area_check = HypothesisCheck(
                "area", False, "A = %.12g < model area %.12g" % (area, model_area)
            )
    else:
        area_check = HypothesisCheck("area", False, "no horizon, so no boundary area")

    try:
        decay = p.asymptotics
        if decay.passed:
            p.q  # the volumes evaluate the defect tree, which may be refused
    except (DomainError, DecayError) as exc:
        asym_check = HypothesisCheck("asymptotics", False, str(exc))
    else:
        rate = "%g" % decay.measured_rate
        if rate == "-inf" and p.rational is not None:
            rate = "none (defect identically zero)"
        asym_check = HypothesisCheck(
            "asymptotics",
            decay.passed,
            "exact decay rate %s vs required %.3f (from %s)" % (
                rate, decay.required_rate, "f = P/Q" if p.rational else "the leading term of q"),
        )

    hypotheses = (curvature_check, horizon_check, area_check, asym_check)
    if not all(h.passed for h in hypotheses):
        return ComparisonReport(
            p.label, model_mass, hypotheses, area, model_area, alpha,
            None, None, None, "hypothesis_failed",
        )

    v_g = renormalized_volume(p, tol).value
    v_model = renormalized_volume(model, tol).value
    margin = v_g - v_model
    eq_tol = EQUALITY_TOL * max(1.0, abs(v_model))
    if (abs(margin) <= eq_tol and alpha <= EQUALITY_TOL
            and p.rational in (None, model.rational)):
        verdict = "equality"
    elif margin >= -eq_tol:
        verdict = "holds"
    else:
        verdict = "violated"
    return ComparisonReport(
        p.label, model_mass, hypotheses, area, model_area, alpha,
        v_g, v_model, margin, verdict,
    )


def mass_volume_sweep(masses: Sequence[float], tol: Tolerance | None = None) -> SweepResult:
    """Renormalized model volume over a strictly increasing mass grid."""
    masses = list(masses)
    if not masses:
        raise ValueError("mass grid is empty")
    for a, b in zip(masses, masses[1:]):
        if not b > a:
            raise ValueError("mass grid must be strictly increasing: %r before %r" % (a, b))
    tol = tol or Tolerance()
    rows = []
    prev = None
    monotone = True
    for m in masses:
        v = renormalized_volume(ads_schwarzschild(m), tol).value
        delta = None if prev is None else v - prev
        if delta is not None and not delta > 0.0:
            monotone = False
        rows.append(SweepRow(m, v, delta))
        prev = v
    return SweepResult(tuple(rows), monotone)
