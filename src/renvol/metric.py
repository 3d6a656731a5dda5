"""Spherically symmetric metrics g = f(s)^-1 ds^2 + s^2 g_(round sphere).

A metric in this class is described entirely by its radial profile f.
The reference space is f(s) = 1 + s^2; a profile is asymptotically close
to it when the defect q(s) = 1 + s^2 - f(s) decays fast enough, which
``validate_asymptotics`` checks on the decay rate of the pointwise metric
deviation |q|/f.  For a rational f = P/Q that rate is exact, deg N - deg P
for N = Q (1 + s^2) - P; for a tree with exp/log/sqrt it is fitted on a
logarithmic radius grid outside the horizon.
A profile computes its facts once and keeps them: the horizon, the
asymptotics report, f' and the exact rational form are cached on the
instance.  ``parse`` caches its trees by text, so every profile of a
family, built-in or custom, shares one tree and its compiled f, f', q
and q'.

Closed-form geometry used throughout:

    scalar curvature   R(s) = 2*(1 - f - s*f')/s^2 = -6 + 2*(s*q)'/s^2
    mean curvature     H(s) = 2*sqrt(f)/s          (coordinate sphere)
    quasi-local mass   m_H(s) = 32*pi^(3/2)*s*q(s)

The quasi-local (Hawking-type) mass is kept in its unnormalized form
sqrt(area) * (16*pi - integral(H^2 - 4)); no (16*pi)^(-3/2) factor is
applied anywhere in this package.

The defect q is never computed as the float subtraction (1 + s^2) - f(s),
which at s = 1e4 already loses half its digits and beyond s = 1e8 loses
all of them, while mass constancy, tail integrals and the decay fit need
q far out.  ``Expression.defect`` cancels the 1 and s^2 terms
symbolically once per tree, and ``RadialProfile.q`` and ``dq`` evaluate
that tree and its derivative compiled, for every profile alike.  The
exact decay rate of a rational profile needs neither.

The horizon is the outermost root of f on a fixed geometric grid on
(1e-6, 1e3].  For a profile without exp/log/sqrt, f = P/Q exactly
(``algebra.rational_form``), and ``RadialProfile.horizon`` finds the grid
cell that holds the outermost root of P by binary search on exact Sturm
counts, about 14 of them, then refines that cell.  Otherwise, and
wherever the float f at that cell's ends is undefined, NaN or does not
change sign, it walks the grid inward from its outer edge and refines the
first sign change it meets.  The walk skips blocks of grid points on
which ``Expression.enclose`` bounds the float values of f away from zero,
with the sign of the last value seen: no point there can be a zero or a
sign change, so the walk needs f only at each block's lowest point and
finds what a point-by-point walk finds.  The enclosure is compiled once,
by the emitter of f, and follows f's float operations.  A NaN f on the
walk raises DomainError naming the point.  Either way the refinement is
the same call, so both give the same radius bit for bit.  Model profiles
carry their closed-form horizon from ``ads_horizon_radius`` and search
nothing.
"""

from __future__ import annotations

import math
from array import array
from functools import cache, cached_property
from typing import Mapping

from . import algebra
from .errors import DecayError, DomainError
from .expressions import Expression, mass_aspect, parse
from .quadrature import find_root_bracketed, fit_slope, geomspace
from .records import Record

__all__ = [
    "RadialProfile",
    "Horizon",
    "AsymptoticsReport",
    "hyperbolic",
    "ads_schwarzschild",
    "rn_ads",
    "custom_profile",
    "ads_horizon_radius",
    "validate_asymptotics",
]

DEFAULT_DELTA = 0.2

# the default of RadialProfile.params; every profile stores its own copy
_NO_PARAMS: Mapping[str, float] = {}

_SCAN_LO = 1e-6
_SCAN_HI = 1e3
_SCAN_POINTS = 10_000

_FOUR_PI = 4.0 * math.pi


@cache
def _scan_grid() -> array:
    """The horizon search grid: _SCAN_POINTS forward products s *= ratio
    from _SCAN_LO, built on the first horizon search of the process."""
    ratio = (_SCAN_HI / _SCAN_LO) ** (1.0 / (_SCAN_POINTS - 1))
    grid = array("d")
    s = _SCAN_LO
    for _ in range(_SCAN_POINTS):
        grid.append(s)
        s *= ratio
    return grid


# the horizon walk certifies blocks of this many grid points at first,
# doubling on success and halving on failure; below _MIN_BLOCK it steps
# point by point, and each point step brings the size back up by one
_BLOCK = 16
_MIN_BLOCK = 4

# returned by _counted_horizon when the walk has to decide
_WALK = object()


def _counted_horizon(fn, numerator: list[int], grid: array):
    """The horizon of f = numerator/Q from exact Sturm counts: a Horizon,
    None for no root on the grid, or _WALK where the walk could find
    something else (f at the outer edge or at the ends of the root's cell
    undefined, NaN or not changing sign, or an exact zero on grid[0])."""
    try:
        if not fn(grid[-1]) > 0.0:
            return _WALK
    except DomainError:
        return _WALK
    seq = algebra.sturm(numerator)
    top = algebra.variations(seq, grid[-1])
    lo, hi = 0, len(grid) - 1
    if algebra.variations(seq, grid[lo]) == top:
        return None if algebra.value(seq[0], grid[lo]) else _WALK
    # a root lies in (grid[lo], grid[-1]] and none in (grid[hi], grid[-1]]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if algebra.variations(seq, grid[mid]) > top:
            lo = mid
        else:
            hi = mid
    try:
        f_lo, f_hi = fn(grid[lo]), fn(grid[hi])
    except DomainError:
        return _WALK
    if f_hi == 0.0:
        return Horizon(grid[hi], _FOUR_PI * grid[hi] * grid[hi])
    if (f_lo > 0.0) != (f_hi > 0.0) and not (math.isnan(f_lo) or math.isnan(f_hi)):
        return _refine(fn, grid[lo], grid[hi], f_lo, f_hi)
    return _WALK


def _refine(fn, lo: float, hi: float, f_lo: float, f_hi: float) -> Horizon:
    """The horizon in the sign-changing cell [lo, hi] of the search grid."""
    root = find_root_bracketed(fn, lo, hi, tol=1e-14 * max(1.0, hi), fa=f_lo, fb=f_hi)
    return Horizon(root, _FOUR_PI * root * root)


class Horizon(Record):
    """Outermost zero of the profile and the area of that sphere."""

    radius: float
    area: float


class AsymptoticsReport(Record):
    """Outcome of the decay-rate check performed by validate_asymptotics.

    For a rational profile, ``measured_rate`` is the exact exponent
    deg N - deg P of |q|/f = |N|/P (negative infinity when N = 0), and
    ``fit_points`` is 0: no defect is sampled.  Otherwise
    ``measured_rate`` is the fitted log-log slope of |q|/f (negative
    infinity when the defect vanishes identically on the grid), and
    ``fit_points`` the number of samples fitted.
    """

    passed: bool
    measured_rate: float
    required_rate: float
    fit_points: int


class RadialProfile(Record):
    """A radial profile f together with parameter bindings.

    ``delta`` in (0, 1/4) is the decay exponent the profile claims: the
    metric deviation from the reference space should fall off like
    s^-(2 + 4*delta).  The claim is checked by validate_asymptotics, not
    here.  Every parameter value must be finite.  Instances are immutable;
    do not mutate ``params`` after construction.  They hash by the items
    of ``params``, so equal profiles key one entry of a dict or set.
    """

    f: Expression
    params: Mapping[str, float]
    delta: float
    label: str

    def __init__(
        self,
        f: Expression,
        params: Mapping[str, float] = _NO_PARAMS,
        delta: float = DEFAULT_DELTA,
        label: str = "custom",
    ):
        if not (0.0 < delta < 0.25):
            raise ValueError("delta must lie in (0, 1/4), got %r" % (delta,))
        params = dict(params)
        for name, value in params.items():
            if not math.isfinite(value):
                raise ValueError("profile parameter %r must be finite, got %r" % (name, value))
        missing = f.parameters() - set(params)
        if missing:
            raise ValueError("unbound profile parameters: %s" % ", ".join(sorted(missing)))
        d = self.__dict__
        d["f"] = f
        d["params"] = params
        d["delta"] = delta
        d["label"] = label

    def __hash__(self):
        return hash((self.f, frozenset(self.params.items()), self.delta, self.label))

    @cached_property
    def df(self) -> Expression:
        """f' as a tree; shared by every profile built on the same f."""
        return self.f.derivative()

    @cached_property
    def q(self) -> Expression:
        """The defect 1 + s^2 - f as a cancellation-free tree (see
        ``Expression.defect``); shared by every profile built on the same f.
        Raises DecayError when the defect cannot be written without
        cancellation."""
        return self.f.defect()

    @cached_property
    def dq(self) -> Expression:
        """q' as a tree, the derivative of ``q``; shared like ``q``."""
        return self.q.derivative()

    @cached_property
    def mass_slope(self) -> Expression:
        """(s q)' as the derivative of ``mass_aspect(q)``, s q expanded
        like ``q`` (a model's is m, of slope 0).  Raises DecayError where
        ``q`` does."""
        return mass_aspect(self.q).derivative()

    def value(self, s: float) -> float:
        """f(s)."""
        return self.f.evaluate(s, self.params)

    def slope(self, s: float) -> float:
        """f'(s)."""
        return self.df.evaluate(s, self.params)

    def defect(self, s: float) -> float:
        """q(s) = 1 + s^2 - f(s), evaluated from the tree ``q``."""
        return self.q.evaluate(s, self.params)

    def defect_slope(self, s: float) -> float:
        """q'(s) = 2*s - f'(s), evaluated from the tree ``dq``."""
        return self.dq.evaluate(s, self.params)

    @cached_property
    def rational(self) -> tuple[list[int], list[int]] | None:
        """f = P/Q as integer polynomials, or None for a tree with
        exp/log/sqrt (see ``algebra.rational_form``); built once per profile."""
        return algebra.rational_form(self.f, self.params)

    @cached_property
    def horizon(self) -> Horizon | None:
        """Outermost root of f on the search grid, or None if f stays positive.

        The grid is ``_scan_grid``, geometric on (1e-6, 1e3].  When f = P/Q
        is rational and positive at the outer edge, a binary search on
        exact Sturm counts of P finds the cell (lo, hi] that holds P's
        outermost root in that range; no root there means no horizon.  If
        f at lo and hi is defined and changes between f > 0 and f <= 0,
        that cell is refined by safeguarded bracketed root finding, and an
        exact zero at hi is the horizon itself.  Otherwise (an undefined or
        NaN end, a root of even multiplicity, or a tree with exp/log/sqrt) the
        grid is walked inward from its outer edge to the first root seen
        from there: a point where f is exactly zero, or a change between
        f > 0 and f <= 0 from one point to the next, refined by the same
        call, so both paths give the same radius bit for bit.  Points where
        f is undefined are skipped and break the adjacency of their
        neighbours; a point where f is NaN raises DomainError naming it.
        Below the outermost defined point the walk first tries to pass
        over a block of points at once: where ``Expression.enclose`` bounds
        f on the block below by a positive number, or above by a negative
        one, every float f there is defined and of one sign.  When the last
        value seen is undefined or of that sign too, the block holds no
        root and no sign change, and f is evaluated only at its lowest
        point, the neighbour of the next one.  Blocks start at 16 points,
        double on success and halve on failure; below 4 the walk goes point
        by point.  A profile whose outermost defined value is negative
        cannot enclose a compact region and raises DecayError.  A pole of Q
        is no root for the count, while the walk would take its sign change
        for one.
        ``ads_schwarzschild`` profiles search nothing: they come with the
        closed-form root of ``ads_horizon_radius``.
        """
        fn = self.value
        grid = _scan_grid()
        if self.rational is not None:
            found = _counted_horizon(fn, self.rational[0], grid)
            if found is not _WALK:
                return found
        enclose, params = self.f.enclose, self.params
        outermost = True
        upper_s = upper_f = None
        size = _BLOCK
        i = len(grid) - 1
        # the grid is built upward, so the points and the refined root are
        # those of a scan from the inside that keeps its last sign change
        while i >= 0:
            if size >= _MIN_BLOCK and not outermost:
                j = max(i - size + 1, 0)
                bounds = enclose(grid[j], grid[i], params)
                if bounds is not None and (
                    bounds[0] > 0.0 and (upper_f is None or upper_f > 0.0)
                    or bounds[1] < 0.0 and (upper_f is None or upper_f < 0.0)
                ):
                    # f > 0 or f < 0 on all of grid[j..i], like the last
                    # value seen: no zero and no sign change
                    upper_s = grid[j]
                    upper_f = fn(upper_s)
                    i = j - 1
                    size *= 2
                else:
                    size //= 2
                continue
            s = grid[i]
            i -= 1
            if size < _MIN_BLOCK:
                size += 1
            try:
                fs = fn(s)
            except DomainError:
                upper_f = None
                continue
            if math.isnan(fs):
                raise DomainError(
                    "profile %r: f is NaN at s=%r on the horizon search grid"
                    % (self.label, s)
                )
            if outermost:
                if fs < 0.0:
                    raise DecayError(
                        "profile %r is negative at the outer scan edge; no "
                        "enclosing region exists" % self.label
                    )
                outermost = False
            elif upper_f is not None and (fs > 0.0) != (upper_f > 0.0):
                return _refine(fn, s, upper_s, fs, upper_f)
            if fs == 0.0:
                return Horizon(s, _FOUR_PI * s * s)
            upper_s = s
            upper_f = fs
        return None

    @cached_property
    def asymptotics(self) -> AsymptoticsReport:
        """The decay-rate check of ``validate_asymptotics``, run once per
        profile.

        A check that raises DomainError is not cached; it runs, and
        raises, again on the next access.
        """
        return validate_asymptotics(self)

    def mean_curvature(self, s: float) -> float:
        """H(s) = 2*sqrt(f(s))/s for the coordinate sphere of radius s."""
        if not s > 0.0:
            raise ValueError("radius must be positive, got %r" % (s,))
        fs = self.value(s)
        if fs < 0.0:
            raise DomainError("profile negative at s=%r; sphere is not spacelike-mean-convex" % (s,))
        return 2.0 * math.sqrt(fs) / s

    def scalar_curvature(self, s: float) -> float:
        """R(s) = -6 + 2*(s q)'(s)/s^2 from ``mass_slope``, the tree the
        curvature check reads: -6 exactly where s q is constant, which
        2*(1 - f - s*f')/s^2 missed near a tiny horizon.  Raises DecayError
        where the defect tree is refused, as ``hawking_mass`` does."""
        if not s > 0.0:
            raise ValueError("radius must be positive, got %r" % (s,))
        return -6.0 + 2.0 * self.mass_slope.evaluate(s, self.params) / (s * s)

    def hawking_mass(self, s: float) -> float:
        """Unnormalized quasi-local mass of the coordinate sphere at s.

        Equals sqrt(area) * (16*pi - integral over the sphere of H^2 - 4),
        which collapses to 32*pi^(3/2)*s*q(s) in this symmetric class.
        Requires s at or outside the horizon when one exists.
        """
        if not s > 0.0:
            raise ValueError("radius must be positive, got %r" % (s,))
        hz = self.horizon
        if hz is not None and s < hz.radius * (1.0 - 1e-12):
            raise ValueError(
                "radius %r lies inside the horizon at %r" % (s, hz.radius)
            )
        return 32.0 * math.pi ** 1.5 * s * self.defect(s)


_HYPERBOLIC = parse("1 + s^2")
_ADS = parse("1 + s^2 - m/s")
_RN_ADS = parse("1 + s^2 - m/s + c/s^2")


def hyperbolic(delta: float = DEFAULT_DELTA) -> RadialProfile:
    """The reference profile f = 1 + s^2."""
    return RadialProfile(_HYPERBOLIC, {}, delta, "hyperbolic")


def ads_schwarzschild(m: float, delta: float = DEFAULT_DELTA) -> RadialProfile:
    """One-parameter model family f = 1 + s^2 - m/s, m > 0."""
    if not (m > 0.0 and math.isfinite(m)):
        raise ValueError("mass must be positive and finite, got %r" % (m,))
    p = RadialProfile(_ADS, {"m": m}, delta, "ads m=%g" % m)
    # the closed-form root, stored where the cached property keeps it
    radius = ads_horizon_radius(m)
    p.__dict__["horizon"] = Horizon(radius, _FOUR_PI * radius * radius)
    return p


def rn_ads(m: float, c: float, delta: float = DEFAULT_DELTA) -> RadialProfile:
    """Two-parameter family f = 1 + s^2 - m/s + c/s^2.

    The sign of c is the sign of R + 6 everywhere, which makes the family
    a convenient probe of the curvature hypothesis.
    """
    if not (m > 0.0 and math.isfinite(m)):
        raise ValueError("mass must be positive and finite, got %r" % (m,))
    if not math.isfinite(c):
        raise ValueError("charge term must be finite, got %r" % (c,))
    return RadialProfile(_RN_ADS, {"m": m, "c": c}, delta, "rn-ads m=%g c=%g" % (m, c))


def custom_profile(
    text: str,
    params: Mapping[str, float] | None = None,
    delta: float = DEFAULT_DELTA,
    label: str | None = None,
) -> RadialProfile:
    """Build a profile from expression text; parameters bind at call time."""
    expr = parse(text)
    return RadialProfile(expr, params or {}, delta, label if label is not None else text)


def ads_horizon_radius(m: float) -> float:
    """Positive root of s^3 + s - m = 0 (horizon radius of the m-model).

    Safeguarded Newton iteration on the bracket [0, max(1, m^(1/3)) + 1];
    the cubic is strictly increasing so the root is unique and simple.
    """
    if not (m > 0.0 and math.isfinite(m)):
        raise ValueError("mass must be positive and finite, got %r" % (m,))
    lo = 0.0
    hi = max(1.0, m ** (1.0 / 3.0)) + 1.0
    x = min(hi - 1.0, max(0.5 * hi, 1e-3))
    for _ in range(200):
        g = x * x * x + x - m
        if g == 0.0:
            return x
        if g < 0.0:
            lo = x
        else:
            hi = x
        step = g / (3.0 * x * x + 1.0)
        nxt = x - step
        if not (lo < nxt < hi):
            nxt = 0.5 * (lo + hi)
        if abs(nxt - x) <= 1e-16 * max(1.0, abs(x)):
            return nxt
        x = nxt
    return x


def _defect_kernels(p: RadialProfile):
    """The compiled q of ``p``: ``q(s, p.params)`` is ``p.defect(s)`` at a
    float s, one call instead of three.  Where ``Expression.defect``
    refuses the tree, it raises that DecayError when called, as the method
    would."""
    try:
        return p.q._compiled
    except DecayError as exc:
        message = str(exc)

        def fail(s, params):
            raise DecayError(message)

        return fail


def validate_asymptotics(p: RadialProfile) -> AsymptoticsReport:
    """Check that the metric deviation |q|/f decays like s^-(2 + 4*delta).

    f must be positive on a 41-point geometric grid over four decades,
    from s_0 = max(1e2, 10*s_h) to 1e4*s_0, where s_h is the horizon
    radius, so a large horizon does not reach into it; a profile without
    a horizon, or whose horizon search raises DecayError, uses [1e2, 1e6].
    Raises DomainError naming the first grid point where f is not.

    For a rational profile, f = P/Q (``RadialProfile.rational``), the rate
    is exact: q = N/Q with N = Q (1 + s^2) - P, so |q|/f = |N|/P decays
    like s^(deg N - deg P), and like s^-inf when N = 0.  It passes when
    the rate is at most -(2 + 4*delta), with no slack.  q is not
    evaluated, so the report has no fitted points (0), and a defect tree
    that ``Expression.defect`` refuses raises nothing here.

    Otherwise (exp/log/sqrt, or a form above the size cap) the rate is the
    centered least-squares log-log slope (``fit_slope``) of |q|/f over the
    grid, and it passes when that slope is at most -(2 + 4*delta) up to a
    fit tolerance of 0.05.  Samples where the defect is exactly zero are
    left out, and a defect that vanishes on the whole grid passes with
    rate -inf.  A refused defect tree raises DecayError at the first
    sample.  ``RadialProfile.asymptotics`` caches this report on the
    profile.
    """
    required = -(2.0 + 4.0 * p.delta)
    s_lo = 1e2
    try:
        horizon = p.horizon
    except DecayError:
        horizon = None
    if horizon is not None:
        s_lo = max(s_lo, 10.0 * horizon.radius)
    f, params = p.f._compiled, p.params
    form = p.rational
    if form is None:
        q = _defect_kernels(p)
    log_s = []
    log_norm = []
    for s in geomspace(s_lo, 1e4 * s_lo, 41):
        fs = f(s, params)
        if not (fs > 0.0):
            raise DomainError("profile nonpositive at s=%r on the asymptotics grid" % (s,))
        if form is not None:
            continue
        qs = q(s, params)
        if qs == 0.0:
            continue
        norm = abs(qs) / fs
        log_s.append(math.log(s))
        log_norm.append(math.log(norm))
    if form is not None:
        num, den = form
        n = algebra.sub(algebra.mul(den, [1, 0, 1]), num)
        rate = float(len(n) - len(num)) if n else -math.inf
        return AsymptoticsReport(rate <= required, rate, required, 0)
    if len(log_s) < 2:
        return AsymptoticsReport(True, -math.inf, required, len(log_s))
    rate = fit_slope(log_s, log_norm)
    return AsymptoticsReport(rate <= required + 0.05, rate, required, len(log_s))
