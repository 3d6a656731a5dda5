"""Spherically symmetric metrics g = f(s)^-1 ds^2 + s^2 g_(round sphere).

A metric in this class is described entirely by its radial profile f.
The reference space is f(s) = 1 + s^2; a profile is asymptotically close
to it when the defect q(s) = 1 + s^2 - f(s) decays fast enough, which
``validate_asymptotics`` checks on the decay rate of the pointwise metric
deviation |q|/f.  That rate is exact: deg N - deg P for a rational
f = P/Q, with N = Q (1 + s^2) - P, and otherwise read from the leading
terms of the normal form behind q (``Expression.decay_rate``).
A profile computes its facts once and keeps them: the horizon, the
asymptotics report and the exact rational form are cached on the
instance.  ``parse`` caches its trees by text, and each tree keeps its q
and s q, so every profile of a family, built-in or custom, shares one
tree, its defect trees and their compiled functions and jets.

Closed-form geometry used throughout:

    scalar curvature   R(s) = 2*(1 - f - s*f')/s^2 = -6 + 2*(s*q)'/s^2
    mean curvature     H(s) = 2*sqrt(f)/s          (coordinate sphere)
    quasi-local mass   m_H(s) = 32*pi^(3/2)*s*q(s)

The quasi-local (Hawking-type) mass is kept in its unnormalized form
sqrt(area) * (16*pi - integral(H^2 - 4)); no (16*pi)^(-3/2) factor is
applied anywhere in this package.

The defect q is never computed as the float subtraction (1 + s^2) - f(s),
which at s = 1e4 already loses half its digits and beyond s = 1e8 loses
all of them, while mass constancy and tail integrals need q far out.
``Expression.defect`` cancels the 1 and s^2 terms symbolically once per
tree, ``RadialProfile.defect`` evaluates that tree compiled, and q', f'
and (s q)' come from jets (``Expression.jet``), for every profile alike.
No decay rate evaluates any of them.

The horizon is the outermost root of f on a fixed geometric grid on
(1e-6, 1e3], found for every profile by one walk inward from the grid's
outer edge (``RadialProfile.horizon``): a depth-first bisection that
skips each range of the grid where ``Expression.enclose`` bounds f away
from zero, and that for f = P/Q passes over the sign changes that exact
signs of P and Q show to be poles or rounding noise, and refines the
root to adjacent floats (``_refine``).  Model profiles carry the
horizon of ``ads_horizon_radius``, the bracketed Illinois root of
s^3 + s - m within 1.2 ulps, and search nothing.
"""

from __future__ import annotations

import math
from array import array
from functools import cache, cached_property, lru_cache
from itertools import accumulate, repeat
from operator import mul
from typing import Mapping

from . import algebra
from .errors import DecayError, DomainError
from .expressions import Expression, parse
from .quadrature import find_root_bracketed, geomspace
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
    return array("d", accumulate(repeat(ratio, _SCAN_POINTS - 1), mul, initial=_SCAN_LO))


# the walk encloses f on a range of at least this many grid points and
# steps through shorter ones point by point: below 4 points, evaluating f
# costs less than enclosing it.  With no minimum, the undefined gap (1, 3)
# of s - 2 + 0*sqrt((s - 1)*(s - 3)) takes 559 enclosures; with 4, 243.
_MIN_BLOCK = 4


def _is_root(form, grid: array, i: int, j: int) -> bool:
    """Whether the walk's event at grid[i] is a root of f: a sign change of
    the float f from grid[i] to grid[j] = grid[i + 1], or a float zero at
    grid[i] = grid[j].  Always for f without an exact form = (P, Q).  For
    f = P/Q, not where Q has unlike signs at the two points (a pole), and
    not where P has one nonzero sign at both unless P has a root above
    grid[i - 1] (rounding noise away from P's roots)."""
    if form is None:
        return True
    num, den = form
    if algebra.sign(den, grid[i]) != algebra.sign(den, grid[j]):
        return False
    at_i = algebra.sign(num, grid[i])
    if at_i != algebra.sign(num, grid[j]) or not at_i:
        return True
    seq = algebra.sturm(num)
    below = grid[max(i - 1, 0)]
    return algebra.variations(seq, below) > algebra.variations(seq, None)


def _refine(fn, lo: float, hi: float, f_lo: float, f_hi: float, form) -> Horizon:
    """The horizon in the sign-changing cell [lo, hi] of the search grid,
    refined to adjacent floats.  For f = P/Q (``form``, else None) the
    bracket holds only P's outermost root in the cell: the cell, where P'
    has one sign (``algebra.monotone``), or else each end of that root's
    isolating interval (``algebra.isolate``) where f has that end's sign."""
    if form is not None and not algebra.monotone(form[0], lo, hi):
        seq = algebra.sturm(algebra.odd_part(form[0]))
        for (na, da), (nb, db) in algebra.isolate(seq, lo, hi, 1):
            a, b = na / da, nb / db
            f_a, f_b = fn(a), fn(b)
            if (f_a > 0.0) == (f_lo > 0.0):
                lo, f_lo = a, f_a
            if (f_b > 0.0) == (f_hi > 0.0):
                hi, f_hi = b, f_b
    root = find_root_bracketed(fn, lo, hi, fa=f_lo, fb=f_hi)
    return Horizon(root, _FOUR_PI * root * root)


class Horizon(Record):
    """Outermost zero of the profile and the area of that sphere."""

    radius: float
    area: float


class AsymptoticsReport(Record):
    """Outcome of the decay-rate check performed by validate_asymptotics.

    ``measured_rate`` is the exact exponent k of |q|/f ~ c s^k log(s)^j at
    infinity: deg N - deg P of |q|/f = |N|/P for a rational profile, and
    ``Expression.decay_rate`` otherwise.  It is -inf where q vanishes
    identically or decays faster than every power of s.  ``passed`` also
    weighs the power j of log s, which decides only where k equals the
    required rate.
    """

    passed: bool
    measured_rate: float
    required_rate: float


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
    def q(self) -> Expression:
        """The defect 1 + s^2 - f as a cancellation-free tree (see
        ``Expression.defect``); shared by every profile built on the same f.
        Raises DecayError when the defect cannot be written without
        cancellation."""
        return self.f.defect()

    @property
    def mass_aspect(self) -> Expression:
        """s q as a tree (``Expression.mass_aspect``; a model's is m),
        shared like ``q``; its jet gives (s q)' and (s q)''.  Raises
        DecayError where ``q`` does."""
        return self.f.mass_aspect()

    def value(self, s: float) -> float:
        """f(s)."""
        return self.f.evaluate(s, self.params)

    def slope(self, s: float) -> float:
        """f'(s), from the jet of f."""
        return self.f.jet(s, self.params)[1]

    def defect(self, s: float) -> float:
        """q(s) = 1 + s^2 - f(s), evaluated from the tree ``q``."""
        return self.q.evaluate(s, self.params)

    def defect_slope(self, s: float) -> float:
        """q'(s) = 2*s - f'(s), from the jet of the tree ``q``."""
        return self.q.jet(s, self.params)[1]

    @cached_property
    def rational(self) -> tuple[list[int], list[int]] | None:
        """f = P/Q as integer polynomials, or None for a tree with
        exp/log/sqrt (see ``algebra.rational_form``).  The tree's normal
        form is built once and shared by every profile of the family; each
        profile binds its parameters' values into it and reduces once."""
        return algebra.rational_form(self.f, self.params)

    @cached_property
    def horizon(self) -> Horizon | None:
        """Outermost root of f on the search grid, or None if f stays positive.

        The grid is ``_scan_grid``, geometric on (1e-6, 1e3].  It is
        walked inward from its outer edge to the first root seen from there:
        a point where f is exactly zero, or a change between f > 0 and
        f <= 0 from one point to the next, refined to adjacent floats
        (``_refine``).  Points where f is undefined are skipped and break
        the adjacency of their neighbours; a point where f is NaN raises
        DomainError naming it.  A profile whose outermost defined value is
        negative cannot enclose a compact region and raises DecayError.

        Below the outermost defined point the walk bisects the grid depth
        first, upper half first.  A range of at least ``_MIN_BLOCK`` points
        passes, with the value at its lowest point, the neighbour of the
        next one, where ``Expression.enclose`` bounds f below by a positive
        number or above by a negative one, and the last value seen is
        undefined or of that sign too: every float f there is defined and of
        one sign, so it holds no root and no sign change.  Other ranges are
        halved.  Below a defined value, f at the lowest point comes first,
        and unless it is nonzero and of that value's sign the range is halved
        unenclosed, as its enclosure would be refused.  So only ranges
        without the root are enclosed, and f is evaluated at most once per
        point; a NaN or DomainError seen ahead raises nothing until the walk
        reaches its point.  Shorter ranges go point by point.  So the walk
        finds what a point-by-point walk finds.

        For f = P/Q (``rational``) the walk passes over each root that
        exact signs of P and Q at its grid points show to be a pole or
        rounding noise (``_is_root``).  A tree with exp/log/sqrt, or a form
        above the size cap, has its poles refined like roots.
        ``ads_schwarzschild`` profiles search nothing: they come with the
        bracketed Illinois root of ``ads_horizon_radius``, within 1.2 ulps.
        """
        f, params = self.f._compiled, self.params
        grid = _scan_grid()
        enclose = self.f.enclose
        seen = {}

        def at(i):
            # f at grid[i], evaluated once; None where it raises DomainError
            if i not in seen:
                try:
                    seen[i] = f(grid[i], params)
                except DomainError:
                    seen[i] = None
            return seen[i]

        outermost = True
        upper_s = upper_f = None
        # ranges of grid indices, the highest on top; the grid is built
        # upward, so the points and the refined root are those of a scan
        # from the inside that keeps its last sign change
        ranges = [(0, len(grid) - 1)]
        while ranges:
            lo, hi = ranges.pop()
            if outermost:
                # the outer edge point by point, down to f's first value
                if lo < hi:
                    ranges.append((lo, hi - 1))
                lo = hi
            elif hi - lo >= _MIN_BLOCK - 1:
                low = None if upper_f is None else at(lo)
                bounds = None
                if upper_f is None or low is not None and (
                    low > 0.0 and upper_f > 0.0 or low < 0.0 and upper_f < 0.0
                ):
                    bounds = enclose(grid[lo], grid[hi], params)
                if bounds is not None and (bounds[0] > 0.0 or bounds[1] < 0.0):
                    # f > 0 or f < 0 on all of grid[lo..hi], the sign of f at
                    # lo and so of a defined last value: no zero, no sign change
                    upper_s = grid[lo]
                    upper_f = at(lo)
                else:
                    mid = (lo + hi + 1) // 2
                    ranges += [(lo, mid - 1), (mid, hi)]
                continue
            for i in range(hi, lo - 1, -1):
                fs = at(i)
                if fs is None:
                    upper_f = None
                    continue
                s = grid[i]
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
                elif (
                    upper_f is not None
                    and (fs > 0.0) != (upper_f > 0.0)
                    and _is_root(self.rational, grid, i, i + 1)
                ):
                    return _refine(lambda x: f(x, params), s, upper_s, fs, upper_f,
                                   self.rational)
                if fs == 0.0 and _is_root(self.rational, grid, i, i):
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
        _check_radius(s)
        fs = self.value(s)
        if fs < 0.0:
            raise DomainError("profile negative at s=%r; sphere is not spacelike-mean-convex" % (s,))
        return 2.0 * math.sqrt(fs) / s

    def scalar_curvature(self, s: float) -> float:
        """R(s) = -6 + 2*(s q)'(s)/s^2 from the jet of ``mass_aspect``,
        which the curvature check reads too: -6 exactly where s q is
        constant, which 2*(1 - f - s*f')/s^2 missed near a tiny horizon.
        Raises DecayError where the defect tree is refused, as
        ``hawking_mass`` does."""
        _check_radius(s)
        return -6.0 + 2.0 * self.mass_aspect.jet(s, self.params)[1] / (s * s)

    def hawking_mass(self, s: float) -> float:
        """Unnormalized quasi-local mass of the coordinate sphere at s.

        Equals sqrt(area) * (16*pi - integral over the sphere of H^2 - 4),
        which collapses to 32*pi^(3/2)*s*q(s) in this symmetric class.
        Requires s at or outside the horizon when one exists.
        """
        _check_radius(s)
        hz = self.horizon
        if hz is not None and s < hz.radius * (1.0 - 1e-12):
            raise ValueError(
                "radius %r lies inside the horizon at %r" % (s, hz.radius)
            )
        return 32.0 * math.pi ** 1.5 * s * self.defect(s)


def _check_radius(s: float) -> None:
    if not 0.0 < s < math.inf:
        raise ValueError("radius must be positive and finite, got %r" % (s,))


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
    # the cached horizon, and P/Q and decay report in closed form:
    # f = (d s^3 + d s - n)/(d s) for m = n/d, so N = n, |q|/f ~ s^-3, and
    # f > 0 and finite on the asymptotics grid
    radius = ads_horizon_radius(m)
    n, d = float(m).as_integer_ratio()
    p.__dict__.update(horizon=Horizon(radius, _FOUR_PI * radius * radius),
                      rational=([-n, d, 0, d], [0, d]),
                      asymptotics=AsymptoticsReport(True, -3.0, -(2.0 + 4.0 * delta)))
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

    The Illinois root of ``find_root_bracketed``, within 1.2 ulps, on a
    bracket within a factor 2 of the root: s^3 + s - m on [m/2, m] for
    m <= 2, else s^2 + 1 - m/s on [c/2, 2c] with c = m^(1/3), which does
    not overflow where s^3 does.  The function is increasing in s, so the
    root is unique and simple.
    """
    if not (m > 0.0 and math.isfinite(m)):
        raise ValueError("mass must be positive and finite, got %r" % (m,))
    if m <= 2.0:
        return find_root_bracketed(lambda s: s * s * s + s - m, 0.5 * m, m)
    c = m ** (1.0 / 3.0)
    return find_root_bracketed(lambda s: s * s + 1.0 - m / s, 0.5 * c, 2.0 * c)


@lru_cache(maxsize=64)
def _asymptotics_grid(s_lo: float) -> tuple[float, ...]:
    """The 41 points of the asymptotics check, four decades from s_lo.
    s_lo is 1e2 for every horizon below 10, so that grid is built once."""
    return tuple(geomspace(s_lo, 1e4 * s_lo, 41))


def validate_asymptotics(p: RadialProfile) -> AsymptoticsReport:
    """Check that the metric deviation |q|/f decays like s^-(2 + 4*delta).

    f must be positive and finite on a 41-point geometric grid over four
    decades, from s_0 = max(1e2, 10*s_h) to 1e4*s_0, where s_h is the
    horizon radius, so a large horizon does not reach into it; a profile
    without a horizon, or whose horizon search raises DecayError, uses
    [1e2, 1e6].  An ``Expression.enclose`` of f over [s_0, 1e4*s_0] above
    0 passes every grid point at once.  Raises DomainError naming the
    first grid point where f is not, so an f that overflows there fails
    here, before any quadrature.

    The rate is exact; q is not evaluated.  For a rational profile,
    f = P/Q (``RadialProfile.rational``), q = N/Q with N = Q (1 + s^2) - P,
    so |q|/f = |N|/P decays like s^(deg N - deg P), and like s^-inf when
    N = 0; a refused defect tree raises nothing here.  Otherwise
    (exp/log/sqrt, or a form above the size cap) ``Expression.decay_rate``
    reads it from leading terms, and raises DecayError where it cannot,
    or where the defect tree is refused.  It passes when the rate is at
    most -(2 + 4*delta), with no slack.  ``RadialProfile.asymptotics``
    caches this report on the profile.
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
    window = p.f.enclose(s_lo, 1e4 * s_lo, params)  # bounds f at every grid point
    for s in () if window and window[0] > 0.0 else _asymptotics_grid(s_lo):
        fs = f(s, params)
        if not (0.0 < fs < math.inf):
            raise DomainError(
                "profile not positive and finite at s=%r on the asymptotics grid: f = %r" % (s, fs)
            )
    form = p.rational
    if form is None:
        rate, logs = p.f.decay_rate(params)
    else:
        num, den = form
        n = algebra.sub(algebra.mul(den, [1, 0, 1]), num)
        rate, logs = (len(n) - len(num) if n else -math.inf), 0
    return AsymptoticsReport((rate, logs) <= (required, 0), float(rate), required)
