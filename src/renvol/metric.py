"""Spherically symmetric metrics g = f(s)^-1 ds^2 + s^2 g_(round sphere).

A metric in this class is described entirely by its radial profile f.
The reference space is f(s) = 1 + s^2; a profile is asymptotically close
to it when the defect q(s) = 1 + s^2 - f(s) decays fast enough, which
``validate_asymptotics`` checks by fitting the decay rate of the pointwise
metric deviation |q|/f on a logarithmic radius grid outside the horizon.
A profile computes its facts once and keeps them: the horizon, the
asymptotics report and f' are cached on the instance.  The family texts
are parsed once, so every profile of a family shares one tree and its
compiled f, f', q and q'.

Closed-form geometry used throughout:

    scalar curvature   R(s) = 2*(1 - f - s*f')/s^2
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
that tree and its derivative compiled, for every profile alike.

The horizon is the outermost root of f.  ``RadialProfile.horizon`` walks
a fixed geometric grid on (1e-6, 1e3] inward from its outer edge and
refines the first sign change it meets, so the points inside the
horizon are never evaluated; a profile without a root walks the whole
grid.  Model profiles carry their closed-form horizon from
``ads_horizon_radius`` and walk nothing.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Mapping

from .errors import DecayError, DomainError
from .expressions import Expression, parse
from .quadrature import find_root_bracketed, fit_slope, geomspace

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


@dataclass(frozen=True)
class Horizon:
    """Outermost zero of the profile and the area of that sphere."""

    radius: float
    area: float


@dataclass(frozen=True)
class AsymptoticsReport:
    """Outcome of the decay-rate fit performed by validate_asymptotics.

    ``measured_rate`` is the fitted log-log slope of |q|/f (negative
    infinity when the defect vanishes identically on the grid), and
    ``derivative_slope`` is the corresponding slope for the sampled
    defect-derivative trend |q'|/s, reported for diagnosis only.
    """

    passed: bool
    measured_rate: float
    required_rate: float
    fit_points: int
    derivative_slope: float | None


@dataclass(frozen=True)
class RadialProfile:
    """A radial profile f together with parameter bindings.

    ``delta`` in (0, 1/4) is the decay exponent the profile claims: the
    metric deviation from the reference space should fall off like
    s^-(2 + 4*delta).  The claim is checked by validate_asymptotics, not
    here.  Instances are immutable; do not mutate ``params`` after
    construction.
    """

    f: Expression
    params: Mapping[str, float] = field(default_factory=dict)
    delta: float = DEFAULT_DELTA
    label: str = "custom"

    def __post_init__(self):
        if not (0.0 < self.delta < 0.25):
            raise ValueError("delta must lie in (0, 1/4), got %r" % (self.delta,))
        object.__setattr__(self, "params", dict(self.params))
        missing = self.f.parameters() - set(self.params)
        if missing:
            raise ValueError("unbound profile parameters: %s" % ", ".join(sorted(missing)))

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

    def mass_aspect(self, s: float) -> float:
        """s * q(s); constant in s exactly when the defect decays like m/s."""
        return s * self.defect(s)

    @cached_property
    def horizon(self) -> Horizon | None:
        """Outermost root of f on the search grid, or None if f stays positive.

        Walks the geometric grid of ``_scan_grid`` on (1e-6, 1e3] inward
        from its outer edge and stops at the first root seen from there:
        a point where f is exactly zero, or a change between f > 0 and
        f <= 0 from one point to the next, which is refined by safeguarded
        bracketed root finding.  Points where f is undefined are skipped
        and break the adjacency of their neighbours.  A profile whose
        outermost defined value is negative cannot enclose a compact
        region and raises DecayError.  A profile with no root walks the
        whole grid.  ``ads_schwarzschild`` profiles skip the walk: they
        come with the closed-form root of ``ads_horizon_radius``.
        """
        fn = self.value
        outermost = True
        upper_s = upper_f = None
        # the grid is built upward, so the points and the refined root are
        # those of a scan from the inside that keeps its last sign change
        for s in reversed(_scan_grid()):
            try:
                fs = fn(s)
            except DomainError:
                upper_f = None
                continue
            if outermost:
                if fs < 0.0:
                    raise DecayError(
                        "profile %r is negative at the outer scan edge; no "
                        "enclosing region exists" % self.label
                    )
                outermost = False
            elif upper_f is not None and (fs > 0.0) != (upper_f > 0.0):
                root = find_root_bracketed(
                    fn, s, upper_s, tol=1e-14 * max(1.0, upper_s), fa=fs, fb=upper_f
                )
                return Horizon(root, _FOUR_PI * root * root)
            if fs == 0.0:
                return Horizon(s, _FOUR_PI * s * s)
            upper_s = s
            upper_f = fs
        return None

    @cached_property
    def asymptotics(self) -> AsymptoticsReport:
        """The decay-rate fit of ``validate_asymptotics``, run once per profile.

        A fit that raises DomainError is not cached; it runs, and raises,
        again on the next access.
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
        """R(s) = 2*(1 - f - s*f')/s^2."""
        if not s > 0.0:
            raise ValueError("radius must be positive, got %r" % (s,))
        return 2.0 * (1.0 - self.value(s) - s * self.slope(s)) / (s * s)

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


def validate_asymptotics(p: RadialProfile) -> AsymptoticsReport:
    """Fit the decay rate of the metric deviation |q|/f over four decades.

    The grid runs from s_0 = max(1e2, 10*s_h) to 1e4*s_0, where s_h is
    the horizon radius, so a large horizon does not reach into the fit;
    a profile without a horizon, or whose horizon search raises
    DecayError, is fitted on [1e2, 1e6].  Passes when the fitted log-log
    slope is at most -(2 + 4*delta) up to a fit tolerance of 0.05.
    Samples where the defect is exactly zero are left out, and a defect
    that vanishes on the whole grid passes with rate -inf.  The slopes are centered least-squares fits (``fit_slope``).
    ``RadialProfile.asymptotics`` caches this report on the profile.

    Raises DomainError when f is nonpositive anywhere on the grid.
    """
    required = -(2.0 + 4.0 * p.delta)
    log_s = []
    log_norm = []
    log_dslope = []
    s_lo = 1e2
    try:
        horizon = p.horizon
    except DecayError:
        horizon = None
    if horizon is not None:
        s_lo = max(s_lo, 10.0 * horizon.radius)
    for s in geomspace(s_lo, 1e4 * s_lo, 41):
        fs = p.value(s)
        if not (fs > 0.0):
            raise DomainError("profile nonpositive at s=%r on the asymptotics grid" % (s,))
        q = p.defect(s)
        if q == 0.0:
            continue
        norm = abs(q) / fs
        log_s.append(math.log(s))
        log_norm.append(math.log(norm))
        dq = p.defect_slope(s)
        if dq != 0.0:
            log_dslope.append((math.log(s), math.log(abs(dq) / s)))
    if len(log_s) < 2:
        return AsymptoticsReport(True, -math.inf, required, len(log_s), None)
    rate = fit_slope(log_s, log_norm)
    dslope = None
    if len(log_dslope) >= 2:
        xs = [pair[0] for pair in log_dslope]
        ys = [pair[1] for pair in log_dslope]
        dslope = fit_slope(xs, ys)
    passed = rate <= required + 0.05
    return AsymptoticsReport(passed, rate, required, len(log_s), dslope)
