"""Volumes and flow-based lower bounds for radial profiles.

The central object is the renormalized volume: the finite limit of
vol(g-ball) - vol(reference-ball) over an exhaustion by coordinate balls.
Both volumes diverge like r^3 separately, so the implementation integrates
the difference integrand

    d(s) = 4*pi*s^2 * (f(s)^-1/2 - (1+s^2)^-1/2)

in stabilized form: from the horizon in u = sqrt(s - s_h), which removes
the endpoint singularity, or, without a horizon, in t = log(1 + s), in
which the integrand is nearly flat at large s.  It subtracts the
reference ball inside the horizon in closed form and adds the remainder
integral over (r, infinity) via the substitution s = 1/u, which turns it
into a proper integral with a bounded integrand.  No asymptotic model of
the remainder is assumed; profiles whose defect decays at any admissible
rate are handled alike.

The flow bounds reparametrize coordinate spheres by the parameter t of
inverse mean curvature flow (area grows exactly as e^t, so the sphere
radius is s_h*e^(t/2)).  In this symmetric class the bound of
``flow_volume_lower_bound`` is an exact change of variables of the volume
integral, which makes it a sharp consistency check rather than a mere
inequality; the implementation cross-checks the two algebraic forms of
its integrand on every evaluation.
"""

from __future__ import annotations

import math
from functools import partial

from .errors import DecayError, QuadratureError
from .expressions import Expression, _Code, _define
from .metric import (
    Horizon,
    RadialProfile,
    ads_horizon_radius,
    ads_schwarzschild,
)
from .quadrature import (
    Integral,
    Tolerance,
    _integrate,
    _panel_source,
    _sqrt_range,
    integrate_sqrt_endpoint,
)
from .records import Record

__all__ = [
    "FlowTime",
    "RenormalizedVolume",
    "IsoIdentity",
    "flow_time",
    "model_bound_inner",
    "volume_between",
    "renormalized_volume",
    "flow_volume_lower_bound",
    "area_lower_bound",
    "isoperimetric_identity",
    "barrier_clearance",
]

DEFAULT_TRUNCATION_RADIUS = 1e3

_FOUR_PI = 4.0 * math.pi


class FlowTime(Record):
    """A point on the flow clock: parameter t and the sphere radius there."""

    t: float
    radius: float

    @property
    def area(self) -> float:
        return _FOUR_PI * self.radius * self.radius


def flow_time(horizon: Horizon, t: float) -> FlowTime:
    """Sphere reached at flow parameter t starting from the horizon."""
    if t < 0.0:
        raise ValueError("flow parameter must be nonnegative, got %r" % (t,))
    return FlowTime(t, horizon.radius * math.exp(0.5 * t))


class RenormalizedVolume(Record):
    """Renormalized volume with its truncation diagnostics.

    ``stability`` is |V(r) - V(10r)|, the observed dependence on the
    truncation radius; on success it is bounded by ten times the
    quadrature tolerance.
    """

    value: float
    truncation_radius: float
    tail_correction: float
    stability: float
    evaluations: int


class IsoIdentity(Record):
    lhs: float
    rhs: float
    rel_err: float
    evaluations: int


def model_bound_inner(area: float, t: float, alpha: float = 0.0, eps: float = 0.0) -> float:
    """Shared inner expression of the model volume bounds.

        eps + area*(1 - e^(-3(t-alpha)/2)) + 4*pi*e^(-t)*(1 - e^(-(t-alpha)/2))

    written with expm1 so it stays accurate near t = alpha.
    """
    dt = t - alpha
    return (
        eps
        + area * (-math.expm1(-1.5 * dt))
        + _FOUR_PI * math.exp(-t) * (-math.expm1(-0.5 * dt))
    )


# The profile integrals run as compiled panel kernels: one function per
# tree f, integrand and substitution computes a whole Kronrod panel (see
# quadrature._panel_source).  It reads the parameters once per panel, maps
# each node u to s, runs f and q inline, q's operations shared with f
# written once, and then the integrand.  The operations, their order and
# their errors are those of the integrand through f's and q's compiled
# functions under quadrature._panel, bit for bit.

# substitution -> (the node u to s, the value at u of the integrand w at s)
_SUBSTITUTIONS = {
    "s": (["s = u"], "w"),
    # u^2 = s - origin, the inverse-sqrt endpoint of integrate_sqrt_endpoint
    "sqrt": (["s = origin + u * u"], "2.0 * u * w"),
    # s = 1/u, the remainder integral over (r, infinity)
    "inverse": (["s = 1.0 / u"], "w / (u * u)"),
    # u = log(1 + s): the horizon-free core and the shell [r, 10r]
    "log1p": (["s = _expm1(u)"], "(1.0 + s) * w"),
    # u^2 = t, the flow parameter, and s the flow sphere's radius there
    "flow": (["t = u * u", "s = radius * _exp(0.5 * t)"], "2.0 * u * w"),
}

_NONPOSITIVE = "profile nonpositive at s=%r inside a volume integral"


def _defect_operand(code: _Code, f: Expression) -> str:
    """q emitted into ``code`` after f; where ``Expression.defect`` refuses,
    the code raises its DecayError at this point instead."""
    try:
        q = f.defect()
    except DecayError as exc:
        code.lines.append("raise DecayError(%r)" % str(exc))
        return "None"
    return q._emit(code)


def _build_kernel(f: Expression, integrand: str, substitution: str):
    code = _Code("value")
    for name in sorted(f.parameters()):
        code.param(name)  # hoisted: a profile binds every one of them
    setup, code.lines = code.lines, list(_SUBSTITUTIONS[substitution][0])
    fs = f._emit(code)
    if integrand in ("shell", "difference"):
        # f > 0, so also not NaN
        code.lines += ["if not %s > 0.0:" % fs, "    raise DomainError(%r %% (s,))" % _NONPOSITIVE]
    if integrand == "shell":
        # 4*pi*s^2 / sqrt(f(s)), the integrand of volume_between
        code.lines.append("w = %r * s * s / _sqrt(%s)" % (_FOUR_PI, fs))
    elif integrand == "difference":
        # d(s) = 4*pi*s^2 * (f^-1/2 - (1+s^2)^-1/2), the difference taken
        # as q/(sqrt(f) sqrt(1 + s^2) (sqrt(f) + sqrt(1 + s^2))), without
        # subtracting the two roots
        ps = code.assign("1.0 + %s" % code.assign("s * s"))
        qs = _defect_operand(code, f)
        code.lines += [
            "sf = _sqrt(%s)" % fs,
            "sp = _sqrt(%s)" % ps,
            "w = %r * s * s * (%s / (sf * sp * (sf + sp)))" % (_FOUR_PI, qs),
        ]
    else:
        # the flow bound's integrand in t, with p.hawking_mass(s) inlined as
        # 32*pi^(3/2)*s*q(s): s is at or outside the horizon for every
        # t >= 0, so its checks never fire.  The direct form subtracts terms
        # of size ~grown, so it is compared with the collapsed one at that
        # scale rather than at the (possibly tiny) collapsed value.
        setup += [
            "radius = origin.radius",
            "area = origin.area",
            "sqrt_area = _sqrt(area)",
            "a32 = area * sqrt_area",
        ]
        code.lines += [
            # f = 0 only at the horizon itself, t = 0
            "if %s < 0.0 or %s == 0.0 and t > 0.0:" % (fs, fs),
            "    raise DomainError('flow is not mean-convex: profile nonpositive at s=%r, t=%r'"
            " % (s, t))",
            "grown = 4.0 * _exp(t) * area",
        ]
        qs = _defect_operand(code, f)
        code.lines += [
            "mass = %r * s * %s" % (32.0 * math.pi ** 1.5, qs),
            "direct = grown + %r - _exp(-0.5 * t) / sqrt_area * mass" % (16.0 * math.pi),
            "collapsed = %r * %s" % (16.0 * math.pi, fs),
            "if abs(direct - collapsed) > 1e-9 * max(1.0, grown):",
            "    raise ArithmeticError('flow integrand cross-check failed at t=%r: %r vs %r'"
            " % (t, direct, collapsed))",
            "w = _exp(1.5 * t) * a32 / _sqrt(collapsed)",
        ]
    source = _panel_source("params, origin", setup, code.lines,
                           _SUBSTITUTIONS[substitution][1])
    constants = dict(code.constants, DecayError=DecayError, QuadratureError=QuadratureError,
                     _expm1=math.expm1)
    return _define(source, constants, "<panel>")


def _kernel(f: Expression, integrand: str, substitution: str):
    """The panel kernel ``kernel(params, origin, a, b) -> (value, err)`` of
    ``integrand`` ("difference", "shell" or "flow") of the profile tree f
    under ``substitution`` (see ``_SUBSTITUTIONS``); ``origin`` is the
    sqrt endpoint, or the flow's Horizon.  Compiled on first use and cached
    on f, like f's own compiled function."""
    kernels = f._kernels
    kernel = kernels.get((integrand, substitution))
    if kernel is None:
        kernel = kernels[integrand, substitution] = _build_kernel(f, integrand, substitution)
    return kernel


def _profile_integral(p: RadialProfile, integrand: str, substitution: str,
                      origin, a: float, b: float, tol: Tolerance) -> Integral:
    """The integral over [a, b], in the variable of ``substitution``, of
    p's ``integrand`` by its kernel (see ``_kernel``)."""
    kernel = _kernel(p.f, integrand, substitution)
    return _integrate(partial(kernel, p.params, origin), a, b, tol)


def volume_between(
    p: RadialProfile, s_lo: float, s_hi: float, tol: Tolerance | None = None
) -> Integral:
    """Metric volume of the coordinate shell {s_lo <= s <= s_hi}.

    When s_lo sits at the horizon the integrand carries an inverse
    square-root singularity there, handled by substitution.  Returns the
    full quadrature result; the volume is its ``value``.
    """
    tol = tol or Tolerance()
    if s_lo < 0.0 or s_hi < s_lo:
        raise ValueError("need 0 <= s_lo <= s_hi, got %r, %r" % (s_lo, s_hi))
    if s_lo == s_hi:
        return Integral(0.0, 0.0, 0)
    hz = p.horizon
    at_horizon = False
    if hz is not None:
        if s_lo < hz.radius * (1.0 - 1e-9):
            raise ValueError(
                "lower radius %r lies inside the horizon at %r" % (s_lo, hz.radius)
            )
        at_horizon = abs(s_lo - hz.radius) <= 1e-9 * max(1.0, hz.radius)

    if at_horizon:
        return _profile_integral(p, "shell", "sqrt", s_lo, 0.0, _sqrt_range(s_lo, s_hi), tol)
    return _profile_integral(p, "shell", "s", None, s_lo, s_hi, tol)


# the series 4*pi*s^3 * sum_k c_k s^(2k) of the reference ball, with
# c_k = binomial(-1/2, k)/(2k + 3), highest first for Horner's rule; it
# runs below s = 0.3, where the closed form cancels its leading terms, and
# 14 terms reach the rounding error there
_BALL_SERIES = tuple((-1) ** k * math.comb(2 * k, k) / (4 ** k * (2 * k + 3))
                     for k in reversed(range(14)))


def _reference_ball(s: float) -> float:
    """Volume of the reference ball of coordinate radius s,
    integral_0^s 4*pi*x^2 (1 + x^2)^-1/2 dx = 2*pi*(s sqrt(1 + s^2) - asinh s)."""
    if s > 0.3:
        return 2.0 * math.pi * (s * math.sqrt(1.0 + s * s) - math.asinh(s))
    x = s * s
    total = 0.0
    for c in _BALL_SERIES:
        total = total * x + c
    return _FOUR_PI * s * x * total


def renormalized_volume(
    p: RadialProfile,
    tol: Tolerance | None = None,
    truncation_radius: float | None = None,
) -> RenormalizedVolume:
    """Renormalized volume of the profile relative to the reference space.

    Computed as

        integral_{s_h}^{r} d(s) ds  -  integral_0^{s_h} 4 pi s^2 (1+s^2)^-1/2 ds
                                    +  integral_r^{infinity} d(s) ds

    with the first integral in sqrt(s - s_h), or in log(1 + s) when there
    is no horizon, the reference ball in closed form, and the remainder
    evaluated exactly (substitution s = 1/u) rather than modeled.  The
    truncation radius r defaults to max(DEFAULT_TRUNCATION_RADIUS, 10*s_h),
    so it stays outside a large horizon.  Requires the decay validation to
    pass; raises DecayError otherwise, and also when the reported stability
    |V(r) - V(10r)| exceeds ten times the quadrature tolerance; the shell
    [r, 10r] of V(10r) runs in log(1 + s).
    """
    tol = tol or Tolerance()
    report = p.asymptotics
    if not report.passed:
        raise DecayError(
            "defect of %r decays like s^%.3f, slower than the required s^%.3f; "
            "renormalized volume is not defined" % (p.label, report.measured_rate, report.required_rate)
        )
    hz = p.horizon
    s_h = hz.radius if hz is not None else 0.0
    r = truncation_radius
    if r is None:
        r = max(DEFAULT_TRUNCATION_RADIUS, 10.0 * s_h)
    if not (r > max(s_h, 0.0) and math.isfinite(r)):
        raise ValueError("truncation radius %r must be finite and exceed the horizon" % (r,))

    if hz is not None:
        core = _profile_integral(p, "difference", "sqrt", s_h, 0.0, _sqrt_range(s_h, r), tol)
    else:
        core = _profile_integral(p, "difference", "log1p", None, 0.0, math.log1p(r), tol)
    tail = _profile_integral(p, "difference", "inverse", None, 0.0, 1.0 / r, tol)
    evals = core.evaluations + tail.evaluations
    value = core.value - _reference_ball(s_h) + tail.value

    # recompute the split at 10r: the shell piece runs in log(1 + s), the
    # remainder in 1/s, so agreement cross-validates the substitutions
    shell = _profile_integral(p, "difference", "log1p", None,
                              math.log1p(r), math.log1p(10.0 * r), tol)
    tail10 = _profile_integral(p, "difference", "inverse", None, 0.0, 1.0 / (10.0 * r), tol)
    evals += shell.evaluations + tail10.evaluations
    value10 = value - tail.value + shell.value + tail10.value

    stability = abs(value10 - value)
    threshold = 10.0 * max(tol.abs, tol.rel * max(1.0, abs(value)))
    if stability > threshold:
        raise DecayError(
            "renormalized volume of %r depends on the truncation radius: "
            "|V(%g) - V(%g)| = %.3e exceeds %.3e" % (p.label, r, 10.0 * r, stability, threshold)
        )
    return RenormalizedVolume(value, r, tail.value, stability, evals)


def flow_volume_lower_bound(
    p: RadialProfile, tau: float, tol: Tolerance | None = None
) -> Integral:
    """Lower bound for the volume swept by the flow up to parameter tau.

    Evaluates

        integral_0^tau e^(3t/2) A^(3/2)
            (4 e^t A + 16 pi - e^(-t/2) A^(-1/2) m_H(t))^(-1/2) dt

    where m_H is the quasi-local mass of the flow sphere.  On this
    symmetric class the inner expression collapses to 16 pi f(s(t)); both
    forms are evaluated and must agree, which guards the mass and area
    bookkeeping against each other.  The bound is attained exactly here
    (the underlying convexity step is an equality when the mean curvature
    is constant on each sphere), so callers can compare the result against
    ``volume_between`` at full quadrature accuracy.
    """
    tol = tol or Tolerance()
    if tau < 0.0:
        raise ValueError("flow parameter must be nonnegative, got %r" % (tau,))
    hz = p.horizon
    if hz is None:
        raise ValueError("profile %r has no horizon to start the flow from" % (p.label,))
    if tau == 0.0:
        return Integral(0.0, 0.0, 0)
    return _profile_integral(p, "flow", "flow", hz, 0.0, _sqrt_range(0.0, tau), tol)


def area_lower_bound(area: float, tau: float, tol: Tolerance | None = None) -> Integral:
    """Volume lower bound depending on the initial area alone.

    Evaluates

        integral_0^tau e^t area^(3/2)
            ((1 - e^(-3t/2)) area + 4 pi (e^(-t) - e^(-3t/2)))^(-1/2) dt,

    the previous bound with the quasi-local mass frozen at its horizon
    value.  Always at most twice the swept volume on profiles whose mass
    is nondecreasing, with equality exactly when the mass is constant.
    """
    tol = tol or Tolerance()
    if not (area > 0.0 and math.isfinite(area)):
        raise ValueError("area must be positive and finite, got %r" % (area,))
    if tau < 0.0:
        raise ValueError("flow parameter must be nonnegative, got %r" % (tau,))
    if tau == 0.0:
        return Integral(0.0, 0.0, 0)
    a32 = area * math.sqrt(area)

    def integrand(t: float) -> float:
        return math.exp(t) * a32 / math.sqrt(model_bound_inner(area, t))

    return integrate_sqrt_endpoint(integrand, 0.0, tau, "lower", tol)


def isoperimetric_identity(
    m: float, s_top: float, tol: Tolerance | None = None
) -> IsoIdentity:
    """Coordinate-sphere volume identity on the one-parameter model family.

    lhs = twice the model volume between horizon and s_top; rhs = the
    area-only lower bound run for the matching flow duration.  The two are
    equal analytically; rel_err reports how closely two independent
    quadrature paths agree.
    """
    tol = tol or Tolerance()
    s0 = ads_horizon_radius(m)
    if s_top < s0:
        raise ValueError("s_top=%r lies inside the model horizon %r" % (s_top, s0))
    profile = ads_schwarzschild(m)
    shell = volume_between(profile, s0, s_top, tol)
    lhs = 2.0 * shell.value
    tau = 2.0 * math.log(s_top / s0) if s_top > s0 else 0.0
    bound = area_lower_bound(_FOUR_PI * s0 * s0, tau, tol)
    rhs = bound.value
    rel_err = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    return IsoIdentity(lhs, rhs, rel_err, shell.evaluations + bound.evaluations)


def barrier_clearance(p: RadialProfile, t: float, delta: float | None = None) -> float:
    """Factor by which the flow sphere at parameter t clears the barrier
    radius e^((1-delta)t/2); equals s_h * e^(delta*t/2) in closed form."""
    if delta is None:
        delta = p.delta
    if not (0.0 < delta < 0.25):
        raise ValueError("delta must lie in (0, 1/4), got %r" % (delta,))
    if t < 0.0:
        raise ValueError("flow parameter must be nonnegative, got %r" % (t,))
    hz = p.horizon
    if hz is None:
        raise ValueError("profile %r has no horizon" % (p.label,))
    return hz.radius * math.exp(0.5 * delta * t)
