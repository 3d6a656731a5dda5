"""Volumes and flow-based lower bounds for radial profiles.

The central object is the renormalized volume: the finite limit of
vol(g-ball) - vol(reference-ball) over an exhaustion by coordinate balls.
Both volumes diverge like r^3 separately, so the implementation integrates
the difference integrand

    d(s) = 4*pi*s^2 * (f(s)^-1/2 - (1+s^2)^-1/2)

in stabilized form in one compact map, s = s_h + W u^2/(1 - u^2),
W = 2 max(1, 2 s_h): u is sqrt((s - s_h)/W) near the horizon, where it
removes the endpoint singularity, and s = infinity at u = 1.  Beyond the
truncation radius the map runs in 1 - u, about W/(2 s), where floats are
dense: a defect decaying at any admissible rate makes d ds an integrable
power of 1 - u there.  Without a horizon the core up to the truncation
radius runs in log(1 + s).  The reference ball inside the horizon is
subtracted in closed form; no model of the remainder is assumed.

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
from functools import lru_cache, partial

from .errors import DecayError, QuadratureError
from .expressions import _GLOBALS, Expression, _Code
from .metric import RadialProfile, ads_schwarzschild
from .quadrature import Integral, Tolerance, _integrate, _NonFinite, _panel_kernel, _sqrt_range
from .records import Record

__all__ = [
    "RenormalizedVolume",
    "IsoIdentity",
    "volume_between",
    "renormalized_volume",
    "flow_volume_lower_bound",
    "area_lower_bound",
    "isoperimetric_identity",
]

_FOUR_PI = 4.0 * math.pi


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


# The profile integrals run as compiled panel kernels: one function per
# tree f, integrand and substitution computes a whole Kronrod panel (see
# quadrature._panel_kernel).  It reads the parameters once per panel, maps
# each node u to s, runs f and q inline, q's operations shared with f
# written once, and then the integrand.  The operations, their order and
# their errors are those of the integrand through f's and q's compiled
# functions evaluated node by node, bit for bit.

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
    setup, code.lines = code.lines, []
    var = "s"
    if integrand == "flow":
        # u^2 = t, the flow parameter, and s the flow sphere's radius there
        var = "t"
        code.lines += ["half = _exp(0.5 * t)", "s = radius * half"]
    elif substitution in ("sqrt", "compact", "far"):
        # u^2 = s - origin, or the compact map in u or 1 - u, from the horizon
        var = "v"
        code.lines.append("s = origin + v")
        if substitution != "sqrt":
            setup.append("width = _core_width(origin)")
    elif substitution == "layer":
        # u = log(1 + s): the horizon-free core
        setup.append("width = 1.0")
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
            # f = 0 only at the horizon itself, t = 0; a NaN f is refused too
            "if not (%s > 0.0 or %s == 0.0 and t == 0.0):" % (fs, fs),
            "    raise DomainError('flow is not mean-convex: profile nonpositive at s=%r, t=%r'"
            " % (s, t))",
            # e^t A overflows only where tau is too large, whatever f is
            "grown = 4.0 * half * half * area",
            "if grown == _INF:",
            "    raise _NonFinite('4 e^t A overflows at t=%r' % t)",
        ]
        qs = _defect_operand(code, f)
        code.lines += [
            "mass = %r * s * %s" % (32.0 * math.pi ** 1.5, qs),
            "direct = grown + %r - mass / half / sqrt_area" % (16.0 * math.pi),
            "collapsed = %r * %s" % (16.0 * math.pi, fs),
            "if not abs(direct - collapsed) <= 1e-9 * max(1.0, grown):",
            "    raise ArithmeticError('flow integrand cross-check failed at t=%r: %r vs %r'"
            " % (t, direct, collapsed))",
            # e^(3t/2) A^(3/2) / sqrt(collapsed), divided first: with f > 0 and
            # grown finite, a non-finite value, here or weighted, is an overflow
            "w = a32 / _sqrt(collapsed) * half * half * half",
        ]
    constants = dict(_GLOBALS, **code.constants, DecayError=DecayError, _NonFinite=_NonFinite,
                     _core_width=_core_width,
                     QuadratureError=_NonFinite if integrand == "flow" else QuadratureError)
    return _panel_kernel("params, origin", substitution, code.lines, var, setup, constants)


def _core_width(s_h: float) -> float:
    """W = 2 max(1, 2 s_h) of the volume's s = s_h + W u^2/(1 - u^2): u is
    sqrt-like in s - s_h below about W, and runs out to 1 beyond it."""
    return max(2.0, 4.0 * s_h)


def _kernel(f: Expression, integrand: str, substitution: str):
    """The panel kernel ``kernel(params, origin, a, b) -> (value, err)`` of
    ``integrand`` ("difference", "shell" or "flow") of the profile tree f
    under ``substitution`` (see ``quadrature._SUBSTITUTIONS``; the layer
    at width 1, the compact maps at ``_core_width(origin)``); ``origin`` is
    the sqrt or compact endpoint, or the flow's Horizon.
    Compiled on first use and cached on f, like f's own compiled function."""
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
    return _profile_integral(p, "shell", "plain", None, s_lo, s_hi, tol)


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


def renormalized_volume(p: RadialProfile, tol: Tolerance | None = None) -> RenormalizedVolume:
    """Renormalized volume of the profile relative to the reference space.

    Computed as

        integral_{s_h}^{r} d(s) ds  -  integral_0^{s_h} 4 pi s^2 (1+s^2)^-1/2 ds
                                    +  integral_r^{infinity} d(s) ds

    at the truncation radius r = max(1e3, 10 s_h), outside a large horizon,
    in the compact map s = s_h + W u^2/(1 - u^2), W = 2 max(1, 2 s_h)
    (``_core_width``): the first integral over [0, u_r), with
    u_R = sqrt((R - s_h)/(R - s_h + W)), and the remainder, evaluated
    rather than modeled, over t = 1 - u in (0, 1 - u_r].  Without a horizon
    the first integral runs in log(1 + s), and the remainder from s = 0.

    The tolerance bounds each integral, not V: V's error is about
    rel*(|core| + |remainder|), which exceeds rel*|V| where the two cancel.

    Requires the decay validation to pass; raises DecayError otherwise,
    and also when the reported stability |V(r) - V(10r)| exceeds ten times
    the quadrature tolerance, where V(10r) splits the remainder at
    t = 1 - u_10r.
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
    r = max(1e3, 10.0 * s_h)
    width = _core_width(s_h)
    # both u lie above 1/2, so 1 - u is exact and the pieces meet
    u_r, u_10r = (math.sqrt(v / (v + width)) for v in (r - s_h, 10.0 * r - s_h))

    def far(a, b):
        return _profile_integral(p, "difference", "far", s_h, a, b, tol)

    if hz is not None:
        core = _profile_integral(p, "difference", "compact", s_h, 0.0, u_r, tol)
    else:
        core = _profile_integral(p, "difference", "layer", None, 0.0, math.log1p(r), tol)
    ball = _reference_ball(s_h)
    tail = far(0.0, 1.0 - u_r)
    value = core.value - ball + tail.value
    shell = far(1.0 - u_10r, 1.0 - u_r)
    tail10 = far(0.0, 1.0 - u_10r)
    value10 = core.value - ball + shell.value + tail10.value
    evals = core.evaluations + tail.evaluations + shell.evaluations + tail10.evaluations

    stability = abs(value10 - value)
    threshold = 10.0 * max(tol.abs, tol.rel * max(1.0, abs(value)))
    if stability > threshold:
        raise DecayError(
            "renormalized volume of %r depends on the truncation radius: "
            "|V(%g) - V(%g)| = %.3e exceeds %.3e" % (p.label, r, 10.0 * r, stability, threshold)
        )
    return RenormalizedVolume(value, r, tail.value, stability, evals)


@lru_cache(maxsize=None)
def _area_kernel():
    """The panel kernel ``kernel(area, a32, a, b)`` of the area bound's
    integrand e^t a32 / sqrt(area (1 - e^(-3t/2)) + 4 pi e^(-t) (1 - e^(-t/2)))
    in u^2 = t, compiled on first use; a32 = area^(3/2).  Every factor is
    positive, so a non-finite value is an overflow."""
    # the inner sum written with expm1, so it stays accurate near t = 0
    inner = "area * -_expm1(-1.5 * t) + %r * _exp(-t) * -_expm1(-0.5 * t)" % _FOUR_PI
    return _panel_kernel("area, a32", "sqrt", ["w = _exp(t) * a32 / _sqrt(%s)" % inner], "t",
                         constants={"QuadratureError": _NonFinite})


def _check_tau(tau: float) -> None:
    if not 0.0 <= tau < math.inf:
        raise ValueError("tau must be nonnegative and finite, got %r" % (tau,))


def _up_to_tau(kernel, tau: float, tol: Tolerance) -> Integral:
    """The integral of a flow-bound kernel over [0, tau] in u^2 = t;
    ValueError naming tau where an exponential of t overflows, the
    integrand that carries it (the kernel's ``_NonFinite``), or the sum."""
    try:
        result = _integrate(kernel, 0.0, _sqrt_range(0.0, tau), tol)
        if math.isfinite(result.value):
            return result
    except (OverflowError, _NonFinite):
        pass
    raise ValueError("tau = %r is too large: the bound overflows with e^tau" % (tau,))


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
    _check_tau(tau)
    hz = p.horizon
    if hz is None:
        raise ValueError("profile %r has no horizon to start the flow from" % (p.label,))
    if tau == 0.0:
        return Integral(0.0, 0.0, 0)
    return _up_to_tau(partial(_kernel(p.f, "flow", "sqrt"), p.params, hz), tau, tol)


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
    _check_tau(tau)
    if tau == 0.0:
        return Integral(0.0, 0.0, 0)
    return _up_to_tau(partial(_area_kernel(), area, area * math.sqrt(area)), tau, tol)


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
    profile = ads_schwarzschild(m)
    horizon = profile.horizon
    s0 = horizon.radius
    if s_top < s0:
        raise ValueError("s_top=%r lies inside the model horizon %r" % (s_top, s0))
    shell = volume_between(profile, s0, s_top, tol)
    lhs = 2.0 * shell.value
    tau = 2.0 * math.log(s_top / s0) if s_top > s0 else 0.0
    bound = area_lower_bound(horizon.area, tau, tol)
    rhs = bound.value
    rel_err = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    return IsoIdentity(lhs, rhs, rel_err, shell.evaluations + bound.evaluations)
