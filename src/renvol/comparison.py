"""Volume comparison against the one-parameter model family.

``compare_volumes`` is the top of the pipeline: it checks the standing
hypotheses (curvature bounded below by -6, an outermost horizon, an area
at least the model's, admissible decay) on a sampled grid, then computes
both renormalized volumes and classifies the margin.

The rest of the module is the machinery behind the strictness of that
comparison when the areas differ: the gap function

    I(alpha) = integral_alpha^inf e^t (X^-1/2 - Y^-1/2) dt
             - integral_0^alpha e^t Y^-1/2 dt

(X, Y the shifted and unshifted model bound kernels), its regularized
version, the lower bound for its derivative in alpha, and the kernel
inequality that drives that bound.  The difference X - Y collapses to
e^(-3t/2) times a constant in t, so the first integrand is evaluated
through the stabilized-difference helper everywhere; naive subtraction
would lose all significant digits beyond t - alpha of about 25.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DecayError, DomainError
from .metric import RadialProfile, ads_horizon_radius, ads_schwarzschild, validate_asymptotics
from .quadrature import (
    Tolerance,
    find_root_bracketed,
    integrate,
    integrate_semi_infinite,
    integrate_sqrt_endpoint,
    inv_sqrt_diff,
)
from .volume import model_bound_inner, renormalized_volume

__all__ = [
    "GapSpec",
    "SlopeBound",
    "HypothesisCheck",
    "ComparisonReport",
    "SweepRow",
    "SweepResult",
    "area_log_ratio",
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

_CURVATURE_GRID_POINTS = 2000
_CURVATURE_GRID_TOP = 1e4


@dataclass(frozen=True)
class GapSpec:
    """Arguments of the gap function: model area, log-area ratio, regularizer."""

    model_area: float
    alpha: float
    epsilon: float = 0.0

    def __post_init__(self):
        if not (self.model_area > 0.0 and math.isfinite(self.model_area)):
            raise ValueError("model area must be positive and finite, got %r" % (self.model_area,))
        if not (self.alpha >= 0.0 and math.isfinite(self.alpha)):
            raise ValueError("alpha must be nonnegative and finite, got %r" % (self.alpha,))
        if not (self.epsilon >= 0.0 and math.isfinite(self.epsilon)):
            raise ValueError("epsilon must be nonnegative and finite, got %r" % (self.epsilon,))


@dataclass(frozen=True)
class SlopeBound:
    """d/dalpha of the regularized gap, with its claimed lower bound."""

    value: float
    lower_bound: float
    satisfied: bool


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ComparisonReport:
    """Hypothesis checklist plus the volume comparison itself.

    ``volume``, ``model_volume``, ``margin`` are None when a hypothesis
    failed (the comparison is then never computed).  The verdict is one of
    "holds", "equality", "violated", "hypothesis_failed"; "equality"
    additionally requires the areas to match (alpha below tolerance).
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


@dataclass(frozen=True)
class SweepRow:
    m: float
    volume: float
    delta_prev: float | None


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    monotone: bool


def area_log_ratio(area: float, model_area: float) -> float:
    """alpha = log(area / model_area); requires area >= model_area > 0."""
    if not (model_area > 0.0):
        raise ValueError("model area must be positive, got %r" % (model_area,))
    if area < model_area:
        raise ValueError(
            "area %r is below the model area %r; the comparison hypothesis "
            "requires at least the model area" % (area, model_area)
        )
    return math.log(area / model_area)


def _gap_value(a_bar: float, alpha: float, eps: float, tol: Tolerance) -> float:
    if alpha == 0.0:
        # both integrands vanish identically
        return 0.0
    c_alpha = a_bar * math.expm1(1.5 * alpha) + _FOUR_PI * math.expm1(0.5 * alpha)

    def difference(t: float) -> float:
        x = model_bound_inner(a_bar, t, alpha, eps)
        y = model_bound_inner(a_bar, t, 0.0, eps)
        return math.exp(t) * inv_sqrt_diff(x, y, y_minus_x=math.exp(-1.5 * t) * c_alpha)

    first = integrate_semi_infinite(
        difference, alpha, tol, decay_rate=0.5, sqrt_endpoint_at_a=(eps == 0.0)
    )

    def unshifted(t: float) -> float:
        return math.exp(t) / math.sqrt(model_bound_inner(a_bar, t, 0.0, eps))

    if eps == 0.0:
        second = integrate_sqrt_endpoint(unshifted, 0.0, alpha, "lower", tol)
    else:
        second = integrate(unshifted, 0.0, alpha, tol)
    return first.value - second.value


def volume_gap(spec: GapSpec, tol: Tolerance | None = None) -> float:
    """I(alpha): the limiting volume gap per unit model_area^(3/2).

    Zero at alpha = 0, strictly positive and increasing for alpha > 0.
    The spec must carry epsilon = 0; use volume_gap_regularized otherwise.
    """
    if spec.epsilon != 0.0:
        raise ValueError("volume_gap requires epsilon = 0; got %r" % (spec.epsilon,))
    return _gap_value(spec.model_area, spec.alpha, 0.0, tol or Tolerance())


def volume_gap_regularized(spec: GapSpec, tol: Tolerance | None = None) -> float:
    """The regularized gap I_eps(alpha); converges to volume_gap as eps -> 0."""
    if not spec.epsilon > 0.0:
        raise ValueError("regularized gap requires epsilon > 0; got %r" % (spec.epsilon,))
    return _gap_value(spec.model_area, spec.alpha, spec.epsilon, tol or Tolerance())


def volume_gap_slope(spec: GapSpec, tol: Tolerance | None = None) -> SlopeBound:
    """Derivative of the regularized gap in alpha, versus its lower bound.

    value = (e^alpha/4) (3 A + 4 pi e^-alpha) J - e^alpha eps^-1/2, where
    J integrates e^(-t/2) against the kernel to the power -3/2; the bound
    is (e^alpha/4) (A + (4 pi/3) e^-alpha)^-1/2.  ``satisfied`` honestly
    reports value >= bound, which fails for large eps by design.
    """
    if not spec.epsilon > 0.0:
        raise ValueError("slope bound requires epsilon > 0; got %r" % (spec.epsilon,))
    tol = tol or Tolerance()
    a_bar = spec.model_area
    alpha = spec.alpha
    eps = spec.epsilon
    shrink = math.exp(-alpha)

    def kernel(t: float) -> float:
        return (
            eps
            + a_bar * (-math.expm1(-1.5 * t))
            + _FOUR_PI * shrink * math.exp(-t) * (-math.expm1(-0.5 * t))
        )

    def integrand(t: float) -> float:
        return math.exp(-0.5 * t) * kernel(t) ** -1.5

    j = integrate_semi_infinite(integrand, 0.0, tol, decay_rate=0.5)
    grow = math.exp(alpha)
    value = 0.25 * grow * (3.0 * a_bar + _FOUR_PI * shrink) * j.value - grow / math.sqrt(eps)
    lower = 0.25 * grow / math.sqrt(a_bar + (_FOUR_PI / 3.0) * shrink)
    return SlopeBound(value, lower, value >= lower)


def kernel_margin(eps: float, mu: float, tol: Tolerance | None = None) -> float:
    """LHS - RHS of the kernel inequality

        3 mu * integral_0^inf e^(-t/2) (eps + mu (1 - e^(-3t/2)))^(-3/2) dt
            >= 4 eps^-1/2 + mu^-1/2.

    Positive margin means the inequality holds; it does for small eps/mu
    and fails near eps = mu.  Scales exactly like (eps, mu) -> lambda^-1/2.
    """
    if not (eps > 0.0 and math.isfinite(eps)):
        raise ValueError("eps must be positive and finite, got %r" % (eps,))
    if not (mu > 0.0 and math.isfinite(mu)):
        raise ValueError("mu must be positive and finite, got %r" % (mu,))
    tol = tol or Tolerance()

    def integrand(t: float) -> float:
        return math.exp(-0.5 * t) * (eps + mu * (-math.expm1(-1.5 * t))) ** -1.5

    lhs = 3.0 * mu * integrate_semi_infinite(integrand, 0.0, tol, decay_rate=0.5).value
    return lhs - 4.0 / math.sqrt(eps) - 1.0 / math.sqrt(mu)


def kernel_threshold(mu: float, tol: Tolerance | None = None) -> float:
    """Largest ratio eps/mu at which the kernel margin crosses zero.

    The margin scales exactly as (eps, mu) -> lambda^-1/2, so its sign
    depends on eps/mu alone; the search therefore runs at mu = 1 and the
    result is the same float for every valid mu.  Starting from ratio 1,
    where the margin must be negative, it walks down one decade at a time
    to the first positive margin, then refines that bracket on
    log10(eps/mu) with the bracketed secant to width 1e-11.  Walking from
    the top finds the largest crossing and never evaluates the margin at
    a tiny ratio, where its integrand peaks too sharply to resolve.
    Raises ValueError when the margin is not negative at ratio 1 or stays
    nonpositive down to ratio 1e-12.
    """
    if not (mu > 0.0 and math.isfinite(mu)):
        raise ValueError("mu must be positive and finite, got %r" % (mu,))
    tol = tol or Tolerance()

    def margin(x: float) -> float:
        return kernel_margin(10.0**x, 1.0, tol)

    f_top = margin(0.0)
    if not f_top < 0.0:
        raise ValueError("kernel margin %.3e at ratio 1 is not negative" % (f_top,))
    hi = 0.0
    while margin(hi - 1.0) <= 0.0:
        hi -= 1.0
        if hi <= -12.0:
            raise ValueError(
                "kernel margin is nonpositive at every decade from ratio 1 "
                "down to 1e-12; no crossing to bracket"
            )
    return 10.0 ** find_root_bracketed(margin, hi - 1.0, hi, tol=1e-11)


def _golden_min(fn, a: float, b: float, iterations: int = 90):
    inv_phi = 0.6180339887498949
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(iterations):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = fn(x2)
        if b - a <= 1e-12 * max(1.0, abs(a)):
            break
    return (x1, f1) if f1 <= f2 else (x2, f2)


def _check_curvature(p: RadialProfile, s_lo: float) -> HypothesisCheck:
    grid = np.geomspace(s_lo, _CURVATURE_GRID_TOP, _CURVATURE_GRID_POINTS)
    values = [p.scalar_curvature(float(s)) for s in grid]
    i = int(np.argmin(values))
    lo = float(grid[max(i - 1, 0)])
    hi = float(grid[min(i + 1, len(grid) - 1)])
    s_min, r_refined = _golden_min(p.scalar_curvature, lo, hi)
    r_min = min(values[i], r_refined)
    if r_refined > values[i]:
        s_min = float(grid[i])
    passed = r_min >= -6.0 - CURVATURE_SLACK
    if passed:
        detail = (
            "min sampled R = %.12g at s = %.6g (2000-point grid plus local "
            "refinement; sampled, not a global certificate)" % (r_min, s_min)
        )
    else:
        detail = "R(s = %.6g) = %.12g falls below -6 (sampled witness)" % (s_min, r_min)
    return HypothesisCheck("scalar_curvature", passed, detail)


def compare_volumes(
    p: RadialProfile, model_mass: float, tol: Tolerance | None = None
) -> ComparisonReport:
    """Full hypothesis-checked comparison of p against the model of mass m.

    Hypothesis failures land in the report (verdict "hypothesis_failed"),
    never in exceptions, so a batch sweep over profiles can record honest
    negatives.  Numerical breakdowns (quadrature budget, instability)
    still raise.
    """
    if not (model_mass > 0.0 and math.isfinite(model_mass)):
        raise ValueError("model mass must be positive and finite, got %r" % (model_mass,))
    tol = tol or Tolerance()
    model_s0 = ads_horizon_radius(model_mass)
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
        decay = validate_asymptotics(p)
    except (DomainError, DecayError) as exc:
        asym_check = HypothesisCheck("asymptotics", False, str(exc))
    else:
        rate = "none (defect identically zero)" if decay.measured_rate == -math.inf else (
            "%.3f" % decay.measured_rate
        )
        asym_check = HypothesisCheck(
            "asymptotics",
            decay.passed,
            "fitted decay rate %s vs required %.3f (sampled trend)" % (rate, decay.required_rate),
        )

    hypotheses = (curvature_check, horizon_check, area_check, asym_check)
    if not all(h.passed for h in hypotheses):
        return ComparisonReport(
            p.label, model_mass, hypotheses, area, model_area, alpha,
            None, None, None, "hypothesis_failed",
        )

    v_g = renormalized_volume(p, tol).value
    v_model = renormalized_volume(ads_schwarzschild(model_mass, p.delta), tol).value
    margin = v_g - v_model
    eq_tol = EQUALITY_TOL * max(1.0, abs(v_model))
    if abs(margin) <= eq_tol and alpha <= EQUALITY_TOL:
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
