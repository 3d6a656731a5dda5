"""Self-contained acceptance checks, one per shipped guarantee.

Each criterion bundles the assertions behind one user-facing promise of
the package (horizon exactness, mass constancy, curvature identities, the
bound equalities, the gap-function properties, the end-to-end comparison)
and reports a single pass/fail with a short numeric summary.  ``run_all``
executes all ten; the CLI `verify` subcommand and the test suite both
drive it, so the two always agree on what "working" means.

The checks are tolerance-honest: every threshold here matches what the
library is documented to deliver, not what happens to pass today.
"""

from __future__ import annotations

import math
import random

from .comparison import (
    GapSpec,
    compare_volumes,
    kernel_margin,
    kernel_threshold,
    mass_volume_sweep,
    volume_gap,
    volume_gap_regularized,
    volume_gap_slope,
)
from .metric import (
    RadialProfile,
    ads_horizon_radius,
    ads_schwarzschild,
    custom_profile,
    hyperbolic,
    rn_ads,
)
from .quadrature import Tolerance, geomspace
from .records import Record
from .volume import (
    area_lower_bound,
    flow_volume_lower_bound,
    isoperimetric_identity,
    renormalized_volume,
    volume_between,
)

__all__ = ["CriterionResult", "run_all", "CRITERIA"]

_FOUR_PI = 4.0 * math.pi


class CriterionResult(Record):
    index: int
    name: str
    passed: bool
    detail: str


def _result(index: int, name: str, failures: list[str], summary: str) -> CriterionResult:
    if failures:
        return CriterionResult(index, name, False, "; ".join(failures))
    return CriterionResult(index, name, True, summary)


def criterion_1() -> CriterionResult:
    """Horizon radius of the model family is exact."""
    failures = []
    for m, expected in ((2.0, 1.0), (30.0, 3.0)):
        got = ads_horizon_radius(m)
        if abs(got - expected) > 1e-12:
            failures.append("root(m=%g) = %.17g, expected %g" % (m, got, expected))
    worst = 0.0
    for m in geomspace(1e-3, 1e3, 50):
        s0 = ads_horizon_radius(m)
        residual = abs(ads_schwarzschild(m).value(s0))
        worst = max(worst, residual)
        if residual > 1e-12:
            failures.append("|f(root)| = %.3e at m=%g" % (residual, m))
    return _result(
        1, "horizon root exactness", failures,
        "root(2)=1 and root(30)=3 exactly; max |f(root)| = %.2e over 50 masses" % worst,
    )


def criterion_2() -> CriterionResult:
    """Quasi-local mass is constant on the model family, with the stated
    horizon value."""
    failures = []
    worst_spread = 0.0
    worst_horizon = 0.0
    for m in (0.5, 1.0, 2.0, 5.0):
        p = ads_schwarzschild(m)
        s0 = ads_horizon_radius(m)
        values = [p.hawking_mass(s) for s in geomspace(s0, 1e3, 50)]
        spread = (max(values) - min(values)) / abs(max(values))
        worst_spread = max(worst_spread, spread)
        if spread >= 1e-8:
            failures.append("mass spread %.3e at m=%g" % (spread, m))
        area = _FOUR_PI * s0 * s0
        expected = 4.0 * math.sqrt(area) * (area + _FOUR_PI)
        deviation = abs(p.hawking_mass(s0) - expected) / max(1.0, abs(expected))
        worst_horizon = max(worst_horizon, deviation)
        if deviation > 1e-10:
            failures.append("horizon mass off by %.3e at m=%g" % (deviation, m))
    return _result(
        2, "quasi-local mass constancy", failures,
        "max relative spread %.2e; horizon-value deviation %.2e" % (worst_spread, worst_horizon),
    )


def _fd_scalar_curvature(p: RadialProfile, s: float) -> float:
    h = 1e-6 * max(1.0, abs(s))
    df = (p.value(s + h) - p.value(s - h)) / (2.0 * h)
    return 2.0 * (1.0 - p.value(s) - s * df) / (s * s)


def criterion_3() -> CriterionResult:
    """Scalar curvature matches the closed forms and a finite-difference
    oracle."""
    failures = []
    worst_const = 0.0
    worst_family = 0.0
    worst_fd = 0.0
    constant_six = [(hyperbolic(), 0.3, None)]
    for m in (0.5, 1.0, 2.0, 5.0, 30.0):
        constant_six.append((ads_schwarzschild(m), ads_horizon_radius(m), m))
    for p, s_lo, m in constant_six:
        for s in geomspace(max(s_lo, 1e-2), 300.0, 20):
            dev = abs(p.scalar_curvature(s) + 6.0)
            worst_const = max(worst_const, dev)
            if dev > 1e-9:
                failures.append("R(%s, s=%.3g) deviates from -6 by %.3e" % (p.label, s, dev))
    for m, c in ((4.0, 1.0), (3.0, -1.0), (2.0, 0.5), (5.0, 2.0), (6.0, -2.0)):
        p = rn_ads(m, c)
        for s in geomspace(0.5, 100.0, 15):
            got = p.scalar_curvature(s)
            expected = -6.0 + 2.0 * c / s**4
            dev = abs(got - expected) / max(1.0, abs(expected))
            worst_family = max(worst_family, dev)
            if dev > 1e-9:
                failures.append("R(%s, s=%.3g) off closed form by %.3e" % (p.label, s, dev))
            fd_dev = abs(_fd_scalar_curvature(p, s) - got) / max(1.0, abs(got))
            worst_fd = max(worst_fd, fd_dev)
            if fd_dev > 1e-6:
                failures.append(
                    "finite-difference oracle disagrees by %.3e at (%s, s=%.3g)"
                    % (fd_dev, p.label, s)
                )
    return _result(
        3, "scalar curvature closed forms", failures,
        "constant families within %.2e of -6; charged family within %.2e of "
        "-6 + 2c/s^4; finite-difference oracle within %.2e" % (worst_const, worst_family, worst_fd),
    )


def criterion_4() -> CriterionResult:
    """Doubled shell volume equals the area-only bound on the model family."""
    failures = []
    worst = 0.0
    for m in (0.5, 1.0, 2.0, 5.0):
        s0 = ads_horizon_radius(m)
        for tau in (0.5, 1.0, 2.0, 4.0):
            s_top = s0 * math.exp(0.5 * tau)
            res = isoperimetric_identity(m, s_top)
            worst = max(worst, res.rel_err)
            if res.rel_err >= 1e-8:
                failures.append("rel err %.3e at m=%g tau=%g" % (res.rel_err, m, tau))
    return _result(
        4, "coordinate-sphere volume identity", failures,
        "max relative error %.2e over the 4x4 (m, tau) grid" % worst,
    )


def criterion_5() -> CriterionResult:
    """Flow lower bound is attained on rotationally symmetric profiles."""
    battery = [
        (ads_schwarzschild(2.0), 2.0 * math.log(2.0)),
        (ads_schwarzschild(0.5), 1.0),
        (rn_ads(4.0, 1.0), 1.0),
        (rn_ads(2.0, 0.5), 2.0),
        (custom_profile("1 + s^2 - 3/s + 1/s^3"), 1.5),
    ]
    failures = []
    worst = 0.0
    for p, tau in battery:
        s_h = p.horizon.radius
        bound = flow_volume_lower_bound(p, tau).value
        vol = volume_between(p, s_h, s_h * math.exp(0.5 * tau)).value
        rel = abs(bound - vol) / abs(vol)
        worst = max(worst, rel)
        if rel >= 1e-8:
            failures.append("bound misses volume by %.3e on %s" % (rel, p.label))
    return _result(
        5, "flow bound attained on symmetric profiles", failures,
        "max relative gap %.2e over 5 mean-convex profiles" % worst,
    )


def criterion_6() -> CriterionResult:
    """Area-only bound never exceeds twice the volume; equality exactly on
    the constant-mass family."""
    tol = Tolerance(rel=1e-12)
    battery = [
        (2.0, 0.0, 2.0 * math.log(2.0)),
        (1.0, 0.0, 1.0),
        (4.0, 1.0, 1.0),
        (2.0, 0.5, 1.5),
        (5.0, 2.0, 2.0),
    ]
    failures = []
    margins = []
    for m, c, tau in battery:
        p = ads_schwarzschild(m) if c == 0.0 else rn_ads(m, c)
        s_h = p.horizon.radius
        doubled = 2.0 * volume_between(p, s_h, s_h * math.exp(0.5 * tau), tol).value
        bound = area_lower_bound(p.horizon.area, tau, tol).value
        slack = doubled - bound
        if bound > doubled + 1e-10:
            failures.append("bound exceeds twice the volume by %.3e on %s" % (-slack, p.label))
        scale = max(1.0, abs(doubled))
        if c == 0.0 and abs(slack) > 1e-8 * scale:
            failures.append("expected equality on %s, slack %.3e" % (p.label, slack))
        if c > 0.0:
            margins.append(slack)
            if slack <= 1e-8 * scale:
                failures.append("expected strict slack on %s, got %.3e" % (p.label, slack))
    return _result(
        6, "area bound ordering and equality cases", failures,
        "strict slack on charged profiles: %s" % ", ".join("%.3g" % g for g in margins),
    )


def criterion_7() -> CriterionResult:
    """Renormalized volume: zero reference, truncation stability, and
    strict growth in the mass."""
    failures = []
    v0 = renormalized_volume(hyperbolic()).value
    if abs(v0) > 1e-9:
        failures.append("reference volume %.3e, expected 0" % v0)
    worst_stab = 0.0
    for m in (0.5, 2.0, 5.0):
        res = renormalized_volume(ads_schwarzschild(m))
        worst_stab = max(worst_stab, res.stability)
        if res.stability >= 1e-6:
            failures.append("truncation instability %.3e at m=%g" % (res.stability, m))
    sweep = mass_volume_sweep(geomspace(0.1, 10.0, 20))
    if not sweep.monotone:
        bad = [row.m for row in sweep.rows if row.delta_prev is not None and row.delta_prev <= 0]
        failures.append("volume not strictly increasing at m in %s" % bad)
    return _result(
        7, "renormalized volume normalization and growth", failures,
        "reference volume %.1e; worst |V(r) - V(10r)| = %.1e; strictly "
        "increasing over 20 masses" % (abs(v0), worst_stab),
    )


def criterion_8() -> CriterionResult:
    """Gap function and kernel inequality behave as documented."""
    failures = []
    areas = (math.pi, _FOUR_PI, 40.0 * math.pi)
    for a_bar in areas:
        if abs(volume_gap(GapSpec(a_bar, 0.0))) > 1e-12:
            failures.append("gap at alpha=0 not zero for area %.3g" % a_bar)
        previous = 0.0
        for alpha in [0.25 * k for k in range(1, 13)]:
            value = volume_gap(GapSpec(a_bar, alpha))
            if value <= 0.0:
                failures.append("gap not positive at (%.3g, %.2f)" % (a_bar, alpha))
            if value <= previous:
                failures.append("gap not increasing at (%.3g, %.2f)" % (a_bar, alpha))
            previous = value
    limit = volume_gap(GapSpec(_FOUR_PI, 1.0))
    gaps = [
        abs(volume_gap_regularized(GapSpec(_FOUR_PI, 1.0, eps)) - limit)
        for eps in (1e-2, 1e-3, 1e-4, 1e-5)
    ]
    if not all(a > b for a, b in zip(gaps, gaps[1:])):
        failures.append("regularized gap not converging monotonically: %s" % gaps)
    if not kernel_margin(1e-4, 1.0) > 0.0:
        failures.append("kernel margin not positive at ratio 1e-4")
    if not kernel_margin(1.0, 1.0) < 0.0:
        failures.append("kernel margin not negative at ratio 1")
    base = kernel_margin(1e-3, 1.0)
    for lam in (0.1, 10.0):
        scaled = kernel_margin(lam * 1e-3, lam * 1.0)
        dev = abs(scaled - base / math.sqrt(lam)) / abs(base)
        if dev > 1e-10:
            failures.append("scaling law off by %.3e at lambda=%g" % (dev, lam))
    thresholds = [kernel_threshold(mu) for mu in (0.1, 1.0, 10.0)]
    if not (1e-3 < thresholds[1] < 1.0):
        failures.append("threshold %.3e outside (1e-3, 1)" % thresholds[1])
    if max(thresholds) - min(thresholds) > 1e-8:
        failures.append("threshold not scale-invariant: %s" % thresholds)
    for a_bar in areas:
        for alpha in (0.0, 0.5, 1.0, 2.0):
            mu_hat = a_bar + (_FOUR_PI / 3.0) * math.exp(-alpha)
            for ratio in (1e-4, 1e-6):
                slope = volume_gap_slope(GapSpec(a_bar, alpha, ratio * mu_hat))
                if not slope.satisfied:
                    failures.append(
                        "slope bound missed at area %.3g alpha %.2g ratio %g"
                        % (a_bar, alpha, ratio)
                    )
    return _result(
        8, "gap function and kernel inequality", failures,
        "gap zero at 0, increasing on (0,3] for 3 areas; kernel threshold "
        "%.4g, scale-invariant; slope bound holds at small ratios" % thresholds[1],
    )


def criterion_9() -> CriterionResult:
    """End-to-end comparison: strict inequality off the model family,
    equality on it, detected hypothesis failure below the curvature bound."""
    failures = []
    pairs = [
        (1.0, 0.1), (2.0, 0.5), (3.0, 0.25), (3.0, 1.0), (4.0, 1.0),
        (5.0, 0.5), (5.0, 2.0), (6.0, 3.0), (8.0, 1.0), (10.0, 5.0),
    ]
    min_margin = math.inf
    for m, c in pairs:
        p = rn_ads(m, c)
        horizon = p.horizon
        if horizon is None:
            failures.append("no horizon for m=%g c=%g" % (m, c))
            continue
        matched = horizon.radius**3 + horizon.radius
        report = compare_volumes(p, matched)
        if report.verdict != "holds" or not report.margin > 0.0:
            failures.append(
                "expected strict inequality for m=%g c=%g, got %s margin %s"
                % (m, c, report.verdict, report.margin)
            )
            continue
        min_margin = min(min_margin, report.margin)
        chain_rhs = report.model_area**1.5 * volume_gap(GapSpec(report.model_area, report.alpha))
        if not 2.0 * report.margin >= chain_rhs - 1e-6:
            failures.append(
                "gap chain fails for m=%g c=%g: %.6g < %.6g" % (m, c, 2.0 * report.margin, chain_rhs)
            )
    self_report = compare_volumes(ads_schwarzschild(2.0), 2.0)
    if self_report.verdict != "equality":
        failures.append("self comparison verdict %s" % self_report.verdict)
    neg_report = compare_volumes(rn_ads(4.0, -1.0), 4.0)
    witness = [h for h in neg_report.hypotheses if h.name == "scalar_curvature" and not h.passed]
    if neg_report.verdict != "hypothesis_failed" or not witness:
        failures.append("negative-curvature case verdict %s" % neg_report.verdict)
    elif "below -6" not in witness[0].detail:
        failures.append("curvature witness missing: %r" % witness[0].detail)
    return _result(
        9, "end-to-end volume comparison", failures,
        "10 charged profiles strictly above their matched models (min margin "
        "%.3g); equality on the model itself; curvature violation detected "
        "with witness" % min_margin,
    )


def criterion_10() -> CriterionResult:
    """Pointwise identity tying mass monotonicity to the curvature bound,
    and the sign flip across the charged family."""
    failures = []
    rng = random.Random(20260822)
    worst = 0.0
    for _ in range(25):
        m = rng.uniform(0.5, 8.0)
        c = rng.uniform(-3.0, 3.0)
        while abs(c) < 0.05:
            c = rng.uniform(-3.0, 3.0)
        p = rn_ads(m, c)
        signs = []
        for _ in range(4):
            s = rng.uniform(0.3, 50.0)
            lhs = p.defect(s) + s * p.defect_slope(s)
            rhs = s * s * (p.scalar_curvature(s) + 6.0) / 2.0
            dev = abs(lhs - rhs) / max(1.0, abs(rhs))
            worst = max(worst, dev)
            if dev > 1e-9:
                failures.append("identity off by %.3e on %s at s=%.3g" % (dev, p.label, s))
            signs.append(math.copysign(1.0, lhs))
        expected = math.copysign(1.0, c)
        if any(sgn != expected for sgn in signs):
            failures.append("monotonicity sign does not match sign(c) on %s" % p.label)
    p0 = ads_schwarzschild(3.0)
    for s in (0.9, 2.0, 7.0, 40.0):
        drift = p0.defect(s) + s * p0.defect_slope(s)
        if abs(drift) > 1e-12:
            failures.append("uncharged profile drifts by %.3e at s=%g" % (drift, s))
    return _result(
        10, "mass monotonicity identity and sign flip", failures,
        "identity within %.2e on 25 random charged profiles; monotonicity "
        "sign equals sign(c); zero drift on the constant-mass family" % worst,
    )


CRITERIA = (
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
)


def run_all() -> list[CriterionResult]:
    return [check() for check in CRITERIA]
