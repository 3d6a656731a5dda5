"""Shell volumes, renormalized volume, and the flow/area lower bounds."""

import math
import random
from functools import lru_cache, partial

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import renvol.quadrature
import renvol.volume
from renvol.errors import DecayError, DomainError, QuadratureError
from renvol.expressions import Add, Call, Expression, Mul, Num, Var, parse
from renvol.metric import (
    RadialProfile,
    _scan_grid,
    ads_schwarzschild,
    custom_profile,
    hyperbolic,
    rn_ads,
    validate_asymptotics,
)
from renvol.quadrature import _XGK, Integral, Tolerance, _integrate, _NonFinite
from renvol.volume import (
    _kernel,
    _reference_ball,
    area_lower_bound,
    flow_volume_lower_bound,
    isoperimetric_identity,
    renormalized_volume,
    volume_between,
)

from helpers import (
    chain_difference_integrand,
    chain_flow_integrand,
    chain_shell_integrand,
    chain_validate_asymptotics,
    exact_validate_asymptotics,
    hyperbolic_ball_volume,
    loop_panel,
    model_bound_inner,
    random_tree,
)

FOUR_PI = 4.0 * math.pi

# reference shell values, precomputed with mpmath at 50-digit precision
ADS2_SHELL_1_TO_2 = 23.76413818787774962224794
ADS2_RENORMALIZED = 10.57979709432415597175408


class TestVolumeBetween:
    def test_reference_ball_closed_form(self):
        for s in (0.5, 1.0, 3.0):
            got = volume_between(hyperbolic(), 0.0, s)
            assert got.value == pytest.approx(hyperbolic_ball_volume(s), rel=1e-12)

    def test_empty_shell(self):
        assert volume_between(hyperbolic(), 2.0, 2.0) == Integral(0.0, 0.0, 0)

    def test_model_shell_from_horizon(self):
        # lower endpoint sits exactly on the horizon, where the integrand
        # has an inverse-sqrt singularity
        got = volume_between(ads_schwarzschild(2.0), 1.0, 2.0)
        assert got.value == pytest.approx(ADS2_SHELL_1_TO_2, rel=1e-10)

    def test_additive_in_the_upper_limit(self):
        p = rn_ads(4.0, 1.0)
        lo = p.horizon.radius
        a = volume_between(p, lo, 3.0).value
        b = volume_between(p, 3.0, 7.0).value
        whole = volume_between(p, lo, 7.0).value
        assert a + b == pytest.approx(whole, rel=1e-9)

    def test_starting_below_horizon_rejected(self):
        with pytest.raises(ValueError, match="inside the horizon"):
            volume_between(ads_schwarzschild(2.0), 0.5, 2.0)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            volume_between(hyperbolic(), 2.0, 1.0)
        with pytest.raises(ValueError):
            volume_between(hyperbolic(), -1.0, 1.0)


class TestRenormalizedVolume:
    def test_reference_is_zero(self):
        res = renormalized_volume(hyperbolic())
        assert res.value == 0.0
        assert res.tail_correction == 0.0
        assert res.stability == 0.0

    def test_model_value_against_oracle(self):
        res = renormalized_volume(ads_schwarzschild(2.0))
        assert res.value == pytest.approx(ADS2_RENORMALIZED, rel=1e-10)
        assert res.truncation_radius == 1e3
        # compiling the profile must not change the quadrature's path
        assert res.evaluations == 120

    def test_split_points_map_to_the_truncation_radii(self, monkeypatch):
        # everything beyond the horizon runs in s = s_h + W x^2/(1 - x^2):
        # the core over x in [0, x_r), and the rest in t = 1 - x, the
        # remainder over (0, t_r] and, for V(10r), [t_10r, t_r] and
        # (0, t_10r].  The pieces meet: t_r is 1 - x_r exactly.  x_r and
        # x_10r, put through the core's map, land on r = max(1e3, 10 s_h)
        # and 10r within the rounding that the map's condition number
        # 1/(1 - x^2) in x^2 allows: x^2 from a float x is about an ulp off
        # at best, and 1 - x^2 carries that ulp relative to itself,
        # 1/(1 - x^2) times larger (x_r ~ 0.999 at s_h < 1, r = 1e3: up to
        # 537 ulps, 1.07 times 1 + kappa).  Without a horizon the core runs
        # in log(1 + s) and the rest from s = 0.
        pieces = []
        original = renvol.volume._profile_integral

        def recorded(p, integrand, substitution, origin, a, b, tol):
            if substitution in ("compact", "far"):
                pieces.append((substitution, origin, a, b))
            return original(p, integrand, substitution, origin, a, b, tol)

        monkeypatch.setattr(renvol.volume, "_profile_integral", recorded)
        mapped = renvol.quadrature._SUBSTITUTIONS["compact"][0]
        radii = [10.0 ** (0.5 * k) for k in range(-18, 7)]
        profiles = [ads_schwarzschild(s_h * s_h * s_h + s_h) for s_h in radii]
        profiles.append(custom_profile("1 + s^2 + c*exp(-s)", {"c": 1.0}))
        for p in profiles:
            pieces.clear()
            r = renormalized_volume(p).truncation_radius
            s_h = p.horizon.radius if p.horizon is not None else 0.0
            assert r == max(1e3, 10.0 * s_h)
            t_r, t_10r = pieces[-2][3], pieces[-1][3]
            x_r, x_10r = 1.0 - t_r, 1.0 - t_10r
            assert 1.0 - x_r == t_r and 1.0 - x_10r == t_10r
            core = [("compact", 0.0, x_r)] if p.horizon is not None else []
            far = [("far", 0.0, t_r), ("far", t_10r, t_r), ("far", 0.0, t_10r)]
            assert [(piece[0],) + piece[2:] for piece in pieces] == core + far
            assert {piece[1] for piece in pieces} == {s_h}
            width = renvol.volume._core_width(s_h)
            env = dict(renvol.quadrature._KERNEL_GLOBALS, width=width)
            for x, radius in ((x_r, r), (x_10r, 10.0 * r)):
                kappa = (radius - s_h + width) / width  # 1/(1 - x^2) at the exact x
                got = s_h + eval(mapped, env, {"u": x})
                assert abs(got - radius) <= 4.0 * (1.0 + kappa) * math.ulp(radius), (s_h, got)

    def test_transcendental_evaluations_are_pinned(self):
        # the compiled panel kernels must take the quadrature along the same
        # panels: evaluations of renormalized_volume, of volume_between from
        # the horizon (from 0 without one) to 2 beyond it, and of
        # flow_volume_lower_bound(p, 1.5)
        pinned = [
            (custom_profile(text, params), counts)
            for (text, params), counts in zip(FLOAT_PROFILES, [
                (180, 45, 45), (150, 45, 45), (180, 45, 45), (210, 45, 45),
                (150, 45, 45), (150, 45, 45), (240, 45, None), (240, 45, None),
            ])
        ]
        pinned += [
            (rn_ads(4.0, 0.5), (90, 45, 45)),
            (custom_profile("1 + s^2 - m/s + c/s^2 + k/s^3", {"m": 5.0, "c": 0.3, "k": 0.1}),
             (90, 15, 45)),
            (ads_schwarzschild(2.0), (120, 45, 45)),
        ]
        for p, counts in pinned:
            hz = p.horizon
            lo = hz.radius if hz is not None else 0.0
            got = (
                renormalized_volume(p).evaluations,
                volume_between(p, lo, lo + 2.0).evaluations,
                flow_volume_lower_bound(p, 1.5).evaluations if hz is not None else None,
            )
            assert got == counts, (p.f, p.params)

    def test_stability_check_catches_a_biased_remainder(self, monkeypatch):
        # V(10r) splits the remainder (0, t_r] of V(r) in two; a remainder
        # 1e-6 high, which its halves do not share, moves V(r) alone
        original = renvol.volume._profile_integral
        ends = []

        def biased(p, integrand, substitution, origin, a, b, tol):
            got = original(p, integrand, substitution, origin, a, b, tol)
            ends.append((a, b))
            if a == 0.0 and b == 1.0 - ends[0][1]:
                return Integral(got.value + 1e-6, got.err_estimate, got.evaluations)
            return got

        monkeypatch.setattr(renvol.volume, "_profile_integral", biased)
        with pytest.raises(DecayError, match="depends on the truncation radius"):
            renormalized_volume(ads_schwarzschild(2.0))
        assert len(ends) == 4

    def test_divergent_tail_is_refused(self):
        # |q|/f ~ s^-1, so the volume diverges; a 41-point fit passed this
        # transcendental tree, and V came out as 2.8e91 with stability 0
        p = custom_profile("1 + s^2 - c*s - m/s + 0*exp(-s)", {"c": 1e-12, "m": 2.0})
        with pytest.raises(DecayError, match=r"decays like s\^-1.000,"):
            renormalized_volume(p)

    def test_tail_matches_leading_order(self):
        # the tail behaves like 2*pi*m/r to leading order
        res = renormalized_volume(ads_schwarzschild(2.0))
        assert res.tail_correction == pytest.approx(FOUR_PI / 2.0 * 2.0 / 1e3, rel=1e-5)

    def test_charged_profile(self):
        res = renormalized_volume(rn_ads(4.0, 1.0))
        assert res.stability < 1e-9
        bigger = renormalized_volume(rn_ads(5.0, 1.0))
        assert bigger.value > res.value

    def test_slow_decay_is_rejected(self):
        with pytest.raises(DecayError, match="decays like"):
            renormalized_volume(custom_profile("1 + s^2 - s"))


class TestReferenceBall:
    # the series runs up to s = 0.3 and the closed form above it
    @pytest.mark.parametrize(
        "s",
        [1e-8, 1e-4, 1e-2, math.nextafter(0.3, 0.0), 0.3, math.nextafter(0.3, 1.0),
         1.0, 10.0, 1e3, 1e4],
    )
    def test_against_the_integral(self, s):
        with mpmath.workdps(50):
            want = mpmath.quad(lambda x: 4 * mpmath.pi * x * x / mpmath.sqrt(1 + x * x), [0, s])
            assert abs(_reference_ball(s) - want) <= 1e-14 * want


class TestFlowBound:
    @pytest.mark.parametrize(
        "p,tau",
        [
            (ads_schwarzschild(2.0), 2.0 * math.log(2.0)),
            (ads_schwarzschild(0.5), 1.0),
            (rn_ads(4.0, 1.0), 1.0),
            (rn_ads(2.0, 0.5), 2.0),
        ],
    )
    def test_attains_the_volume_on_symmetric_profiles(self, p, tau):
        lo = p.horizon.radius
        bound = flow_volume_lower_bound(p, tau)
        vol = volume_between(p, lo, lo * math.exp(0.5 * tau))
        assert bound.value == pytest.approx(vol.value, rel=1e-12)

    def test_zero_duration(self):
        assert flow_volume_lower_bound(ads_schwarzschild(2.0), 0.0) == Integral(0.0, 0.0, 0)

    def test_negative_duration(self):
        with pytest.raises(ValueError):
            flow_volume_lower_bound(ads_schwarzschild(2.0), -1.0)

    @pytest.mark.parametrize("tau", [math.inf, math.nan])
    def test_duration_must_be_finite(self, tau):
        for bound in (partial(flow_volume_lower_bound, ads_schwarzschild(2.0)),
                      partial(area_lower_bound, FOUR_PI)):
            with pytest.raises(ValueError, match=r"^tau must be nonnegative and finite, got %r$"
                               % tau):
                bound(tau)

    def test_requires_a_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            flow_volume_lower_bound(hyperbolic(), 1.0)

    def test_overflow_names_tau(self):
        # the integrand, about e^t A^(3/2)/(4 sqrt(pi) s_h), is divided
        # before it is multiplied, so it stays finite until its weighted
        # node values overflow, near t = 703.3; at 703.995 the sum of a
        # panel overflows, 4 e^t A from t = 705 and e^(t/2) past t = 1419
        p = ads_schwarzschild(2.0)
        lo = p.horizon.radius
        assert flow_volume_lower_bound(p, 470.0).value == pytest.approx(8.252515769542305e204,
                                                                        rel=1e-12)
        for tau in (470.0, 472.0, 600.0, 700.0, 703.5):
            vol = volume_between(p, lo, lo * math.exp(0.5 * tau))
            assert flow_volume_lower_bound(p, tau).value == pytest.approx(vol.value, rel=1e-12)
        for tau in (703.995, 704.0, 706.0, 710.0, 1500.0):
            with pytest.raises(ValueError, match=r"^tau = %r is too large: the bound overflows"
                               % tau):
                flow_volume_lower_bound(p, tau)
        # a NaN f is no overflow: 0*s^100 is 0*inf from s = 1.2e3 (t = 14.2) on
        p = custom_profile("1 + s^2 - m/s + 0*s^100", {"m": 2.0})
        with pytest.raises(DomainError, match="^flow is not mean-convex: profile nonpositive at "
                           "s=") as excinfo:
            flow_volume_lower_bound(p, 20.0)
        assert math.isnan(p.value(float(str(excinfo.value).split("s=")[1].split(",")[0])))


class TestAreaBound:
    def test_equality_on_model_family(self):
        # with the matched model the area bound IS twice the volume
        p = ads_schwarzschild(2.0)
        tau = 2.0 * math.log(2.0)
        cor = area_lower_bound(p.horizon.area, tau)
        vol = volume_between(p, 1.0, 2.0)
        assert cor.value == pytest.approx(2.0 * vol.value, rel=1e-12)

    def test_strict_on_positive_charge(self):
        p = rn_ads(4.0, 1.0)
        lo = p.horizon.radius
        tau = 1.0
        cor = area_lower_bound(p.horizon.area, tau)
        doubled = 2.0 * volume_between(p, lo, lo * math.exp(0.5 * tau)).value
        assert cor.value < doubled
        assert doubled - cor.value == pytest.approx(2.0278, rel=1e-3)

    def test_zero_duration(self):
        assert area_lower_bound(FOUR_PI, 0.0).value == 0.0

    def test_validations(self):
        with pytest.raises(ValueError):
            area_lower_bound(0.0, 1.0)
        with pytest.raises(ValueError):
            area_lower_bound(FOUR_PI, -0.5)

    def test_overflow_names_tau(self):
        # e^t A^(3/2) / sqrt(inner) is an infinite integrand value from
        # t = 706 on, and e^t raises past t = 709.78; below 706 the sum of
        # a panel may overflow where its values do not
        for tau in (705.8, 705.8125, 706.0, 710.0, 715.0, 720.0):
            with pytest.raises(ValueError, match=r"^tau = %r is too large: the bound overflows"
                               % tau):
                area_lower_bound(1.0, tau)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.floats(-6.0, 8.0).map(lambda x: 10.0**x), st.floats(1e-6, 750.0))
    def test_kernel_matches_model_bound_inner(self, area, tau):
        # the integrand through model_bound_inner in u^2 = t, under the loop panel
        a32 = area * math.sqrt(area)

        def integrand(u):
            t = u * u
            return 2.0 * u * (math.exp(t) * a32 / math.sqrt(model_bound_inner(area, t)))

        want = _outcome(_integrate, partial(loop_panel, integrand), 0.0, math.sqrt(tau))
        got = _outcome(area_lower_bound, area, tau)
        if got[0] is ValueError:  # the refusal of an overflow: raised, or a non-finite value
            assert want[0] in (OverflowError, QuadratureError)
            assert got[1].startswith("tau = %r" % tau)
        else:
            assert got == want


class TestModelBoundInner:
    def test_hand_checked_point(self):
        # A = 4*pi, t = ln 4: 4*pi*(7/8) + pi*(1/2) = 4*pi
        assert model_bound_inner(FOUR_PI, math.log(4.0)) == pytest.approx(FOUR_PI, rel=1e-15)

    def test_zero_at_start(self):
        assert model_bound_inner(FOUR_PI, 0.0) == 0.0

    def test_offset_start_returns_eps(self):
        assert model_bound_inner(FOUR_PI, 0.7, alpha=0.7, eps=1e-3) == 1e-3

    @pytest.mark.parametrize("area", [FOUR_PI, 2.5 * FOUR_PI, 40.0])
    @pytest.mark.parametrize("t", [0.3, 1.0, 2.5])
    def test_matches_model_metric(self, area, t):
        # Z(A, t) = 4*pi*e^(-t)*fbar(s_h*e^(t/2)) on the model whose
        # horizon area is A; this is what makes the area bound collapse
        # to twice the model volume
        s_h = math.sqrt(area / FOUR_PI)
        mass = s_h**3 + s_h
        u = s_h * math.exp(0.5 * t)
        fbar = 1.0 + u * u - mass / u
        want = FOUR_PI * math.exp(-t) * fbar
        assert model_bound_inner(area, t) == pytest.approx(want, rel=1e-13)


class TestIsoIdentity:
    def test_model_identity(self):
        res = isoperimetric_identity(2.0, 2.0)
        assert res.rel_err < 1e-9
        assert res.lhs == pytest.approx(2.0 * ADS2_SHELL_1_TO_2, rel=1e-10)
        assert res.evaluations > 0

    def test_small_mass_tall_shell(self):
        res = isoperimetric_identity(0.5, 10.0)
        assert res.rel_err < 1e-9

    def test_degenerate_shell(self):
        s0 = ads_schwarzschild(2.0).horizon.radius
        res = isoperimetric_identity(2.0, s0)
        assert res.lhs == 0.0 and res.rhs == 0.0 and res.rel_err == 0.0

    def test_top_below_horizon(self):
        with pytest.raises(ValueError):
            isoperimetric_identity(2.0, 0.5)


def test_tight_tolerance_changes_little():
    loose = renormalized_volume(ads_schwarzschild(2.0), Tolerance(rel=1e-8))
    tight = renormalized_volume(ads_schwarzschild(2.0), Tolerance(rel=1e-12))
    assert loose.value == pytest.approx(tight.value, rel=1e-8)
    assert abs(tight.value - ADS2_RENORMALIZED) <= abs(loose.value - ADS2_RENORMALIZED) + 1e-12


# the transcendental profiles of the float defect path, two parameters each
FLOAT_PROFILES = [
    (text, {name: x})
    for text, name, xs in (
        ("1 + s^2 - m*exp(-s)/s", "m", (2.0, 5.0)),
        ("1 + s^2 - m*exp(-s^2)/s", "m", (2.0, 8.0)),
        ("1 + s^2 - m/s^3*exp(-1/s)", "m", (2.0, 5.0)),
        ("1 + s^2 + c*exp(-s)", "c", (0.1, 1.0)),
    )
    for x in xs
]


def _outcome(fn, *args):
    # repr tells -0.0 from 0.0 and prints inf and nan
    try:
        return "value", repr(fn(*args))
    except Exception as exc:
        return type(exc), str(exc)


def _kronrod_nodes(a, b):
    center, half = 0.5 * (a + b), 0.5 * (b - a)
    return [center - half * x for x in _XGK] + [center + half * x for x in _XGK[:-1]]


def _fused_cases():
    rng = random.Random(1983)
    cases = [(text, params) for text, params in FLOAT_PROFILES]
    cases += [(random_tree(rng, 3), {"m": rng.uniform(-4.0, 4.0)}) for _ in range(60)]
    cases += [
        # f is NaN at s = 1e3, where 0*s^120 is 0*inf, while q is 0
        ("1 + s^2 + 0*s^120", {}),
        # the defect tree cannot be built: DecayError at the first q
        ("sqrt(1 + 2*s^2 + s^4) - m/s", {"m": 1.0}),
        ("sqrt(1 + 2*s^2 + s^4) - 2*s^2", {}),
        # an exact rate of -1, read from the leading term of q, fails
        ("1 + s^2 - s + m*exp(-s)", {"m": 1e-3}),
        # rational: an exact rate that passes, one of -inf, and one that a
        # fit took for -2.984
        ("1 + s^2 - m/s + c/s^2 + k/s^3", {"m": 5.0, "c": 0.3, "k": 0.1}),
        ("(1 + s^2)*(1 - m/s^3)", {"m": 2.0}),
        ("1 + s^2", {}),
        ("1 + s^2 - c*s - m/s", {"c": 1e-12, "m": 2.0}),
        # q normalizes to m/s - 1, but the float f drops the + 1 beyond
        # s = 9742, where s^4 + 1 rounds to s^4: the flow integrand's two
        # forms then differ by 16 pi, above 1e-9 of 4 e^t A for t in about
        # (18, 21), and the cross-check raises ArithmeticError there
        ("1 + s^2 - m/s + (s^4 + 1) - s^4", {"m": 2.0}),
    ]
    return cases


def _sqrt_sub(fn, origin):
    # integrate_sqrt_endpoint's substitution u^2 = s - origin
    return lambda u: 2.0 * u * fn(origin + u * u)


def _compact_sub(fn, origin):
    # the core's s = origin + W u^2/(1 - u^2), W = 2 max(1, 2 origin)
    width = max(2.0, 4.0 * origin)

    def weighted(u):
        c = (1.0 - u) * (1.0 + u)
        return 2.0 * width * u / c ** 2 * fn(origin + width * u * u / c)
    return weighted


def _far_sub(fn, origin):
    # the far pieces' s = origin + W (1 - t)^2/(t (2 - t)), t = 1 - u
    width = max(2.0, 4.0 * origin)

    def weighted(t):
        c = 1.0 - t
        g = t * (2.0 - t)
        v = width * c * c / g
        w = fn(origin + v)
        return 2.0 * v / (c * g) * w
    return weighted


def _log1p_sub(fn):
    # u = log(1 + s), ds = (1 + s) du
    def weighted(u):
        s = math.expm1(u)
        return (1.0 + s) * fn(s)
    return weighted


def _kernel_checks(p):
    """(kernel, origin, reference, panels) for each compiled panel kernel of
    p: the reference is ``helpers.loop_panel`` over the matching
    ``helpers.chain_*`` integrand under the kernel's substitution.  A
    degenerate panel [x, x] puts all 15 nodes on x, which reaches every
    point of the sets below; the others spread the nodes."""
    points = list(_scan_grid()[::50])
    points += [s for a, b in ((1e-6, 1e-3), (0.01, 0.5), (0.5, 2.0), (2.0, 1e3), (1e3, 1e4))
               for s in _kronrod_nodes(a, b)]
    points += [1e100, 1e300]  # far points where f overflows
    spans = [(1e-6, 1e-3), (0.01, 0.5), (0.5, 2.0), (2.0, 1e3), (1e3, 1e4), (1e100, 1e300)]
    in_s = [(s, s) for s in points] + spans
    try:
        hz = p.horizon
    except Exception:
        hz = None
    # the volume's compact variable runs from the horizon, or from s = 0
    origin = hz.radius if hz is not None else 0.0
    # s = origin + u^2, or the compact variable, next to the origin
    in_sqrt = [(u, u) for u in _kronrod_nodes(0.0, 1.0)]
    in_sqrt += [(0.0, 1.0), (0.0, 1e-3), (0.0, 5e-324)]
    # the compact variable runs below 1: a node next to 1 lies far out, the
    # u of each point past the origin, and u = 1 itself, s = infinity
    width = max(2.0, 4.0 * origin)
    far = [math.sqrt((s - origin) / (s - origin + width)) for s in points if s > origin]
    in_compact = in_sqrt + [(u, u) for u in far]
    in_compact += [(0.99, 1.0), (1.0 - 2.0 ** -40, 1.0), (1.0, 1.0)]
    # the far pieces in t = 1 - u: the t of each point past the origin,
    # panels at t = 0, s = infinity, and t = 1, the origin
    in_far = [(t, t) for t in _kronrod_nodes(0.0, 1.0)]
    in_far += [(1.0 - u, 1.0 - u) for u in far] + [(0.0, 1e-3), (0.0, 1e-200), (0.0, 0.0)]
    in_far += [(0.99, 1.0), (1.0, 1.0)]
    in_sqrt += [(1.0, 40.0)]
    # the horizon-free core in u = log(1 + s)
    in_log1p = [(math.log1p(s), math.log1p(s)) for s in points]
    in_log1p += [(0.0, math.log1p(1e3)), (math.log1p(1e3), math.log1p(1e4))]
    d = lru_cache(maxsize=None)(chain_difference_integrand(p))
    shell = lru_cache(maxsize=None)(chain_shell_integrand(p))
    checks = [
        (_kernel(p.f, "difference", "plain"), None, d, in_s),
        (_kernel(p.f, "shell", "plain"), None, shell, in_s),
        (_kernel(p.f, "difference", "compact"), origin, _compact_sub(d, origin), in_compact),
        (_kernel(p.f, "difference", "far"), origin, _far_sub(d, origin), in_far),
        (_kernel(p.f, "shell", "sqrt"), origin, _sqrt_sub(shell, origin), in_sqrt),
        (_kernel(p.f, "difference", "layer"), None, _log1p_sub(d), in_log1p),
    ]
    checks = [(kernel, origin, partial(loop_panel, fn), panels)
              for kernel, origin, fn, panels in checks]
    if hz is not None:
        # flow times t = u^2: t = 0, the nodes to t = 3, the t of each
        # point outside the horizon, and exp(t) overflowing
        times = [0.0] + [u * u for u in _kronrod_nodes(0.0, math.sqrt(3.0))]
        times += [2.0 * math.log(s / hz.radius) for s in points if s >= hz.radius]
        in_flow = [(math.sqrt(t), math.sqrt(t)) for t in times]
        in_flow += [(0.0, math.sqrt(3.0)), (0.0, 1e-3), (1.0, 5.0), (5.0, 30.0), (0.0, 5e-324)]
        # the panel of a flow up to tau = 20, and one up to tau = 1600,
        # where e^(t/2) overflows
        in_flow += [(0.0, math.sqrt(20.0)), (0.0, 40.0)]
        # the flow kernel's non-finite values are overflows with tau
        flow = partial(loop_panel, _sqrt_sub(chain_flow_integrand(p, hz), 0.0), error=_NonFinite)
        checks.append((_kernel(p.f, "flow", "sqrt"), hz, flow, in_flow))
    return checks


class TestFusedIntegrands:
    """The compiled panel kernels against ``helpers.loop_panel`` over the
    chains of public methods they replace (``helpers``): the same
    ``(value, err)`` bit for bit, or the same error with the same message,
    the node it names included."""

    @pytest.mark.parametrize("text, params", _fused_cases())
    def test_match_the_method_chains(self, text, params):
        p = RadialProfile(parse(text), params)
        for kernel, origin, reference, panels in _kernel_checks(p):
            for a, b in panels:
                got = _outcome(kernel, p.params, origin, a, b)
                assert got == _outcome(reference, a, b), (text, a, b)
        # a rational f has its decay rate read exactly from P/Q
        reference = chain_validate_asymptotics if p.rational is None else exact_validate_asymptotics
        assert _outcome(validate_asymptotics, p) == _outcome(reference, p), text

    def test_cases_reach_every_outcome(self):
        # the comparison above is only as strong as the outcomes it meets
        seen = set()
        decay = set()
        for text, params in _fused_cases():
            p = RadialProfile(parse(text), params)
            kind, detail = _outcome(validate_asymptotics, p)
            decay.add((p.rational is not None, kind, "passed=True" in detail))
            for kernel, origin, _, panels in _kernel_checks(p):
                for a, b in panels:
                    kind, detail = _outcome(kernel, p.params, origin, a, b)
                    seen.add(kind)
                    if kind is DomainError and detail.endswith("inside a volume integral"):
                        # the refusal of f > 0 also refuses a NaN f
                        s = float(detail.split("s=")[1].split(" ")[0])
                        if math.isnan(p.value(s)):
                            seen.add("NaN f")
                    if kind is DomainError and detail.endswith(", t=0.0"):
                        # f rounds to -1.3e-14 at the horizon of the
                        # cross-check case, at the flow's start
                        seen.add("negative f at t = 0")
        want = {"value", DomainError, DecayError, QuadratureError, ZeroDivisionError,
                OverflowError, ArithmeticError, _NonFinite, "negative f at t = 0", "NaN f"}
        assert want <= seen, want - seen
        # both decay paths pass, fail and raise
        for exact in (False, True):
            assert {("value", True), ("value", False)} <= {x[1:] for x in decay if x[0] == exact}
            assert (exact, DomainError, False) in decay

    def test_memo_keeps_signed_zeros_apart(self):
        # Num(-0.0) == Num(0.0) and both hash alike, but s*0.0 and s*-0.0
        # differ: a memo that took one product for the other would print
        # log's argument as 0.0, and sum the two products to -0.0
        assert Num(-0.0) == Num(0.0) and hash(Num(-0.0)) == hash(Num(0.0))
        zeros = Add(Mul(Var(), Num(-0.0)), Mul(Var(), Num(0.0)))
        assert repr(zeros.evaluate(1.0)) == "0.0"
        assert repr(zeros.enclose(1.0, 2.0)) == "(0.0, 0.0)"
        f = Add(Add(Num(1.0), Mul(Var(), Num(0.0))), Call("log", Mul(Var(), Num(-0.0))))
        refused = (DomainError, "log of out-of-range value -0.0 in 'log(s*-0.0)'")
        assert _outcome(f.evaluate, 1.0) == refused
        p = RadialProfile(f)
        for kernel, origin, _, _ in _kernel_checks(p):
            assert _outcome(kernel, p.params, origin, 0.5, 0.5) == refused

    def test_hot_loops_skip_the_method_chain(self, monkeypatch):
        # renormalized_volume, volume_between, flow_volume_lower_bound and
        # validate_asymptotics call the compiled functions, not the methods
        profiles = [custom_profile(text, params) for text, params in FLOAT_PROFILES]
        profiles += [ads_schwarzschild(2.0), rn_ads(4.0, 1.0), hyperbolic()]
        for p in profiles:
            p.horizon  # the walk and the Sturm count call p.value, and stay so
        calls = []
        methods = ((RadialProfile, "value"), (RadialProfile, "defect"), (Expression, "evaluate"))
        for cls, name in methods:
            original = getattr(cls, name)

            def counted(self, *args, _original=original, _name=name):
                calls.append(_name)
                return _original(self, *args)

            monkeypatch.setattr(cls, name, counted)
        for p in profiles:
            renormalized_volume(p)
            validate_asymptotics(p)
            hz = p.horizon
            lo = hz.radius if hz is not None else 0.0
            volume_between(p, lo, lo + 2.0)
            if hz is not None:
                flow_volume_lower_bound(p, 1.5)
        assert calls == []
        # the counters themselves work
        profiles[0].value(2.0)
        assert calls == ["value", "evaluate"]
