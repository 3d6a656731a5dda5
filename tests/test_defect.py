"""The defect q = 1 + s^2 - f end to end: volumes against 50-digit oracles,
one float path for every profile, and the model at extreme masses."""

import ast
import inspect
import time

import mpmath as mp
import numpy as np
import pytest

import renvol.metric
import renvol.volume
from renvol import acceptance
from renvol.comparison import compare_volumes
from renvol.errors import DecayError, DomainError
from renvol.expressions import Expression
from renvol.metric import ads_schwarzschild, custom_profile, rn_ads
from renvol.quadrature import Tolerance
from renvol.volume import renormalized_volume

from helpers import mp_horizon, mp_renormalized_volume


def _oracle(q, p):
    """50-digit V of the analytic defect ``q``; the horizon comes from
    mpmath's findroot, started at the library's radius."""
    s_h = None if p.horizon is None else mp_horizon(q, p.horizon.radius)
    return mp_renormalized_volume(q, s_h)


def _rel(value, want):
    return float(abs((mp.mpf(value) - want) / want))


class TestVolumeAgainstOracle:
    # each of these burned 999,975 evaluations and raised QuadratureError
    # while q was the float difference (1 + s^2) - f, clamped near zero
    @pytest.mark.parametrize(
        "text,params,q",
        [
            ("1 + s^2 - m/s*exp(-1/s)", {"m": 2.0}, lambda s: 2 / s * mp.exp(-1 / s)),
            (
                "1 + s^2 - m/s + c*exp(-s)",
                {"m": 2.0, "c": 0.5},
                lambda s: 2 / s - mp.mpf(0.5) * mp.exp(-s),
            ),
            ("1 + s^2 - m/s + 0*exp(s-s)", {"m": 2.0}, lambda s: 2 / s),
        ],
    )
    def test_transcendental_profiles(self, text, params, q):
        p = custom_profile(text, params)
        v = renormalized_volume(p)
        assert v.evaluations < 5000
        assert _rel(v.value, _oracle(q, p)) <= 1e-9

    def test_model_written_with_a_zero_atom_is_the_model(self):
        p = custom_profile("1 + s^2 - m/s + 0*exp(s-s)", {"m": 2.0})
        model = renormalized_volume(ads_schwarzschild(2.0))
        assert renormalized_volume(p) == model
        assert model.value == 10.579797094323736 and model.evaluations == 240

    @pytest.mark.parametrize("m", [2.0, 8.0])
    def test_fast_decaying_tail_is_kept(self, m):
        # the clamp zeroed q ~ m/s^3 beyond s ~ 1300 and came out 1.8e-9 low
        p = custom_profile("1 + s^2 - m/s^3*exp(-1/s)", {"m": m})
        want = _oracle(lambda s: mp.mpf(m) / s**3 * mp.exp(-1 / s), p)
        assert _rel(renormalized_volume(p).value, want) <= 2e-10

    def test_cancelling_profile_fails_fast_and_names_it(self):
        p = custom_profile("sqrt(1 + 2*s^2 + s^4) - m/s", {"m": 2.0})
        start = time.perf_counter()
        with pytest.raises(DecayError, match="cancel"):
            renormalized_volume(p)
        assert time.perf_counter() - start < 0.5
        report = compare_volumes(p, 2.0)
        assert report.verdict == "hypothesis_failed"
        assert "bare s^2 term" in report.hypotheses[3].detail


class TestSingleDefectPath:
    """The library evaluates q in float only; exact arithmetic is an oracle."""

    @pytest.fixture
    def no_exact(self, monkeypatch):
        def refuse(self, s, params=None):
            raise AssertionError("evaluate_exact called on %s" % self)

        monkeypatch.setattr(Expression, "evaluate_exact", refuse)

    def test_pipeline_never_evaluates_exactly(self, no_exact):
        assert compare_volumes(rn_ads(4.0, 1.0), 2.0).verdict == "holds"
        rational = custom_profile(
            "1 + s^2 - m/s + c/s^2 + k/s^3", {"m": 5.0, "c": 0.3, "k": 0.1}
        )
        assert compare_volumes(rational, 2.0).verdict == "holds"
        assert renormalized_volume(rn_ads(3.0, 0.5)).value > 0.0
        assert rn_ads(4.0, 1.0).hawking_mass(3.0) > 0.0

    def test_acceptance_never_evaluates_exactly(self, no_exact):
        assert all(result.passed for result in acceptance.run_all())

    @pytest.mark.parametrize("module", [renvol.metric, renvol.volume])
    def test_no_fractions_import(self, module):
        tree = ast.parse(inspect.getsource(module))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module)
        assert "fractions" not in imported


class TestModelSelfComparison:
    @pytest.mark.parametrize("m", [1e-3, 1.0, 1e3, 1e6])
    def test_equality(self, m):
        assert compare_volumes(ads_schwarzschild(m), m).verdict == "equality"

    @pytest.mark.parametrize("m", [float(m) for m in np.geomspace(1e-15, 1e-3, 13)])
    def test_tiny_mass_curvature(self, m):
        # R = 2(1 - f - s f')/s^2 cancels in float near a tiny horizon
        # (-6.0005 at s = 1e-6 for m = 1e-6); the certified check works
        # with s q = m exactly
        assert compare_volumes(ads_schwarzschild(m), m).verdict == "equality"

    @pytest.mark.parametrize("m", [1e7, 1e8])
    def test_huge_mass_fits_outside_the_horizon(self, m):
        # the decay fit starts at 10 s_h (2154 at m = 1e7), not at s = 100
        assert compare_volumes(ads_schwarzschild(m), m).verdict == "equality"

    @pytest.mark.parametrize("m", [1e9, 1e10, 1e12, 1e15])
    def test_huge_mass_truncation_radius(self, m):
        # the volume is truncated at max(1e3, 10 s_h), outside the horizon
        # (s_h = 1e3 at m = 1e9)
        assert compare_volumes(ads_schwarzschild(m), m).verdict == "equality"

    @pytest.mark.parametrize("m", [1e-5, 1e-4])
    def test_tiny_mass_curvature_sampled(self, m):
        # R = 2(1 - f - s f')/s^2 gave -6.00000523 at s = 1.00644e-05 for
        # m = 1e-5; R = -6 + 2 (s q)'/s^2 has (s q)' = 0 exactly, as the
        # rational twin 1 + s^2 - m/s, and one enclosure certifies it
        p = custom_profile("1 + s^2 - m/s + 0*exp(-s)", {"m": m})
        assert compare_volumes(p, m).verdict == "equality"


class TestTightTolerance:
    # Tolerance admits rel >= 1e-14, and rel = 1e-13 converges in 615 and
    # 675 evaluations to within 1e-13 of the oracle
    @pytest.mark.xfail(
        strict=True,
        raises=DomainError,
        reason="below rel = 1e-13 the sqrt-endpoint panels sample the horizon "
        "itself: DomainError 'profile nonpositive at s=<horizon> inside a "
        "volume integral'",
    )
    @pytest.mark.parametrize("rel", [1e-14, 3e-14])
    @pytest.mark.parametrize(
        "make,q",
        [
            (lambda: ads_schwarzschild(2.0), lambda s: 2 / s),
            (lambda: rn_ads(4.0, 0.5), lambda s: 4 / s - mp.mpf(0.5) / s**2),
        ],
        ids=["ads-2", "rn-ads-4-0.5"],
    )
    def test_model_volume_matches_oracle(self, make, q, rel):
        p = make()
        v = renormalized_volume(p, Tolerance(rel=rel))
        assert _rel(v.value, _oracle(q, p)) <= 1e-13

    # at rel 1e-10 each is within 1e-12 of the oracle, in 270 to 300
    # evaluations; at rel 1e-12 they take 104,220 to 861,810 evaluations
    # and come out 1.2e-8 to 2.4e-8 off
    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the refined horizon lies up to 1e-14 max(1, s_h) off the root, "
        "and tight tolerances resolve the kink this offset puts in the "
        "sqrt-endpoint integrand, so V moves like its square root "
        "(ROADMAP item 2)",
    )
    @pytest.mark.parametrize(
        "m,a,c",
        [
            (0.3179173727483757, 1.5598928396248324, 3.4021568513327664e-12),
            (0.26576155193409373, 1.695689345333267, 0.00012089747573736398),
            (0.16753672969602085, 1.5285489802592938, 1.2393529223937009e-05),
        ],
    )
    def test_transcendental_volume_matches_oracle(self, m, a, c):
        p = custom_profile("1 + s^2 - (m + c*(1 - exp(-s/a)))/s", {"m": m, "a": a, "c": c})
        v = renormalized_volume(p, Tolerance(rel=1e-12))
        want = _oracle(lambda s: (m + c * (1 - mp.exp(-s / a))) / s, p)
        assert _rel(v.value, want) <= 1e-12
