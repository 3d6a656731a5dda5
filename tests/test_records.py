"""The immutable records behave like the frozen dataclasses they replace,
and importing renvol generates no code."""

import copy
import dataclasses
import functools
import math
import os
import pickle
import subprocess
import sys

import pytest

from renvol import acceptance, comparison, expressions, metric, quadrature, volume
from renvol.expressions import _NO_PARAMS, Add, Call, Div, Expression, Mul, Neg, Num, Param, Pow, Sub, Var
from renvol.records import Record

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))

_ADS = expressions.parse("1 + s^2 - m/s")
_CHECK = comparison.HypothesisCheck("curvature", True, "certified")

# every record class, its fields in order, and arguments for them
RECORDS = [
    (Num, ("value",), (1.5,)),
    (Var, (), ()),
    (Param, ("name",), ("m",)),
    (Neg, ("arg",), (Var(),)),
    (Add, ("left", "right"), (Num(1.0), Var())),
    (Sub, ("left", "right"), (Num(1.0), Var())),
    (Mul, ("left", "right"), (Num(2.0), Var())),
    (Div, ("left", "right"), (Param("m"), Var())),
    (Pow, ("base", "exponent"), (Var(), -2)),
    (Call, ("func", "arg"), ("exp", Var())),
    (expressions._Token, ("kind", "text", "pos"), ("op", "+", 3)),
    (metric.Horizon, ("radius", "area"), (1.0, 4.0 * math.pi)),
    (
        metric.AsymptoticsReport,
        ("passed", "measured_rate", "required_rate"),
        (True, -3.0, -2.8),
    ),
    (metric.RadialProfile, ("f", "params", "delta", "label"), (_ADS, {"m": 2.0}, 0.2, "ads")),
    (quadrature.Tolerance, ("rel", "abs"), (1e-8, 1e-12)),
    (quadrature.Integral, ("value", "err_estimate", "evaluations"), (1.25, 1e-12, 15)),
    (
        volume.RenormalizedVolume,
        ("value", "truncation_radius", "tail_correction", "stability", "evaluations"),
        (10.5, 1e3, 1e-3, 0.0, 405),
    ),
    (volume.IsoIdentity, ("lhs", "rhs", "rel_err", "evaluations"), (1.0, 1.0, 0.0, 30)),
    (comparison.GapSpec, ("model_area", "alpha", "epsilon"), (12.5, 0.25, 1e-3)),
    (comparison.SlopeBound, ("value", "lower_bound", "satisfied"), (1.0, 0.5, True)),
    (comparison.HypothesisCheck, ("name", "passed", "detail"), ("area", False, "too small")),
    (
        comparison.ComparisonReport,
        (
            "profile_label", "model_mass", "hypotheses", "area", "model_area",
            "alpha", "volume", "model_volume", "margin", "verdict",
        ),
        ("p", 2.0, (_CHECK,), 13.0, 12.5, 0.04, 11.0, 10.5, 0.5, "holds"),
    ),
    (comparison.SweepRow, ("m", "volume", "delta_prev"), (1.0, 2.0, None)),
    (comparison.SweepResult, ("rows", "monotone"), ((comparison.SweepRow(1.0, 2.0, None),), True)),
    (acceptance.CriterionResult, ("index", "name", "passed", "detail"), (1, "horizon", True, "ok")),
]

IDS = [cls.__name__ for cls, _, _ in RECORDS]


def _concrete_records(cls=Record):
    out = set()
    for sub in cls.__subclasses__():
        out |= _concrete_records(sub)
        if sub not in (Expression, expressions._Binary):
            out.add(sub)
    return out


def _twin(cls, fields):
    """A frozen dataclass with the same name and fields: the oracle."""
    twin = dataclasses.make_dataclass(cls.__name__, fields, frozen=True)
    twin.__qualname__ = cls.__qualname__
    return twin


def _hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as exc:
        return str(exc)


def test_table_covers_every_record_class():
    assert {cls for cls, _, _ in RECORDS} == _concrete_records()


@pytest.mark.parametrize("cls,fields,args", RECORDS, ids=IDS)
class TestRecordSemantics:
    def test_fields_in_order(self, cls, fields, args):
        assert cls._fields == cls.__match_args__ == fields
        obj = cls(*args)
        assert [getattr(obj, name) for name in fields] == list(args)
        assert vars(obj) == dict(zip(fields, args))

    def test_keyword_construction(self, cls, fields, args):
        assert cls(**dict(zip(fields, args))) == cls(*args)

    def test_repr_eq_and_hash_match_a_frozen_dataclass(self, cls, fields, args):
        obj, twin = cls(*args), _twin(cls, fields)(*args)
        assert repr(obj) == repr(twin)
        if cls is metric.RadialProfile:
            # the twin cannot hash its params dict; the profile hashes its items
            assert _hash_or_error(twin) == "unhashable type: 'dict'"
            assert hash(obj) == hash(cls(*args))
        else:
            assert _hash_or_error(obj) == _hash_or_error(twin)
        assert obj == cls(*args) and not obj != cls(*args)
        assert obj != twin and obj != object()

    def test_frozen(self, cls, fields, args):
        obj = cls(*args)
        name = fields[0] if fields else "extra"
        with pytest.raises(dataclasses.FrozenInstanceError, match="cannot assign to field '%s'" % name):
            setattr(obj, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError, match="cannot delete field '%s'" % name):
            delattr(obj, name)
        assert obj == cls(*args)

    def test_pickle_and_copy(self, cls, fields, args):
        obj = cls(*args)
        for clone in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), copy.copy(obj)):
            assert type(clone) is cls and clone == obj


@pytest.mark.parametrize("cls,fields,args", RECORDS, ids=IDS)
def test_bad_calls_raise_type_error(cls, fields, args):
    # the counts include self, as Python's own messages do
    with pytest.raises(TypeError, match="positional arguments? but %d were given" % (len(args) + 2)):
        cls(*args, None)
    with pytest.raises(TypeError, match="unexpected keyword argument 'unknown'"):
        cls(*args, unknown=None)
    if not fields:
        return
    with pytest.raises(TypeError, match="multiple values for argument '%s'" % fields[0]):
        cls(*args, **{fields[0]: args[0]})
    if cls is not quadrature.Tolerance:  # every Tolerance field has a default
        with pytest.raises(TypeError, match="missing .*'%s'" % fields[0]):
            cls(**dict(zip(fields[1:], args[1:])))


def test_one_field_differs():
    assert Num(1.0) != Num(2.0)
    assert Add(Num(1.0), Var()) != Sub(Num(1.0), Var())
    assert quadrature.Tolerance(rel=1e-8) != quadrature.Tolerance()
    assert hash(Pow(Var(), 2)) == hash(Pow(Var(), 2))


def test_equal_profiles_key_one_entry():
    cache = {metric.ads_schwarzschild(2.0): "first"}
    cache[metric.ads_schwarzschild(2.0)] = "second"
    # an int parameter equals its float, and hashes alike
    cache[metric.RadialProfile(_ADS, {"m": 2}, 0.2, "ads m=2")] = "third"
    assert list(cache.values()) == ["third"]
    cache[metric.ads_schwarzschild(3.0)] = "other"
    assert len(cache) == 2
    assert len({metric.custom_profile("1 + s^2 - m/s", {"m": 2.0}), metric.rn_ads(2.0, 0.0)}) == 2


def test_defaults():
    assert vars(quadrature.Tolerance()) == {"rel": 1e-10, "abs": 1e-14}
    assert comparison.GapSpec(12.5, 0.25).epsilon == 0.0
    p = metric.RadialProfile(expressions.parse("1 + s^2"))
    assert (p.params, p.delta, p.label) == ({}, 0.2, "custom")
    assert p.params is not metric.RadialProfile(p.f).params


def test_profile_copies_its_params():
    params = {"m": 2.0}
    p = metric.RadialProfile(_ADS, params)
    params["m"] = 3.0
    assert p.params == {"m": 2.0} and type(p.params) is dict


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: quadrature.Tolerance(rel=1e-15), "rel tolerance must be >= 1e-14, got 1e-15"),
        (lambda: quadrature.Tolerance(rel=math.nan), "rel tolerance must be >= 1e-14, got nan"),
        (lambda: quadrature.Tolerance(abs=0.0), "abs tolerance must be positive, got 0.0"),
        (lambda: quadrature.Tolerance(rel=math.inf), "rel tolerance must be finite, got inf"),
        (lambda: quadrature.Tolerance(abs=math.inf), "abs tolerance must be finite, got inf"),
        (lambda: comparison.GapSpec(0.0, 0.1), "model area must be positive and finite, got 0.0"),
        (lambda: comparison.GapSpec(math.inf, 0.1), "model area must be positive and finite, got inf"),
        (lambda: comparison.GapSpec(1.0, -1.0), "alpha must be nonnegative and finite, got -1.0"),
        (lambda: comparison.GapSpec(1.0, 0.0, math.nan), "epsilon must be nonnegative and finite, got nan"),
        (lambda: metric.RadialProfile(_ADS, {"m": 1.0}, 0.25), "delta must lie in (0, 1/4), got 0.25"),
        (lambda: metric.RadialProfile(_ADS), "unbound profile parameters: m"),
        (
            lambda: metric.RadialProfile(_ADS, {"m": math.nan}),
            "profile parameter 'm' must be finite, got nan",
        ),
        (
            lambda: metric.RadialProfile(_ADS, {"m": -math.inf}),
            "profile parameter 'm' must be finite, got -inf",
        ),
        (
            lambda: metric.RadialProfile(expressions.parse("1 + s^2 - m/s + c/s^2")),
            "unbound profile parameters: c, m",
        ),
    ],
)
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_cached_properties_live_in_the_instance_dict():
    tree = Add(Num(1.0), Mul(Var(), Var()))
    compiled = {"_compiled", "_enclosure", "_exact"}
    assert not compiled & set(vars(tree))
    assert tree.evaluate(2.0) == 5.0
    assert tree.enclose(1.0, 2.0) == (2.0, 5.0)
    assert tree.evaluate_exact(2) == 5
    assert compiled <= set(vars(tree))
    # the functions built by exec are dropped, and compiled again on use
    for clone in (pickle.loads(pickle.dumps(tree)), copy.deepcopy(tree), copy.copy(tree)):
        assert not compiled & set(vars(clone)) and clone == tree
        assert clone.evaluate(2.0) == 5.0
        assert clone.enclose(1.0, 2.0) == (2.0, 5.0)
        assert clone.evaluate_exact(2) == 5

    # a panel kernel is cached on the tree, and dropped like the others
    assert volume._kernel(tree, "shell", "plain") is volume._kernel(tree, "shell", "plain")
    assert "_kernels" in vars(tree)
    for clone in (pickle.loads(pickle.dumps(tree)), copy.deepcopy(tree), copy.copy(tree)):
        assert "_kernels" not in vars(clone)
        got = volume._kernel(clone, "shell", "plain")(_NO_PARAMS, None, 1.0, 2.0)
        assert got == volume._kernel(tree, "shell", "plain")(_NO_PARAMS, None, 1.0, 2.0)

    p = metric.ads_schwarzschild(2.0)
    assert p.horizon == metric.Horizon(1.0, 4.0 * math.pi)
    rational = metric.custom_profile("1 + s^2 - m/s", {"m": 2.0})
    assert "horizon" not in vars(rational)
    assert rational.horizon.radius == pytest.approx(1.0, rel=1e-14)
    assert vars(rational)["horizon"] is rational.horizon
    assert copy.deepcopy(rational).horizon == rational.horizon


def test_traced_methods_stay_in_their_class_dict():
    for name in ("evaluate", "evaluate_exact"):
        assert callable(Expression.__dict__[name])
    for name in ("value", "defect"):
        assert callable(metric.RadialProfile.__dict__[name])
    assert isinstance(metric.RadialProfile.__dict__["horizon"], functools.cached_property)


def test_import_generates_no_code():
    # renvol's standard-library imports are loaded first: decimal, for one,
    # builds a namedtuple through eval when it is imported
    code = """
import argparse, array, fractions, heapq, re, shlex, sys
generated = []

def hook(event, args):
    if event == "compile":
        name = args[1]
    elif event == "exec":
        name = getattr(args[0], "co_filename", "")
    else:
        return
    if not str(name).endswith(".py"):
        generated.append(str(name))

sys.addaudithook(hook)
import renvol, renvol.cli
print(" ".join(generated))
tree = renvol.parse("1 + s")
for name, args in (("evaluate", (1.0,)), ("enclose", (1.0, 2.0)), ("evaluate_exact", (1,))):
    for _ in range(2):
        del generated[:]
        getattr(tree, name)(*args)
        print(" ".join(generated))
p = renvol.custom_profile("1 + s^2 - m*exp(-s)/s", {"m": 2.0})
free = renvol.custom_profile("1 + s^2 + c*exp(-s)", {"c": 1.0})
for q in (p, free):
    q.horizon, q.asymptotics
for call in (renvol.renormalized_volume, lambda p: renvol.flow_volume_lower_bound(p, 1.0),
             lambda p: renvol.renormalized_volume(free)):
    for _ in range(2):
        del generated[:]
        call(p)
        print(" ".join(generated))
for call in (
    lambda: renvol.kernel_margin(1e-3, 1.0),
    lambda: renvol.volume_gap(renvol.GapSpec(10.0, 1.0)),
    lambda: renvol.volume_gap_regularized(renvol.GapSpec(10.0, 1.0, 1e-2)),
    lambda: renvol.volume_gap_slope(renvol.GapSpec(10.0, 1.0, 1e-2)),
    lambda: renvol.kernel_threshold(1.0),
):
    for _ in range(2):
        del generated[:]
        call()
        print(" ".join(generated))
"""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(TESTS_DIR), "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    # nothing at import; the first evaluate, enclose and evaluate_exact
    # each compile and run one <expression>, and a second call neither.
    # The first renormalized_volume compiles and runs two panel kernels,
    # the core's in the compact map and the far pieces' in 1 - u, under
    # their own name, and no <expression>; the flow bound one more; a
    # second call none.  Without a horizon the volume compiles two, its
    # core's in log(1 + s) and the far pieces'.  The
    # first kernel_margin compiles and runs its kernel, the first
    # volume_gap and volume_gap_regularized their two each (the sqrt and
    # the layer substitutions; at alpha = 1 the second gap integral has no
    # tail in plain t); the slope and the threshold reuse the margin's,
    # and no second call compiles
    once = "<expression> <expression>"
    one, two = "<panel> <panel>", " ".join(["<panel>"] * 4)
    assert proc.stdout.split("\n") == [
        "", once, "", once, "", once, "", two, "", one, "", two, "",
        one, "", two, "", two, "", "", "", "", "", "",
    ]
