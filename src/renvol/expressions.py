"""Infix expression trees for radial metric profiles.

A profile is a function of the radius variable ``s`` with optional named
parameters, written in plain infix notation::

    1 + s^2 - m/s
    1 + s^2 - m/s + c/s^2

The parser produces an immutable tree that supports

* float evaluation with late parameter binding (``evaluate()``),
* float interval enclosures (``enclose()``): bounds on every value
  ``evaluate`` returns for s in an interval, or None where some point may
  raise or give a non-finite value.  The horizon walk uses them to pass
  over ranges of its grid where f provably keeps one sign,
* exact rational evaluation (``evaluate_exact()``), kept as an oracle for
  tests and for the benchmark's tracer; the library evaluates in float
  only,
* the profile defect ``q = 1 + s^2 - f`` as a normalized tree whose 1 and
  s^2 terms cancel symbolically (``defect()``), the mass aspect ``s q``
  (``mass_aspect()``) and the decay rate of ``|q|/f`` at infinity, read
  from leading terms (``decay_rate()``): all three come from one normal
  form of the tree, built once and cached on the node, and so does its
  fourth reader, ``algebra.rational_form``, which binds the parameters
  into it to give f = P/Q,
* the value with its first two derivatives in ``s`` by forward-mode
  differentiation (``jet()``), and bounds on all three (``enclose_jet()``):
  no derivative tree is built, and a jet costs a fixed multiple of the
  tree's size.

All of them come from one emitter: each node writes its operation once
(``_emit``), and the first call of each evaluation compiles the tree to a
straight-line function, cached on the node, whose operations run in
post-order, left before right, as in a recursive walk; an operation met
again on the same operands reuses its first result.  A jet is the same
emitter run over dual numbers (``_Dual``).  The panel kernels of
``volume`` are emitted by the same code.

``^`` is restricted to integer literal exponents, so that every power is
a product the emitter writes out, in value, interval and exact code
alike.  The recognised functions are ``exp``, ``log`` and ``sqrt``.
Trees are immutable and safe to share between threads.
"""

from __future__ import annotations

import math
import re
from functools import cached_property, lru_cache
from fractions import Fraction
from typing import Mapping

from .errors import DecayError, DomainError, EvaluationError, ParseError
from .records import Record

__all__ = [
    "Expression",
    "parse",
    "parse_profile_text",
    "load_profile_file",
]

_FUNCTIONS = ("exp", "log", "sqrt")

_NO_PARAMS: Mapping[str, float] = {}
_ONE = Fraction(1)


class ExactUnsupported(Exception):
    """Internal: tree contains a node without an exact rational value."""


class _Unbounded(Exception):
    """Internal: a subtree has no finite enclosure; see Expression.enclose."""


class _Overflow(_Unbounded):
    """Internal: an enclosure has an infinite or NaN end."""


class Expression(Record):
    """Base class for expression nodes.

    Instances are immutable records (``renvol.records``); all methods are
    pure.
    """

    def evaluate(self, s: float, params: Mapping[str, float] | None = None) -> float:
        """Evaluate at radius ``s`` with the given parameter bindings."""
        return self._compiled(float(s), params if params is not None else _NO_PARAMS)

    def evaluate_exact(self, s, params: Mapping[str, Fraction] | None = None) -> Fraction:
        """The operations of ``evaluate`` in exact rational arithmetic.

        Raises ExactUnsupported at an exp/log/sqrt node, before its
        argument runs.  Domain violations (division by zero) raise
        DomainError exactly as in the float path.
        """
        return self._exact(Fraction(s), params if params is not None else _NO_PARAMS)

    def enclose(
        self, lo: float, hi: float, params: Mapping[str, float] | None = None
    ) -> tuple[float, float] | None:
        """Bounds ``(L, H)`` on every value ``evaluate`` returns at an ``s``
        in ``[lo, hi]``, or None when they cannot be given.

        The bounds hold for the float results, not only for the exact
        ones: the tree compiles, once, to interval code that follows the
        float operations of ``evaluate`` in their order, powers included,
        with round-to-nearest.  That rounding is monotone,
        so for ``+ - * /`` the ends computed from the operands' ends bound
        every result from operands inside.  exp and log are not correctly
        rounded, so not monotone either, but they stay within 1 ulp of the
        exact value (glibc's within about 0.52 ulp).  An inside result is
        then at most 2 ulps beyond the result at the nearer end, and each
        end is widened by ``_ULPS`` = 4 steps of ``math.nextafter``, which
        cover 2 ulps even where the steps cross into a binade of half the
        spacing.  sqrt is correctly rounded, hence monotone, and widened
        alike.

        None where some point may raise DomainError (a divisor or negative
        power whose bounds hold 0, a log argument reaching 0 or below, a
        sqrt argument reaching below 0, exp overflowing) and wherever an
        end is infinite or NaN.  With every end finite, every intermediate
        value at every point is finite, so none of them is NaN either.
        Raises ValueError unless lo <= hi, so also for a NaN end: reversed
        ends would give bounds that bound nothing.
        """
        return _bounded(self._enclosure, lo, hi, params)

    def jet(self, s: float, params: Mapping[str, float] | None = None) -> tuple:
        """``(g, g', g'')`` at ``s``: the value of ``evaluate`` and the first
        two derivatives in s, by forward-mode differentiation (``_Dual``)
        with the folds of a symbolic differentiator (``_Ring``).  Raises
        DomainError also where only a derivative's operation does, even
        one a fold drops (in ``0*g``, those of g')."""
        return self._jets(float(s), params if params is not None else _NO_PARAMS)

    def enclose_jet(
        self, lo: float, hi: float, params: Mapping[str, float] | None = None
    ) -> tuple | None:
        """Bounds ``((L, H), (L', H'), (L'', H''))`` on the components of
        every ``jet`` at an ``s`` in ``[lo, hi]``, by the interval code of
        ``enclose``: None where g or g' has none, and the last pair alone
        None where only g'' has none (see ``_compile``)."""
        return _bounded(self._jet_enclosure, lo, hi, params)

    def defect(self) -> "Expression":
        """The profile defect ``1 + s^2 - self`` as a cancellation-free tree.

        The Laurent-polynomial parts in ``s``, with parameter coefficients,
        are expanded and the ``1`` and ``s^2`` terms cancel symbolically;
        exp/log/sqrt calls and divisors that are not a single term stay as
        atoms.  A negative power of ``s`` is emitted as a division, so the
        defect of ``1 + s^2 - m/s`` is ``m/s``.  Built on first use and
        cached on the node, like the compiled functions.

        Raises DecayError when an atom-free ``s^2`` term survives next to
        an atom, as in ``sqrt(1 + 2*s^2 + s^4) - m/s``: the defect would be
        a float difference of nearly equal numbers.
        """
        return self._defect

    def mass_aspect(self) -> "Expression":
        """``s q`` from the normal form of ``defect()`` (a model's is m),
        cached like it.  Raises DecayError where ``defect()`` does."""
        return self._mass_aspect

    def decay_rate(self, params: Mapping[str, float] | None = None) -> tuple:
        """The rate ``(k, j)`` of ``|q|/f ~ c s^k log(s)^j`` as s -> inf,
        for q = ``defect()``, read from the leading terms of q and f
        (``_Leading``): k is exact, or -inf where q vanishes identically or
        decays faster than every power of s.  Nothing is sampled.  Raises
        DecayError where ``defect()`` does, and where the rate cannot be
        read, naming the atom (as ``log(1 + 1/s)``) or the terms that may
        cancel; EvaluationError for an unbound parameter."""
        f, q, atoms = self._defect_form
        read = _Leading(self, atoms, params if params is not None else _NO_PARAMS)
        (k, j), _ = read.lead(q) or ((-_INF, 0), None)
        if (k, j) < (2, 0):
            return _rate(k - 2, j)  # f = 1 + s^2 - q leads with s^2
        (fk, fj), _ = read.lead(f) or read.refuse("f vanishes identically")
        return (0, 0) if (fk, fj) == (k, j) else _rate(k - fk, j - fj)

    def parameters(self) -> frozenset:
        """Names of free parameters (everything except ``s``)."""
        return self._parameters

    @cached_property
    def _parameters(self) -> frozenset:
        """``parameters()``, collected once per tree; cached like ``_has_call``."""
        d = self.__dict__
        return frozenset().union(
            *(d[name]._parameters for name in self._fields if isinstance(d[name], Expression))
        )

    @cached_property
    def _compiled(self):
        return _compile(self, "value")

    @cached_property
    def _enclosure(self):
        return _compile(self, "interval")

    @cached_property
    def _exact(self):
        return _compile(self, "exact")

    @cached_property
    def _jets(self):
        return _compile(self, "value", jet=True)

    @cached_property
    def _jet_enclosure(self):
        return _compile(self, "interval", jet=True)

    @cached_property
    def _kernels(self):
        """Functions compiled elsewhere from this tree, by kind (the panel
        kernels of ``volume``); filled on first use of each kind."""
        return {}

    @cached_property
    def _normal_form(self):
        """``(terms, atoms)``: this tree's normal form (see ``_padd``) and
        its atoms with their ``divisors`` (see ``_ppow``), built once for
        ``_defect_of`` and ``algebra.rational_form``."""
        atoms = _Atoms()
        return self._normal(atoms), atoms

    @cached_property
    def _defect_form(self):
        """The normal forms ``(f, q, atoms)`` of f and q (see ``_padd``)."""
        return _defect_of(self)

    @cached_property
    def _defect(self):
        _, q, atoms = self._defect_form
        return _emit_normal(q, atoms)

    @cached_property
    def _mass_aspect(self):
        _, q, atoms = self._defect_form
        return _emit_normal(_pmul({((1, "s", 1),): _ONE}, q), atoms)

    @cached_property
    def _size(self) -> int:
        """The number of nodes of the tree, a power counted as the products
        it stands for; cached like ``_has_call``.  A measure of the work of
        one evaluation that no change of the emitter moves."""
        d = self.__dict__
        return 1 + sum(d[name]._size for name in self._fields if isinstance(d[name], Expression))

    @cached_property
    def _has_call(self) -> bool:
        """True when the tree holds an exp, log or sqrt node; cached like
        ``_defect``."""
        d = self.__dict__
        return any(
            isinstance(d[name], Expression) and d[name]._has_call for name in self._fields
        )

    def _normal(self, atoms) -> dict:
        """This node's normal form; see ``_padd`` for the representation."""
        raise NotImplementedError

    def __getstate__(self):
        # functions built by exec do not pickle; copies recompile on first use
        state = dict(self.__dict__)
        for name in ("_compiled", "_enclosure", "_exact", "_jets", "_jet_enclosure", "_kernels"):
            state.pop(name, None)
        return state

    def _emit(self, code: _Ring):
        """Run this node's operation in ``code``, a _Code or a _Dual over
        one: append its statements, and return its operand."""
        raise NotImplementedError

    # precedence used for printing; higher binds tighter
    _prec = 9

    def _fmt(self, parent_prec: int) -> str:
        text = self._text()
        if self._prec < parent_prec:
            return "(" + text + ")"
        return text

    def _text(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self._text()


class Num(Expression):
    value: float

    _prec = 9

    def _emit(self, code):
        return code.lift(self.value)

    def _normal(self, atoms):
        if not math.isfinite(self.value):
            return _atom(self, atoms)
        return {(): Fraction(self.value)} if self.value else {}

    def _text(self):
        return repr(self.value)


class Var(Expression):
    """The radius variable ``s``."""

    _prec = 9

    def _emit(self, code):
        return code.s

    def _normal(self, atoms):
        return {((1, "s", 1),): _ONE}

    def _text(self):
        return "s"


class Param(Expression):
    name: str

    _prec = 9

    def _emit(self, code):
        return code.param(self.name)

    def _normal(self, atoms):
        return {((0, self.name, 1),): _ONE}

    @cached_property
    def _parameters(self):
        return frozenset((self.name,))

    def _text(self):
        return self.name


class Neg(Expression):
    arg: Expression

    _prec = 2

    def _emit(self, code):
        return code.neg(self.arg._emit(code))

    def _normal(self, atoms):
        return _padd({}, self.arg._normal(atoms), -1)

    def _text(self):
        return "-" + self.arg._fmt(self._prec + 1)


class _Binary(Expression):
    """Shared fields of the four arithmetic operators."""

    left: Expression
    right: Expression


class Add(_Binary):
    _prec = 1

    def _emit(self, code):
        return code.binary(self.left._emit(code), "+", self.right._emit(code))

    def _normal(self, atoms):
        return _padd(self.left._normal(atoms), self.right._normal(atoms), 1)

    def _text(self):
        return self.left._fmt(self._prec) + " + " + self.right._fmt(self._prec + 1)


class Sub(_Binary):
    _prec = 1

    def _emit(self, code):
        return code.binary(self.left._emit(code), "-", self.right._emit(code))

    def _normal(self, atoms):
        return _padd(self.left._normal(atoms), self.right._normal(atoms), -1)

    def _text(self):
        return self.left._fmt(self._prec) + " - " + self.right._fmt(self._prec + 1)


class Mul(_Binary):
    _prec = 3

    def _emit(self, code):
        return code.binary(self.left._emit(code), "*", self.right._emit(code))

    def _normal(self, atoms):
        return _pmul(self.left._normal(atoms), self.right._normal(atoms))

    def _text(self):
        return self.left._fmt(self._prec) + "*" + self.right._fmt(self._prec + 1)


class Div(_Binary):
    _prec = 3

    def _emit(self, code):
        return code.div(self.left._emit(code), self.right._emit(code), self)

    def _normal(self, atoms):
        num = self.left._normal(atoms)
        return _pmul(num, _ppow(self.right._normal(atoms), -1, atoms))

    def _text(self):
        return self.left._fmt(self._prec) + "/" + self.right._fmt(self._prec + 1)


def _ipow(base, exponent):
    # binary exponentiation; keeps s^2 bitwise equal to s*s
    result = 1.0
    acc = base
    k = exponent
    while k:
        if k & 1:
            result = result * acc
        k >>= 1
        if k:
            acc = acc * acc
    return result


class Pow(Expression):
    base: Expression
    exponent: int

    _prec = 5

    def _emit(self, code):
        return code.pow(self.base._emit(code), self.exponent, self)

    def _normal(self, atoms):
        return _ppow(self.base._normal(atoms), self.exponent, atoms)

    @cached_property
    def _size(self):
        # the power counts as the products of _ipow that it stands for
        n = abs(self.exponent)
        return self.base._size + max(n.bit_length() + n.bit_count() - 2, 1)

    def _text(self):
        # base is parenthesized unless atomic, so (s^2)^3 round-trips
        return self.base._fmt(self._prec + 1) + "^" + str(self.exponent)


class Call(Expression):
    func: str
    arg: Expression

    _prec = 9
    _has_call = True

    def _emit(self, code):
        # the argument is emitted by the call: exact code refuses before it
        return code.call(self.func, self.arg, self)

    def _normal(self, atoms):
        inner = self.arg._normal(atoms)
        return _atom(Call(self.func, _emit_normal(inner, atoms)), atoms, self.func, inner)

    def _text(self):
        return "%s(%s)" % (self.func, self.arg)


# ---------------------------------------------------------------------------
# compilation to a straight-line function

_INF = math.inf
# nextafter steps that widen an exp, log or sqrt result; see enclose()
_ULPS = 4

_GLOBALS = {
    "_exp": math.exp,
    "_log": math.log,
    "_sqrt": math.sqrt,
    "_nextafter": math.nextafter,
    "_INF": _INF,
    "_Unbounded": _Unbounded,
    "_Overflow": _Overflow,
    "_Fraction": Fraction,
    "_ONE": _ONE,
    "DomainError": DomainError,
    "EvaluationError": EvaluationError,
    "ExactUnsupported": ExactUnsupported,
}


class _Ring:
    """The node operations of ``_Code`` and ``_Dual``.  The rules of d/ds
    call them with ``fold``, and they fold first as a symbolic
    differentiator does: a constant with a constant, a 0 or 1 operand,
    and -(-x); constants are the operands ``known`` reads as floats.  So a
    derivative runs the float operations of its tree, signed zeros too.
    """

    def call(self, func, arg, node):
        return self.apply(func, arg._emit(self), node)

    def binary(self, x, op, y, fold=False):
        """``x op y`` for op in + - *."""
        if fold:
            a, b = self.known(x), self.known(y)
            if a is not None and b is not None:
                return self.lift(a + b if op == "+" else a - b if op == "-" else a * b)
            if op == "*" and 0.0 in (a, b):
                return self.lift(0.0)
            unit = 1.0 if op == "*" else 0.0
            if b == unit:
                return x
            if a == unit:
                return self.neg(y, True) if op == "-" else y
        return self._binary(x, op, y)

    def product(self, x, y):
        """The folded ``x * y`` of a rule of d/ds."""
        return self.binary(x, "*", y, True)

    def div(self, x, y, node, fold=False):
        if fold:
            a, b = self.known(x), self.known(y)
            if a == 0.0:
                return self.lift(0.0)
            if b == 1.0:
                return x
            if a is not None and b:  # b known and nonzero
                return self.lift(a / b)
        return self._quotient(x, y, node)

    def neg(self, x, fold=False):
        if fold:
            a = self.known(x)
            if a is not None:
                return self.lift(-a)
            if x in self.negated:
                return self.negated[x]
        result = self._negation(x)
        self.negated[result] = x
        return result

    def pow(self, x, n, node, fold=False):
        if fold and n in (0, 1):
            return x if n else self.lift(1.0)
        a = self.known(x) if fold else None
        # a negative power that underflows to 0 is left to raise
        if a is not None and (n > 0 or _ipow(a, -n) != 0.0):
            return self.lift(_ipow(a, n) if n > 0 else 1.0 / _ipow(a, -n))
        return self._power(x, n, node)


class _Code(_Ring):
    """Source lines of one compiled tree; temporaries are t1, t2, ...

    The mode is "value" (floats), "interval" (float bounds over ``[lo, hi]``,
    each operand a pair; see ``enclose``) or "exact" (``Fraction``s).

    Each operation is written once: ``memo`` maps an operation on given
    operands to the operand that already holds its result, so a subtree
    met again, within one tree or in a second tree emitted into the same
    code, adds no lines.  The key is the operation's text with its operands,
    so literals key by their repr and -0.0 stays apart from 0.0.  A reused
    operation ran earlier with the same operands, so it raised there if it
    raises at all.

    Interval code writes its arithmetic inline.  Every pair it assigns is
    checked by two comparisons, ``-_INF < L`` and ``H < _INF``, which a NaN
    end fails too, and raises ``_Overflow`` otherwise; a refusal of an
    operand outside an operation's domain raises ``_Unbounded``.
    """

    def __init__(self, mode):
        self.mode = mode
        self.lines = []
        self.params = {}  # parameter name -> operand holding its value
        self.constants = {}  # global name -> value with no exact literal
        self.memo = {}  # operation key -> operand holding its result
        self.negated = {}  # operand of a negation -> what it negates
        self.count = 0
        self.s = ("lo", "hi") if mode == "interval" else "s"
        self.one = {"value": "1.0", "interval": ("1.0", "1.0"), "exact": "_ONE"}[mode]

    def temp(self):
        self.count += 1
        return "t%d" % self.count

    def assign(self, rhs):
        """The operand holding ``rhs``, a new one unless ``rhs`` ran before."""
        name = self.memo.get(rhs)
        if name is None:
            name = self.memo[rhs] = self.temp()
            self.lines.append("%s = %s" % (name, rhs))
        return name

    def checked(self, key, lines, pair):
        """Interval code: ``pair``, the names that ``lines`` assign, refused
        unless finite; kept in the memo under ``key``."""
        self.lines += lines
        self.lines += ["if not (-_INF < %s and %s < _INF):" % pair, "    raise _Overflow"]
        self.memo[key] = pair
        return pair

    def bounds(self, key, lines, lo, hi):
        """Interval code: a new pair ``(lo, hi)`` computed after ``lines``."""
        pair = self.temp(), self.temp()
        return self.checked(key, lines + ["%s = %s" % (pair[0], lo), "%s = %s" % (pair[1], hi)], pair)

    def corners(self, key, op, a, b):
        """Interval code: ``a op b`` for op in * /, bounded by the least
        and greatest of the four corner results (each is monotone in both
        operands away from a zero divisor).  A corner repeated by a point
        operand ``(c, c)`` is computed once; min and max see the others in
        the same first-occurrence order."""
        operands = dict.fromkeys([(a[0], b[0]), (a[0], b[1]), (a[1], b[0]), (a[1], b[1])])
        corners = [self.temp() for _ in operands]
        lines = ["%s = %s %s %s" % (c, x, op, y) for c, (x, y) in zip(corners, operands)]
        if len(corners) == 1:
            return self.checked(key, lines, (corners[0], corners[0]))
        listed = ", ".join(corners)
        return self.bounds(key, lines, "min(%s)" % listed, "max(%s)" % listed)

    def constant(self, value):
        # a non-finite literal converts at its position (lift), and exact
        # and interval code raise there, as a recursive walk would
        if type(value) is float and math.isfinite(value):
            literal = repr(value)  # repr round-trips, -0.0 included
        else:
            literal = "k%d" % len(self.constants)
            self.constants[literal] = value
        if self.mode == "value":
            return literal
        if self.mode == "exact":
            return self.assign("_Fraction(%s)" % literal)
        if literal in self.constants:
            return self.checked(literal, [], (literal, literal))
        return literal, literal

    def lift(self, value):
        """A literal: a finite float stays one, for the folds of ``_Ring``,
        until an operation takes it (``operand``)."""
        if type(value) is float and math.isfinite(value):
            return value
        return self.constant(value)

    def known(self, x):
        return x if type(x) is float else None

    def operand(self, x):
        return self.constant(x) if type(x) is float else x

    def param(self, name):
        # one read per name, at its first position in post-order
        operand = self.params.get(name)
        if operand is None:
            value = self.temp()
            self.lines += [
                "try:",
                "    %s = %s(params[%r])"
                % (value, "_Fraction" if self.mode == "exact" else "float", name),
                "except KeyError:",
                "    raise EvaluationError(%r) from None" % ("unbound parameter '%s'" % name),
            ]
            if self.mode == "interval":
                value = self.checked(value, [], (value, value))
            operand = self.params[name] = value
        return operand

    def _negation(self, x):
        x = self.operand(x)
        if self.mode != "interval":
            return self.assign("-" + x)
        key = ("-",) + x
        if key in self.memo:
            return self.memo[key]
        # negation keeps a finite pair finite
        pair = self.memo[key] = self.temp(), self.temp()
        self.lines.append("%s, %s = -%s, -%s" % (pair + (x[1], x[0])))
        return pair

    def _binary(self, left, op, right):
        left, right = self.operand(left), self.operand(right)
        if self.mode != "interval":
            return self.assign("%s %s %s" % (left, op, right))
        key = (op,) + left + right
        if key in self.memo:
            return self.memo[key]
        if op == "+":
            return self.bounds(key, [], "%s + %s" % (left[0], right[0]), "%s + %s" % (left[1], right[1]))
        if op == "-":
            return self.bounds(key, [], "%s - %s" % (left[0], right[1]), "%s - %s" % (left[1], right[0]))
        return self.corners(key, "*", left, right)

    def _quotient(self, x, y, node):
        return self.divide(self.operand(x), self.operand(y), "division by zero", node)

    def _power(self, x, n, node):
        power = self.ipow(self.operand(x), abs(n))
        if n >= 0:
            return power
        # testing the power, not the base, also catches b^-n underflowing to 0
        return self.divide(self.one, power, "zero raised to negative power", node)

    def divide(self, num, den, what, node):
        """``num / den``, raising DomainError("<what> in '<node>'") on a
        zero divisor; interval code refuses a divisor whose bounds hold 0."""
        if self.mode == "interval":
            key = ("/",) + num + den
            if key in self.memo:
                return self.memo[key]
            self.lines += ["if %s <= 0.0 <= %s:" % den, "    raise _Unbounded"]
            return self.corners(key, "/", num, den)
        rhs = "%s / %s" % (num, den)
        if rhs not in self.memo:
            message = "%s in '%s'" % (what, node)
            self.lines += ["if %s == 0.0:" % den, "    raise DomainError(%r)" % message]
        return self.assign(rhs)

    def square(self, x):
        """Interval code: x*x grows with |x|, so one interval squares
        tighter than two."""
        key = ("^2",) + x
        if key in self.memo:
            return self.memo[key]
        lo, hi = pair = self.temp(), self.temp()
        lines = [
            "if %s >= 0.0:" % x[0],
            "    %s, %s = %s * %s, %s * %s" % (lo, hi, x[0], x[0], x[1], x[1]),
            "elif %s <= 0.0:" % x[1],
            "    %s, %s = %s * %s, %s * %s" % (lo, hi, x[1], x[1], x[0], x[0]),
            "else:",
            "    %s, %s = 0.0, max(%s * %s, %s * %s)" % (lo, hi, x[0], x[0], x[1], x[1]),
        ]
        return self.checked(key, lines, pair)

    def ipow(self, base, exponent):
        """_ipow's multiplication sequence, without its exact leading 1.0*;
        interval code encloses each square as one."""
        result = None
        acc = base
        k = exponent
        while k:
            if k & 1:
                result = acc if result is None else self.binary(result, "*", acc)
            k >>= 1
            if k:
                acc = self.square(acc) if self.mode == "interval" else self.binary(acc, "*", acc)
        return self.one if result is None else result

    def call(self, func, arg, node):
        """``func(arg)``; exact code raises ExactUnsupported before the
        argument runs."""
        if self.mode == "exact":
            self.lines.append("raise ExactUnsupported(%r)" % func)
            return "None"
        return self.apply(func, arg._emit(self), node)

    def apply(self, func, x, node):
        """``func(x)`` for the Call ``node``."""
        x = self.operand(x)
        key = (func,) + ((x,) if self.mode == "value" else x)
        operand = self.memo.get(key)
        if operand is not None:
            return operand
        if self.mode == "interval":
            # exp, log and sqrt are increasing; each raises where the float
            # call would, at a log argument <= 0, a sqrt argument < 0 or an
            # exp overflow; each end is then widened by _ULPS steps
            lo, hi = self.temp(), self.temp()
            lines = [
                "try:",
                "    %s = _%s(%s)" % (lo, func, x[0]),
                "    %s = _%s(%s)" % (hi, func, x[1]),
                "except (ValueError, OverflowError):",
                "    raise _Unbounded from None",
            ]
            widen = "_nextafter(" * _ULPS + "%s" + ", %s)" * _ULPS
            return self.bounds(key, lines, widen % ((lo,) + ("-_INF",) * _ULPS),
                               widen % ((hi,) + ("_INF",) * _ULPS))
        name = self.memo[key] = self.temp()
        self.lines += [
            "try:",
            "    %s = _%s(%s)" % (name, func, x),
            "except (ValueError, OverflowError):",
            "    raise DomainError(%r %% (%r, %s, %r)) from None"
            % ("%s of out-of-range value %r in '%s'", func, x, str(node)),
        ]
        return name


class _Dual(_Ring):
    """Dual numbers ``(x, x')`` over ``inner``: a node's operation and the
    rule of d/ds, folding, in one pass (forward mode; Griewank & Walther,
    Evaluating Derivatives, SIAM 2008).  Over a _Dual they are of order 2,
    ``((g, g'), (g', g''))``, whose two g' the memo writes once."""

    def __init__(self, inner):
        self.inner = inner
        self.s = inner.s, inner.lift(1.0)
        self.negated = {}

    def known(self, x):
        return self.inner.known(x[0])

    def lift(self, value):
        return self.inner.lift(value), self.inner.lift(0.0)

    def param(self, name):
        return self.inner.param(name), self.inner.lift(0.0)

    def _binary(self, x, op, y):
        i = self.inner
        value = i.binary(x[0], op, y[0])
        if op != "*":
            return value, i.binary(x[1], op, y[1], True)
        return value, i.binary(i.product(x[1], y[0]), "+", i.product(x[0], y[1]), True)

    def _quotient(self, x, y, node):
        i = self.inner
        value = i.div(x[0], y[0], node)
        top = i.binary(i.product(x[1], y[0]), "-", i.product(x[0], y[1]), True)
        return value, i.div(top, i.pow(y[0], 2, node, True), node, True)

    def _negation(self, x):
        return self.inner.neg(x[0]), self.inner.neg(x[1], True)

    def _power(self, x, n, node):
        i = self.inner
        scale = i.product(i.lift(float(n)), i.pow(x[0], n - 1, node, True))
        return i.pow(x[0], n, node), i.product(scale, x[1])

    def apply(self, func, x, node):
        i = self.inner
        value = i.apply(func, x[0], node)
        if func == "exp":
            return value, i.product(value, x[1])
        if func == "log":
            return value, i.div(x[1], x[0], node, True)
        return value, i.div(x[1], i.product(i.lift(2.0), value), node, True)


def _bounded(enclosure, lo, hi, params):
    """``enclosure(lo, hi, params)`` for ``Expression.enclose`` and
    ``enclose_jet``: None for an infinite end or where it is unbounded."""
    lo, hi = float(lo), float(hi)
    if not lo <= hi:
        raise ValueError("enclose needs lo <= hi, got [%r, %r]" % (lo, hi))
    if not (-_INF < lo and hi < _INF):
        return None
    try:
        return enclosure(lo, hi, params if params is not None else _NO_PARAMS)
    except _Unbounded:
        return None


def _compile(expr, mode, jet=False):
    """Build the function of ``expr`` in ``mode`` (see ``_Code``):
    ``fn(s, params)``, or ``fn(lo, hi, params)`` returning a pair in
    interval mode, or with ``jet`` a tuple of three.  It runs the
    operations like a post-order walk.
    A jet is emitted to order 1, then to order 2, whose new lines are
    the second derivative's alone: interval code bounds them apart."""
    code = _Code(mode)
    if jet:
        results = list(expr._emit(_Dual(code)))
        first_order = len(code.lines)
        results.append(expr._emit(_Dual(_Dual(code)))[1][1])
    else:
        results = [expr._emit(code)]
    results = [code.operand(x) for x in results]
    args, lines = "s", code.lines
    if mode == "interval":
        args, results = "lo, hi", ["(%s, %s)" % x for x in results]
        if jet:
            second = lines[first_order:] + ["second = " + results.pop()]
            lines = lines[:first_order] + ["try:"] + ["    " + line for line in second]
            lines += ["except _Unbounded:", "    second = None"]
            results.append("second")
    body = "".join("    %s\n" % line for line in lines)
    source = "def compiled(%s, params):\n%s    return %s\n" % (args, body, ", ".join(results))
    namespace = dict(_GLOBALS, **code.constants)
    exec(compile(source, "<expression>", "exec"), namespace)
    # popped so that the function and its globals form no reference cycle
    return namespace.pop("compiled")


# ---------------------------------------------------------------------------
# normal form of the defect 1 + s^2 - f (used by defect())

# beyond this many terms a power of a sum stays unexpanded, as an atom
_MAX_TERMS = 256


def _add_term(out, key, c):
    c = out.get(key, 0) + c
    if c:
        out[key] = c
    else:
        del out[key]


def _padd(a, b, sign):
    """a + sign*b.

    A normal form maps monomials to nonzero exact coefficients, in the
    order the terms first appear.  A monomial is a sorted tuple of
    ``(rank, name, exponent)`` with a nonzero integer exponent; rank 0 is
    a parameter, 1 the radius ``s`` and 2 an atom, named by its number in
    the ``atoms`` dict of the normalization (see ``_atom``).
    """
    out = dict(a)
    for key, c in b.items():
        _add_term(out, key, sign * c)
    return out


def _pmul(a, b):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            exps = {(rank, name): e for rank, name, e in ka}
            for rank, name, e in kb:
                exps[rank, name] = exps.get((rank, name), 0) + e
            key = tuple(sorted((r, name, e) for (r, name), e in exps.items() if e))
            _add_term(out, key, ca * cb)
    return out


class _Atoms(dict):
    """The atoms of one normalization by number, their ``numbers`` by exact
    form (see ``_atom``) and its ``divisors`` (see ``_ppow``)."""

    def __init__(self):
        self.divisors, self.numbers = [], {}


def _atom(expr, atoms, func=None, inner=None, exponent=1):
    """``expr^exponent`` as a term; ``atoms`` maps its number to ``(expr,
    func, inner)``: a call and its argument's normal form, a sum kept whole
    (func None), or a non-finite literal (both None).  Equal exact forms,
    in any order of terms, share the number of the first; a non-finite
    literal has a number of its own, as inf - inf is NaN, not 0.  ``expr``
    only prints it."""
    form = object() if inner is None else (func, frozenset(inner.items()))
    name = atoms.numbers.setdefault(form, len(atoms.numbers))
    atoms.setdefault(name, (expr, func, inner))
    return {((2, name, exponent),): _ONE}


def _ppow(base, n, atoms):
    """base^n: a single term raises its exponents, a sum is multiplied out.
    A base with n < 0 that some binding may make zero, one that is zero or
    holds a parameter or an atom, is recorded in ``atoms.divisors``."""
    if n < 0 and not (base and all(r == 1 for key in base for r, _, _ in key)):
        atoms.divisors.append(base)
    if len(base) == 1:
        ((key, c),) = base.items()
        return {tuple((r, name, e * n) for r, name, e in key if e * n): c**n}
    if n == 0:
        return {(): _ONE}  # like _ipow, 0^0 is 1
    if not base and n > 0:
        return {}
    if n > 0:
        out = base
        for _ in range(n - 1):
            out = _pmul(out, base)
            if len(out) > _MAX_TERMS:
                break
        else:
            return out
    # a divisor that is not a single nonzero term, or a power too long
    # to expand, is kept whole
    return _atom(_emit_normal(base, atoms), atoms, None, base, n)


def _coefficient_factors(c):
    """Numerator and denominator Num factors of |c|; 1 is left out."""
    c = abs(c)
    try:
        if float(c) == c:
            return ([Num(float(c))] if c != 1 else []), []
        num = [Num(float(c.numerator))] if c.numerator != 1 else []
        return num, [Num(float(c.denominator))]
    except OverflowError:
        return [Num(math.inf)], []


def _product(factors):
    out = factors[0]
    for factor in factors[1:]:
        out = Mul(out, factor)
    return out


def _emit_normal(poly, atoms):
    """A tree summing the terms of ``poly`` in order; x^-k becomes /x^k."""
    out = None
    for key, c in poly.items():
        num, den = _coefficient_factors(c)
        for rank, name, e in key:
            factor = atoms[name][0] if rank == 2 else Var() if rank == 1 else Param(name)
            (num if e > 0 else den).append(factor if abs(e) == 1 else Pow(factor, abs(e)))
        term = _product(num) if num else Num(1.0)
        if den:
            term = Div(term, _product(den))
        if out is None:
            out = Neg(term) if c < 0 else term
        else:
            out = Sub(out, term) if c < 0 else Add(out, term)
    return Num(0.0) if out is None else out


def _defect_of(f):
    f_terms, atoms = f._normal_form
    q = _padd({(): _ONE, ((1, "s", 2),): _ONE}, f_terms, -1)
    on_atom = [_holds_atom(key) for key in q]
    bare_s2 = any((1, "s", 2) in key and not atom for key, atom in zip(q, on_atom))
    if bare_s2 and any(on_atom):
        raise DecayError(
            "the defect q = 1 + s^2 - f of '%s' keeps a bare s^2 term beside "
            "exp/log/sqrt or divisor terms, so evaluating it would cancel "
            "nearly equal numbers; write 1 + s^2 as separate terms of f" % f
        )
    return f_terms, q, atoms


def _holds_atom(key) -> bool:
    return any(rank == 2 for rank, _, _ in key)


# ---------------------------------------------------------------------------
# leading terms at s -> inf (used by decay_rate())

def _rate(k, j):
    return (k, j) if -_INF < k < _INF else (k, 0)


def _call(func, rate, c):
    """The leading term of ``func(g)`` from g's, or None: sqrt halves the
    rate of a g with c > 0 (an exact root where c is the square of a
    Fraction); log(g) has (0, 1) times k where g ~ c s^k with k != 0, and
    log(c) where g -> c > 0 for an exact c != 1; exp(g) grows or decays faster than
    every power of s where g grows like a power, and tends to e^c or 1
    where g tends to c or 0."""
    k, j = rate
    try:
        if func == "exp":
            if rate <= (0, 0):
                return (0, 0), (math.exp(c) if rate == (0, 0) else _ONE)
            if k > 0 and c is not None:
                return (math.copysign(_INF, c), 0), 1.0
        elif c is not None and c > 0:
            if func == "sqrt":
                root = type(c) is Fraction and Fraction(
                    math.isqrt(c.numerator), math.isqrt(c.denominator))
                return _rate(k / 2, j / 2), (root if root and root * root == c else math.sqrt(c))
            if -_INF < k < _INF and k:
                return (0, 1), Fraction(k)
            if rate == (0, 0) and type(c) is Fraction and c != 1:
                return (0, 0), math.log(c)
    except OverflowError:
        pass
    return None


class _Leading:
    """Leading terms ``(rate, c)`` at s -> inf of normal forms over one
    atoms dict, in the way of Gruntz's limit algorithm (D. Gruntz, ETH
    Zurich thesis, 1996) cut down to this grammar.  A rate is a pair
    (power of s, power of log s), compared lexicographically, or (+-inf, 0)
    where an exp grows or decays faster than every power.  c is a Fraction
    while exact, with each parameter bound to the rational of its float; a
    float once exp, log or sqrt enters it (at an infinite rate only its
    sign counts); and None where a tie at -inf hides its sign.  A divisor
    or power kept whole has the leading term of its sum, and a call the
    one ``_call`` gives.  Terms of one rate are summed where every
    coefficient is exact, and a sum that is exactly zero moves on to the
    next rate only when none of its terms holds an atom.  Anything else raises DecayError naming the atom or the
    terms."""

    def __init__(self, tree, atoms, params):
        self.tree, self.atoms, self.params = tree, atoms, params
        self.done = {}  # atom name -> its leading term, None where it vanishes

    def refuse(self, why):
        raise DecayError("the decay rate of '%s' at infinity cannot be read from "
                         "leading terms: %s" % (self.tree, why))

    def lead(self, terms):
        """The leading term of the sum ``terms``, or None where it vanishes."""
        groups = {}
        for key, c in terms.items():
            term = self.term(key, c)
            if term is not None:
                groups.setdefault(term[0], []).append((key, term[1]))
        for rate, tied in sorted(groups.items(), reverse=True):
            if len(tied) == 1:
                return rate, tied[0][1]
            if rate[0] == -_INF:
                return rate, None
            # a finite rate has no None coefficient; a float one may carry rounding
            if rate[0] < _INF and all(type(c) is Fraction for _, c in tied):
                total = sum(c for _, c in tied)
                if total:
                    return rate, total
                if not any(_holds_atom(key) for key, _ in tied):
                    continue  # terms in s and the parameters that cancel exactly
            self.refuse("the terms %s lead together and may cancel" % ", ".join(
                "'%s'" % _emit_normal({key: terms[key]}, self.atoms) for key, _ in tied))
        return None

    def term(self, key, c):
        """The leading term of the monomial ``key`` times c, or None where
        it vanishes."""
        k = j = 0  # ints, or floats once sqrt halves them: exact
        try:
            for rank, name, e in key:
                if rank == 0:
                    if name not in self.params:
                        raise EvaluationError("unbound parameter '%s'" % name)
                    c *= Fraction(self.params[name]) ** e
                elif rank == 1:
                    k += e
                elif c != 0:  # a vanishing term reads no atom
                    (ak, aj), ac = self.atom(name) or ((0, 0), 0 ** e)
                    k, j = k + ak * e, j + aj * e
                    c = None if c is None or ac is None else c * ac**e
        except (OverflowError, ValueError, ZeroDivisionError):  # a non-finite parameter
            k = math.nan
        if c == 0:
            return None
        if k != k or type(c) is float and not 0.0 < abs(c) < _INF:
            self.refuse("the term '%s' has no leading term c s^k log(s)^j"
                        % _emit_normal({key: _ONE}, self.atoms))
        return _rate(k, j), c

    def atom(self, name):
        if name not in self.done:
            tree, func, inner = self.atoms[name]
            lead = None if inner is None else self.lead(inner)
            called = func is not None and (lead is not None or func == "exp")
            if called:  # exp of a vanishing g is 1
                lead = _call(func, *(lead or ((-_INF, 0), None)))
            if lead is None and (called or inner is None or func == "log"):
                self.refuse("the atom '%s' has no leading term c s^k log(s)^j" % tree)
            self.done[name] = lead
        return self.done[name]


# ---------------------------------------------------------------------------
# tokenizer / parser

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
    """,
    re.VERBOSE,
)


class _Token(Record):
    kind: str  # number | ident | op | end
    text: str
    pos: int


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError("unexpected character %r" % text[pos], pos)
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect_op(self, op):
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise ParseError("expected '%s'" % op, tok.pos)
        return self.advance()

    def parse(self):
        expr = self.parse_sum()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError("unexpected %r" % tok.text, tok.pos)
        return expr

    def parse_sum(self):
        expr = self.parse_term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                rhs = self.parse_term()
                expr = Add(expr, rhs) if tok.text == "+" else Sub(expr, rhs)
            else:
                return expr

    def parse_term(self):
        expr = self.parse_unary()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "*/":
                self.advance()
                rhs = self.parse_unary()
                expr = Mul(expr, rhs) if tok.text == "*" else Div(expr, rhs)
            else:
                return expr

    def parse_unary(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self):
        expr = self.parse_primary()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "^":
                self.advance()
                expr = Pow(expr, self.parse_int_literal())
            else:
                return expr

    def parse_int_literal(self):
        sign = 1
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            sign = -1
            tok = self.peek()
        if tok.kind != "number":
            raise ParseError("exponent must be an integer literal", tok.pos)
        if not tok.text.isdigit():
            raise ParseError(
                "exponent must be an integer literal, got %r" % tok.text, tok.pos
            )
        self.advance()
        return sign * int(tok.text)

    def parse_primary(self):
        tok = self.peek()
        if tok.kind == "number":
            value = float(tok.text)
            if value == _INF:
                # it would print as inf, which reads back as a parameter
                raise ParseError("literal %r overflows to inf" % tok.text, tok.pos)
            self.advance()
            return Num(value)
        if tok.kind == "ident":
            self.advance()
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "(":
                if tok.text not in _FUNCTIONS:
                    raise ParseError("unknown function '%s'" % tok.text, tok.pos)
                self.advance()
                arg = self.parse_sum()
                self.expect_op(")")
                return Call(tok.text, arg)
            if tok.text in _FUNCTIONS:
                raise ParseError(
                    "function '%s' requires an argument list" % tok.text, tok.pos
                )
            if tok.text == "s":
                return Var()
            return Param(tok.text)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            expr = self.parse_sum()
            self.expect_op(")")
            return expr
        raise ParseError("unexpected %r" % (tok.text or "end of input"), tok.pos)


@lru_cache(maxsize=256)
def parse(text: str) -> Expression:
    """Parse infix profile text into an expression tree.

    Trees are immutable, so one text gives one shared tree, and with it
    one compiled f, f', q and q': the last 256 texts are cached.  A
    ParseError is raised again on every call.
    """
    return _Parser(text).parse()


def parse_profile_text(text: str) -> dict:
    """Parse ``name = expression`` lines into an ordered dict.

    Blank lines and lines starting with ``#`` are skipped.  Inline
    ``# comments`` after an expression are allowed.
    """
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, sep, body = line.partition("=")
        name = name.strip()
        if not sep or not body.strip():
            raise ValueError("line %d: expected 'name = expression'" % lineno)
        if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", name):
            raise ValueError("line %d: invalid profile name %r" % (lineno, name))
        if name in out:
            raise ValueError("line %d: duplicate profile name %r" % (lineno, name))
        try:
            out[name] = parse(body.strip())
        except ParseError as exc:
            raise ParseError(exc.reason, exc.offset, line=lineno) from None
    return out


def load_profile_file(path) -> dict:
    """Read a profile file from disk; see parse_profile_text."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_profile_text(handle.read())
