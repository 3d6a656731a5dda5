"""Immutable records: the behaviour of a frozen dataclass, without code
generation at import.

A record class lists its fields as annotations, in order.  ``Record``
derives the rest from that list:

* ``__init__`` taking the fields by position or keyword, all required,
  and storing them with ``self.__dict__[name] = value``.  A class whose
  fields have defaults or whose arguments need checks defines its own
  ``__init__`` and stores its fields the same way;
* ``repr`` in the form ``Cls(a=1.0, b=2)``;
* ``==`` and ``hash`` by the tuple of fields, between instances of the
  same class only;
* ``dataclasses.FrozenInstanceError`` on assignment or deletion of any
  attribute.

Instances keep a ``__dict__``, where ``functools.cached_property`` stores
its values, and pickle and copy by that dict.
"""

from __future__ import annotations

__all__ = ["Record"]


def _frozen(message: str):
    # the error type of frozen dataclasses, imported only when raised
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(message)


class Record:
    """Base class of the immutable records; see the module docstring."""

    __slots__ = ()

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(cls.__dict__.get("__annotations__", ()))
        cls.__match_args__ = cls._fields

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) == len(fields) and not kwargs:
            self.__dict__.update(zip(fields, args))
            return
        # the error texts follow those Python gives for an explicit signature
        if len(args) > len(fields):
            raise TypeError(
                "%s.__init__() takes %d positional arguments but %d were given"
                % (type(self).__qualname__, len(fields) + 1, len(args) + 1)
            )
        d = self.__dict__
        for name, value in zip(fields, args):
            d[name] = value
        for name, value in kwargs.items():
            if name not in fields:
                raise TypeError(
                    "%s.__init__() got an unexpected keyword argument %r"
                    % (type(self).__qualname__, name)
                )
            if name in d:
                raise TypeError(
                    "%s.__init__() got multiple values for argument %r"
                    % (type(self).__qualname__, name)
                )
            d[name] = value
        if len(d) < len(fields):
            raise TypeError(
                "%s.__init__() missing required arguments: %s"
                % (type(self).__qualname__, ", ".join(repr(n) for n in fields if n not in d))
            )

    def __setattr__(self, name, value):
        _frozen("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        _frozen("cannot delete field %r" % (name,))

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self):
        return "%s(%s)" % (
            type(self).__qualname__,
            ", ".join("%s=%r" % (name, getattr(self, name)) for name in self._fields),
        )

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())
