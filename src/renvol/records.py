"""Immutable records: the behaviour of a frozen dataclass, without code
generation at import.

A record class lists its fields as annotations, in order, and stores them
in its own ``__init__`` with ``self.__dict__[name] = value``; any checks
of the arguments run there too.  ``Record`` supplies the rest:

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
