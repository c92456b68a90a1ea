"""Immutable records: the base of cnpick's data and result types.

A record class lists its fields as annotated class attributes, in order,
and writes an ``__init__`` whose parameters are the leading fields; any
fields after them are derived, set by ``__init__`` itself.  ``__init__``
validates its arguments and stores the values with
``self.__dict__.update(...)``, so :func:`inspect.signature` of a record
class is that of its ``__init__``.  The base class adds, without
generating code:

- a ``Name(field=value, ...)`` repr over every field;
- ``==`` and ``hash`` on the tuple of field values, between records of
  the same class (``class X(Record, eq=False)`` keeps identity);
- assignment and deletion of attributes raise ``AttributeError``.

``_fields`` lists the field names.  The values live in the instance
``__dict__``, so pickling and copying work as for any plain object.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    """Base class of immutable records; see the module docstring."""

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", {}))
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
