"""Immutable value records, the one idiom behind every value type.

``record`` returns a ``collections.namedtuple`` type with two changes.
A record equals, and hashes with, only records of its own type, so
``NormalPrior(0.5) != CauchyPrior(0.5)`` and no record equals a plain
tuple.  ``_make``, and through it ``_replace``, calls the class, so both
go through a subclass's validating ``__new__``.  Records are still
tuples: they unpack, index and order like tuples.

A record with no checks or methods is that type itself.  One with them
subclasses it with ``__slots__ = ()`` (no instance dict, so no attribute
can be set) and validates in ``__new__``, which builds the instance with
``tuple.__new__(cls, fields)``, skipping the namedtuple's ``__new__``, a
Python function.  Hot code builds records whose fields need no check the
same way (``BayesFactorResult.from_log``, ``report.sweep_rows``).
"""

import sys
from collections import namedtuple

__all__ = ["record"]


def _eq(self, other):
    return type(other) is type(self) and tuple.__eq__(self, other)


def _ne(self, other):
    return not _eq(self, other)


def _hash(self):
    return hash((type(self), tuple.__hash__(self)))


def _make(cls, iterable):
    return cls(*iterable)


def record(typename: str, field_names: str, doc: str | None = None,
           defaults: tuple | None = None) -> type:
    """Record type ``typename``, which belongs to the module calling this."""
    cls = namedtuple(typename, field_names, defaults=defaults,
                     module=sys._getframe(1).f_globals["__name__"])
    cls.__eq__, cls.__ne__, cls.__hash__ = _eq, _ne, _hash
    cls._make = classmethod(_make)
    cls.__doc__ = doc or cls.__doc__
    return cls
