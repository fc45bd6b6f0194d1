"""Immutable value records, the one idiom behind every value type.

``record`` returns a ``collections.namedtuple`` base for a record class
with two changes.  A record equals, and hashes with, only records of its
own type, so ``NormalPrior(0.5) != CauchyPrior(0.5)`` and no record
equals a plain tuple.  ``_make``, and through it ``_replace``, calls the
class, so both go through the subclass's validating ``__new__``.
Records are still tuples: they unpack, index and order like tuples.

A record class subclasses the base, declares ``__slots__ = ()`` (no
instance dict, so no attribute can be set) and validates its fields in
``__new__``, which builds the instance with ``tuple.__new__(cls,
fields)``: the base's own ``__new__`` is a Python function, an extra
frame per record.  Hot code builds records whose fields need no check
the same way (``BayesFactorResult.from_log``, ``report.sweep_rows``).
"""

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


def record(typename: str, field_names: str, defaults: tuple | None = None) -> type:
    """namedtuple base with the fields of record class ``typename``."""
    base = namedtuple(typename, field_names, defaults=defaults)
    base.__eq__, base.__ne__, base.__hash__ = _eq, _ne, _hash
    base._make = classmethod(_make)
    return base
