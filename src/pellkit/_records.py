"""The one mechanism behind pellkit's immutable records.

A record is a subclass, with __slots__ = (), of a collections.namedtuple
base: it unpacks, indexes and pickles as a tuple of its fields, prints as
Name(field=value, ...), and has no attribute to assign to.  A record that
checks its fields, or gives one a default, does so in __new__.
"""

from __future__ import annotations

from collections import namedtuple


def record(name: str, fields: str) -> type:
    """The namedtuple base of the record `name` with the space-separated
    `fields`.  Its _make, and so _replace, builds through the subclass's
    __new__, so no way of building a record skips its checks (pickle and
    copy call __new__ already)."""
    base = namedtuple(name, fields)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base
