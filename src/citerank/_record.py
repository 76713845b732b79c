"""Bases of the package's records: checked named tuples and mutable records."""

from __future__ import annotations

__all__ = ["Checked", "Record"]


class Checked:
    """A named tuple whose values are checked whenever one is built.

    A subclass lists this class before its ``NamedTuple`` base, sets
    ``__slots__ = ()`` and defines ``_check``, which raises on bad values.
    The constructor, ``_make`` and ``_replace`` all call it.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class Record:
    """A mutable record: its attributes are the names in ``_fields``, in order.

    A subclass sets ``__slots__ = _fields = (...)`` and writes its own
    ``__init__``.  Records of one class are equal when their fields are, and
    ``_asdict`` and ``repr`` list the fields in order, as a named tuple's do.
    Being mutable, a record is not hashable.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._asdict() == other._asdict()

    def __repr__(self) -> str:
        members = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__qualname__}({members})"
