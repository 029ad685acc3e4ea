"""Immutable record types, the shape of every value class in nc3.

A subclass of :class:`Record` declares its fields as annotated class
attributes, in order; a class attribute of the same name is the field's
default.  From that field tuple the base writes, once per class, an
``__init__`` that takes the fields by position or keyword and then calls
``__post_init__`` if the class has one.  Records compare and hash by their
field values and exact class, so a record never equals a tuple or a record
of another class.  ``repr`` lists the fields, ``as_dict`` maps them to their
values, and assignment and deletion raise ``AttributeError``.
``class C(Record, order=True)`` adds the four orderings.  Field values are
instance attributes, so ``functools.cached_property`` works on records.
"""

from __future__ import annotations

import operator
from typing import Any, Callable

_setattr = object.__setattr__


def _compare(op: Callable[[Any, Any], bool]) -> Callable[[Record, Any], Any]:
    def compare(self: Record, other: Any) -> Any:
        if other.__class__ is self.__class__:
            return op(self._values(), other._values())
        return NotImplemented

    return compare


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, order: bool = False, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = fields = tuple(cls.__annotations__)
        defaults = {f"_d_{f}": cls.__dict__[f] for f in fields if f in cls.__dict__}
        params = "".join(f", {f}=_d_{f}" if f"_d_{f}" in defaults else f", {f}" for f in fields)
        # Each field is set on its own, as ``dataclasses`` does, so the
        # instance keeps CPython's compact attribute layout; a dict assigned
        # to ``__dict__`` makes every later read slower.
        body = "".join(f"\n    _setattr(self, {f!r}, {f})" for f in fields)
        if hasattr(cls, "__post_init__"):
            body += "\n    self.__post_init__()"
        values = "".join(f"self.{f}, " for f in fields)
        namespace = {"_setattr": _setattr, **defaults}
        exec(
            f"def __init__(self{params}):{body}\n"
            f"def _values(self):\n    return ({values})",
            namespace,
        )
        cls.__init__, cls._values = namespace["__init__"], namespace["_values"]
        if order:
            for name in ("lt", "le", "gt", "ge"):
                setattr(cls, f"__{name}__", _compare(getattr(operator, name)))

    __eq__ = _compare(operator.eq)

    def as_dict(self) -> dict[str, Any]:
        """The fields and their values, in field order."""
        return dict(zip(self._fields, self._values()))

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def replace(obj: Record, /, **changes: Any) -> Record:
    """A copy of ``obj`` with ``changes``, built through ``__init__``.

    ``__post_init__`` runs on the copy, so a change that breaks a record's
    invariants raises as construction would; an unknown field raises
    ``TypeError``.
    """
    return obj.__class__(**{**{f: getattr(obj, f) for f in obj._fields}, **changes})
