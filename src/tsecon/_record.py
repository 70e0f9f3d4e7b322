"""Frozen record classes without generated source.

``record`` turns a class body of annotated fields into an immutable value
type: ``__init__`` (positional or keyword arguments and defaults, then
``__post_init__`` if the class has one),
``__repr__``, ``__eq__`` and ``__hash__`` over the fields in declaration
order, and a ``__setattr__``/``__delattr__`` that refuse every change.
``__post_init__`` may still normalise a field, or set an attribute derived from
the fields, with ``object.__setattr__``.

The methods are closures over the field names, built once per class.
``dataclasses`` writes the same methods as source text and ``exec``s it for
every class, which cost a cold CLI process about 1 ms per result type.
"""
from __future__ import annotations

from operator import attrgetter

__all__ = ["FrozenInstanceError", "record"]


class FrozenInstanceError(AttributeError):
    """Raised on assignment to, or deletion of, an attribute of a record."""


def record(cls):
    """Class decorator: make ``cls`` a frozen record of its annotated fields."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    n = len(names)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)
    key = attrgetter(*names)
    qualname = cls.__qualname__

    def __init__(self, *args, **kwargs):
        if len(args) > n:
            raise TypeError(f"{qualname}() takes {n} positional arguments but {len(args)} were given")
        values = self.__dict__
        values.update(zip(names, args))
        for name in kwargs:
            if name in values or name not in names:
                raise TypeError(f"{qualname}() got an unexpected or repeated argument {name!r}")
        values.update(kwargs)
        if len(values) < n:
            for name in names:
                if name not in values:
                    if name not in defaults:
                        raise TypeError(f"{qualname}() missing required argument {name!r}")
                    values[name] = defaults[name]
        if post_init is not None:
            post_init(self)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return key(self) == key(other)

    def __hash__(self):
        return hash(key(self))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r} of a {qualname}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r} of a {qualname}")

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        method.__qualname__ = f"{qualname}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls
