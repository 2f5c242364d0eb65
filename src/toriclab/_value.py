"""Frozen value classes from methods written once, here.

A value class derives from Value and declares its fields as annotations,
in order: a plain default (`problem: Optional[str] = None`) makes a field
optional, and `derived()` marks one that __post_init__ binds, kept out of
the constructor, the repr and ==/hash together.  Every annotation is a
field, and a subclass adds its own to its base's.  `class
MarkovTriple(Value, order=True)` adds the four order comparisons.

The semantics are those of the standard library's frozen dataclass, with
the same repr:
- __init__ binds the other fields positionally or by keyword, the rest
  from their defaults, then calls __post_init__; wrong arguments raise
  TypeError;
- __repr__ is `Name(field=repr, ...)` over those fields;
- == holds only between instances of one class whose fields other than
  the derived ones are equal, hash is the hash of the tuple of those
  fields, and the order comparisons compare those tuples;
- setting or deleting any attribute raises FrozenInstanceError, an
  AttributeError.  __init__, __post_init__ and _trusted bind with
  object.__setattr__; cached facts write the instance's __dict__, which
  every instance keeps.

The shared __init__ takes *args and **kwargs: a full positional call
binds each field straight from the call, any other (keywords included)
goes through _bind.  No value class defines its own __init__.

`cls._trusted(*values)` binds every field, derived ones included, to the
values in declaration order as given: it checks and normalises nothing and
runs no __post_init__, for data already in the form __post_init__ leaves.

A value's cached facts (`cached_property` here) are computed on the first
read and stored in the instance's __dict__ under the property's name,
where every later read finds them without calling the descriptor.  No
lock is taken, as in Python 3.12's functools.cached_property: two threads
reading a fact first at once may both compute it, and one result stays.
A computation that raises stores nothing.
"""

from __future__ import annotations

import functools
import operator

_MISSING = object()
_DERIVED = object()


class FrozenInstanceError(AttributeError):
    """An assignment to, or a deletion of, an attribute of a value."""


def derived():
    """The default of a derived field: one that __post_init__ binds, kept
    out of __init__, the repr and ==/hash."""
    return _DERIVED


def _getter(names: tuple[str, ...]):
    """obj -> the tuple of obj's attributes of these names."""
    if len(names) == 1:
        get = operator.attrgetter(names[0])
        return lambda obj: (get(obj),)
    return operator.attrgetter(*names)


def _comparison(op):
    """The order comparison op on the tuples of compared fields, between
    instances of one class."""

    def compare(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return op(self._key(self), self._key(other))

    return compare


_ORDER = {f"__{op.__name__}__": _comparison(op) for op in (operator.lt, operator.le, operator.gt, operator.ge)}


class cached_property(functools.cached_property):
    """functools.cached_property without the per-property lock that Python
    3.11 takes on every first read (see the module docstring); still an
    instance of functools.cached_property for code that finds cached
    properties by type."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.attrname] = self.func(instance)
        return value


class Value:
    """Base of the frozen value classes; see the module docstring."""

    __slots__ = ()

    def __init_subclass__(cls, order: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = dict(getattr(cls, "_fields", {}))
        for name in cls.__dict__.get("__annotations__", {}):
            fields[name] = cls.__dict__.get(name, _MISSING)
            if fields[name] is _DERIVED:
                delattr(cls, name)
        names = tuple(name for name, default in fields.items() if default is not _DERIVED)
        optional = [fields[name] is not _MISSING for name in names]
        if optional != sorted(optional):
            raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
        cls._fields = fields
        cls._init_fields = names
        cls._key = staticmethod(_getter(names))
        if order:
            for name, method in _ORDER.items():
                setattr(cls, name, method)

    def __init__(self, *args, **kwargs):
        names = self._init_fields
        if len(args) == len(names) and not kwargs:
            for name, value in zip(names, args):
                object.__setattr__(self, name, value)
        else:
            self._bind(args, kwargs)
        self.__post_init__()

    @classmethod
    def _trusted(cls, *values):
        """The instance whose fields in declaration order are these values,
        bound unchecked (see the module docstring)."""
        out = object.__new__(cls)
        for name, value in zip(cls._fields, values):
            object.__setattr__(out, name, value)
        return out

    def _bind(self, args, kwargs):
        """__init__'s binding on any call but a full positional one: with
        keywords, with defaults left out, or wrong."""
        cls, names = type(self).__name__, self._init_fields
        if len(args) > len(names):
            raise TypeError(f"{cls}() takes {len(names)} arguments but {len(args)} were given")
        for name, value in zip(names, args):
            if name in kwargs:
                raise TypeError(f"{cls}() got multiple values for argument {name!r}")
            object.__setattr__(self, name, value)
        for name in names[len(args) :]:
            value = kwargs.pop(name, self._fields[name])
            if value is _MISSING:
                raise TypeError(f"{cls}() missing required argument {name!r}")
            object.__setattr__(self, name, value)
        if kwargs:
            raise TypeError(f"{cls}() got an unexpected keyword argument {next(iter(kwargs))!r}")

    def __post_init__(self):
        """Checks and normalisation once the fields are bound; a class that
        has some defines its own."""

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._init_fields)})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")
