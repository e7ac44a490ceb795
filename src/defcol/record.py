"""The base of the package's value classes.

A record's fields are the parameters of its explicit `__init__`, in order,
and `__init__` stores them with `self._set(locals())`. Unlike a dataclass,
a record class generates and execs no method source when it is defined, so
it costs an import no more than any other class.
"""

from __future__ import annotations


class Record:
    """Equality, hash, repr and immutability over a record's fields.

    Two records are equal when they are of the same class and their fields
    are equal; the hash is that of the tuple of fields, and the repr is
    `Name(field=value, ...)`. Assignment and deletion raise AttributeError.
    A mutable or identity-compared record overrides the methods it needs.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def _set(self, values: dict) -> None:
        """Store each field's value from `values`, the locals of `__init__`.

        Through object.__setattr__, not `__dict__`: reading `__dict__` makes
        CPython give up an instance's inline attribute values for a real
        dict, which made the audit benchmark's operations about 4% slower
        on Python 3.11.
        """
        for name in self._fields:
            object.__setattr__(self, name, values[name])

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
