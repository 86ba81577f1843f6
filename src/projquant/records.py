"""Immutable value records built from plain ``__slots__`` classes.

A record lists its fields in ``__slots__`` and stores them in ``__init__``
with ``object.__setattr__``.  ``_fields`` names the fields that equality,
hashing and the repr cover; it defaults to every slot.  The package avoids
``dataclasses`` because importing it pulls in ``inspect`` (with ``ast``,
``dis`` and ``tokenize``), which costs a CLI call more start-up time than
most subcommands spend computing.
"""

from operator import attrgetter


class Record:
    """Frozen record: equal to records of its own class with equal fields.

    Hashes over the same fields, prints as ``Name(field=value, ...)``, and
    raises ``AttributeError`` on any assignment or deletion.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" not in cls.__dict__:
            # the fields inherited, then the slots this class adds
            cls._fields = cls._fields + cls.__dict__.get("__slots__", ())
        # one C-level getter per class, not a getattr loop per call; records
        # hashed in hot loops still write __eq__/__hash__ out, which is faster
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # the compared fields are the constructor's arguments, in order
        return self.__class__, tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
