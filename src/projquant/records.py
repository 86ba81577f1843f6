"""Immutable value records built from plain ``__slots__`` classes.

A record lists its fields in ``__slots__``; ``_fields`` names the fields
that construction, equality, hashing and the repr cover, and defaults to
every slot.  The base constructor stores the fields in ``_fields`` order,
by position or by name, through each slot's own ``__set__``, kept per
class: the frozen ``__setattr__`` does not intercept it, and it skips the
name lookup of ``object.__setattr__``.  A record that validates, derives or drops
entries writes its own constructor, which stores the fields with
``object.__setattr__`` or hands them to the base one.  Every record is
frozen; one holding a dict is unhashable through it.  The
package avoids ``dataclasses`` because importing it pulls in ``inspect``
(with ``ast``, ``dis`` and ``tokenize``), which costs a CLI call more
start-up time than most subcommands spend computing.
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
        # one C-level getter per class, not a getattr loop per call; with one
        # field it returns the field itself, so the hash is the field's hash
        cls._key = attrgetter(*cls._fields)
        cls._setters = tuple(getattr(cls, field).__set__ for field in cls._fields)

    def __init__(self, *values, **named):
        setters = self._setters
        if len(values) > len(setters):
            name = self.__class__.__qualname__
            raise TypeError(f"{name} takes {len(setters)} fields, got {len(values)}")
        for setter, value in zip(setters, values):
            setter(self, value)
        if len(values) == len(setters) and not named:
            return
        name, given = self.__class__.__qualname__, len(values)
        for field, setter in zip(self._fields[given:], setters[given:]):
            if field not in named:
                raise TypeError(f"{name} is missing field {field!r}")
            setter(self, named.pop(field))
        if named:  # a field given twice, or no field at all
            raise TypeError(f"{name} got repeated or unknown field {next(iter(named))!r}")

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
