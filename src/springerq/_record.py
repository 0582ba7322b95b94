"""Immutable records on __slots__, Partition among them: what this package
uses of a frozen dataclass, without importing dataclasses (which loads
inspect, ast, dis and tokenize) or compiling code for each class."""

from itertools import repeat

_set = object.__setattr__


class Record:
    """An immutable record whose fields are the names in its __slots__, in order.

    A subclass lists its fields in __slots__ and the defaults of its trailing
    fields in _defaults.  Like a frozen dataclass, a record is built from
    positional or keyword arguments and then checked by __post_init__ (which
    may set a field with object.__setattr__); it equals only records of its
    own class with equal fields, hashes as the tuple of its fields, shows as
    Name(field=value, ...), and raises AttributeError on assignment or
    deletion.  dataclasses.fields, asdict and replace do not apply.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__slots__

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            _set(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs) -> list:
        """The field values: args, then kwargs or _defaults; TypeError as a call
        of a function with the fields as parameters would raise."""
        fields, name = cls.__slots__, cls.__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        values = list(args)
        for field in fields[len(args):]:
            if field in kwargs:
                values.append(kwargs.pop(field))
            elif field in cls._defaults:
                values.append(cls._defaults[field])
            else:
                raise TypeError(f"{name}() missing required argument: {field!r}")
        for key in kwargs:
            why = "got multiple values for" if key in fields else "got an unexpected keyword"
            raise TypeError(f"{name}() {why} argument {key!r}")
        return values

    def __post_init__(self):
        pass

    def _astuple(self) -> tuple:
        return tuple(map(getattr, repeat(self), self.__slots__))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):  # for copy and pickle: the slots have no __dict__ to restore
        return self.__class__, self._astuple()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
