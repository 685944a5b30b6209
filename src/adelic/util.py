"""Small shared helpers: records, reproducible RNG streams and float
guards."""
from __future__ import annotations

import math
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING

from .errors import ToleranceError

if TYPE_CHECKING:
    import random


class FrozenRecordError(AttributeError):
    """Assignment to or deletion of an attribute of a frozen record."""


class field:
    """A record field whose default is made afresh for each record, as in
    `files: dict = field(default_factory=dict)`."""

    __slots__ = ("default_factory",)

    def __init__(self, *, default_factory):
        self.default_factory = default_factory


def record(cls=None, /, *, frozen=False, slots=False):
    """Class decorator: a record of the class's annotated fields.

    The fields are the class's own annotations, in order, at least two;
    a class attribute of a field's name is its default. Adds __init__
    (fields by position or keyword, then __post_init__ when the class has
    one), __repr__ `Name(f=value, ...)`, and __eq__ between records of one
    class. A frozen record also gets __hash__ of its field values and
    raises FrozenRecordError on assignment and deletion; a mutable one is
    unhashable. Methods the class defines itself are kept. slots=True
    rebuilds the class with one slot per field and no __dict__.

    The methods are closures: nothing is exec'd and `inspect` is never
    imported. The standard library's records generate their methods as
    source, which loads `inspect` (about 12 ms of a cold start) and costs
    about 1.5 ms per class.
    """
    if cls is None:
        return lambda cls: record(cls, frozen=frozen, slots=slots)
    names = tuple(cls.__annotations__)
    n = len(names)
    defaults = tuple(cls.__dict__[f] for f in names if f in cls.__dict__)
    required = n - len(defaults)
    if n < 2 or any(f in cls.__dict__ for f in names[:required]):
        raise TypeError(f"{cls.__qualname__}: need two or more fields, "
                        "the defaulted ones last")
    by_name = dict(zip(names[required:], defaults))
    fresh = any(isinstance(d, field) for d in defaults)
    if slots:
        body = {k: v for k, v in cls.__dict__.items()
                if k not in names and k not in ("__dict__", "__weakref__")}
        body["__slots__"] = names
        qualname = cls.__qualname__
        cls = type(cls)(cls.__name__, cls.__bases__, body)
        cls.__qualname__ = qualname
    own = cls.__dict__
    values_of, from_mapping = attrgetter(*names), itemgetter(*names)
    post_init = hasattr(cls, "__post_init__")
    put = object.__setattr__
    f0, f1, f2, f3, f4 = (names + ("",) * 3)[:5]
    rest = names[5:]

    def bind(args, kwargs):
        """The field values of a call that is not one value per field."""
        given = len(args)
        if not kwargs and required <= given <= n:
            values = args + defaults[given - required:]
        else:
            merged = {**by_name, **kwargs}
            if given:
                if given > n or not kwargs.keys().isdisjoint(names[:given]):
                    raise TypeError(f"{cls.__qualname__}() got too many "
                                    "fields or one twice")
                merged.update(zip(names, args))
            if len(merged) > n:
                raise TypeError(f"{cls.__qualname__}() got unknown fields "
                                f"{sorted(merged.keys() - names)}")
            try:
                values = from_mapping(merged)
            except KeyError as exc:
                raise TypeError(
                    f"{cls.__qualname__}() missing field {exc}") from None
        if fresh:
            values = tuple(v.default_factory() if v.__class__ is field else v
                           for v in values)
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = bind(args, kwargs)
        # one call per field, unrolled: a loop takes about a third longer
        # than a generated __init__ with one parameter per field
        put(self, f0, args[0])
        put(self, f1, args[1])
        if n > 2:
            put(self, f2, args[2])
            if n > 3:
                put(self, f3, args[3])
                if n > 4:
                    put(self, f4, args[4])
                    if rest:
                        for f, value in zip(rest, args[5:]):
                            put(self, f, value)
        if post_init:
            self.__post_init__()

    def __repr__(self):
        pairs = ", ".join(map("{}={!r}".format, names, values_of(self)))
        return f"{self.__class__.__qualname__}({pairs})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values_of(self) == values_of(other)
        return NotImplemented

    def __hash__(self):
        return hash(values_of(self))

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")

    methods = [__init__, __repr__, __eq__]
    if frozen:
        methods += [__setattr__, __delattr__]
    # a class's own __hash__ stays, but not the None its own __eq__ implies
    if own.get("__hash__") is None:
        cls.__hash__ = None
        if frozen:
            methods.append(__hash__)
    for method in methods:
        if own.get(method.__name__) is None:
            method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
            setattr(cls, method.__name__, method)
    return cls


# Negative results within this many machine epsilons of zero are rounding
# noise and get clamped; anything more negative is a hard error.
NEGATIVE_CLAMP_EPS = 10


def derive_seed(*keys: int | str) -> int:
    """Map a structured key to a 64-bit seed, stable across runs and platforms.

    sha256 of the repr-joined keys. Seeds the child streams of derive_rng
    (per path, per check), so that the order of draws across streams never
    affects results. A random tail's digits do not come from here: they
    are read from SHAKE-256 of the same repr-joined key (adele.RandomTail).
    hashlib is imported here, so commands that never sample do not load
    it.
    """
    import hashlib

    material = "|".join(map(repr, keys)).encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


def derive_rng(*keys: int | str) -> random.Random:
    """Child RNG on a deterministic stream derived from the key tuple."""
    import random

    return random.Random(derive_seed(*keys))


def require_finite(**fields: float) -> None:
    """Raise ValueError naming the first field that is infinite or nan."""
    for name, value in fields.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def require_positive(**fields: float) -> None:
    """Raise ValueError naming the first field that is not a positive finite
    number (nan included); used for tolerances."""
    for name, value in fields.items():
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be a positive finite number")


def clamp_nonnegative(value: float, scale: float) -> float:
    """Clamp tiny negative rounding residue to 0.0; reject real negativity.

    scale is the natural magnitude of the computation (e.g. largest term of
    a series); tolerated undershoot is NEGATIVE_CLAMP_EPS * eps * scale.
    """
    if value >= 0.0:
        return value
    slack = NEGATIVE_CLAMP_EPS * 2.220446049250313e-16 * max(scale, 1.0)
    if value >= -slack:
        return 0.0
    raise ToleranceError(
        f"negative value {value!r} exceeds rounding slack {slack!r}"
    )
