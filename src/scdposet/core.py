"""Base types and order primitives for the grid poset of bounded compositions.

The poset under study is the set of integer vectors ("compositions") with m
parts, each part between 0 and n, ordered componentwise and graded by part
sum.  Everything here is an immutable value type or a pure function, so
objects can be shared freely across threads and pickled across processes.

The value types of the package are slot classes on two bases, not classes
generated by a decorator: every CLI command imports them, and on Python 3.11
importing the standard library's class generator (which pulls in `inspect`,
`ast` and `tokenize`) and exec'ing the methods it generates for each class
cost about 20 ms per process start.  `Record` gives every subclass equality,
repr and pickling over one field list, its `__slots__` unless the class names
a subset as `_fields`; `Frozen` adds hashing over the same fields and refuses
assignment.  Each class still writes out its `__init__`: it holds the
signature and defaults, builds the values the hot paths create on every
chain without a generic loop, sets the fields with `object.__setattr__` and
then calls `self.__post_init__()` by attribute lookup, so the construction
checks can be wrapped on the class.

`__post_init__` runs on every construction but one: `Composition._derived`
sets the fields unchecked.  Its one rule: the parts are `int`s the package
derived from validated values and provably lie in [0, n], as do the start
`locate` returns, the element `element_at` returns and the odometer's
starts (each start is still certified by `starts.start_end`).  Outside
input and psi images, whose check certifies the end-vector formula, always
go through the constructor.
"""

from __future__ import annotations

from operator import attrgetter, index

# Shapes with more cells than this are refused at construction, so an absurd
# -m/-n fails at once instead of starting work no run could finish.  Python
# ints need no such bound; this is a sanity limit, not an overflow guard.
MAX_CELLS = 2**31

_set = object.__setattr__  # assigns a field of a frozen value, bypassing its refusal


class ShapeMismatchError(ValueError):
    """Raised when two compositions from different grids are combined."""


class Record:
    """Base of the value types: equality, repr and pickling over the field list.

    The field list is the class's `__slots__`, or the subset it names as
    `_fields`.  Values of the same class are equal when their fields are;
    pickling and copying rebuild the value through its constructor, which
    takes the fields positionally in that order, so the construction checks
    run again.  A plain record is mutable and so unhashable.
    """

    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = fields = tuple(cls.__dict__.get("_fields", cls.__dict__.get("__slots__", ())))
        # The comparison key, read in C: the tuple of the fields, or the value
        # of the only one.
        cls._key = attrgetter(*fields) if fields else staticmethod(lambda _: ())

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(map(self.__getattribute__, self._fields))


class Frozen(Record):
    """Base of the immutable value types: hashable, and no assignment or deletion after `__init__`."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._key(self))


class GridShape(Frozen):
    """An m-by-n grid: vectors with m parts, each part in [0, n]."""

    __slots__ = ("m", "n")

    def __init__(self, m: int, n: int) -> None:
        # index() refuses a float or string size here, not deep in enumeration
        _set(self, "m", index(m))
        _set(self, "n", index(n))
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError(f"grid shape needs m >= 1 and n >= 1, got ({self.m}, {self.n})")
        if self.m * self.n > MAX_CELLS:
            raise ValueError(f"grid shape too large: {self.m}*{self.n} cells exceeds {MAX_CELLS}")

    @property
    def top_rank(self) -> int:
        """Rank of the maximum element (the all-n vector)."""
        return self.m * self.n

    @property
    def size(self) -> int:
        """Number of compositions on this grid, (n+1)**m."""
        return (self.n + 1) ** self.m


class Composition(Frozen):
    """An element of the grid poset: m parts, each in [0, n]."""

    __slots__ = ("shape", "parts")

    def __init__(self, shape: GridShape, parts: tuple[int, ...]) -> None:
        _set(self, "shape", shape)
        _set(self, "parts", parts)
        self.__post_init__()

    def __post_init__(self) -> None:
        # a list would compare unequal to the tuple form and break hashing
        if not isinstance(self.parts, tuple):
            raise TypeError(f"parts must be a tuple, got {type(self.parts).__name__}")
        if len(self.parts) != self.shape.m:
            raise ValueError(f"expected {self.shape.m} parts, got {len(self.parts)}")
        n = self.shape.n
        for p in self.parts:
            # a float passes the range test and fails later, in a chain walk
            if p.__class__ is not int or not 0 <= p <= n:
                # the first part that is p: an earlier one was refused already
                i = list(map(id, self.parts)).index(id(p)) + 1
                if p.__class__ is not int:
                    raise TypeError(f"part {i} ({p!r}) is not an int")
                shown = p if -(10**20) < p < 10**20 else f"a {len(str(abs(p)))}-digit number"
                raise ValueError(f"part {i} ({shown}) is outside [0, {n}]")

    @classmethod
    def _derived(cls, shape: GridShape, parts: tuple[int, ...]) -> "Composition":
        """A composition built without `__post_init__`, under the rule in the module docstring."""
        self = object.__new__(cls)
        _set(self, "shape", shape)
        _set(self, "parts", parts)
        return self

    @classmethod
    def of(cls, parts, n: int) -> "Composition":
        """Build a composition from any iterable of integer parts, inferring m.

        A part that is not an integer, such as a float or a string, raises
        TypeError rather than being truncated.
        """
        t = tuple(map(index, parts))
        return cls(GridShape(len(t), n), t)


# The most digits `int` converts from text by default (Python 3.11, and 3.10
# from 3.10.7); `parse_parts` refuses a longer part with its own message.
MAX_PART_DIGITS = 4300


def parse_parts(text: str) -> tuple[int, ...]:
    """Parse "2,0,5,0" into (2, 0, 5, 0). Raises ValueError on junk.

    Each part must be ASCII decimal digits only: no sign, underscore,
    whitespace or non-ASCII digit, all of which `int` would accept, and at
    most `MAX_PART_DIGITS` of them.
    """
    items = text.split(",")
    if items == [""]:
        raise ValueError("empty vector")
    for i, item in enumerate(items, 1):
        if not (item.isascii() and item.isdigit()):
            raise ValueError(f"part {item!r} is not a decimal number")
        if len(item) > MAX_PART_DIGITS:
            raise ValueError(f"part {i} has {len(item)} digits, more than the limit of {MAX_PART_DIGITS}")
    return tuple(int(item) for item in items)


def format_parts(parts) -> str:
    return ",".join(str(p) for p in parts)


def rank(c: Composition) -> int:
    """Sum of the parts; grades the poset from 0 to m*n."""
    return sum(c.parts)


def leq(b: Composition, a: Composition) -> bool:
    """Componentwise order: every part of `b` is at most the matching part of `a`."""
    if b.shape != a.shape:
        raise ShapeMismatchError(f"shape mismatch: {b.shape} vs {a.shape}")
    return all(x <= y for x, y in zip(b.parts, a.parts))


def covers(low: Composition, high: Composition) -> bool:
    """True iff `high` equals `low` plus a standard unit vector: `low <= high`
    one rank apart."""
    return leq(low, high) and rank(high) == rank(low) + 1


def star(c: Composition) -> Composition:
    """Order-reversing involution: reverse the vector and complement each part to n."""
    n = c.shape.n
    return Composition(c.shape, tuple(n - p for p in reversed(c.parts)))
