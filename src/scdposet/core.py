"""Base types and order primitives for the grid poset of bounded compositions.

The poset under study is the set of integer vectors ("compositions") with m
parts, each part between 0 and n, ordered componentwise and graded by part
sum.  Everything here is an immutable value type or a pure function, so
objects can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

# Shapes with more cells than this are refused at construction, so an absurd
# -m/-n fails at once instead of starting work no run could finish.  Python
# ints need no such bound; this is a sanity limit, not an overflow guard.
MAX_CELLS = 2**31


class ShapeMismatchError(ValueError):
    """Raised when two compositions from different grids are combined."""


@dataclass(frozen=True, slots=True)
class GridShape:
    """An m-by-n grid: vectors with m parts, each part in [0, n]."""

    m: int
    n: int

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


@dataclass(frozen=True, slots=True)
class Composition:
    """An element of the grid poset: m parts, each in [0, n]."""

    shape: GridShape
    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.parts) != self.shape.m:
            raise ValueError(f"expected {self.shape.m} parts, got {len(self.parts)}")
        n = self.shape.n
        for p in self.parts:
            if not 0 <= p <= n:
                raise ValueError(f"part {p} outside [0, {n}] in {self.parts}")

    @classmethod
    def of(cls, parts, n: int) -> "Composition":
        """Build a composition from any iterable of parts, inferring m."""
        t = tuple(int(p) for p in parts)
        return cls(GridShape(len(t), n), t)


def parse_parts(text: str) -> tuple[int, ...]:
    """Parse "2,0,5,0" into (2, 0, 5, 0). Raises ValueError on junk.

    Each part must be ASCII decimal digits only: no sign, underscore,
    whitespace or non-ASCII digit, all of which `int` would accept.
    """
    items = text.split(",")
    if items == [""]:
        raise ValueError("empty vector")
    for item in items:
        if not (item.isascii() and item.isdigit()):
            raise ValueError(f"part {item!r} is not a decimal number")
    return tuple(int(item) for item in items)


def format_parts(parts) -> str:
    return ",".join(str(p) for p in parts)


def rank(c: Composition) -> int:
    """Sum of the parts; grades the poset from 0 to m*n."""
    return sum(c.parts)


def _require_same_shape(b: Composition, a: Composition) -> None:
    if b.shape != a.shape:
        raise ShapeMismatchError(f"shape mismatch: {b.shape} vs {a.shape}")


def leq(b: Composition, a: Composition) -> bool:
    """Componentwise order: every part of `b` is at most the matching part of `a`."""
    _require_same_shape(b, a)
    return all(x <= y for x, y in zip(b.parts, a.parts))


def covers(low: Composition, high: Composition) -> bool:
    """True iff `high` equals `low` plus a standard unit vector."""
    _require_same_shape(low, high)
    bumped = 0
    for x, y in zip(low.parts, high.parts):
        if y == x:
            continue
        if y != x + 1:
            return False
        bumped += 1
    return bumped == 1


def star(c: Composition) -> Composition:
    """Order-reversing involution: reverse the vector and complement each part to n."""
    n = c.shape.n
    return Composition(c.shape, tuple(n - p for p in reversed(c.parts)))
