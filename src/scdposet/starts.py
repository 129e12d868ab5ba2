"""Start vectors: the index set of the symmetric chain decomposition.

A start vector on an m-by-n grid is a composition alpha with

  * last part 0,
  * rank at most floor(m*n/2),
  * for every t in 1..m-1:  sum(alpha[t..m-1]) <= sum(n - alpha[i] for i in t+1..m)
    (1-based indices).

Each start vector indexes exactly one chain of the decomposition.  This
module answers membership, enumerates the whole set in lexicographic order
without scanning the full grid poset, computes the splitting rows and the
per-row forbidden-cell counts ("end vector") in O(m), and implements the
induced involution psi.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .core import Composition, GridShape


class NotStartVectorError(ValueError):
    """Raised when a composition is used as a chain start but is not one."""


def is_start_parts(parts: tuple[int, ...], n: int) -> bool:
    """Membership test on a raw parts tuple. O(m)."""
    m = len(parts)
    if parts[m - 1] != 0:
        return False
    # The rank bound is implied by the t=1 suffix inequality, but checking it
    # separately guards the two code paths against each other.
    if 2 * sum(parts) > m * n:
        return False
    sa = 0  # sum(parts[t..m-1]), 1-based
    sb = 0  # sum(n - parts[i] for i in t+1..m), 1-based
    for t in range(m - 1, 0, -1):
        sa += parts[t - 1]
        sb += n - parts[t]
        if sa > sb:
            return False
    return True


def is_start(c: Composition) -> bool:
    """True iff `c` is the start of a chain in the decomposition."""
    return is_start_parts(c.parts, c.shape.n)


@dataclass(frozen=True, slots=True)
class StartVector:
    """A composition certified to be a chain start."""

    alpha: Composition

    def __post_init__(self) -> None:
        if not is_start(self.alpha):
            raise NotStartVectorError(f"{self.alpha.parts} is not a start vector for n={self.alpha.shape.n}")

    @classmethod
    def of(cls, parts, n: int) -> "StartVector":
        return cls(Composition.of(parts, n))

    @property
    def shape(self) -> GridShape:
        return self.alpha.shape

    @property
    def parts(self) -> tuple[int, ...]:
        return self.alpha.parts


def splitting_rows_parts(parts: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Splitting row indices (1-based) of a start vector, ending at row m.

    Row 1 splits.  From a splitting row p, the next splitting row is q+1 for
    the smallest q in p..m-1 with

        sum(parts[p..q]) <= sum(n - parts[i] for i in p+1..q+1).

    The membership inequalities guarantee q = m-1 always qualifies, so the
    recursion terminates at row m.  Running block sums keep this O(m) overall;
    each row is visited once because blocks never overlap.
    """
    m = len(parts)
    rows = [1]
    p = 1
    while p < m:
        lhs = 0  # sum(parts[p..q])
        rhs = 0  # sum(n - parts[i] for i in p+1..q+1)
        q = p
        while True:
            lhs += parts[q - 1]
            rhs += n - parts[q]
            if lhs <= rhs:
                break
            q += 1
            if q > m - 1:
                raise NotStartVectorError(f"splitting recursion ran off the grid for {parts}")
        rows.append(q + 1)
        p = q + 1
    return tuple(rows)


def splitting_rows(alpha: StartVector) -> tuple[int, ...]:
    """Splitting rows of `alpha`, a strictly increasing tuple from 1 to m."""
    return splitting_rows_parts(alpha.parts, alpha.shape.n)


def alpha_end_parts(parts: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Per-row forbidden-cell counts of the chain tableau, by block formula.

    Between consecutive splitting rows q < q' the counts are n - parts[j] for
    the interior rows j, and the count at q' is whatever remains of the block
    total sum(parts[q..q'-1]).  Row 1 never holds forbidden cells.
    """
    rows = splitting_rows_parts(parts, n)
    end = [0] * len(parts)
    for k in range(len(rows) - 1):
        qk, qk1 = rows[k], rows[k + 1]
        interior = 0
        for j in range(qk + 1, qk1):
            end[j - 1] = n - parts[j - 1]
            interior += end[j - 1]
        end[qk1 - 1] = sum(parts[qk - 1 : qk1 - 1]) - interior
    return tuple(end)


def alpha_end(alpha: StartVector) -> tuple[int, ...]:
    """End vector of `alpha`: row counts of forbidden cells; the chain of
    `alpha` ends at (n - e[1], ..., n - e[m]) for e = alpha_end(alpha)."""
    return alpha_end_parts(alpha.parts, alpha.shape.n)


def psi(alpha: StartVector) -> StartVector:
    """The induced involution: reverse the end vector of `alpha`.

    The result is again a start vector (validated on construction); applying
    psi twice returns the original vector.
    """
    rev = tuple(reversed(alpha_end(alpha)))
    return StartVector(Composition(alpha.shape, rev))


def iter_start_parts(shape: GridShape) -> Iterator[tuple[int, ...]]:
    """Yield the parts tuples of all start vectors in lexicographic order.

    Depth-first over positions 1..m-1 choosing parts left to right.  A prefix
    extends to a full start vector iff it satisfies every suffix inequality
    with the remaining positions set to zero; that test reduces to
    2*prefix_sum <= G where G is the running minimum of
    (m-t)*n + parts[t] + 2*prefix_sum_before_t over chosen positions t.  The
    pruning is exact, so the cost is proportional to the output size.
    """
    m, n = shape.m, shape.n
    if m == 1:
        yield (0,)
        return
    buf = [0] * m
    no_bound = 4 * m * n + 4  # larger than any reachable minimum

    def descend(t: int, prefix: int, g: int) -> Iterator[tuple[int, ...]]:
        # t is the 1-based position being chosen; prefix = sum(buf[:t-1]).
        hi = min(n, (g - 2 * prefix) // 2)
        last = t == m - 1
        for v in range(hi + 1):
            buf[t - 1] = v
            if last:
                yield tuple(buf)
            else:
                yield from descend(t + 1, prefix + v, min(g, (m - t) * n + v + 2 * prefix))

    yield from descend(1, 0, no_bound)
