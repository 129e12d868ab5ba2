"""Start vectors: the index set of the symmetric chain decomposition.

A start vector on an m-by-n grid is a composition alpha with

  * last part 0,
  * rank at most floor(m*n/2),
  * for every t in 1..m-1:  sum(alpha[t..m-1]) <= sum(n - alpha[i] for i in t+1..m)
    (1-based indices).

Each start vector indexes exactly one chain of the decomposition.  This
module enumerates the whole set in lexicographic order without scanning the
full grid poset, computes the per-row forbidden-cell counts ("end vector")
in one O(m) forward scan over the blocks between splitting rows, and
implements the induced involution psi.  Membership is decided by
constructing a `StartVector`: the last part and the rank bound are compared
directly, and the suffix inequalities hold exactly when the end-vector scan
closes its last block, so certifying a start is that one scan.  A
`StartVector` is certified once and carries its end vector as `.end`,
computed on construction; everything that reads the end vector of a
certified start reads that field.
"""

from __future__ import annotations

from typing import Iterator

from .core import Composition, Frozen, GridShape, _set


class NotStartVectorError(ValueError):
    """Raised when a composition is used as a chain start but is not one."""


class StartVector(Frozen):
    """A composition certified to be a chain start, with its end vector.

    `end` holds the per-row forbidden-cell counts (`alpha_end_parts`); the
    chain of `alpha` ends at (n - end[0], ..., n - end[m-1]).  It is derived
    from `alpha`, so it takes no part in equality, hashing, repr or pickling.
    """

    __slots__ = ("alpha", "end")
    _fields = ("alpha",)

    def __init__(self, alpha: Composition) -> None:
        _set(self, "alpha", alpha)
        self.__post_init__()

    def __post_init__(self) -> None:
        parts, n = self.alpha.parts, self.alpha.shape.n
        # The rank bound is implied by the t=1 suffix inequality, which the
        # block scan decides; comparing it apart cross-checks the scan.
        if parts[-1] != 0 or 2 * sum(parts) > len(parts) * n:
            raise NotStartVectorError(f"{parts} is not a start vector for n={n}")
        _set(self, "end", alpha_end_parts(parts, n))

    @classmethod
    def of(cls, parts, n: int) -> "StartVector":
        return cls(Composition.of(parts, n))

    @property
    def shape(self) -> GridShape:
        return self.alpha.shape

    @property
    def parts(self) -> tuple[int, ...]:
        return self.alpha.parts


def alpha_end_parts(parts: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Per-row forbidden-cell counts of the chain tableau, by block formula.

    Row 1 splits.  From a splitting row p, the next splitting row is q+1 for
    the smallest q in p..m-1 with

        sum(parts[p..q]) <= sum(n - parts[i] for i in p+1..q+1)

    (1-based).  Between consecutive splitting rows q < q' the counts are
    n - parts[j] for the interior rows j, and the count at q' is whatever
    remains of the block total sum(parts[q..q'-1]).  Row 1 never holds
    forbidden cells.

    One forward scan keeps the running difference d = lhs - rhs of the two
    block sums, without building the rows: each step adds parts[i] - f to
    d, where f = n - parts[i+1].  While d > 0 the block stays open and row
    i+1 (0-based) is interior, so it gets f; otherwise the block closes
    there, row i+1 gets the remainder d + f, and d resets to 0, so the cost
    is O(m).

    The last block closes at row m exactly when every suffix inequality
    holds.  With D_i = sum(parts[k] - (n - parts[k+1]) for k <= i) (0-based,
    D_-1 = 0), the inequality at t reads D_{m-2} <= D_{t-2}.  After step i
    the scan's d is D_i minus D at the last close, and a close happens
    exactly when D falls to or below every earlier D and 0, so D at the
    last close is the running minimum min(0, D_0, ..., D_i).  The scan ends
    with d <= 0 iff D_{m-2} <= min(0, D_0, ..., D_{m-3}), which is every
    suffix inequality at once.  If it ends with d > 0, `parts` is no start
    vector and NotStartVectorError is raised.
    """
    end = [0]
    d = 0
    rows = iter(parts)
    a = next(rows, 0)
    for b in rows:
        f = n - b
        d += a - f
        a = b
        if d > 0:
            end.append(f)
        else:
            end.append(d + f)
            d = 0
    if d > 0:
        raise NotStartVectorError(f"{parts} is not a start vector for n={n}")
    return tuple(end)


def psi(alpha: StartVector) -> StartVector:
    """The induced involution: reverse the end vector of `alpha`.

    The result is again a start vector (validated on construction); applying
    psi twice returns the original vector.
    """
    return StartVector(Composition(alpha.shape, alpha.end[::-1]))


def iter_start_parts(shape: GridShape) -> Iterator[tuple[int, ...]]:
    """Yield the parts tuples of all start vectors in lexicographic order.

    An odometer over positions 1..m-1 choosing parts left to right, the last
    part fixed at 0.  A prefix extends to a full start vector iff it
    satisfies every suffix inequality with the remaining positions set to
    zero; that test reduces to 2*prefix_sum <= G where G is the running
    minimum of (m-t)*n + parts[t] + 2*prefix_sum_before_t over chosen
    positions t.  So position t ranges over 0..min(n, (G - 2*prefix)//2), the
    pruning is exact, and the cost is proportional to the output size.  The
    loop keeps one bound per position instead of one stack frame, so any m
    the grid allows is enumerated.
    """
    m, n = shape.m, shape.n
    buf = [0] * m
    last = m - 2  # 0-based index of the last chosen position
    if last < 0:
        yield tuple(buf)
        return
    # hi[i]: the largest part position i may take; g[i], pre[i]: G and the
    # prefix sum in force when it is chosen.
    hi = [n] * (m - 1)
    g = [4 * m * n + 4] * (m - 1)  # larger than any reachable minimum
    pre = [0] * (m - 1)
    i = 0  # positions after i start again at 0
    while True:
        for t in range(i, last):
            v, p = buf[t], pre[t]
            pre[t + 1] = p + v
            g[t + 1] = bound = min(g[t], (m - 1 - t) * n + v + 2 * p)
            hi[t + 1] = min(n, (bound - 2 * (p + v)) // 2)
            buf[t + 1] = 0
        for v in range(hi[last] + 1):
            buf[last] = v
            yield tuple(buf)
        i = last - 1
        while i >= 0 and buf[i] == hi[i]:
            i -= 1
        if i < 0:
            return
        buf[i] += 1
