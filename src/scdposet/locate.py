"""Finding the chain that holds an arbitrary composition.

Every composition lies on exactly one chain of the decomposition; `locate`
recovers that chain's start vector in O(m) by a single backward scan, and
`certificate` packages the evidence (the start vector, the fill vector, and
the rows where filling actually happened) with internal consistency checks.
"""

from __future__ import annotations

from .core import Composition, Frozen, _set
from .starts import StartVector, splitting_rows_parts


class CertificateError(RuntimeError):
    """A membership certificate failed its own consistency checks."""


def locate_parts(c: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Start vector of the chain containing `c`, as a raw parts tuple.

    Backward scan keeping the block sums lhs = sum(c[r..t-1]) and
    rhs = sum(n - c[i] for i in r+1..t) for the current block top t (1-based).
    While lhs <= rhs the scanned row keeps its value; the first row breaking
    the inequality gets the remainder rhs - sum(c[r+1..t-1]) and opens a new
    block.  Total work is O(m) regardless of block structure.
    """
    m = len(c)
    alpha = list(c)
    alpha[m - 1] = 0
    lhs = 0
    rhs = 0
    for r in range(m - 1, 0, -1):
        cr = c[r - 1]
        lhs += cr
        rhs += n - c[r]
        if lhs > rhs:
            alpha[r - 1] = rhs - lhs + cr
            lhs = 0
            rhs = 0
    return tuple(alpha)


def locate(c: Composition) -> StartVector:
    """The unique start vector whose chain contains `c`."""
    return StartVector(Composition(c.shape, locate_parts(c.parts, c.shape.n)))


class MembershipCertificate(Frozen):
    """Evidence that a composition lies on the chain of `alpha`.

    fill_vector is the composition minus alpha; positive_set holds the
    1-based rows with positive fill, plus row m.
    """

    __slots__ = ("alpha", "fill_vector", "positive_set")

    def __init__(self, alpha: StartVector, fill_vector: tuple[int, ...], positive_set: frozenset[int]) -> None:
        _set(self, "alpha", alpha)
        _set(self, "fill_vector", fill_vector)
        _set(self, "positive_set", positive_set)


def certificate(c: Composition) -> MembershipCertificate:
    """Locate `c` and return the checked membership evidence.

    Raises CertificateError if any of the structural identities relating the
    fill vector, the splitting rows, and the end vector fails; for valid
    inputs this never happens.
    """
    n = c.shape.n
    m = c.shape.m
    cparts = c.parts
    aparts = locate_parts(cparts, n)
    fill = tuple(x - y for x, y in zip(cparts, aparts))
    if any(v < 0 for v in fill):
        raise CertificateError(f"negative fill {fill} for c={cparts}")
    positive = frozenset(i + 1 for i, v in enumerate(fill) if v > 0) | {m}

    # Rows that received fill must be splitting rows of alpha, and every row
    # strictly below the topmost such row must be saturated: c plus the
    # forbidden count there reaches n exactly.
    split = set(splitting_rows_parts(aparts, n))
    if not positive <= split:
        raise CertificateError(f"fill rows {sorted(positive)} not all splitting for alpha={aparts}")
    sv = StartVector(Composition(c.shape, aparts))
    for t in range(min(positive) + 1, m + 1):
        if cparts[t - 1] + sv.end[t - 1] != n:
            raise CertificateError(f"row {t} of c={cparts} not saturated against alpha={aparts}")

    # Block sums: scanning up from each fill row j, partial sums of alpha stay
    # within the complement sums of c, with equality exactly at the next fill
    # row below the scan.
    for j in sorted(positive):
        lhs = 0
        rhs = 0
        for i in range(j - 1, 0, -1):
            lhs += aparts[i - 1]
            rhs += n - cparts[i]
            if fill[i - 1] > 0:
                if lhs != rhs:
                    raise CertificateError(f"block {i}..{j} of c={cparts} unbalanced: {lhs} != {rhs}")
                break
            if lhs > rhs:
                raise CertificateError(f"block {i}..{j} of c={cparts} overflows: {lhs} > {rhs}")

    return MembershipCertificate(sv, fill, positive)
