"""Finding the chain that holds an arbitrary composition.

Every composition lies on exactly one chain of the decomposition; `locate`
recovers that chain's start vector in O(m) by a single backward scan, and
`certificate` packages the evidence (the start vector, the fill vector, and
the rows where filling actually happened), checked in one more backward scan
against the located start's end vector.
"""

from __future__ import annotations

from .core import Composition, Frozen, _set
from .starts import StartVector


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
    # each part of locate_parts(c) lies in [0, c_i], so it needs no range check
    return StartVector(Composition._derived(c.shape, locate_parts(c.parts, c.shape.n)))


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

    One backward scan over the rows reads the end vector e of the located
    start alpha.  It checks that `c` lies on the chain `element_at` walks:
    the fill c - alpha is non-negative, the topmost row with positive fill
    stays within its capacity n - alpha - e, and every row below it is full
    (c + e = n).  It also checks the block sums `locate_parts` splits on:
    between consecutive fill rows the partial sums of alpha stay within the
    complement sums of c, with equality at the upper fill row.  Raises
    CertificateError if a check fails; for valid inputs this never happens.
    """
    sv = locate(c)
    m, n = c.shape.m, c.shape.n
    cparts = c.parts
    aparts = sv.parts
    end = sv.end
    fill = tuple(x - y for x, y in zip(cparts, aparts))
    unfull = 0  # the highest row scanned so far that is not full, 0 if none
    top = m  # the fill row the current block started from
    lhs = rhs = 0
    for i in range(m, 0, -1):
        ci = cparts[i - 1]
        lhs += aparts[i - 1]
        slack = n - ci - end[i - 1]  # the row's capacity left unfilled
        f = fill[i - 1]
        if f > 0:
            if unfull:
                raise CertificateError(f"row {unfull} of c={cparts} not saturated against alpha={aparts}")
            if slack < 0:
                raise CertificateError(f"fill row {i} of c={cparts} exceeds its capacity against alpha={aparts}")
            if lhs != rhs:
                raise CertificateError(f"block {i}..{top} of c={cparts} unbalanced: {lhs} != {rhs}")
            lhs = rhs = 0
            top = i
        elif f < 0:
            raise CertificateError(f"negative fill {fill} for c={cparts}")
        elif lhs > rhs:
            raise CertificateError(f"block {i}..{top} of c={cparts} overflows: {lhs} > {rhs}")
        if slack:
            unfull = i
        rhs += n - ci  # the block sums of the rows above count this row's complement
    positive = frozenset(i + 1 for i, v in enumerate(fill) if v > 0) | {m}
    return MembershipCertificate(sv, fill, positive)
