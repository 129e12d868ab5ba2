"""Whole-poset assembly: streaming decomposition, statistics, verification.

`decompose` streams every chain of the grid without ever materializing the
poset.  `verify` checks the decomposition's defining properties end to end,
exhaustively with a partition oracle when the poset fits its cap, and on
deterministic samples otherwise.  Every check runs in one
streaming pass, in one process: within the cap over the chains `decompose`
emits, past it over the first starts of one enumeration, which then goes
on to count the middle rank.  Each chain and its start's greedy row counts
are built once and read by every check, as plain parts tuples, and the
chains are counted, never listed.  No check colours a cell grid, so the
pass is the same at every grid size.
"""

from __future__ import annotations

import random
import time
from itertools import accumulate, islice
from math import comb
from operator import le
from typing import Callable, Iterable, Iterator, Sequence

from .core import Composition, Frozen, GridShape, Record, _set
from .locate import locate, locate_parts
from .starts import NotStartVectorError, StartVector, iter_start_parts, psi
from .tableau import Chain, chain_contains, chain_elements, elements_at, greedy_counts

# The largest poset, (n+1)**m compositions, that `verify` checks exhaustively.
# The partition oracle's claim table costs 4 bytes per composition, 4 MB at
# this cap; past it the oracle is refused and the other checks are sampled.
DEFAULT_CAP = 1_000_000

# The most rows at which the middle rank can fit `DEFAULT_CAP`.  Past it
# `verify` skips `middle-rank-count` without computing the middle rank's
# size: for n >= 1 the rank holds at least C(m, m // 2) compositions (a fixed
# base of parts below n, plus each 0/1 vector with m // 2 ones), and
# C(23, 11) = 1,352,078.  Within it `MAX_CELLS` bounds n, so the size has
# at most 168 digits and prints in decimal.
MIDDLE_COUNT_MAX_M = 22

# Sampled-mode budgets: how many starts to sample, and how many chain
# positions to probe per sampled chain.
SAMPLE_STARTS = 512
POSITIONS_PER_CHAIN = 64

# The CLI refuses `stats` when m*m*n exceeds this, before `level_sizes` runs:
# the profile costs O(m*m*n) big-int additions and its output O(m*n) numbers.
# At the limit the slowest measured shape, m = 2 and n = 250,000, took 1.0 s
# end to end on a 2-vCPU VM (Python 3.11.7); N(40, 2000), at 3.2 times the
# limit, took 1.1 s to 1.5 s and N(200, 2000) did not finish in 20 s.
MAX_STATS_WORK = 1_000_000

# Past the cap `verify` samples min(SAMPLE_STARTS, max(1, SAMPLE_WORK // m))
# chains, all 512 up to m = 128, each read at up to 64 elements of m parts
# in one pass over its row runs, and its mirror at the same positions.  Cut
# runs took 13 to 15 us per chain per row: 0.8 s to 1.0 s end to end at
# N(2000, 1), N(4400, 9), N(1000, 30000), N(200, 40) (2 vCPUs, Python 3.11.7).
SAMPLE_WORK = 65_536


class LevelProfile(Frozen):
    """Number of compositions at each rank, 0..m*n."""

    __slots__ = ("shape", "sizes")

    def __init__(self, shape: GridShape, sizes: tuple[int, ...]) -> None:
        _set(self, "shape", shape)
        _set(self, "sizes", sizes)

    @property
    def middle(self) -> int:
        """Size of the middle rank, floor(m*n/2); equals the chain count."""
        return self.sizes[self.shape.top_rank // 2]

    def length_counts(self) -> dict[int, int]:
        """Chain-length histogram implied by consecutive rank-size differences."""
        top = self.shape.top_rank
        out = {top + 1: self.sizes[0]}
        for k in range(1, top // 2 + 1):
            diff = self.sizes[k] - self.sizes[k - 1]
            if diff:
                out[top - 2 * k + 1] = diff
        return out


def level_sizes(shape: GridShape) -> LevelProfile:
    """Rank sizes by repeated convolution with the all-ones kernel of width n+1.

    Each convolution is a sliding window sum over prefix sums, so the cost is
    O(m**2 * n) additions rather than O(m**2 * n**2).
    """
    n = shape.n
    sizes = [1]
    for _ in range(shape.m):
        prefix = [0, *accumulate(sizes)]
        last = len(sizes)
        sizes = [prefix[min(k + 1, last)] - prefix[max(k - n, 0)] for k in range(last + n)]
    return LevelProfile(shape, tuple(sizes))


def middle_level_size(shape: GridShape) -> int:
    """Size of the middle rank floor(m*n/2), by inclusion-exclusion.

    Counts compositions of the middle rank into m parts of at most n,
    subtracting those with k parts forced above n: O(m) big-int terms and
    no rank profile, and no code shared with `level_sizes`.
    """
    m, n = shape.m, shape.n
    mid = shape.top_rank // 2
    return sum(
        (-1) ** k * comb(m, k) * comb(mid - k * (n + 1) + m - 1, m - 1)
        for k in range(min(m, mid // (n + 1)) + 1)
    )


def decompose(shape: GridShape) -> Iterator[Chain]:
    """Stream every chain of the decomposition in lexicographic start order."""
    for parts in iter_start_parts(shape):
        yield chain_elements(StartVector(Composition._derived(shape, parts)))


def chain_length_histogram(shape: GridShape) -> dict[int, int]:
    """Histogram of chain lengths over the whole decomposition.

    Uses the length formula m*n - 2*rank(alpha) + 1 per start vector, so the
    cost is the size of the starting set, not of the poset.
    """
    top = shape.top_rank
    out: dict[int, int] = {}
    for parts in iter_start_parts(shape):
        length = top - 2 * sum(parts) + 1
        out[length] = out.get(length, 0) + 1
    return out


class CheckResult(Record):
    """The outcome of one verify check, created before `verify`'s pass and filled in by it."""

    __slots__ = ("name", "passed", "seconds", "counterexample", "skipped", "message")

    def __init__(
        self,
        name: str,
        passed: bool,
        seconds: float = 0.0,
        counterexample: dict | None = None,
        skipped: bool = False,
        message: str = "",
    ) -> None:
        self.name = name
        self.passed = passed
        self.seconds = seconds
        self.counterexample = counterexample
        self.skipped = skipped
        self.message = message

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "skipped": self.skipped,
            "seconds": round(self.seconds, 6),
            "message": self.message,
            "counterexample": self.counterexample,
        }


class VerificationReport(Record):
    """Every check `verify` ran on one grid, in report order."""

    __slots__ = ("shape", "checks", "chain_count", "element_count")

    def __init__(
        self,
        shape: GridShape,
        checks: list[CheckResult] | None = None,
        chain_count: int | None = None,  # counted only when the starting set was fully enumerated
        element_count: int | None = None,
    ) -> None:
        self.shape = shape
        self.checks = [] if checks is None else checks
        self.chain_count = chain_count
        self.element_count = element_count

    @property
    def passed(self) -> bool:
        return all(c.passed or c.skipped for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "m": self.shape.m,
            "n": self.shape.n,
            "passed": self.passed,
            "chain_count": self.chain_count,
            "element_count": self.element_count,
            "checks": [c.to_dict() for c in self.checks],
        }


class _ClaimTable:
    """The partition oracle's table: one unsigned 4-byte slot per composition.

    A composition's slot is its mixed-radix index: parts read as the digits
    of a base-(n+1) number, first part most significant.  Each chain element
    claims its slot with 1 + the index of its chain's start, so an owner
    decodes back to that start and the table needs nothing per chain.  The
    first slot left unclaimed, decoded to parts, is the first missing
    composition in lexicographic order.  Cost is 4 bytes per composition,
    so the caller bounds `shape.size` first (as `verify` does with its cap).
    """

    __slots__ = ("m", "n", "owner")

    def __init__(self, shape: GridShape) -> None:
        # imported here: loading the extension module costs every other
        # command about 0.15 MB of RSS and 0.3 ms of start-up
        from array import array

        self.m, self.n = shape.m, shape.n
        self.owner = array("I", bytes(4 * shape.size))

    def claim(self, alpha: tuple[int, ...], elements: Iterable[tuple[int, ...]]) -> dict | None:
        """Claim `elements` for the chain of `alpha`.

        Returns the counterexample at the first element (or start) outside
        the grid, or at the first element already claimed; None if every
        element was claimed.
        """
        m, n, owner = self.m, self.n, self.owner
        start = _slot(alpha, m, n)
        if start is None:
            return _partition_counterexample(alpha, alpha)
        for el in elements:
            i = _slot(el, m, n)
            if i is None:
                return _partition_counterexample(el, alpha)
            prev = owner[i]
            if prev:
                return _partition_counterexample(el, self._parts(prev - 1), alpha)
            owner[i] = start + 1
        return None

    def missing(self) -> dict | None:
        """The counterexample at the first composition no chain claimed, or None."""
        try:
            i = self.owner.index(0)
        except ValueError:
            return None
        return _partition_counterexample(self._parts(i))

    def _parts(self, i: int) -> list[int]:
        base = self.n + 1
        parts = [0] * self.m
        for j in range(self.m - 1, -1, -1):
            i, parts[j] = divmod(i, base)
        return parts


def _slot(parts: tuple[int, ...], m: int, n: int) -> int | None:
    """Mixed-radix index of `parts` in N(m, n); None if it has the wrong
    length or a part outside [0, n], which must not be indexed."""
    if len(parts) != m:
        return None
    base = n + 1
    i = 0
    for p in parts:
        if p < 0 or p > n:
            return None
        i = i * base + p
    return i


def _partition_counterexample(element: Iterable[int], *alphas: Iterable[int]) -> dict:
    return {"element": list(element), "chains": [list(a) for a in alphas]}


def check_partition(shape: GridShape, chains: Iterable[Chain]) -> CheckResult:
    """Exhaustive partition oracle: every composition on exactly one chain.

    Claims each chain's elements in a `_ClaimTable`, as `verify`'s pass
    does: the first element outside the grid or already claimed fails, and
    otherwise the first composition left unclaimed.  Cost is linear in the
    poset size and 4 bytes per composition, so the caller bounds
    `shape.size` first.
    """
    t0 = time.perf_counter()
    claims = _ClaimTable(shape)
    for ch in chains:
        bad = claims.claim(ch.alpha.parts, ch.elements)
        if bad is not None:
            break
    else:
        bad = claims.missing()
    return CheckResult("partition", bad is None, time.perf_counter() - t0, bad)


def _positions(k: int) -> list[int]:
    """Up to `POSITIONS_PER_CHAIN` deterministic probe positions in 0..k,
    always with the ends, and closed under j -> k - j, so that a chain's
    mirror is read at the same positions."""
    if k < POSITIONS_PER_CHAIN:
        return list(range(k + 1))
    low = [i * k // (POSITIONS_PER_CHAIN - 1) for i in range(POSITIONS_PER_CHAIN // 2)]
    return low + [k - j for j in reversed(low)]


class _StartValue:
    """One start's chain and greedy row counts, built once and read by every check.

    The chain is read once, into `elements`, the elements at the sorted
    `positions`, and every check reads that list.  Full mode passes the
    whole chain `decompose` streamed, at every position, for the partition
    claims too; sampled mode reads a bounded set of positions with one
    `elements_at` pass over the row runs, which is every position of a chain
    of up to `POSITIONS_PER_CHAIN` elements.

    `partner` marks the larger start of a psi pair, whose settled checks
    the pass skips (see `verify`); a partner's greedy counts are not built.
    """

    __slots__ = ("sv", "elements", "positions", "partner", "greedy")

    def __init__(
        self, sv: StartVector, elements: Sequence[tuple[int, ...]] | None = None, partner: bool = False
    ) -> None:
        self.sv = sv
        if elements is None:
            self.positions: Sequence[int] = _positions(sv.shape.top_rank - 2 * sum(sv.parts))
            elements = elements_at(sv.parts, sv.end, sv.shape.n, self.positions)
        else:
            self.positions = range(len(elements))
        self.elements = elements
        self.partner = partner
        self.greedy = None if partner else greedy_counts(sv.parts, sv.shape.n)


def _check_symmetric(v: _StartValue) -> dict | None:
    """The chain ends at the complementary rank, on an element that locates
    back to the chain's start.  Membership is decided by `locate_parts`,
    which does not use the end-vector formula the chain is built from.  No
    other check locates the end, and none its upper covers: `verify` says
    why the end locates of earlier chains settle them."""
    parts, n = v.sv.parts, v.sv.shape.n
    end = v.elements[-1]
    located = locate_parts(end, n)
    if located != parts:
        return {"alpha": list(parts), "end": list(end), "located": list(located)}
    lo, hi = sum(parts), sum(end)
    if lo + hi != v.sv.shape.top_rank:
        return {"alpha": list(parts), "rank_start": lo, "rank_end": hi}
    return None


def _check_saturated(v: _StartValue) -> dict | None:
    """Consecutive read elements lie as many ranks apart as their positions,
    the lower below the higher: at adjacent positions, one unit vector."""
    pos, els = v.positions, v.elements
    for i, j, a, b in zip(pos, pos[1:], els, els[1:]):
        if sum(b) - sum(a) != j - i or not all(map(le, a, b)):
            return {"alpha": list(v.sv.parts), "low": list(a), "high": list(b)}
    return None


def _check_disjoint(v: _StartValue) -> dict | None:
    """Every read element but the end, `symmetric`'s, locates to the start."""
    parts, n = v.sv.parts, v.sv.shape.n
    for el in v.elements[:-1]:
        back = locate_parts(el, n)
        if back != parts:
            return {"alpha": list(parts), "element": list(el), "located": list(back)}
    return None


def _check_involution(v: _StartValue) -> dict | None:
    """psi is an involution, turns the greedy tableau half round, and maps the
    chain onto its reversed star.  On row counts the half-turn swaps fixed
    prefixes with mirrored forbidden suffixes, and fill numbers follow from
    the counts, so it holds iff psi(alpha) and alpha, each reversed, are the
    greedy end vectors of alpha and psi(alpha); the first is compared by
    `corollary-vs-simulation`, and a fixed point is its own mirror.  An
    image outside the starting set is a counterexample, not an error.  Each
    identity is symmetric in alpha and psi(alpha), so alpha settles the
    pair (see `verify`).  A value holding its whole chain gets its mirror
    whole from `chain_elements`, and a probed one its mirror probed at the
    same positions, so the i-th read of the mirror is the star of the i-th
    read from the end."""
    parts, n = v.sv.parts, v.sv.shape.n
    try:
        image = psi(v.sv)
    except NotStartVectorError:
        return {"alpha": list(parts), "reason": "psi(alpha) is not a start vector"}
    iparts = image.parts
    # at a fixed point psi(image) is psi(alpha) again, which is image
    if iparts != parts:
        try:
            again = psi(image)
        except NotStartVectorError:
            return {"alpha": list(parts), "psi": list(iparts), "reason": "psi(psi(alpha)) is not a start vector"}
        if again.parts != parts:
            return {"alpha": list(parts), "psi": list(iparts), "psi_psi": list(again.parts)}
    whole = len(v.elements) == v.positions[-1] + 1
    mirror = v if iparts == parts else _StartValue(image, chain_elements(image).elements if whole else None)
    if mirror.greedy[::-1] != parts:
        return {"alpha": list(parts), "psi": list(iparts), "reason": "rotated tableau differs"}
    if mirror.positions[-1] != v.positions[-1]:
        return {"alpha": list(parts), "psi": list(iparts), "reason": "chain is not the reversed star"}
    for i, (j, el) in enumerate(zip(mirror.positions, mirror.elements)):
        if el != tuple(map(n.__sub__, reversed(v.elements[-1 - i]))):
            return {"alpha": list(parts), "psi": list(iparts), "reason": f"chain mismatch at position {j}"}
    return None


def _check_corollary(v: _StartValue) -> dict | None:
    """The end-vector formula equals the greedy simulation."""
    if v.sv.end != v.greedy:
        return {"alpha": list(v.sv.parts), "formula": list(v.sv.end), "simulation": list(v.greedy)}
    return None


# Per-chain checks in report order.  Each returns the first violation for one
# start's value, or None.
_CHAIN_CHECKS: dict[str, Callable[[_StartValue], dict | None]] = {
    "symmetric": _check_symmetric,
    "saturated": _check_saturated,
    "disjoint": _check_disjoint,
    "involution": _check_involution,
    "corollary-vs-simulation": _check_corollary,
}

# The checks the pass skips at a partner: `involution` at its pair's smaller
# start has settled them (see `verify`).
_SETTLED_BY_PAIR = frozenset({"saturated", "involution", "corollary-vs-simulation"})


def _random_roundtrip(shape: GridShape, count: int) -> dict | None:
    """Locate `count` seeded random compositions and probe membership via
    random access."""
    rng = random.Random(0)
    n = shape.n
    for _ in range(count):
        c = Composition(shape, tuple(rng.randint(0, n) for _ in range(shape.m)))
        sv = locate(c)
        if not chain_contains(sv, c):
            return {"element": list(c.parts), "located": list(sv.parts)}
    return None


def verify(shape: GridShape) -> VerificationReport:
    """Run the full verification battery and collect a report.

    `verify` runs in one of two modes, chosen by the poset size (n+1)**m,
    which it names in that closed form and never computes past the cap.
    Within `DEFAULT_CAP` it runs in full mode: every chain is checked whole,
    and the partition oracle claims each element in a table of 4 bytes per
    composition.  Past the cap it runs in sampled mode: the oracle is
    refused with a message, and the other checks run on the chains of the
    first `sample` starts in lexicographic order: `SAMPLE_STARTS`, cut to
    `SAMPLE_WORK // m` (at least 1) so that the work is bounded at every m,
    and each chain check's message says when it is cut.  The constants are
    read at each call.

    Every check runs in one streaming pass over the starts.  In full mode
    the pass reads the chains of `decompose`, each built once, claims each
    in the partition table, and counts every start.  In sampled mode it
    reads the first `sample` starts, and when the middle rank fits the cap
    the same enumeration goes on counting, up to the middle rank size + 1.
    Each checked chain is read once, into one list that every check reads:
    whole in full mode, and at up to `POSITIONS_PER_CHAIN` positions by one
    `elements_at` pass in sampled mode, its psi mirror at the same positions.
    Past `MIDDLE_COUNT_MAX_M` rows the middle rank exceeds the cap, so its
    size is not computed and its count is skipped.
    A check stops at its first counterexample in start order, but the pass
    reads the whole stream.  A finish step runs after the stream for a
    check still passing: the partition's sweep for a slot left unclaimed,
    and `disjoint`'s `sample` (in full mode `SAMPLE_STARTS`) seeded random
    round trips through `locate` and `chain_contains`.  Every step is
    charged to its own check, the middle rank's size too when its count is
    skipped, and each start's value to the first check still running, so
    no interval is charged twice.
    Reports from repeated runs are identical apart from timings.

    A vector the start enumeration yields that `StartVector` refuses is a
    fault of the enumeration, not bad input: it fails the first chain
    check still running, with the counterexample `{"alpha": ..., "reason":
    "not a start vector"}` (with none running, the report has already
    failed), and the pass reads no start past it.  In full mode
    `decompose` raises there and so ends, and sampled mode stops there
    too; the finish steps and the middle-rank count still run.

    Full mode skips only work whose verdict another check of the same pass
    has already decided, and every check stays in the report.  Sampled mode
    skips nothing: it runs every check at every sampled start.  Full mode
    checks each psi pair once, at its lexicographically smaller start
    alpha, which the pass reaches first.  Every identity of `involution` is
    symmetric in alpha and beta = psi(alpha) once psi(beta) = alpha, so at
    alpha it applies psi to beta too, and compares greedy(beta) with alpha
    reversed and both chains (`corollary-vs-simulation` compares greedy(alpha)
    with beta reversed).  The pass marks a start beta a partner while
    `involution` has found nothing and psi(beta), beta's certified end
    vector reversed, is smaller than beta.  It builds no greedy counts for
    a partner and skips the checks of `_SETTLED_BY_PAIR` there: beta's
    chain, built by the same `chain_elements`, is the reversed star of
    alpha's saturated chain, and greedy(beta) = alpha reversed = beta's end
    vector.  `symmetric`, the one locate of each end, runs at every start.
    If alpha = psi(beta), reached first, is no partner, `involution` ran
    there, and if its image is not beta, psi(alpha) and beta are two starts
    with one end vector, alpha reversed; if alpha is a partner too,
    following psi down from beta reaches two such starts.  Their chains
    share a top, which the partition, always run in full mode, reports as
    claimed twice.  Every other start runs every check; with a true
    involution that is each smaller or self-paired start.
    """
    clock = time.perf_counter
    cap = DEFAULT_CAP
    # (n+1)**m >= 2**m exceeds the cap past its bit length
    full = shape.m <= cap.bit_length() and shape.size <= cap
    sample = SAMPLE_STARTS if full else min(SAMPLE_STARTS, max(1, SAMPLE_WORK // shape.m))
    names = ("partition", *_CHAIN_CHECKS, "middle-rank-count")
    report = VerificationReport(shape, [CheckResult(name, True) for name in names], None, shape.size if full else None)
    partition, *chain_checks, middle = report.checks
    involution, disjoint = report.check("involution"), report.check("disjoint")
    running = list(zip(chain_checks, _CHAIN_CHECKS.values()))
    if full:
        t0 = clock()
        claims = _ClaimTable(shape)
        running.insert(0, (partition, lambda v: claims.claim(v.sv.parts, v.elements)))
        partition.seconds = clock() - t0
        starts: Iterable = ()  # the pass counts every start of `decompose`
        # built lazily, so each start reads `involution` as the pass leaves it
        values = (
            _StartValue(ch.alpha, ch.elements, involution.passed and ch.alpha.end[::-1] < ch.alpha.parts)
            for ch in decompose(shape)
        )
    else:
        partition.skipped = True
        partition.message = f"poset size {shape.n + 1}**{shape.m} exceeds cap {cap}; oracle mode refused"
        # The sample is a lexicographic prefix of the starts, as full mode's
        # stream is, and that is why no check locates an upper cover of a
        # chain's end.  Each upper cover of a chain's top is the top of a
        # chain with a lexicographically smaller start (Greene and
        # Kleitman's bracket rule, 1976; checked by the tests on small
        # grids, not proven), so that chain is read first, and its end
        # locate, `symmetric`'s, meets a locate fault at the cover first.
        # Uniform draws would have to restate this.
        starts = iter_start_parts(shape)
        values = (_StartValue(StartVector(Composition._derived(shape, parts))) for parts in islice(starts, sample))

    count = 0
    t0 = clock()
    try:
        for value in values:
            count += 1
            for record, check in running:
                if not record.passed or value.partner and record.name in _SETTLED_BY_PAIR:
                    continue
                bad = check(value)
                t1 = clock()
                record.seconds += t1 - t0
                t0 = t1
                record.passed, record.counterexample = bad is None, bad
    except NotStartVectorError as exc:
        # the enumeration, not the input, yielded a vector that is no start
        for record in chain_checks:
            if record.passed:
                record.seconds += clock() - t0
                record.passed, record.counterexample = False, {"alpha": list(exc.parts), "reason": "not a start vector"}
                break

    sampled = "" if full else f"sampled {count} chains"
    if sample < SAMPLE_STARTS:
        sampled += f", cut from {SAMPLE_STARTS} by the work bound {SAMPLE_WORK} // m"
    for record in chain_checks:
        record.message = sampled
    if full and partition.passed:
        t0 = clock()
        bad = claims.missing()
        partition.seconds += clock() - t0
        partition.passed, partition.counterexample = bad is None, bad
    if disjoint.passed:
        disjoint.message += "" if full else f"; {sample} random round trips"
        t0 = clock()
        bad = _random_roundtrip(shape, sample)
        disjoint.seconds += clock() - t0
        disjoint.passed, disjoint.counterexample = bad is None, bad

    t0 = clock()
    if shape.m > MIDDLE_COUNT_MAX_M:
        size = f"at least C({shape.m}, {shape.m // 2})"
        middle.skipped, middle.message = True, f"middle rank size {size} exceeds cap {cap}"
    elif (expected := middle_level_size(shape)) > cap:
        middle.skipped, middle.message = True, f"middle rank size {expected} exceeds cap {cap}"
    else:
        # full mode counted every start in the pass, and sampled mode counts
        # on along its enumeration; either count stops at expected + 1
        got = min(count + sum(1 for _ in islice(starts, max(0, expected + 1 - count))), expected + 1)
        if got != expected:
            middle.passed, middle.counterexample = False, {"chain_count": got, "middle_level_size": expected}
    middle.seconds = clock() - t0
    report.chain_count = count if full else None
    return report
