"""Whole-poset assembly: streaming decomposition, statistics, verification.

`decompose` streams every chain of the grid without ever materializing the
poset.  `verify` checks the decomposition's defining properties end to end,
against an exhaustive membership oracle when the poset is small enough, and
against deterministic samples otherwise.  Every check runs in one
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
from itertools import accumulate, islice, repeat
from math import comb
from operator import le, ne
from typing import Callable, Iterable, Iterator, Sequence

from .core import Composition, Frozen, GridShape, Record, _set
from .locate import locate, locate_parts
from .starts import NotStartVectorError, StartVector, iter_start_parts, psi
from .tableau import Chain, chain_contains, chain_elements, element_at, greedy_counts

# The largest poset, (n+1)**m compositions, that `verify` checks exhaustively.
# The partition oracle's claim table costs 4 bytes per composition, 4 MB at
# this cap; past it the oracle is refused and the other checks are sampled.
DEFAULT_CAP = 1_000_000

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
    """The outcome of one verify check; `verify` creates each once its pass is done."""

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


def _positions(k: int, limit: int) -> list[int]:
    """Up to `limit` deterministic probe positions in 0..k, always with the ends."""
    if k + 1 <= limit:
        return list(range(k + 1))
    step = k / (limit - 1)
    return sorted({round(i * step) for i in range(limit)})


class _StartValue:
    """One start's chain and greedy row counts, built once and read by every check.

    Checks probe the chain through `at` at `positions`.  Full mode passes
    the whole chain as `elements`, for the partition claims and the
    involution, and every position is probed; sampled mode leaves `elements`
    None and probes a bounded set of positions by O(m) random access.

    `partner` marks the larger start of a psi pair whose smaller start has
    passed `involution` in this full-mode pass, which settled the checks
    that read the greedy counts (see `verify`), so they are not built.
    """

    __slots__ = ("sv", "elements", "at", "positions", "partner", "greedy")

    def __init__(
        self, sv: StartVector, elements: tuple[tuple[int, ...], ...] | None = None, partner: bool = False
    ) -> None:
        self.sv = sv
        self.elements = elements
        self.at, self.positions = _probe(sv, elements)
        self.partner = partner
        self.greedy = None if partner else greedy_counts(sv.parts, sv.shape.n)


def _probe(sv: StartVector, elements: tuple[tuple[int, ...], ...] | None) -> tuple[Callable, Sequence[int]]:
    """Element accessor and probe positions for the chain of `sv`: every
    position of `elements` when given, else a bounded set by random access."""
    if elements is not None:
        return elements.__getitem__, range(len(elements))
    positions = _positions(sv.shape.top_rank - 2 * sum(sv.parts), POSITIONS_PER_CHAIN)
    return (lambda j: element_at(sv, j).parts), positions


def _check_symmetric(v: _StartValue, covers: bool = True) -> dict | None:
    """The chain ends at the complementary rank, on an element no upper cover of
    which stays on the chain.  Membership is decided by `locate_parts`, which
    does not use the end-vector formula the chain is built from.

    With `covers` False the upper covers are not located: when the
    partition oracle runs, `partition` shows every composition, each upper
    cover included, is the element of some chain, and `disjoint` locates
    every element to its own chain's start, so an upper cover of this
    end, which lies above every element of this (saturated) chain, cannot
    locate to its start.  The end locate and the rank test still run."""
    parts, n = v.sv.parts, v.sv.shape.n
    end = v.at(v.positions[-1])
    located = locate_parts(end, n)
    if located != parts:
        return {"alpha": list(parts), "end": list(end), "located": list(located)}
    if covers:
        up = list(end)  # each upper cover in turn, one part raised in place
        for i, p in enumerate(end):
            if p < n:
                up[i] = p + 1
                if locate_parts(up, n) == parts:
                    return {"alpha": list(parts), "end": list(end), "extends_to": up}
                up[i] = p
    lo, hi = sum(parts), sum(end)
    if lo + hi != v.sv.shape.top_rank:
        return {"alpha": list(parts), "rank_start": lo, "rank_end": hi}
    return None


def _check_saturated(v: _StartValue) -> dict | None:
    """Consecutive probed elements differ by one unit vector; settled at a
    partner by its smaller start's `involution` (see `verify`)."""
    if v.partner:
        return None
    for j in v.positions[:-1]:
        a, b = v.at(j), v.at(j + 1)
        if sum(b) - sum(a) != 1 or not all(map(le, a, b)):
            return {"alpha": list(v.sv.parts), "low": list(a), "high": list(b)}
    return None


def _check_disjoint(v: _StartValue) -> dict | None:
    parts, n = v.sv.parts, v.sv.shape.n
    for el in map(v.at, v.positions):
        back = locate_parts(el, n)
        if back != parts:
            return {"alpha": list(parts), "element": list(el), "located": list(back)}
    return None


def _check_involution(v: _StartValue, partners: bytearray | None = None) -> dict | None:
    """psi is an involution, turns the greedy tableau half round, and maps the
    chain onto its reversed star.  On row counts the half-turn swaps fixed
    prefixes with mirrored forbidden suffixes, and fill numbers follow from
    the counts, so it holds iff psi(alpha) and alpha, each reversed, are the
    greedy end vectors of alpha and psi(alpha).  An image outside the
    starting set is a counterexample, not an error.

    Every identity checked here is symmetric in alpha and psi(alpha) once
    psi(psi(alpha)) = alpha, so full mode checks each pair once, at its
    lexicographically smaller start, which the pass reaches first.  That
    start applies psi to its image too, compares both greedy end vectors
    and both chains, and on passing sets the bit of the image's `_slot` in
    `partners`.  The pass marks the image's value a partner when it reaches
    it, and the check passes there without recomputing the same two psi
    images.  Every other start runs the whole check; with a true involution
    that is each smaller or self-paired start.  Sampled mode may not hold
    the partner: it passes no `partners` and checks every start.

    In full mode the image chain compares with the reversed star of this
    chain in one pass of C-level iterators; the positions are walked, as
    sampled mode walks its probes, only after a mismatch, for the first
    one."""
    if v.partner:
        return None
    parts, n = v.sv.parts, v.sv.shape.n
    try:
        image = psi(v.sv)
    except NotStartVectorError:
        return {"alpha": list(parts), "reason": "psi(alpha) is not a start vector"}
    try:
        again = psi(image)
    except NotStartVectorError:
        return {"alpha": list(parts), "psi": list(image.parts), "reason": "psi(psi(alpha)) is not a start vector"}
    iparts = image.parts
    if again.parts != parts:
        return {"alpha": list(parts), "psi": list(iparts), "psi_psi": list(again.parts)}
    if iparts[::-1] != v.greedy or greedy_counts(iparts, n)[::-1] != parts:
        return {"alpha": list(parts), "psi": list(iparts), "reason": "rotated tableau differs"}
    elements = v.elements
    image_elements = elements if elements is None or iparts == parts else chain_elements(image).elements
    image_at, image_positions = _probe(image, image_elements)
    if image_positions != v.positions:
        return {"alpha": list(parts), "psi": list(iparts), "reason": "chain is not the reversed star"}
    last = v.positions[-1]
    if elements is None or any(map(ne, image_elements, _reversed_star(elements, n))):
        for j in v.positions:
            if image_at(j) != tuple(map(n.__sub__, reversed(v.at(last - j)))):
                return {"alpha": list(parts), "psi": list(iparts), "reason": f"chain mismatch at position {j}"}
    if partners is not None and iparts != parts:
        k = _slot(iparts, len(iparts), n)
        partners[k >> 3] |= 1 << (k & 7)
    return None


def _reversed_star(elements: Sequence[tuple[int, ...]], n: int) -> Iterator[tuple[int, ...]]:
    """The star n - x of each of `elements`, reversed, last element first,
    made one at a time as it is read."""
    return map(tuple, map(map, repeat(n.__sub__), map(reversed, reversed(elements))))


def _check_corollary(v: _StartValue) -> dict | None:
    """The end-vector formula equals the greedy simulation; settled at a
    partner by its smaller start's `involution` (see `verify`)."""
    if v.partner:
        return None
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


def _random_roundtrip(shape: GridShape, count: int, seed: int = 0) -> dict | None:
    """Locate random compositions and probe membership via random access."""
    rng = random.Random(seed)
    n = shape.n
    for _ in range(count):
        c = Composition(shape, tuple(rng.randint(0, n) for _ in range(shape.m)))
        sv = locate(c)
        if not chain_contains(sv, c):
            return {"element": list(c.parts), "located": list(sv.parts)}
    return None


def verify(
    shape: GridShape,
    use_oracle: bool = True,
    *,
    cap: int = DEFAULT_CAP,
    sample: int = SAMPLE_STARTS,
) -> VerificationReport:
    """Run the full verification battery and collect a report.

    Oracle (exhaustive partition) mode requires the poset size (n+1)**m to
    stay within `cap`; past the cap it is refused with a message and the
    remaining checks fall back to deterministic sampling.  A `sample` below
    1 is refused, since sampled checks over no chains would pass
    unexamined, and so is a `cap` below 0.

    Every check runs in one streaming pass over the starts.  Within the cap
    the pass reads the chains of `decompose`, each built once, claims each
    one in the partition table with the oracle, and counts every start.
    Past it the pass reads the first `sample` starts, and when the middle
    rank fits the cap the same enumeration goes on counting, up to the
    middle rank size + 1.  A check stops at its first counterexample in
    start order, but the pass reads the whole stream.  Each start's value
    is charged to the first check still running, so the checks' seconds
    add up to the wall time of the pass.  A finish step runs after the
    stream for a check still passing: the partition's sweep for a slot left
    unclaimed, and the sampled random round trips of `disjoint`.  Reports
    from repeated runs are identical apart from timings.

    Full mode skips only work whose verdict another check of the same pass
    has already decided, and every check stays in the report:
      * that no upper cover of a chain's end stays on the chain is shown,
        with the oracle, by `partition` and `disjoint` together (see
        `_check_symmetric`); without the oracle, and in sampled mode,
        `symmetric` locates every upper cover;
      * at the larger start beta of each psi pair, `saturated` and
        `corollary-vs-simulation` are decided by `involution` at the
        smaller start alpha: beta's chain, built by the same
        `chain_elements`, is the reversed star of alpha's saturated chain,
        and greedy(beta) = alpha reversed = beta's end vector, since
        psi(beta) = alpha.  Sampled mode runs both checks at every start.
    """
    if sample < 1:
        raise ValueError(f"sample must be at least 1, got {sample}")
    if cap < 0:
        raise ValueError(f"cap must be at least 0, got {cap}")
    clock = time.perf_counter
    poset_size = shape.size
    full = poset_size <= cap
    checks = dict(_CHAIN_CHECKS)
    skipped: dict[str, str] = {}
    found: dict[str, dict] = {}
    seconds = dict.fromkeys(["partition", *checks, "middle-rank-count"], 0.0)
    # finish steps, each with the note it adds to its check's message
    finish: dict[str, tuple[Callable[[], dict | None], str]] = {}
    if not use_oracle:
        skipped["partition"] = "oracle disabled by caller"
    elif not full:
        skipped["partition"] = f"poset size {poset_size} exceeds cap {cap}; oracle mode refused"
    else:
        t0 = clock()
        claims = _ClaimTable(shape)
        checks = {"partition": lambda v: claims.claim(v.sv.parts, v.elements), **checks}
        checks["symmetric"] = lambda v: _check_symmetric(v, covers=False)
        finish["partition"] = claims.missing, ""
        seconds["partition"] = clock() - t0
    if full:
        # one bit per composition, set at the slot of each larger start of
        # a checked pair until the pass reaches it: poset_size / 8 bytes,
        # less than a set of the slots of the pairs still open
        partners = bytearray((poset_size + 7) >> 3)
        checks["involution"] = lambda v: _check_involution(v, partners)
        m, n = shape.m, shape.n

        def full_value(ch: Chain) -> _StartValue:
            k = _slot(ch.alpha.parts, m, n)  # None for a start outside the grid, never a partner
            partner = k is not None and partners[k >> 3] >> (k & 7) & 1
            if partner:
                partners[k >> 3] ^= 1 << (k & 7)
            return _StartValue(ch.alpha, ch.elements, bool(partner))

        starts: Iterable = ()  # the pass counts every start of `decompose`
        values = map(full_value, decompose(shape))
    else:
        starts = iter_start_parts(shape)
        values = (_StartValue(StartVector(Composition._derived(shape, parts))) for parts in islice(starts, sample))
        finish["disjoint"] = (lambda: _random_roundtrip(shape, sample)), f"; {sample} random round trips"

    running = list(checks.items())
    count = 0
    t0 = clock()
    for value in values:
        count += 1
        for name, check in running:
            bad = check(value)
            t1 = clock()
            seconds[name] += t1 - t0
            t0 = t1
            if bad is not None:
                found[name] = bad
                # rebinding leaves this loop on the old list, so the value's
                # remaining checks still run
                running = [item for item in running if item[0] != name]

    note = "" if full else f"sampled {count} chains"
    messages = {name: note if name in _CHAIN_CHECKS else "" for name in seconds}
    for name, (step, suffix) in finish.items():
        if name not in found:
            t0 = clock()
            bad = step()
            seconds[name] += clock() - t0
            messages[name] += suffix
            if bad is not None:
                found[name] = bad

    t0 = clock()
    expected = middle_level_size(shape)
    if expected > cap:
        skipped["middle-rank-count"] = f"middle rank size {expected} exceeds cap {cap}"
    else:
        # full mode counted every start in the pass, and sampled mode counts
        # on along its enumeration; either count stops at expected + 1
        got = min(count + sum(1 for _ in islice(starts, max(0, expected + 1 - count))), expected + 1)
        seconds["middle-rank-count"] = clock() - t0
        if got != expected:
            found["middle-rank-count"] = {"chain_count": got, "middle_level_size": expected}

    results = [
        CheckResult(name, name not in found, seconds[name], found.get(name), name in skipped, skipped.get(name, note))
        for name, note in messages.items()
    ]
    return VerificationReport(shape, results, count if full else None, poset_size if full else None)
