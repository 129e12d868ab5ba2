"""Whole-poset assembly: streaming decomposition, statistics, verification.

`decompose` streams every chain of the grid without ever materializing the
poset.  `verify` checks the decomposition's defining properties end to end,
against an exhaustive membership oracle when the poset is small enough, and
against deterministic samples otherwise.  The per-chain checks run in one
pass over the starts, in one process: each start's chain and greedy row
counts are built once and read by every check, as plain parts tuples.  No
check colours a cell grid, so the pass is the same at every grid size.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import accumulate, islice, product
from math import comb
from typing import Callable, Iterable, Iterator, Sequence

from .core import Composition, GridShape
from .locate import locate_parts
from .starts import StartVector, alpha_end_parts, iter_start_parts, psi
from .tableau import Chain, chain_contains, chain_elements, element_at, greedy_counts

DEFAULT_CAP = 1_000_000

# Sampled-mode budgets: how many starts to sample, and how many chain
# positions to probe per sampled chain.
SAMPLE_STARTS = 512
POSITIONS_PER_CHAIN = 64


@dataclass(frozen=True, slots=True)
class LevelProfile:
    """Number of compositions at each rank, 0..m*n."""

    shape: GridShape
    sizes: tuple[int, ...]

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
        yield chain_elements(StartVector(Composition(shape, parts)))


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


@dataclass(slots=True)
class CheckResult:
    name: str
    passed: bool
    seconds: float = 0.0
    counterexample: dict | None = None
    skipped: bool = False
    message: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "skipped": self.skipped,
            "seconds": round(self.seconds, 6),
            "message": self.message,
            "counterexample": self.counterexample,
        }


@dataclass(slots=True)
class VerificationReport:
    shape: GridShape
    checks: list[CheckResult] = field(default_factory=list)
    chain_count: int | None = None  # counted only when the starting set was fully enumerated
    element_count: int | None = None

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


def check_partition(shape: GridShape, chains: Iterable[Chain]) -> CheckResult:
    """Exhaustive partition oracle: every composition on exactly one chain.

    Walks the given chains into a membership index, flagging the first
    duplicate, then enumerates all (n+1)**m compositions and flags the first
    one missing.  Cost is linear in the poset size.
    """
    t0 = time.perf_counter()
    index: dict[tuple[int, ...], tuple[int, ...]] = {}
    for ch in chains:
        aparts = ch.alpha.parts
        for el in ch.elements:
            prev = index.get(el)
            if prev is not None:
                return CheckResult(
                    "partition",
                    False,
                    time.perf_counter() - t0,
                    {"element": list(el), "chains": [list(prev), list(aparts)]},
                )
            index[el] = aparts
    for parts in product(range(shape.n + 1), repeat=shape.m):
        if parts not in index:
            return CheckResult(
                "partition",
                False,
                time.perf_counter() - t0,
                {"element": list(parts), "chains": []},
            )
    return CheckResult("partition", True, time.perf_counter() - t0)


def _positions(k: int, limit: int) -> list[int]:
    """Up to `limit` deterministic probe positions in 0..k, always with the ends."""
    if k + 1 <= limit:
        return list(range(k + 1))
    step = k / (limit - 1)
    return sorted({round(i * step) for i in range(limit)})


@dataclass(frozen=True, slots=True)
class _StartValue:
    """One start's chain probe and greedy row counts, built once and read by every check."""

    sv: StartVector
    full: bool
    at: Callable[[int], tuple[int, ...]]
    positions: Sequence[int]
    greedy: tuple[int, ...]


def _probe(sv: StartVector, full: bool) -> tuple[Callable[[int], tuple[int, ...]], Sequence[int]]:
    """Element accessor and probe positions for the chain of `sv`, as parts tuples.

    Full mode materializes the chain and probes every position; sampled mode
    probes a bounded set of positions by O(m) random access.
    """
    if full:
        elements = chain_elements(sv).elements
        return elements.__getitem__, range(len(elements))
    positions = _positions(sv.shape.top_rank - 2 * sum(sv.parts), POSITIONS_PER_CHAIN)
    return (lambda j: element_at(sv, j).parts), positions


def _check_symmetric(v: _StartValue) -> dict | None:
    """The chain ends at the complementary rank, on an element no upper cover of
    which stays on the chain.  Membership is decided by `locate_parts`, which
    does not use the end-vector formula the chain is built from."""
    parts, n = v.sv.parts, v.sv.shape.n
    end = v.at(v.positions[-1])
    located = locate_parts(end, n)
    if located != parts:
        return {"alpha": list(parts), "end": list(end), "located": list(located)}
    for i, p in enumerate(end):
        if p < n:
            up = end[:i] + (p + 1,) + end[i + 1 :]
            if locate_parts(up, n) == parts:
                return {"alpha": list(parts), "end": list(end), "extends_to": list(up)}
    lo, hi = sum(parts), sum(end)
    if lo + hi != v.sv.shape.top_rank:
        return {"alpha": list(parts), "rank_start": lo, "rank_end": hi}
    return None


def _check_saturated(v: _StartValue) -> dict | None:
    """Consecutive probed elements differ by one unit vector."""
    for j in v.positions[:-1]:
        a, b = v.at(j), v.at(j + 1)
        if sum(b) - sum(a) != 1 or any(y < x for x, y in zip(a, b)):
            return {"alpha": list(v.sv.parts), "low": list(a), "high": list(b)}
    return None


def _check_disjoint(v: _StartValue) -> dict | None:
    for j in v.positions:
        el = v.at(j)
        back = locate_parts(el, v.sv.shape.n)
        if back != v.sv.parts:
            return {"alpha": list(v.sv.parts), "element": list(el), "located": list(back)}
    return None


def _check_involution(v: _StartValue) -> dict | None:
    """psi is an involution, turns the greedy tableau half round, and maps the
    chain onto its reversed star.  On row counts the half-turn swaps fixed
    prefixes with mirrored forbidden suffixes, and fill numbers follow from
    the counts, so it holds iff psi(alpha) and alpha, each reversed, are the
    greedy end vectors of alpha and psi(alpha)."""
    parts, n = v.sv.parts, v.sv.shape.n
    image = psi(v.sv)
    again = psi(image)
    if again.parts != parts:
        return {"alpha": list(parts), "psi": list(image.parts), "psi_psi": list(again.parts)}
    if image.parts[::-1] != v.greedy or greedy_counts(image.parts, n)[::-1] != parts:
        return {"alpha": list(parts), "psi": list(image.parts), "reason": "rotated tableau differs"}
    image_at, image_positions = _probe(image, v.full)
    if image_positions != v.positions:
        return {"alpha": list(parts), "psi": list(image.parts), "reason": "chain is not the reversed star"}
    last = v.positions[-1]
    for j in v.positions:
        if image_at(j) != tuple(n - p for p in reversed(v.at(last - j))):
            return {"alpha": list(parts), "psi": list(image.parts), "reason": f"chain mismatch at position {j}"}
    return None


def _check_corollary(v: _StartValue) -> dict | None:
    fast = alpha_end_parts(v.sv.parts, v.sv.shape.n)
    if fast != v.greedy:
        return {"alpha": list(v.sv.parts), "formula": list(fast), "simulation": list(v.greedy)}
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


def _run_chain_checks(shape: GridShape, starts: list[tuple[int, ...]], full: bool) -> list[CheckResult]:
    """One pass over `starts`, running every per-chain check on each start's value.

    A check stops at its first counterexample in start order.  Each start's
    value is charged to the first check still running, so the checks'
    seconds add up to the wall time of the pass.
    """
    seconds = dict.fromkeys(_CHAIN_CHECKS, 0.0)
    found: dict[str, dict] = {}
    clock = time.perf_counter
    for parts in starts:
        running = [name for name in _CHAIN_CHECKS if name not in found]
        if not running:
            break
        t0 = clock()
        sv = StartVector(Composition(shape, parts))
        value = _StartValue(sv, full, *_probe(sv, full), greedy_counts(parts, shape.n))
        for name in running:
            bad = _CHAIN_CHECKS[name](value)
            t1 = clock()
            seconds[name] += t1 - t0
            t0 = t1
            if bad is not None:
                found[name] = bad
    note = "" if full else f"sampled {len(starts)} chains"
    return [
        CheckResult(name, name not in found, seconds[name], found.get(name), message=note)
        for name in _CHAIN_CHECKS
    ]


def _random_roundtrip(shape: GridShape, count: int, seed: int = 0) -> dict | None:
    """Locate random compositions and probe membership via random access."""
    rng = random.Random(seed)
    n = shape.n
    for _ in range(count):
        c = Composition(shape, tuple(rng.randint(0, n) for _ in range(shape.m)))
        aparts = locate_parts(c.parts, n)
        if not chain_contains(StartVector(Composition(shape, aparts)), c):
            return {"element": list(c.parts), "located": list(aparts)}
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
    remaining checks fall back to deterministic sampling.  Reports from
    repeated runs are identical apart from timings.  A `sample` below 1 is
    refused, since sampled checks over no chains would pass unexamined, and
    so is a `cap` below 0.
    """
    if sample < 1:
        raise ValueError(f"sample must be at least 1, got {sample}")
    if cap < 0:
        raise ValueError(f"cap must be at least 0, got {cap}")
    report = VerificationReport(shape)
    poset_size = shape.size
    full = poset_size <= cap

    # Partition needs the exhaustive oracle.
    if not use_oracle:
        report.checks.append(
            CheckResult("partition", True, skipped=True, message="oracle disabled by caller")
        )
    elif not full:
        report.checks.append(
            CheckResult(
                "partition",
                True,
                skipped=True,
                message=f"poset size {poset_size} exceeds cap {cap}; oracle mode refused",
            )
        )
    else:
        report.checks.append(check_partition(shape, decompose(shape)))

    if full:
        starts = list(iter_start_parts(shape))
        report.chain_count = len(starts)
        report.element_count = poset_size
    else:
        starts = list(islice(iter_start_parts(shape), sample))

    for result in _run_chain_checks(shape, starts, full):
        if result.name == "disjoint" and result.passed and not full:
            t0 = time.perf_counter()
            bad = _random_roundtrip(shape, sample)
            result.seconds += time.perf_counter() - t0
            if bad is not None:
                result.passed = False
                result.counterexample = bad
            result.message = (result.message + f"; {sample} random round trips").strip("; ")
        report.checks.append(result)

    t0 = time.perf_counter()
    expected = middle_level_size(shape)
    if expected > cap:
        report.checks.append(
            CheckResult(
                "middle-rank-count",
                True,
                skipped=True,
                message=f"middle rank size {expected} exceeds cap {cap}",
            )
        )
    else:
        got = sum(1 for _ in islice(iter_start_parts(shape), expected + 1))
        report.checks.append(
            CheckResult(
                "middle-rank-count",
                got == expected,
                time.perf_counter() - t0,
                None if got == expected else {"chain_count": got, "middle_level_size": expected},
            )
        )
    return report
