"""Whole-poset assembly: streaming decomposition, statistics, verification.

`decompose` streams every chain of the grid without ever materializing the
poset.  `verify` checks the decomposition's defining properties end to end,
against an exhaustive membership oracle when the poset is small enough, and
against deterministic samples otherwise.  Each check is independent per
chain, so the per-chain passes can optionally fan out across processes.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from itertools import islice, product
from typing import Callable, Iterable, Iterator, Sequence

from .core import Composition, GridShape, covers, rank, star
from .locate import locate_parts
from .starts import StartVector, alpha_end_parts, iter_start_parts, psi
from .tableau import (
    Chain,
    alpha_end_from_tableau,
    build_tableau,
    chain_elements,
    element_at,
    rotate_180,
    strip_sources,
)

DEFAULT_CAP = 1_000_000

# Sampled-mode budgets: how many starts to sample, how many chain positions
# to probe per sampled chain, and the largest grid whose tableaux we still
# build cell by cell.
SAMPLE_STARTS = 512
POSITIONS_PER_CHAIN = 64
SAMPLED_TABLEAU_CELLS = 65536

_PARALLEL_MIN_STARTS = 256


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
    """Rank sizes by repeated convolution with the all-ones kernel of width n+1."""
    sizes = [1]
    for _ in range(shape.m):
        out = [0] * (len(sizes) + shape.n)
        for k, v in enumerate(sizes):
            for d in range(shape.n + 1):
                out[k + d] += v
        sizes = out
    return LevelProfile(shape, tuple(sizes))


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
            prev = index.get(el.parts)
            if prev is not None:
                return CheckResult(
                    "partition",
                    False,
                    time.perf_counter() - t0,
                    {"element": list(el.parts), "chains": [list(prev), list(aparts)]},
                )
            index[el.parts] = aparts
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


def _probe(sv: StartVector, full: bool) -> tuple[Callable[[int], Composition], Sequence[int]]:
    """Element accessor and probe positions for the chain of `sv`.

    Full mode materializes the chain and probes every position; sampled mode
    probes a bounded set of positions by O(m) random access.
    """
    if full:
        elements = chain_elements(sv).elements
        return elements.__getitem__, range(len(elements))
    k_total = sv.shape.top_rank - 2 * sum(sv.parts)
    return partial(element_at, sv), _positions(k_total, POSITIONS_PER_CHAIN)


def _check_symmetric(sv: StartVector, full: bool) -> dict | None:
    parts = sv.parts
    lo = sum(parts)
    hi = rank(element_at(sv, sv.shape.top_rank - 2 * lo))
    if lo + hi != sv.shape.top_rank:
        return {"alpha": list(parts), "rank_start": lo, "rank_end": hi}
    return None


def _check_saturated(sv: StartVector, full: bool) -> dict | None:
    at, positions = _probe(sv, full)
    for j in positions[:-1]:
        a, b = at(j), at(j + 1)
        if not covers(a, b):
            return {"alpha": list(sv.parts), "low": list(a.parts), "high": list(b.parts)}
    return None


def _check_disjoint(sv: StartVector, full: bool) -> dict | None:
    at, positions = _probe(sv, full)
    for j in positions:
        el = at(j)
        back = locate_parts(el.parts, sv.shape.n)
        if back != sv.parts:
            return {"alpha": list(sv.parts), "element": list(el.parts), "located": list(back)}
    return None


def _check_involution(sv: StartVector, full: bool) -> dict | None:
    parts = sv.parts
    image = psi(sv)
    again = psi(image)
    if again.parts != parts:
        return {"alpha": list(parts), "psi": list(image.parts), "psi_psi": list(again.parts)}
    if alpha_end_parts(image.parts, sv.shape.n) != tuple(reversed(parts)):
        return {"alpha": list(parts), "psi": list(image.parts), "reason": "end vector is not the reverse"}
    if full or sv.shape.top_rank <= SAMPLED_TABLEAU_CELLS:
        rotated = rotate_180(build_tableau(sv))
        direct = strip_sources(build_tableau(image).cells)
        if rotated != direct:
            return {"alpha": list(parts), "psi": list(image.parts), "reason": "rotated tableau differs"}
    at, positions = _probe(sv, full)
    image_at, image_positions = _probe(image, full)
    if image_positions != positions:
        return {"alpha": list(parts), "psi": list(image.parts), "reason": "chain is not the reversed star"}
    last = positions[-1]
    for j in positions:
        if image_at(j).parts != star(at(last - j)).parts:
            return {"alpha": list(parts), "psi": list(image.parts), "reason": f"chain mismatch at position {j}"}
    return None


def _check_corollary(sv: StartVector, full: bool) -> dict | None:
    fast = alpha_end_parts(sv.parts, sv.shape.n)
    slow = alpha_end_from_tableau(build_tableau(sv))
    if fast != slow:
        return {"alpha": list(sv.parts), "formula": list(fast), "simulation": list(slow)}
    return None


# Per-chain checks in report order.  Each returns the first violation for one
# start vector, or None; `full` probes every chain position, not a sample.
_CHAIN_CHECKS: dict[str, Callable[[StartVector, bool], dict | None]] = {
    "symmetric": _check_symmetric,
    "saturated": _check_saturated,
    "disjoint": _check_disjoint,
    "involution": _check_involution,
    "corollary-vs-simulation": _check_corollary,
}

PER_CHAIN_CHECKS = tuple(_CHAIN_CHECKS)


def _first_violation(shape: GridShape, name: str, starts: Iterable[tuple[int, ...]], full: bool) -> dict | None:
    check = _CHAIN_CHECKS[name]
    for parts in starts:
        bad = check(StartVector(Composition(shape, parts)), full)
        if bad is not None:
            return bad
    return None


def _chunk_task(args: tuple[int, int, str, bool, list[tuple[int, ...]]]) -> dict | None:
    m, n, name, full, chunk = args
    return _first_violation(GridShape(m, n), name, chunk, full)


def _run_per_chain_check(
    shape: GridShape,
    name: str,
    starts: list[tuple[int, ...]],
    full: bool,
    workers: int,
) -> CheckResult:
    t0 = time.perf_counter()
    counterexample: dict | None = None
    if workers > 1 and len(starts) >= _PARALLEL_MIN_STARTS:
        chunk_size = max(1, len(starts) // (workers * 4))
        tasks = [
            (shape.m, shape.n, name, full, starts[i : i + chunk_size])
            for i in range(0, len(starts), chunk_size)
        ]
        with ProcessPoolExecutor(max_workers=workers) as ex:
            for bad in ex.map(_chunk_task, tasks):
                if bad is not None:
                    counterexample = bad
                    break
    else:
        counterexample = _first_violation(shape, name, starts, full)
    seconds = time.perf_counter() - t0
    note = "" if full else f"sampled {len(starts)} chains"
    return CheckResult(name, counterexample is None, seconds, counterexample, message=note)


def _random_roundtrip(shape: GridShape, count: int, seed: int = 0) -> dict | None:
    """Locate random compositions and probe membership via random access."""
    rng = random.Random(seed)
    n = shape.n
    for _ in range(count):
        cparts = tuple(rng.randint(0, n) for _ in range(shape.m))
        aparts = locate_parts(cparts, n)
        sv = StartVector(Composition(shape, aparts))
        j = sum(cparts) - sum(aparts)
        if j < 0 or j > shape.top_rank - 2 * sum(aparts) or element_at(sv, j).parts != cparts:
            return {"element": list(cparts), "located": list(aparts)}
    return None


def verify(
    shape: GridShape,
    use_oracle: bool = True,
    *,
    cap: int = DEFAULT_CAP,
    sample: int = SAMPLE_STARTS,
    workers: int = 1,
) -> VerificationReport:
    """Run the full verification battery and collect a report.

    Oracle (exhaustive partition) mode requires the poset size (n+1)**m to
    stay within `cap`; past the cap it is refused with a message and the
    remaining checks fall back to deterministic sampling.  Reports from
    repeated runs are identical apart from timings.  A `sample` below 1 is
    refused, since sampled checks over no chains would pass unexamined.
    """
    if sample < 1:
        raise ValueError(f"sample must be at least 1, got {sample}")
    report = VerificationReport(shape)
    poset_size = shape.size
    profile = level_sizes(shape)
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

    for name in PER_CHAIN_CHECKS:
        result = _run_per_chain_check(shape, name, starts, full, workers)
        if name == "disjoint" and result.passed and not full:
            t0 = time.perf_counter()
            bad = _random_roundtrip(shape, sample)
            result.seconds += time.perf_counter() - t0
            if bad is not None:
                result.passed = False
                result.counterexample = bad
            result.message = (result.message + f"; {sample} random round trips").strip("; ")
        report.checks.append(result)

    t0 = time.perf_counter()
    expected = profile.middle
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
