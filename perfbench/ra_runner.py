"""In-process random-access queries against the scdposet library.

Usage: python3 perfbench/ra_runner.py --seed S (--seconds T | --trace-queries Q)

Each query locates a seeded uniform composition c of N(m, n), then checks
the round trip element_at(sv, rank(c) - rank(sv)) == c.  A seeded quarter
of the queries also build certificate(c) and another quarter psi(sv).  The
last stdout line is a JSON summary; with --seconds it holds the moment
(time.monotonic()) set-up ended and the latency histogram's bucket counts.
"""

from __future__ import annotations

import argparse
import json
import random
import time

import oracle
from proc import LogHistogram

M, N = 32, 100
POOL = 1 << 14  # distinct queries, cycled; the package keeps no cache
WARMUP = 1000
CHECKED = 512  # queries re-checked against the independent oracle


def make_inputs(seed: int, m: int, n: int, pool: int = POOL):
    rng = random.Random(seed)
    values = range(n + 1)
    comps = [tuple(rng.choices(values, k=m)) for _ in range(pool)]
    kinds = [0, 0, 1, 2] * (pool // 4)  # 1: certificate, 2: psi
    rng.shuffle(kinds)
    return comps, kinds


def make_query(n: int):
    """Bind the package's functions now, so a query made after `spans.install` is traced."""
    from scdposet import Composition, certificate, element_at, locate, psi, rank

    def query(c, kind):
        comp = Composition.of(c, n)
        sv = locate(comp)
        ok = element_at(sv, rank(comp) - rank(sv.alpha)) == comp
        extra = certificate(comp) if kind == 1 else psi(sv) if kind == 2 else None
        return ok, sv, extra

    return query


def checked_keys(seed: int, pool: int, sample: int = CHECKED) -> frozenset[int]:
    """The seeded sample of pool entries whose answers the oracle re-checks."""
    return frozenset(random.Random(seed + 1).sample(range(pool), min(sample, pool)))


def run_queries(query, comps, kinds, keep=frozenset(), *, seconds: float | None = None, count: int | None = None):
    """Closed loop, one query at a time, until `count` queries or `seconds` elapse.

    Only the latest answers for the pool entries in `keep` are retained, so
    the runner's memory does not depend on how many queries ran.
    """
    results = {}
    latencies = LogHistogram()  # fixed memory, so peak RSS does not grow with the query count
    roundtrip_failed = 0
    clock = time.perf_counter
    pool = len(comps)
    start = clock()
    deadline = start + seconds if seconds is not None else float("inf")
    i = 0
    while True:
        k = i % pool
        t0 = clock()
        ok, sv, extra = query(comps[k], kinds[k])
        t1 = clock()
        latencies.add(t1 - t0)
        if not ok:
            roundtrip_failed += 1
        if k in keep:
            results[k] = (sv, extra)
        i += 1
        if i == count or t1 >= deadline:
            break
    return clock() - start, latencies, roundtrip_failed, results


def check_results(comps, kinds, results, n: int) -> list[int]:
    """Indices of the retained answers that the oracle rejects.

    A start vector whose chain holds c is the unique answer, so checking
    start membership and chain membership by the greedy rule is a complete
    independent locate.
    """
    bad = []
    for k in sorted(results):
        c = comps[k]
        sv, extra = results[k]
        a = sv.parts
        ok = oracle.is_start(a, n) and oracle.on_chain(c, a, n)
        if ok and kinds[k] == 1:
            fill = tuple(x - y for x, y in zip(c, a))
            positive = frozenset(i + 1 for i, v in enumerate(fill) if v > 0) | {len(c)}
            ok = (extra.alpha.parts, extra.fill_vector, extra.positive_set) == (a, fill, positive)
        elif ok and kinds[k] == 2:
            ok = extra.parts == tuple(reversed(oracle.end_vector(a, n))) and oracle.is_start(extra.parts, n)
        if not ok:
            bad.append(k)
    return bad


def measure(seed: int, seconds: float, m: int = M, n: int = N, pool: int = POOL, fault=None) -> dict:
    """Set up, warm up, run the timed loop, then check outside it.

    `fault`, if given, edits the recorded results before the check; the
    self-test uses it to plant a wrong answer.
    """
    comps, kinds = make_inputs(seed, m, n, pool)
    keep = checked_keys(seed, pool)
    query = make_query(n)
    run_queries(query, comps, kinds, count=min(WARMUP, pool))
    ready = time.monotonic()
    wall, latencies, roundtrip_failed, results = run_queries(query, comps, kinds, keep, seconds=seconds)
    if fault is not None:
        fault(results)
    bad = check_results(comps, kinds, results, n)
    attempted = sum(latencies.counts.values())
    return {
        "ready": ready,
        "attempted": attempted,
        "failed": min(attempted, roundtrip_failed + len(bad)),
        "roundtrip_failed": roundtrip_failed,
        "checked": len(results),
        "independent_failed": len(bad),
        "wall_s": wall,
        "latency_s": latencies.counts,
    }


def trace(seed: int, count: int) -> dict:
    """The same `count` queries untraced, then with spans installed."""
    from spans import Tracer, install

    comps, kinds = make_inputs(seed, M, N)
    keep = checked_keys(seed, len(comps))
    query = make_query(N)
    run_queries(query, comps, kinds, count=min(WARMUP, count))
    plain_wall, _, failed_a, results_a = run_queries(query, comps, kinds, keep, count=count)
    tracer = Tracer()
    install(tracer)
    traced_wall, _, failed_b, results_b = run_queries(make_query(N), comps, kinds, keep, count=count)
    bad = check_results(comps, kinds, results_a, N) + check_results(comps, kinds, results_b, N)
    return {
        "attempted": 2 * count,
        "failed": min(2 * count, failed_a + failed_b + len(bad)),
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "spans": tracer.summary(),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--trace-queries", type=int)
    args = ap.parse_args()
    if args.trace_queries:
        out = trace(args.seed, args.trace_queries)
    else:
        out = measure(args.seed, args.seconds)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
