"""Reference answers for the benchmark's correctness checks.

Nothing here imports `scdposet`: every check recomputes what it needs from
the definitions (start-set inequalities, the greedy forbidden-cell rule,
counting compositions by inclusion-exclusion) or compares against outputs
pinned at the seed commit, so a fault in the package cannot also hide in
the check.
"""

from __future__ import annotations

import hashlib
import json
from itertools import product
from math import comb

# sha256 of `scdposet decompose -m M -n N` stdout, recorded at the seed
# commit; ROADMAP makes this output byte-identical across changes.
DECOMPOSE_DIGESTS = {
    (8, 4): "972e5f60c11fd9e43f6f9cd445ae8832d39a7429e95b861d65cbee445ba481f1",
    (4, 3): "1bb468229a8b8790b419c7b7ff17582e0b942b852f9cb4d3b471ed3a91ab9a62",
}

# Golden values of tests/test_acceptance.py, criteria 1-3.
GOLDEN_CHAIN_A = [
    [2, 0, 5, 0], [2, 0, 5, 1], [2, 0, 6, 1], [2, 1, 6, 1], [2, 2, 6, 1], [2, 3, 6, 1],
    [2, 4, 6, 1], [3, 4, 6, 1], [4, 4, 6, 1], [5, 4, 6, 1], [6, 4, 6, 1],
]
GOLDEN_CHAIN_B = [[1, 3, 2, 0], [1, 3, 2, 1], [2, 3, 2, 1], [3, 3, 2, 1], [4, 3, 2, 1]]
GOLDEN_LOCATE_C = [5, 2, 3, 6, 4, 1, 5, 3]
GOLDEN_LOCATE_ALPHA = [5, 2, 1, 6, 4, 1, 4, 0]

# The README's render example.
GOLDEN_RENDER = """alpha=1,3,2,0 alphaE=0,1,2,3
  G   2   3   4
  G   G   G   X
  G   G   X   X
  1   X   X   X
"""

# SVG is presentation only, so it is pinned by digest (seed commit).
GOLDEN_SVG_SHA256 = "33637f899f1a56c3d107f38f039de7037e3174b07faec4ad3ac81328ba062090"


def is_start(parts, n: int) -> bool:
    """Start-set membership straight from the defining inequalities."""
    m = len(parts)
    if parts[-1] != 0 or 2 * sum(parts) > m * n:
        return False
    for t in range(1, m):
        if sum(parts[t - 1 : m - 1]) > sum(n - parts[i] for i in range(t, m)):
            return False
    return True


def end_vector(parts, n: int) -> tuple[int, ...]:
    """Forbidden cells per row by the literal greedy rule, counted per row.

    Source row i forbids parts[i] cells, taken from the unclaimed cells of
    the rows below it, top row first.
    """
    m = len(parts)
    free = [n - a for a in parts]
    end = [0] * m
    for src in range(m - 1):
        need = parts[src]
        for i in range(src + 1, m):
            if need == 0:
                break
            take = min(need, free[i])
            free[i] -= take
            end[i] += take
            need -= take
        if need:
            raise ValueError(f"{tuple(parts)} is not a start vector for n={n}")
    return tuple(end)


def chain_element(parts, n: int, j: int) -> tuple[int, ...] | None:
    """Element j of the chain of `parts`: fills go bottom row first. None if off the chain."""
    end = end_vector(parts, n)
    out = list(parts)
    for i in range(len(parts) - 1, -1, -1):
        take = min(j, n - parts[i] - end[i])
        out[i] += take
        j -= take
    return None if j else tuple(out)


def on_chain(c, parts, n: int) -> bool:
    j = sum(c) - sum(parts)
    return j >= 0 and chain_element(parts, n, j) == tuple(c)


def chain_index(m: int, n: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Element -> start of its chain, built from every start of a small grid.

    Raises ValueError if two chains share an element or one is missed.
    """
    index = {}
    for a in product(range(n + 1), repeat=m):
        if not is_start(a, n):
            continue
        j = 0
        while (e := chain_element(a, n, j)) is not None:
            if e in index:
                raise ValueError(f"{e} lies on the chains of {index[e]} and {a}")
            index[e] = a
            j += 1
    if len(index) != (n + 1) ** m:
        raise ValueError(f"chains cover {len(index)} of {(n + 1) ** m} elements")
    return index


def level_size(m: int, n: int, r: int) -> int:
    """Compositions of rank r in N(m, n), by inclusion-exclusion on parts > n."""
    return sum(
        (-1) ** k * comb(m, k) * comb(r - k * (n + 1) + m - 1, m - 1)
        for k in range(m + 1)
        if r - k * (n + 1) >= 0
    )


def middle_level_size(m: int, n: int) -> int:
    return level_size(m, n, m * n // 2)


def expected_stats(m: int, n: int) -> str:
    sizes = [level_size(m, n, r) for r in range(m * n + 1)]
    top = m * n
    hist = {top + 1: sizes[0]}
    for k in range(1, top // 2 + 1):
        if sizes[k] != sizes[k - 1]:
            hist[top - 2 * k + 1] = sizes[k] - sizes[k - 1]
    payload = {
        "m": m,
        "n": n,
        "poset_size": (n + 1) ** m,
        "level_sizes": sizes,
        "chain_count": sizes[top // 2],
        "chain_length_histogram": {str(k): hist[k] for k in sorted(hist, reverse=True)},
    }
    return _line(payload)


def _line(obj) -> str:
    return json.dumps(obj, separators=(",", ":")) + "\n"


def _chain_line(n: int, elements: list[list[int]], alpha_end: list[int]) -> str:
    return _line(
        {
            "m": len(elements[0]),
            "n": n,
            "alpha": elements[0],
            "alpha_end": alpha_end,
            "start": elements[0],
            "end": elements[-1],
            "elements": elements,
        }
    )


def _locate_line() -> str:
    n = 7
    fill = [x - a for x, a in zip(GOLDEN_LOCATE_C, GOLDEN_LOCATE_ALPHA)]
    positive = sorted({i + 1 for i, v in enumerate(fill) if v > 0} | {len(fill)})
    return _line(
        {
            "m": len(GOLDEN_LOCATE_C),
            "n": n,
            "c": GOLDEN_LOCATE_C,
            "alpha": GOLDEN_LOCATE_ALPHA,
            "fill_vector": fill,
            "positive_set": positive,
        }
    )


def oneshot_commands() -> list[tuple[list[str], str]]:
    """The cli-oneshot rotation: (CLI arguments, expected stdout or 'sha256:<hex>')."""
    psi = _line({"m": 4, "n": 6, "alpha": [2, 0, 5, 0], "psi": [5, 0, 2, 0], "alpha_end": [0, 2, 0, 5], "involution_ok": True})
    return [
        (["chain", "--alpha", "2,0,5,0", "-n", "6"], _chain_line(6, GOLDEN_CHAIN_A, [0, 2, 0, 5])),
        (["chain", "--alpha", "1,3,2,0", "-n", "4"], _chain_line(4, GOLDEN_CHAIN_B, [0, 1, 2, 3])),
        (["locate", "--c", "5,2,3,6,4,1,5,3", "-n", "7"], _locate_line()),
        (["psi", "--alpha", "2,0,5,0", "-n", "6"], psi),
        (["render", "--alpha", "1,3,2,0", "-n", "4"], GOLDEN_RENDER),
        (["render", "--alpha", "1,3,2,0", "-n", "4", "--format", "svg"], "sha256:" + GOLDEN_SVG_SHA256),
        (["stats", "-m", "8", "-n", "4"], expected_stats(8, 4)),
    ]


def output_matches(out: bytes, expected: str) -> bool:
    if expected.startswith("sha256:"):
        return hashlib.sha256(out).hexdigest() == expected[len("sha256:") :]
    return out == expected.encode()


def check_decompose(data: bytes, m: int, n: int) -> list[str]:
    """Problems with a `decompose` JSONL stream: it must list the chains of
    N(m, n) by increasing start, each saturated and rank-symmetric with the
    greedy end vector, and together cover every element exactly once."""
    top = m * n
    seen: set[tuple[int, ...]] = set()
    problems: list[str] = []
    total = 0
    chains = 0
    prev = None
    for lineno, line in enumerate(data.splitlines(), 1):
        if len(problems) >= 5:
            break
        try:
            obj = json.loads(line)
            alpha = tuple(obj["alpha"])
            els = [tuple(e) for e in obj["elements"]]
            head = (obj["m"], obj["n"], tuple(obj["start"]), tuple(obj["end"]), tuple(obj["alpha_end"]))
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"line {lineno}: unreadable chain record ({exc})")
            continue
        chains += 1
        total += len(els)
        if not els or head != (m, n, els[0], els[-1], end_vector(alpha, n) if is_start(alpha, n) else None):
            problems.append(f"line {lineno}: header does not match a chain of start {alpha}")
            continue
        if prev is not None and alpha <= prev:
            problems.append(f"line {lineno}: start {alpha} out of order")
        prev = alpha
        if els[0] != alpha or sum(els[0]) + sum(els[-1]) != top:
            problems.append(f"line {lineno}: chain of {alpha} is not rank-symmetric")
        for a, b in zip(els, els[1:]):
            d = [y - x for x, y in zip(a, b)]
            if sum(d) != 1 or min(d) < 0:
                problems.append(f"line {lineno}: {b} does not cover {a}")
                break
        for e in els:
            if e in seen or len(e) != m or min(e) < 0 or max(e) > n:
                problems.append(f"line {lineno}: element {e} repeated or off the grid")
                break
            seen.add(e)
    if not problems and (total != (n + 1) ** m or len(seen) != total):
        problems.append(f"chains hold {len(seen)} distinct of {total} elements, poset has {(n + 1) ** m}")
    if not problems and chains != middle_level_size(m, n):
        problems.append(f"{chains} chains, middle level has {middle_level_size(m, n)}")
    return problems


VERIFY_CHECKS = (
    "partition",
    "symmetric",
    "saturated",
    "disjoint",
    "involution",
    "corollary-vs-simulation",
    "middle-rank-count",
)


def check_verify(data: bytes, m: int, n: int) -> list[str]:
    """Problems with a `verify --oracle` report for N(m, n)."""
    try:
        report = json.loads(data)
        checks = {c["name"]: c for c in report["checks"]}
        got = (report["m"], report["n"], report["passed"], report["chain_count"], report["element_count"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report ({exc})"]
    problems = []
    want = (m, n, True, middle_level_size(m, n), (n + 1) ** m)
    if got != want:
        problems.append(f"report (m, n, passed, chain_count, element_count) = {got}, expected {want}")
    for name in VERIFY_CHECKS:
        c = checks.get(name)
        if c is None or c.get("passed") is not True or c.get("skipped") is not False:
            problems.append(f"check {name} missing, failed or skipped: {c}")
    return problems
