"""Shared fixtures and independent brute-force oracles.

The oracles here recompute everything from definitions with plain nested
sums and exhaustive scans, on purpose: they share no code with the package
so that a transcription mistake on either side shows up as a disagreement.
"""

from itertools import product

import pytest

from scdposet import GridShape

# Exhaustively checkable grids, largest poset 5**4 = 625 elements.
SMALL_SHAPES = [
    (1, 1),
    (1, 3),
    (2, 1),
    (2, 2),
    (2, 3),
    (3, 2),
    (3, 3),
    (4, 2),
    (2, 5),
    (3, 4),
    (4, 3),
    (5, 2),
    (4, 4),
]


def all_parts(m, n):
    """Every composition of the m-by-n grid, lexicographically."""
    return product(range(n + 1), repeat=m)


def brute_is_start(parts, n):
    """Start-set membership straight from the defining inequalities."""
    m = len(parts)
    if parts[-1] != 0:
        return False
    if sum(parts) > (m * n) // 2:
        return False
    for t in range(1, m):  # 1-based
        lhs = sum(parts[t - 1 : m - 1])
        rhs = sum(n - parts[i] for i in range(t, m))
        if lhs > rhs:
            return False
    return True


def literal_splitting_rows(parts, n):
    """Splitting rows by the literal recursive rule, recomputing every sum."""
    m = len(parts)
    rows = [1]
    p = 1
    while p < m:
        found = None
        for q in range(p, m):  # candidates p..m-1, 1-based
            lhs = sum(parts[i - 1] for i in range(p, q + 1))
            rhs = sum(n - parts[i - 1] for i in range(p + 1, q + 2))
            if lhs <= rhs:
                found = q
                break
        assert found is not None, f"no next splitting row from {p} for {parts}"
        rows.append(found + 1)
        p = found + 1
    return tuple(rows)


def brute_level_sizes(m, n):
    """Rank sizes by counting every composition."""
    sizes = [0] * (m * n + 1)
    for parts in all_parts(m, n):
        sizes[sum(parts)] += 1
    return tuple(sizes)


def dbtk_chains(m, n):
    """The de Bruijn-Tengbergen-Kruyswijk (1951) symmetric chain decomposition
    of [n+1]**m, as lists of part tuples in increasing rank.

    Induction on m: each chain x_0 < ... < x_k of [n+1]**(m-1), crossed with
    0..n, is a (k+1) by (n+1) grid, cut into the hooks j = 0..min(k, n):
    x_j extended by 0, 1, ..., n-j, then x_{j+1}, ..., x_k extended by n-j.
    Hook j runs from rank r + j to rank r + k + n - j, where r is the rank of
    x_0, so it stays symmetric about the middle rank of the whole grid.
    """
    chains = [[(y,) for y in range(n + 1)]]
    for _ in range(m - 1):
        grown = []
        for x in chains:
            k = len(x) - 1
            for j in range(min(k, n) + 1):
                hook = [x[j] + (y,) for y in range(n - j + 1)]
                hook += [x[i] + (n - j,) for i in range(j + 1, k + 1)]
                grown.append(hook)
        chains = grown
    return chains


@pytest.fixture(params=SMALL_SHAPES, ids=lambda mn: f"{mn[0]}x{mn[1]}")
def small_shape(request):
    m, n = request.param
    return GridShape(m, n)
