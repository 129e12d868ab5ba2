"""The O(m) scans `verify` runs per chain, against the independent oracles.

`alpha_end_parts` and `locate_parts` keep one running difference of two
block sums, `greedy_counts` one pointer with the free cells left on its
row, and the run reader `elements_at` one running base of fills below its
row.  Each is compared, on every composition of the small shapes and on
seeded draws up to m = 2,000, with `conftest`'s literal block sums and
brute-force start test, or with the literal greedy grid.  Refusals are
compared too: where the oracle refuses an input, the scan raises the same
exception with the same message.
"""

import importlib
import random

import pytest

from scdposet.locate import locate_parts
from scdposet.starts import NotStartVectorError, alpha_end_parts
from scdposet.tableau import Fillable, Forbidden, TableauConstructionError, elements_at, greedy_counts

from conftest import SMALL_SHAPES, all_parts, brute_is_start, literal_end_vector, literal_grid

positions = importlib.import_module("scdposet.decompose")._positions


def outcome(scan, parts, n):
    """What `scan(parts, n)` returns, or the type and message it raises."""
    try:
        return scan(parts, n)
    except Exception as exc:
        return type(exc), str(exc)


def literal_end(parts, n):
    """The end vector by literal block sums, or the refusal the scan owes."""
    end = literal_end_vector(parts, n)
    if end is None:
        return NotStartVectorError, f"{parts} is not a start vector for n={n}"
    return end


def grid_counts(parts, n):
    """Per-row forbidden counts of the literal greedy grid, or its refusal."""
    try:
        cells = literal_grid(parts, n)
    except TableauConstructionError as exc:
        return TableauConstructionError, str(exc)
    return tuple(sum(isinstance(cell, Forbidden) for cell in row) for row in cells)


def on_literal_chain(c, alpha, n):
    """True iff `c` lies on the chain of the start `alpha`, read off its
    literal end vector e: the chain fills the bottom row first, so below the
    topmost row k where `c` leaves `alpha` every row is full (n - e), and
    row k itself lies between alpha[k] and n - e[k]."""
    end = literal_end_vector(alpha, n)
    k = next((i for i, (x, a) in enumerate(zip(c, alpha)) if x != a), len(c) - 1)
    below_full = all(c[i] == n - end[i] for i in range(k + 1, len(c)))
    return below_full and alpha[k] <= c[k] <= n - end[k]


def literal_chain(parts, n):
    """The chain of the start `parts` read off the literal greedy grid: the
    j-th element adds to `parts` one cell for each fillable cell numbered
    at most j."""
    grid = literal_grid(parts, n)
    fills = sorted((cell.order, i) for i, row in enumerate(grid) for cell in row if isinstance(cell, Fillable))
    chain, cur = [tuple(parts)], list(parts)
    for _, i in fills:
        cur[i] += 1
        chain.append(tuple(cur))
    return chain


def capacity_element(parts, end, n, j):
    """The j-th element of the chain of `parts` from the per-row capacities
    n - parts[i] - end[i], filled bottom row first."""
    el = list(parts)
    for i in range(len(parts) - 1, -1, -1):
        take = min(n - parts[i] - end[i], j)
        el[i] += take
        j -= take
    return tuple(el)


def draws(count, seed, max_n):
    """Seeded (parts, n) with m up to 2,000: half uniform compositions, most
    of which no start vector is, and half with every part at most a drawn
    cap and the last part 0, most of which are starts."""
    rng = random.Random(seed)
    for i in range(count):
        m = rng.choice((1, 2, 3, 8, 40, 300, 2000))
        n = rng.randint(1, max_n)
        if i % 2:
            yield tuple(rng.randint(0, n) for _ in range(m)), n
        else:
            cap = rng.randint(0, n)
            yield tuple(rng.randint(0, cap) for _ in range(m - 1)) + (0,), n


@pytest.mark.parametrize("m, n", SMALL_SHAPES)
def test_alpha_end_parts_matches_literal_block_sums_everywhere(m, n):
    for parts in all_parts(m, n):
        assert outcome(alpha_end_parts, parts, n) == literal_end(parts, n), parts


@pytest.mark.parametrize("m, n", SMALL_SHAPES)
def test_locate_parts_lands_on_the_literal_chain_everywhere(m, n):
    for c in all_parts(m, n):
        alpha = locate_parts(c, n)
        assert brute_is_start(alpha, n) and on_literal_chain(c, alpha, n), (c, alpha)


@pytest.mark.parametrize("m, n", SMALL_SHAPES)
def test_greedy_counts_matches_the_literal_grid_everywhere(m, n):
    for parts in all_parts(m, n):
        assert outcome(greedy_counts, parts, n) == grid_counts(parts, n), parts


def test_alpha_end_parts_matches_literal_block_sums_on_long_draws():
    accepted = refused = 0
    for parts, n in draws(60, seed=5, max_n=100):
        expected = literal_end(parts, n)
        assert outcome(alpha_end_parts, parts, n) == expected, (parts, n)
        if parts[-1] == 0:
            assert (expected[0] is not NotStartVectorError) == brute_is_start(parts, n), (parts, n)
        accepted += expected[0] is not NotStartVectorError
        refused += expected[0] is NotStartVectorError
    assert accepted >= 10 and refused >= 10


def test_locate_parts_lands_on_the_literal_chain_on_long_draws():
    for c, n in draws(40, seed=6, max_n=100):
        alpha = locate_parts(c, n)
        assert brute_is_start(alpha, n) and on_literal_chain(c, alpha, n), (c, n)


def test_greedy_counts_matches_the_literal_grid_on_long_draws():
    # small n keeps the literal grid of a 2,000-row draw small
    accepted = refused = 0
    for parts, n in draws(60, seed=7, max_n=4):
        expected = grid_counts(parts, n)
        assert outcome(greedy_counts, parts, n) == expected, (parts, n)
        accepted += expected[0] is not TableauConstructionError
        refused += expected[0] is TableauConstructionError
    assert accepted >= 10 and refused >= 10


@pytest.mark.parametrize("m, n", SMALL_SHAPES)
def test_elements_at_reads_the_literal_chain_everywhere(m, n):
    rng = random.Random(m * 100 + n)
    for parts in filter(lambda parts: brute_is_start(parts, n), all_parts(m, n)):
        chain, end = literal_chain(parts, n), literal_end_vector(parts, n)
        k = len(chain) - 1
        subset = sorted(rng.sample(range(k + 1), rng.randint(1, k + 1)))
        for probed in (range(k + 1), positions(k), subset):
            assert elements_at(parts, end, n, probed) == [chain[j] for j in probed], (parts, list(probed))


def test_elements_at_follows_the_literal_capacities_on_long_draws():
    rng = random.Random(8)
    read = 0
    for parts, n in draws(40, seed=8, max_n=100):
        end = literal_end_vector(parts, n)
        if end is None or not brute_is_start(parts, n):
            continue
        k = len(parts) * n - 2 * sum(parts)
        subset = sorted(rng.sample(range(k + 1), min(k + 1, 40)))
        for probed in (positions(k), subset):
            expected = [capacity_element(parts, end, n, j) for j in probed]
            assert elements_at(parts, end, n, probed) == expected, (parts, n)
        read += 1
    assert read >= 10
