"""Shared fixtures, independent brute-force oracles and one planted fault.

The oracles here recompute everything from definitions with plain nested
sums and exhaustive scans, on purpose: they share no code with the package
so that a transcription mistake on either side shows up as a disagreement.
The literal greedy grid borrows only the package's cell and error types, so
its output compares with `build_tableau`'s directly.
"""

from itertools import product

import pytest

from scdposet import GridShape
from scdposet.tableau import Fillable, Fixed, Forbidden, TableauConstructionError

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


def shift_one_forbidden_cell(original, upward=True):
    """A planted fault: `original` end vectors with one forbidden cell moved
    from row m to row m-1, or from row m-1 to row m when not `upward`,
    keeping the sum."""
    src, dst = (-1, -2) if upward else (-2, -1)

    def shifted(parts, n):
        end = list(original(parts, n))
        if len(end) > 1 and end[src] > 0 and parts[dst] + end[dst] < n:
            end[src] -= 1
            end[dst] += 1
        return tuple(end)

    return shifted


def record_checks(monkeypatch, *classes):
    """Record, per class, the parts of every value whose construction check runs."""
    found = {cls: [] for cls in classes}
    for cls in classes:

        def recording(self, check=cls.__post_init__, seen=found[cls]):
            seen.append(self.parts)
            check(self)

        monkeypatch.setattr(cls, "__post_init__", recording)
    return found


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
    """Splitting rows by the literal recursive rule, recomputing every sum.

    None when some splitting row has no next one, which no start vector allows.
    """
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
        if found is None:
            return None
        rows.append(found + 1)
        p = found + 1
    return tuple(rows)


def literal_end_vector(parts, n):
    """End vector from the literal splitting rows and plain block sums: the
    interior rows j of a block q < j < q' get n - parts[j], row q' gets the
    rest of the block total sum(parts[q..q'-1]) (1-based), row 1 gets 0.

    None where `literal_splitting_rows` is None.
    """
    rows = literal_splitting_rows(parts, n)
    if rows is None:
        return None
    end = [0] * len(parts)
    for q, q_next in zip(rows, rows[1:]):
        interior = range(q + 1, q_next)
        for j in interior:
            end[j - 1] = n - parts[j - 1]
        block_total = sum(parts[i - 1] for i in range(q, q_next))
        end[q_next - 1] = block_total - sum(n - parts[j - 1] for j in interior)
    return tuple(end)


def literal_grid(parts, n):
    """Run the three coloring passes on a raw parts tuple, cell by cell.

    Raises TableauConstructionError if the forbidden cells for some source
    row do not fit on the grid, which certifies that `parts` is not a start
    vector.  Valid start vectors never trip this.
    """
    m = len(parts)
    grid = [[None] * n for _ in range(m)]
    for i, a in enumerate(parts):
        for j in range(a):
            grid[i][j] = Fixed()
    for src in range(m - 1):
        need = parts[src]
        for i in range(src + 1, m):
            if need == 0:
                break
            for j in range(n - 1, -1, -1):
                if need == 0:
                    break
                if grid[i][j] is None:
                    grid[i][j] = Forbidden(source=src + 1)
                    need -= 1
        if need:
            raise TableauConstructionError(
                f"row {src + 1} of {parts} needs {need} more forbidden cells than the grid holds"
            )
    order = 1
    for i in range(m - 1, -1, -1):
        for j in range(n):
            if grid[i][j] is None:
                grid[i][j] = Fillable(order)
                order += 1
    return tuple(tuple(row) for row in grid)


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
