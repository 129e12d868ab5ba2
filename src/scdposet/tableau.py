"""Chain tableaux: the grids that encode chains, and the chains themselves.

Each start vector alpha determines an m-by-n tableau built in three passes:

  1. In every row i, the leftmost alpha[i] cells are *fixed*.
  2. For each source row i = 1..m-1 in turn, alpha[i] further cells are
     *forbidden*: reading unclaimed cells right to left within a row and
     top to bottom starting at row i+1, the first alpha[i] of them are taken.
  3. The remaining *fillable* cells are numbered 1, 2, 3, ... scanning rows
     bottom to top and left to right within each row.

Adding the fillable cells to alpha one at a time, in numbering order, walks
a saturated chain in the grid poset from alpha up to its complement-symmetric
end point.  Those chains, over all start vectors, partition the poset.

Row i holds n - alpha[i] - e[i] fillable cells, where e is the end vector
(the closed form for the forbidden counts, which `starts.start_end`
returns when it certifies the start), so chains are built from e alone and
never color a grid.  One walk over the parts and e (`fill_walk`) builds
every chain from a table indexed by part value, so each row's run of fills
is one slice of it: the values 0..n give parts tuples for
`chain_elements`, which reads the parts and `.end` of a `StartVector`, and
the n + 1 part strings, made once per shape, give the CLI's `decompose`
its JSON array text straight from each odometer tuple and its certified
end vector, with no value object per chain.  Every row is a fixed
prefix, one free run and a forbidden suffix, so the greedy rule of pass 2
runs on per-row counts alone (`greedy_counts`, O(m)).  Those counts are
its one implementation: verify's cross-checks against the closed form
read them, and `build_tableau` colors the grid for rendering from them,
row by row.  The cell-by-cell greedy simulation lives in the tests, as
their oracle.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .core import Composition, Frozen, GridShape, _set, rank
from .starts import StartVector


class TableauConstructionError(RuntimeError):
    """Greedy forbidden-cell placement ran out of grid; the input was not a start vector."""


class Fixed(Frozen):
    """Cell claimed by the start vector itself."""

    __slots__ = ()


class Forbidden(Frozen):
    """Cell blocked by a source row above; source is 1-based, None if unknown."""

    __slots__ = ("source",)

    def __init__(self, source: int | None = None) -> None:
        _set(self, "source", source)


class Fillable(Frozen):
    """Cell filled at position `order` (1-based) along the chain."""

    __slots__ = ("order",)

    def __init__(self, order: int) -> None:
        _set(self, "order", order)


CellState = Fixed | Forbidden | Fillable

Cells = tuple[tuple[CellState, ...], ...]


def greedy_counts(parts: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Per-row forbidden-cell counts of pass 2, without the grid.

    Each source row takes its cells from the free runs of the rows below
    it, top down; rows it empties stay empty for every later source, so one
    pointer walks the rows, keeping the free cells `left` on its row, and
    the cost is O(m).  Raises TableauConstructionError where the grid holds
    too few free cells below some source row.
    """
    m = len(parts)
    forbidden = [0] * m
    # `left` free cells remain on `row`; the rows between the current source
    # and `row` have none
    row = left = 0
    for src in range(m - 1):
        need = parts[src]
        if row <= src:
            row = src + 1
            left = n - parts[row]
        while need:
            if row == m:
                raise TableauConstructionError(
                    f"row {src + 1} of {parts} needs {need} more forbidden cells than the grid holds"
                )
            if need < left:
                forbidden[row] += need
                left -= need
                break
            forbidden[row] += left
            need -= left
            row += 1
            if row < m:
                left = n - parts[row]
    return tuple(forbidden)


class ChainTableau(Frozen):
    """The colored grid of a start vector."""

    __slots__ = ("alpha", "cells")

    def __init__(self, alpha: StartVector, cells: Cells) -> None:
        _set(self, "alpha", alpha)
        _set(self, "cells", cells)

    @property
    def shape(self) -> GridShape:
        return self.alpha.shape


def build_tableau(alpha: StartVector) -> ChainTableau:
    """Color the grid of `alpha` from the per-row counts of pass 2.

    Row i is alpha[i] fixed cells, its run of n - alpha[i] - counts[i]
    fillable cells, then counts[i] forbidden ones.  Read top down and right
    to left within a row, the forbidden cells go to the source rows in
    order, each taking alpha[src] of them, so one pointer over the sources
    reads each cell's source off the counts.
    """
    parts, n = alpha.parts, alpha.shape.n
    counts = greedy_counts(parts, n)
    # the K = m*n - 2*sum(parts) fill numbers run bottom row first, so the
    # top row's run ends at K and each row's run ends below the one above
    stop = alpha.shape.top_rank - 2 * sum(parts) + 1
    src, need = 0, parts[0]
    rows = []
    for a, k in zip(parts, counts):
        start = stop - (n - a - k)
        suffix: list[CellState] = []
        while k:
            while not need:
                src += 1
                need = parts[src]
            take = min(need, k)
            suffix += [Forbidden(src + 1)] * take
            need -= take
            k -= take
        rows.append((*[Fixed()] * a, *map(Fillable, range(start, stop)), *reversed(suffix)))
        stop = start
    return ChainTableau(alpha, tuple(rows))


def alpha_end_from_tableau(t: ChainTableau) -> tuple[int, ...]:
    """Per-row forbidden-cell counts read off the grid."""
    return tuple(sum(1 for cell in row if isinstance(cell, Forbidden)) for row in t.cells)


class Chain(Frozen):
    """A saturated chain of the decomposition, fully materialized.

    `elements` are parts tuples in increasing rank, from `alpha.parts` to the
    complement-symmetric end; the chain is certified once, through `alpha`,
    whose `alpha.end` is the end vector the walk read.
    """

    __slots__ = ("alpha", "elements")

    def __init__(self, alpha: StartVector, elements: tuple[tuple[int, ...], ...]) -> None:
        _set(self, "alpha", alpha)
        _set(self, "elements", elements)

    def __len__(self) -> int:
        return len(self.elements)


def fill_walk(parts: tuple[int, ...], end: tuple[int, ...], n: int, table: Sequence, make: Callable) -> list:
    """`make(cur)` for each element of the chain of the start `parts`, in
    increasing rank.

    `end` is the end vector e of `parts` as `starts.start_end` certified
    it; the walk trusts it and checks nothing.  `table[p]` is the cell of
    part value p, for p in 0..n, and a slice of `table` gives the cells of
    consecutive values: the values 0..n walk parts, a list of the n + 1
    part strings walks JSON text.  `cur` starts as `table[p]` for each part
    p; in fill order, bottom row first, row i then takes the slice
    `table[parts[i] + 1 : n - e[i] + 1]`, so a row run is one slice and no
    cell is made per element.
    """
    cur = [*map(table.__getitem__, parts)]
    out = [make(cur)]
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] + end[i] < n:  # most rows of a short chain are full; take no empty slice
            for cur[i] in table[parts[i] + 1 : n - end[i] + 1]:
                out.append(make(cur))
    return out


def chain_elements(alpha: StartVector) -> Chain:
    """Materialize the chain of `alpha` as parts tuples, from `fill_walk`.

    The walk's table is the part values 0..n: a list for a chain longer
    than n, since a list slices faster than a range, and the range itself
    for a shorter chain, which would not repay building the list."""
    parts = alpha.parts
    n = alpha.shape.n
    # the chain has m*n - 2*sum(parts) + 1 elements
    table = [*range(n + 1)] if (len(parts) - 1) * n >= 2 * sum(parts) else range(n + 1)
    return Chain(alpha, tuple(fill_walk(parts, alpha.end, n, table, tuple)))


def element_at(alpha: StartVector, j: int) -> Composition:
    """The j-th element of the chain of `alpha` (j = 0 is alpha itself).

    Runs in O(m) from the per-row fillable capacities, without building the
    tableau: the first fills go to the bottom row, then the one above, and
    so on, so element j adds full capacities below a frontier row and a
    partial count on it.
    """
    parts = alpha.parts
    n = alpha.shape.n
    end = alpha.end
    total = alpha.shape.top_rank - 2 * sum(parts)
    if not 0 <= j <= total:
        raise IndexError(f"chain of {parts} has positions 0..{total}, got {j}")
    out = list(parts)
    left = j
    for i in range(len(parts) - 1, -1, -1):
        if left == 0:
            break
        d = n - parts[i] - end[i]
        take = d if d < left else left
        out[i] += take
        left -= take
    # each row gains at most its capacity, so parts stay in [alpha_i, n]
    return Composition._derived(alpha.shape, tuple(out))


def chain_contains(alpha: StartVector, c: Composition) -> bool:
    """True iff `c` lies on the chain of `alpha`. O(m)."""
    if c.shape != alpha.shape:
        return False
    j = rank(c) - sum(alpha.parts)
    if j < 0 or j > alpha.shape.top_rank - 2 * sum(alpha.parts):
        return False
    return element_at(alpha, j).parts == c.parts


def strip_sources(cells: Cells) -> Cells:
    """Drop forbidden-source annotations so grids compare structurally."""
    return tuple(
        tuple(Forbidden() if isinstance(cell, Forbidden) else cell for cell in row) for row in cells
    )


def rotate_180(t: ChainTableau | Cells) -> Cells:
    """Rotate a tableau grid half a turn, swapping fixed and forbidden roles.

    Fill numbers k become K+1-k for K fillable cells; source annotations do
    not survive.  For a start vector alpha the result equals the tableau of
    psi(alpha) up to those annotations.
    """
    cells = t.cells if isinstance(t, ChainTableau) else t
    k_total = sum(1 for row in cells for cell in row if isinstance(cell, Fillable))
    out = []
    for i in range(len(cells) - 1, -1, -1):
        new_row: list[CellState] = []
        for j in range(len(cells[i]) - 1, -1, -1):
            cell = cells[i][j]
            if isinstance(cell, Fixed):
                new_row.append(Forbidden())
            elif isinstance(cell, Forbidden):
                new_row.append(Fixed())
            else:
                new_row.append(Fillable(k_total + 1 - cell.order))
        out.append(tuple(new_row))
    return tuple(out)
