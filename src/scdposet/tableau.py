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
(`starts.alpha_end`, the closed form for the forbidden counts), so chains
are built from e alone and never color a grid.  Every row is a fixed
prefix, one free run and a forbidden suffix, so the greedy rule of pass 2
also runs on per-row counts alone (`greedy_counts`); verify's cross-checks
against the closed form read those counts.  The greedy grid here is
deliberately literal; it serves rendering and is the tests' reference for
`greedy_counts`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Composition, GridShape, rank
from .starts import StartVector, alpha_end_parts


class TableauConstructionError(RuntimeError):
    """Greedy forbidden-cell placement ran out of grid; the input was not a start vector."""


@dataclass(frozen=True, slots=True)
class Fixed:
    """Cell claimed by the start vector itself."""


@dataclass(frozen=True, slots=True)
class Forbidden:
    """Cell blocked by a source row above; source is 1-based, None if unknown."""

    source: int | None = None


@dataclass(frozen=True, slots=True)
class Fillable:
    """Cell filled at position `order` (1-based) along the chain."""

    order: int


CellState = Fixed | Forbidden | Fillable

Cells = tuple[tuple[CellState, ...], ...]


def build_grid_cells(parts: tuple[int, ...], n: int) -> Cells:
    """Run the three coloring passes on a raw parts tuple.

    Raises TableauConstructionError if the forbidden cells for some source
    row do not fit on the grid, which certifies that `parts` is not a start
    vector.  Valid start vectors never trip this.
    """
    m = len(parts)
    grid: list[list[CellState | None]] = [[None] * n for _ in range(m)]
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
    return tuple(tuple(row) for row in grid)  # type: ignore[arg-type]


def greedy_counts(parts: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Per-row forbidden-cell counts of pass 2, without the grid.

    Each source row takes its cells from the free runs of the rows below
    it, top down; rows it empties stay empty for every later source, so one
    pointer walks the rows and the cost is O(m).  Raises
    TableauConstructionError exactly where `build_grid_cells` does.
    """
    m = len(parts)
    free = [n - a for a in parts]
    forbidden = [0] * m
    row = 1  # the rows between the current source and `row` have no free cell
    for src in range(m - 1):
        need = parts[src]
        row = max(row, src + 1)
        while need:
            if row == m:
                raise TableauConstructionError(
                    f"row {src + 1} of {parts} needs {need} more forbidden cells than the grid holds"
                )
            take = min(need, free[row])
            free[row] -= take
            forbidden[row] += take
            need -= take
            if not free[row]:
                row += 1
    return tuple(forbidden)


@dataclass(frozen=True, slots=True)
class ChainTableau:
    """The colored grid of a start vector."""

    alpha: StartVector
    cells: Cells

    @property
    def shape(self) -> GridShape:
        return self.alpha.shape


def build_tableau(alpha: StartVector) -> ChainTableau:
    """Color the grid of `alpha` by direct greedy simulation."""
    return ChainTableau(alpha, build_grid_cells(alpha.parts, alpha.shape.n))


def alpha_end_from_tableau(t: ChainTableau) -> tuple[int, ...]:
    """Per-row forbidden-cell counts read off the grid."""
    return tuple(sum(1 for cell in row if isinstance(cell, Forbidden)) for row in t.cells)


@dataclass(frozen=True, slots=True)
class Chain:
    """A saturated chain of the decomposition, fully materialized.

    `elements` are parts tuples in increasing rank, from `alpha.parts` to the
    complement-symmetric end; the chain is certified once, through `alpha`.
    """

    alpha: StartVector
    alpha_end: tuple[int, ...]
    elements: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.elements)


def chain_elements(alpha: StartVector) -> Chain:
    """Materialize the chain of `alpha` by walking its end vector.

    The walk is the tableau's fill order: the bottom row first, up to its
    capacity n - alpha[i] - e[i], then the row above, and so on.
    """
    parts = alpha.parts
    n = alpha.shape.n
    end = alpha_end_parts(parts, n)
    cur = list(parts)
    elements = [parts]
    for i in range(len(parts) - 1, -1, -1):
        for _ in range(n - parts[i] - end[i]):
            cur[i] += 1
            elements.append(tuple(cur))
    return Chain(alpha, end, tuple(elements))


def element_at(alpha: StartVector, j: int) -> Composition:
    """The j-th element of the chain of `alpha` (j = 0 is alpha itself).

    Runs in O(m) from the per-row fillable capacities, without building the
    tableau: the first fills go to the bottom row, then the one above, and
    so on, so element j adds full capacities below a frontier row and a
    partial count on it.
    """
    parts = alpha.parts
    n = alpha.shape.n
    end = alpha_end_parts(parts, n)
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
    return Composition(alpha.shape, tuple(out))


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
