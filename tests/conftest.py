"""Shared fixtures, independent brute-force oracles and planted faults.

The oracles here recompute everything from definitions with plain nested
sums and exhaustive scans, on purpose: they share no code with the package
so that a transcription mistake on either side shows up as a disagreement.
The literal greedy grid borrows only the package's cell and error types, so
its output compares with `build_tableau`'s directly.

`FAULTS` names one planted fault per entry, each a wrong version of one
production function; `plant` installs it wherever the package binds that
function, so every caller, and no check, reads the fault.
"""

import importlib
from itertools import product

import pytest

import scdposet
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


def one_more_forbidden_cell(original):
    """A planted fault: `original` end vectors with one more forbidden cell
    in the last row the walk fills, the topmost with a fillable cell, so
    each chain stops one element below its top, on an element of its own."""

    def more(parts, n):
        end = list(original(parts, n))
        free = [i for i, (p, e) in enumerate(zip(parts, end)) if p + e < n]
        if free:
            end[free[0]] += 1
        return tuple(end)

    return more


def locate_off_at_first_close(original):
    """A planted fault: `original` located starts whose part at the first
    block the backward scan closes, the lowest row below m whose part is
    cut back, is one too large (still within [0, c_i])."""

    def located(c, n):
        alpha = list(original(c, n))
        closed = [r for r in range(len(c) - 1) if alpha[r] != c[r]]
        if closed:
            alpha[closed[-1]] += 1
        return tuple(alpha)

    return located


def psi_wrong_at_larger_start(original):
    """A planted fault: `original` psi, except that the larger start of
    each pair maps to itself."""

    def wrong(sv):
        image = original(sv)
        return sv if image.parts < sv.parts else image

    return wrong


def is_keyed_start(parts):
    """The start (1, 0, ..., 0) the keyed faults act on: in every grid with
    m >= 3 it is the larger start of its psi pair, whose smaller start is
    (0, ..., 0, 1, 0)."""
    return parts[0] == 1 and not any(parts[1:])


def walk_editing_keyed_chain(edit):
    """A planted fault: `fill_walk`, with `edit` applied to the walk of the
    keyed start's chain."""

    def make(original):
        def walk(parts, end, n, table, make_element):
            out = original(parts, end, n, table, make_element)
            if is_keyed_start(parts):
                edit(out)
            return out

        return walk

    return make


def _skip_one(out):
    del out[1]


def _repeat_one(out):
    out.insert(1, out[1])


def _swap_two(out):
    out[1], out[2] = out[2], out[1]


def starts_editing_keyed_start(edit):
    """A planted fault: the start enumeration yields the vectors
    `edit(parts, n)` in place of the keyed start `parts`."""

    def make(original):
        def starts(shape):
            for parts in original(shape):
                yield from edit(parts, shape.n) if is_keyed_start(parts) else (parts,)

        return starts

    return make


def middle_non_start(m, n):
    """(0, ..., 0, 1, n, 0): last part 0 and rank within the bound, but for
    m >= 3 and n >= 2 it fails the suffix inequality at t = m - 2 (1-based),
    and only that one."""
    return (0,) * (m - 3) + (1, n, 0)


def _drop(parts, n):
    return ()


def _repeat(parts, n):
    return parts, parts


def _add_non_start(parts, n):
    return parts, middle_non_start(len(parts), n)


def reader_wrong_at_first_interior(original):
    """A planted fault: the run reader, and so `element_at`, returns element
    0 for position 1 of every chain with an interior position."""

    def read(parts, end, n, positions):
        out = original(parts, end, n, positions)
        if len(parts) * n - 2 * sum(parts) > 1:
            out = [tuple(parts) if j == 1 else el for j, el in zip(positions, out)]
        return out

    return read


# name -> (home module, production function, maker of its faulty version)
FAULTS = {
    "alpha_end_parts shifted up": ("starts", "alpha_end_parts", shift_one_forbidden_cell),
    "alpha_end_parts shifted down": (
        "starts",
        "alpha_end_parts",
        lambda original: shift_one_forbidden_cell(original, upward=False),
    ),
    "alpha_end_parts one forbidden cell too many in the last row filled": (
        "starts",
        "alpha_end_parts",
        one_more_forbidden_cell,
    ),
    "locate_parts off by one at a block boundary": ("locate", "locate_parts", locate_off_at_first_close),
    "greedy_counts shifted": ("tableau", "greedy_counts", shift_one_forbidden_cell),
    "psi wrong at the larger start": ("starts", "psi", psi_wrong_at_larger_start),
    "fill_walk skipping one element": ("tableau", "fill_walk", walk_editing_keyed_chain(_skip_one)),
    "fill_walk repeating one element": ("tableau", "fill_walk", walk_editing_keyed_chain(_repeat_one)),
    "fill_walk swapping two elements": ("tableau", "fill_walk", walk_editing_keyed_chain(_swap_two)),
    "iter_start_parts dropping one start": ("starts", "iter_start_parts", starts_editing_keyed_start(_drop)),
    "iter_start_parts repeating one start": ("starts", "iter_start_parts", starts_editing_keyed_start(_repeat)),
    "iter_start_parts yielding a non-start": ("starts", "iter_start_parts", starts_editing_keyed_start(_add_non_start)),
    "element_at wrong at one interior position": ("tableau", "elements_at", reader_wrong_at_first_interior),
}

_PACKAGE_MODULES = ("core", "starts", "tableau", "locate", "decompose", "render", "cli")


def plant(monkeypatch, home, name, make_fault):
    """Replace the function `name` of `scdposet.<home>` with
    `make_fault(original)` in every module of the package that binds it."""
    original = getattr(importlib.import_module(f"scdposet.{home}"), name)
    faulty = make_fault(original)
    modules = [scdposet, *(importlib.import_module(f"scdposet.{m}") for m in _PACKAGE_MODULES)]
    for module in modules:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, faulty)
    return original


def verify_with(monkeypatch, shape, **constants):
    """`verify(shape)` with the named module constants of
    `scdposet.decompose` set first, e.g. `DEFAULT_CAP=0` to sample a grid
    that would otherwise run in full mode."""
    module = importlib.import_module("scdposet.decompose")
    for name, value in constants.items():
        monkeypatch.setattr(module, name, value)
    return module.verify(shape)


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


def bracket_locate(x, n):
    """Start of the chain of `x` by Greene and Kleitman's bracketing
    (J. Combin. Theory Ser. A 20, 1976).

    Read the rows from m down to 1, row i as x[i] closing brackets followed
    by n - x[i] opening ones, and match as in a bracket word.  The start
    keeps only the matched closing brackets of each row: a row's closing
    brackets match the opening ones still unmatched in the rows read before
    it, which `unmatched` counts.
    """
    alpha = [0] * len(x)
    unmatched = 0
    for i in range(len(x) - 1, -1, -1):
        alpha[i] = min(x[i], unmatched)
        unmatched += n - x[i] - alpha[i]
    return tuple(alpha)


def bracket_top(alpha, n):
    """Top of the chain of the start `alpha` in Greene and Kleitman's
    bracketing: write the bracket word of `alpha` as `bracket_locate` reads
    it, match it with a stack, and turn every unmatched opening bracket
    into a closing one."""
    top = list(alpha)
    opens = []  # the row of each opening bracket still unmatched
    for i in range(len(alpha) - 1, -1, -1):
        del opens[max(0, len(opens) - alpha[i]) :]
        opens += [i] * (n - alpha[i])
    for i in opens:
        top[i] += 1
    return tuple(top)


@pytest.fixture(params=SMALL_SHAPES, ids=lambda mn: f"{mn[0]}x{mn[1]}")
def small_shape(request):
    m, n = request.param
    return GridShape(m, n)
