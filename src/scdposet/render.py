"""Text and SVG views of chain tableaux.

The ASCII form is a contract: `parse_ascii` reconstructs the cell grid (up
to forbidden-source annotations, which the text does not carry) from the
output of `render_ascii`, and accepts no other text.  SVG output is
presentation only.
"""

from __future__ import annotations

from .core import format_parts, parse_parts
from .starts import StartVector
from .tableau import Cells, ChainTableau, Fillable, Fixed, Forbidden, build_tableau, strip_sources

# The CLI refuses to render grids with more cells than this, before any
# cell is built: one cell object each, and an SVG of 10**5 cells is about
# 80 MB resident.
MAX_RENDER_CELLS = 100_000

CELL_SIZE = 28

# cell class -> (JSON state, ASCII glyph, SVG fill); a fillable cell's glyph
# is its fill number
CELL_LOOKS = {
    Fixed: ("fixed", "G", "#7bc043"),
    Forbidden: ("forbidden", "X", "#bdbdbd"),
    Fillable: ("fillable", None, "#ffffff"),
}


def render_ascii(t: ChainTableau) -> str:
    """Render a tableau as a header line plus m rows of 3-wide cells.

    Fixed cells show `G`, forbidden cells `X`, fillable cells their fill
    number; every cell is right-aligned to width 3 and cells are separated
    by single spaces.
    """
    header = f"alpha={format_parts(t.alpha.parts)} alphaE={format_parts(t.alpha.end)}"
    lines = [header]
    for row in t.cells:
        toks = []
        for cell in row:
            toks.append(f"{CELL_LOOKS[cell.__class__][1] or cell.order:>3}")
        lines.append(" ".join(toks))
    return "\n".join(lines)


def parse_ascii(text: str) -> tuple[tuple[int, ...], Cells]:
    """Parse render_ascii output back into (alpha parts, cell grid).

    Forbidden cells come back without their source row; everything else is
    exact.  The text is checked by rendering alpha again: it must hold a
    header `alpha=<parts> alphaE=<parts>` and one row per part of alpha,
    all of one width n, checked before any cell is built; then the header
    and the cells, row by row, must be those `render_ascii` writes for the
    tableau of alpha in N(m, n).  The text may end in one newline, as the
    CLI writes it, and holds no other line or space that `render_ascii`
    does not write.  Raises ValueError otherwise, naming the first line
    that differs.
    """
    lines = text.removesuffix("\n").split("\n")
    header = lines[0].split(" ")
    if len(header) != 2 or not header[0].startswith("alpha=") or not header[1].startswith("alphaE="):
        raise ValueError("header line is not alpha=<parts> alphaE=<parts>")
    alpha = parse_parts(header[0].removeprefix("alpha="))
    rows = [line.split() for line in lines[1:]]
    if len(rows) != len(alpha) or len({len(row) for row in rows}) != 1:
        raise ValueError(f"expected {len(alpha)} rows of equal length, got {[len(row) for row in rows]} cells per row")
    t = build_tableau(StartVector.of(alpha, len(rows[0])))
    expected = render_ascii(t).split("\n")
    if lines[0] != expected[0]:
        raise ValueError(f"header {lines[0]!r} is not {expected[0]!r}, which render_ascii writes for this alpha")
    for i, (row, line, want_line) in enumerate(zip(rows, lines[1:], expected[1:]), 1):
        want = want_line.split()
        if row != want:
            j = next(j for j, (got, cell) in enumerate(zip(row, want)) if got != cell)
            raise ValueError(f"row {i}, cell {j + 1} is {row[j]!r}; render_ascii writes {want[j]!r} there")
        if line != want_line:
            raise ValueError(f"row {i} is {line!r}; render_ascii writes {want_line!r}")
    return alpha, strip_sources(t.cells)


def tableau_payload(t: ChainTableau) -> dict:
    """Lossless JSON form of a tableau, forbidden sources included."""
    cells = []
    for row in t.cells:
        out_row = []
        for cell in row:
            # the state, then the cell's one field if it has one
            out_row.append({"state": CELL_LOOKS[cell.__class__][0], **{f: getattr(cell, f) for f in cell._fields}})
        cells.append(out_row)
    return {
        "m": t.shape.m,
        "n": t.shape.n,
        "alpha": list(t.alpha.parts),
        "alpha_end": list(t.alpha.end),
        "cells": cells,
    }


def render_svg(t: ChainTableau) -> str:
    """Render a tableau as a standalone SVG grid with numbered fillable cells."""
    m, n = t.shape.m, t.shape.n
    s = CELL_SIZE
    width, height = n * s + 2, m * s + 2
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    for i, row in enumerate(t.cells):
        for j, cell in enumerate(row):
            x, y = j * s + 1, i * s + 1
            _, glyph, fill = CELL_LOOKS[cell.__class__]
            out.append(
                f'<rect x="{x}" y="{y}" width="{s}" height="{s}" '
                f'fill="{fill}" stroke="#333333" stroke-width="1"/>'
            )
            if glyph is None:
                out.append(
                    f'<text x="{x + s / 2:g}" y="{y + s / 2:g}" font-size="{s // 2}" '
                    f'text-anchor="middle" dominant-baseline="central">{cell.order}</text>'
                )
    out.append("</svg>")
    return "\n".join(out)
