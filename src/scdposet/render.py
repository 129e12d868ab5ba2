"""Text and SVG views of chain tableaux.

The ASCII form is a contract: `parse_ascii` reconstructs the cell grid (up
to forbidden-source annotations, which the text does not carry) from the
output of `render_ascii`.  SVG output is presentation only.
"""

from __future__ import annotations

from .core import format_parts, parse_parts
from .starts import alpha_end_parts
from .tableau import Cells, ChainTableau, Fillable, Fixed, Forbidden

FIXED_GLYPH = "G"
FORBIDDEN_GLYPH = "X"

CELL_SIZE = 28
FIXED_COLOR = "#7bc043"
FORBIDDEN_COLOR = "#bdbdbd"
FILLABLE_COLOR = "#ffffff"


def render_ascii(t: ChainTableau) -> str:
    """Render a tableau as a header line plus m rows of 3-wide cells.

    Fixed cells show `G`, forbidden cells `X`, fillable cells their fill
    number; every cell is right-aligned to width 3 and cells are separated
    by single spaces.
    """
    parts = t.alpha.parts
    header = f"alpha={format_parts(parts)} alphaE={format_parts(alpha_end_parts(parts, t.shape.n))}"
    lines = [header]
    for row in t.cells:
        toks = []
        for cell in row:
            if isinstance(cell, Fixed):
                toks.append(f"{FIXED_GLYPH:>3}")
            elif isinstance(cell, Forbidden):
                toks.append(f"{FORBIDDEN_GLYPH:>3}")
            else:
                toks.append(f"{cell.order:>3}")
        lines.append(" ".join(toks))
    return "\n".join(lines)


def parse_ascii(text: str) -> tuple[tuple[int, ...], Cells]:
    """Parse render_ascii output back into (alpha parts, cell grid).

    Forbidden cells come back without their source row; everything else is
    exact.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or not lines[0].startswith("alpha="):
        raise ValueError("missing alpha= header line")
    header = lines[0].split()
    alpha = parse_parts(header[0].removeprefix("alpha="))
    rows = []
    for line in lines[1:]:
        row: list = []
        for tok in line.split():
            if tok == FIXED_GLYPH:
                row.append(Fixed())
            elif tok == FORBIDDEN_GLYPH:
                row.append(Forbidden())
            else:
                row.append(Fillable(int(tok)))
        rows.append(tuple(row))
    return alpha, tuple(rows)


def tableau_payload(t: ChainTableau) -> dict:
    """Lossless JSON form of a tableau, forbidden sources included."""
    cells = []
    for row in t.cells:
        out_row = []
        for cell in row:
            if isinstance(cell, Fixed):
                out_row.append({"state": "fixed"})
            elif isinstance(cell, Forbidden):
                out_row.append({"state": "forbidden", "source": cell.source})
            else:
                out_row.append({"state": "fillable", "order": cell.order})
        cells.append(out_row)
    return {
        "m": t.shape.m,
        "n": t.shape.n,
        "alpha": list(t.alpha.parts),
        "alpha_end": list(alpha_end_parts(t.alpha.parts, t.shape.n)),
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
            if isinstance(cell, Fixed):
                color = FIXED_COLOR
            elif isinstance(cell, Forbidden):
                color = FORBIDDEN_COLOR
            else:
                color = FILLABLE_COLOR
            out.append(
                f'<rect x="{x}" y="{y}" width="{s}" height="{s}" '
                f'fill="{color}" stroke="#333333" stroke-width="1"/>'
            )
            if isinstance(cell, Fillable):
                out.append(
                    f'<text x="{x + s / 2:g}" y="{y + s / 2:g}" font-size="{s // 2}" '
                    f'text-anchor="middle" dominant-baseline="central">{cell.order}</text>'
                )
    out.append("</svg>")
    return "\n".join(out)
