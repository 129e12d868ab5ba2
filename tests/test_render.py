import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

import scdposet.render
from scdposet import (
    StartVector,
    build_tableau,
    locate,
    parse_ascii,
    render_ascii,
    render_svg,
    tableau_payload,
)
from scdposet.core import Composition
from scdposet.starts import iter_start_parts
from scdposet.tableau import strip_sources

# `scdposet render --alpha 1,3,2,0 -n 4`, without the newline the CLI adds
WORKED_EXAMPLE = "alpha=1,3,2,0 alphaE=0,1,2,3\n  G   2   3   4\n  G   G   G   X\n  G   G   X   X\n  1   X   X   X"


class TestRenderAscii:
    def test_zero_alpha_2x2(self):
        text = render_ascii(build_tableau(StartVector.of((0, 0), 2)))
        assert text.splitlines() == [
            "alpha=0,0 alphaE=0,0",
            "  3   4",
            "  1   2",
        ]

    def test_second_worked_example(self):
        text = render_ascii(build_tableau(StartVector.of((1, 3, 2, 0), 4)))
        assert text.splitlines() == [
            "alpha=1,3,2,0 alphaE=0,1,2,3",
            "  G   2   3   4",
            "  G   G   G   X",
            "  G   G   X   X",
            "  1   X   X   X",
        ]

    def test_round_trip(self, small_shape):
        for parts in iter_start_parts(small_shape):
            sv = StartVector.of(parts, small_shape.n)
            t = build_tableau(sv)
            text = render_ascii(t)
            for rendered in (text, text + "\n"):
                alpha, cells = parse_ascii(rendered)
                assert alpha == sv.parts
                assert cells == strip_sources(t.cells)

    @pytest.mark.parametrize(
        "text, message",
        [
            (WORKED_EXAMPLE.replace("  G   2", "G   2"), "row 1 is 'G   2   3   4'; render_ascii writes '  G   2   3   4'"),
            ("\n" + WORKED_EXAMPLE, "header line is not"),
            (WORKED_EXAMPLE.replace("X\n", "X\n   \n", 1), "expected 4 rows of equal length, got [4, 4, 0, 4, 4]"),
            (WORKED_EXAMPLE + "\n\n", "expected 4 rows of equal length, got [4, 4, 4, 4, 0]"),
        ],
        ids=["row-without-its-pad", "leading-blank-line", "blank-line-between-rows", "second-trailing-newline"],
    )
    def test_parse_accepts_one_trailing_newline_and_no_other_whitespace(self, text, message):
        # render_ascii writes no blank line and pads every cell; the CLI adds
        # one newline, so parse_ascii takes the text with or without it
        t = build_tableau(StartVector.of((1, 3, 2, 0), 4))
        assert render_ascii(t) == WORKED_EXAMPLE
        for rendered in (WORKED_EXAMPLE, WORKED_EXAMPLE + "\n"):
            assert parse_ascii(rendered) == ((1, 3, 2, 0), strip_sources(t.cells))
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_ascii(text)

    def test_parse_rejects_missing_header(self):
        with pytest.raises(ValueError):
            parse_ascii("  1   2\n  3   4")

    @pytest.mark.parametrize("token", ["1_0", "+2", "\u0663", "-4", "0"])
    def test_parse_rejects_fill_tokens_render_never_writes(self, token):
        # int() would read these as 10, 2, 3, -4, 0; render writes only
        # ASCII decimals from 1 up, as parse_parts reads only ASCII decimals
        with pytest.raises(ValueError, match="row 1, cell 1 is '1'; render_ascii writes '3' there"):
            parse_ascii(f"alpha=0,0 alphaE=0,0\n  1   G\n  X {token:>3}")
        # the same token in place of the last fill number of a rendered grid
        with pytest.raises(ValueError, match=re.escape(f"row 2, cell 2 is {token!r}; render_ascii writes '2' there")):
            parse_ascii(f"alpha=0,0 alphaE=0,0\n  3   4\n  1 {token:>3}")

    @pytest.mark.parametrize(
        "text",
        [
            "alpha=0,0 alphaE=0,0\n  7   7\n  7   7",
            "alpha=0,0 alphaE=0,0\n  3   4\n  2   1",
            "alpha=0,0 alphaE=0,0\n  1   2\n  3   4",
            "alpha=0,0 alphaE=0,0\n  3   5\n  1   2",
            "alpha=1,3,2,0 alphaE=0,1,2,3\n  G   3   2   4\n  G   G   G   X\n  G   G   X   X\n  1   X   X   X",
        ],
        ids=["one-number-four-times", "swapped-pair", "numbered-top-down", "gap", "swapped-pair-worked-example"],
    )
    def test_parse_rejects_fill_numbers_render_never_writes(self, text):
        # render numbers the K fillable cells 1..K bottom to top, left to right
        with pytest.raises(ValueError, match=r"row \d, cell \d is '\d'; render_ascii writes '\d' there"):
            parse_ascii(text)

    @pytest.mark.parametrize(
        "rows",
        [["  1   2", "  3"], ["  1   2"], ["  1   2", "  3   4", "  5   6"]],
        ids=["ragged", "too-few", "too-many"],
    )
    def test_parse_rejects_grid_not_of_alpha_rows(self, rows):
        with pytest.raises(ValueError, match="rows of equal length"):
            parse_ascii("\n".join(["alpha=0,0 alphaE=0,0", *rows]))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("alpha=0,0 alphaE=9,9,9 junk\n  1   2\n  3   4", "header line"),
            ("alpha=0,0\n  3   4\n  1   2", "header line"),
            ("alpha=0,0 alphaE=0\n  3   4\n  1   2", "header 'alpha=0,0 alphaE=0' is not 'alpha=0,0 alphaE=0,0'"),
            ("alpha=5,5 alphaE=0,0\n  G   G\n  G   G", r"^part 1 \(5\) is outside \[0, 2\]$"),
            ("alpha=0,0 alphaE=0,1\n  3   4\n  1   2", "header 'alpha=0,0 alphaE=0,1' is not 'alpha=0,0 alphaE=0,0'"),
        ],
        ids=["extra-header-fields", "no-alphaE", "short-alphaE", "alpha-over-grid", "missing-forbidden-cell"],
    )
    def test_parse_rejects_header_or_cell_counts_render_never_writes(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_ascii(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("alpha=0,1 alphaE=0,0\n  2   3\n  G   1", r"\(0, 1\) is not a start vector for n=2"),
            ("alpha=0,0 alphaE=0,1\n  2   3\n  1   X", "header 'alpha=0,0 alphaE=0,1' is not 'alpha=0,0 alphaE=0,0'"),
            ("alpha=1,0 alphaE=0,1\n  2   G\n  1   X", "row 1, cell 1 is '2'; render_ascii writes 'G' there"),
            ("alpha=1,0 alphaE=0,1\n  G   2\n  X   1", "row 2, cell 1 is 'X'; render_ascii writes '1' there"),
        ],
        ids=["alpha-not-a-start", "wrong-alphaE", "fixed-right-of-a-fill", "forbidden-left-of-a-fill"],
    )
    def test_parse_rejects_texts_whose_cell_counts_agree(self, text, message):
        # each row holds as many fixed and forbidden cells as the header
        # says, and the fill numbers run 1..K bottom to top, left to right,
        # yet render_ascii writes none of these texts
        with pytest.raises(ValueError, match=message):
            parse_ascii(text)

    def test_parse_refuses_a_mis_shaped_body_before_building_cells(self, monkeypatch):
        def refuse(sv):
            raise AssertionError(f"tableau built for {sv.shape}")

        monkeypatch.setattr(scdposet.render, "build_tableau", refuse)
        zeros = ",".join(["0"] * 10**5)
        with pytest.raises(ValueError, match=r"expected 100000 rows of equal length, got \[2\] cells per row"):
            parse_ascii(f"alpha={zeros} alphaE={zeros}\n  1   2")

    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 10**6))
    def test_round_trip_random_alpha(self, m, n, pick):
        # random composition -> its chain start is a valid render input
        parts = []
        x = pick
        for _ in range(m):
            parts.append(x % (n + 1))
            x //= n + 1
        sv = locate(Composition.of(parts, n))
        t = build_tableau(sv)
        alpha, cells = parse_ascii(render_ascii(t))
        assert alpha == sv.parts
        assert cells == strip_sources(t.cells)


class TestTableauPayload:
    def test_states_and_counts(self):
        payload = tableau_payload(build_tableau(StartVector.of((1, 3, 2, 0), 4)))
        assert payload["alpha"] == [1, 3, 2, 0]
        assert payload["alpha_end"] == [0, 1, 2, 3]
        states = [cell["state"] for row in payload["cells"] for cell in row]
        assert states.count("fixed") == 6
        assert states.count("forbidden") == 6
        assert states.count("fillable") == 4
        # sources survive, unlike in the ascii form
        assert payload["cells"][1][3] == {"state": "forbidden", "source": 1}


class TestRenderSvg:
    def test_has_one_rect_per_cell(self):
        t = build_tableau(StartVector.of((1, 3, 2, 0), 4))
        svg = render_svg(t)
        assert svg.startswith("<svg")
        assert svg.count("<rect") == 16
        # four fillable cells get their numbers drawn
        assert svg.count("<text") == 4
