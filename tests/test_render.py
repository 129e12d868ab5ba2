import pytest
from hypothesis import given
from hypothesis import strategies as st

from scdposet import (
    StartVector,
    build_tableau,
    locate,
    parse_ascii,
    render_ascii,
    render_svg,
    strip_sources,
    tableau_payload,
)
from scdposet.core import Composition
from scdposet.starts import iter_start_parts


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
            alpha, cells = parse_ascii(render_ascii(t))
            assert alpha == sv.parts
            assert cells == strip_sources(t.cells)

    def test_parse_rejects_missing_header(self):
        with pytest.raises(ValueError):
            parse_ascii("  1   2\n  3   4")

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
