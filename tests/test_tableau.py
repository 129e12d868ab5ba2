import json
import random
import tracemalloc
from itertools import product

import pytest

from scdposet import (
    ChainTableau,
    Composition,
    Fillable,
    Fixed,
    Forbidden,
    GridShape,
    StartVector,
    build_tableau,
    chain_contains,
    chain_elements,
    decompose,
    element_at,
    locate,
    psi,
)
from scdposet import cli, tableau
from scdposet.core import covers, star
from scdposet.starts import alpha_end_parts, iter_start_parts
from scdposet.tableau import (
    TableauConstructionError,
    alpha_end_from_tableau,
    fill_walk,
    greedy_counts,
    rotate_180,
    strip_sources,
)

from conftest import SMALL_SHAPES, all_parts, dbtk_chains, literal_grid

SAMPLE_A = StartVector.of((2, 0, 5, 0), 6)
SAMPLE_A_CHAIN = [
    (2, 0, 5, 0), (2, 0, 5, 1), (2, 0, 6, 1), (2, 1, 6, 1), (2, 2, 6, 1), (2, 3, 6, 1),
    (2, 4, 6, 1), (3, 4, 6, 1), (4, 4, 6, 1), (5, 4, 6, 1), (6, 4, 6, 1),
]
SAMPLE_B = StartVector.of((1, 3, 2, 0), 4)
SAMPLE_B_CHAIN = [(1, 3, 2, 0), (1, 3, 2, 1), (2, 3, 2, 1), (3, 3, 2, 1), (4, 3, 2, 1)]


class TestBuildTableau:
    def test_forbidden_counts_worked_example(self):
        assert alpha_end_from_tableau(build_tableau(SAMPLE_A)) == (0, 2, 0, 5)

    def test_forbidden_counts_second_example(self):
        assert alpha_end_from_tableau(build_tableau(SAMPLE_B)) == (0, 1, 2, 3)

    def test_zero_alpha_all_fillable(self):
        t = build_tableau(StartVector.of((0, 0, 0), 2))
        orders = [cell.order for row in t.cells for cell in row]
        assert all(isinstance(cell, Fillable) for row in t.cells for cell in row)
        # numbered bottom row first, left to right
        assert orders == [5, 6, 3, 4, 1, 2]

    def test_fixed_cells_are_leftmost(self, small_shape):
        n = small_shape.n
        for parts in iter_start_parts(small_shape):
            sv = StartVector.of(parts, small_shape.n)
            t = build_tableau(sv)
            for i, row in enumerate(t.cells):
                a = sv.parts[i]
                assert all(isinstance(cell, Fixed) for cell in row[:a])
                assert not any(isinstance(cell, Fixed) for cell in row[a:])

    def test_fill_orders_are_a_permutation(self, small_shape):
        top = small_shape.top_rank
        for parts in iter_start_parts(small_shape):
            sv = StartVector.of(parts, small_shape.n)
            t = build_tableau(sv)
            orders = sorted(cell.order for row in t.cells for cell in row if isinstance(cell, Fillable))
            assert orders == list(range(1, top - 2 * sum(sv.parts) + 1))

    def test_forbidden_sources_lie_below_their_row(self, small_shape):
        for parts in iter_start_parts(small_shape):
            sv = StartVector.of(parts, small_shape.n)
            t = build_tableau(sv)
            counts = [0] * small_shape.m
            for i, row in enumerate(t.cells):
                for cell in row:
                    if isinstance(cell, Forbidden):
                        assert cell.source is not None and i + 1 >= cell.source + 1
                        counts[cell.source - 1] += 1
            # every source row spawns exactly its own part count
            assert tuple(counts[: small_shape.m - 1]) == sv.parts[: small_shape.m - 1]

    def test_equals_the_literal_grid_sources_included(self):
        # cells and forbidden sources, on every start of the small shapes
        # and four larger grids
        count = 0
        for m, n in [*SMALL_SHAPES, (6, 4), (5, 6), (8, 3), (3, 20)]:
            for parts in iter_start_parts(GridShape(m, n)):
                sv = StartVector.of(parts, n)
                assert build_tableau(sv) == ChainTableau(sv, literal_grid(parts, n)), parts
                count += 1
        assert count == 11_879

    def test_overflow_raises_for_non_start(self):
        with pytest.raises(TableauConstructionError):
            greedy_counts((2, 2, 0), 2)
        # the count-only greedy rule raises exactly where the literal grid
        # does, on every composition, and otherwise gives its forbidden counts
        for m, n in SMALL_SHAPES:
            if m > 5:
                continue
            for parts in product(range(n + 1), repeat=m):
                try:
                    cells = literal_grid(parts, n)
                    expected = tuple(sum(isinstance(cell, Forbidden) for cell in row) for row in cells)
                except TableauConstructionError:
                    expected = None
                try:
                    got = greedy_counts(parts, n)
                except TableauConstructionError:
                    got = None
                assert got == expected, (parts, n)


class TestChainElements:
    def test_worked_example_chain(self):
        ch = chain_elements(SAMPLE_A)
        assert list(ch.elements) == SAMPLE_A_CHAIN
        assert ch.elements[0] == (2, 0, 5, 0)
        assert ch.elements[-1] == (6, 4, 6, 1)
        assert ch.alpha.end == (0, 2, 0, 5)

    def test_second_example_chain(self):
        ch = chain_elements(SAMPLE_B)
        assert list(ch.elements) == SAMPLE_B_CHAIN

    def test_half_rank_start_gives_singleton(self):
        ch = chain_elements(StartVector.of((2, 0), 2))
        assert ch.elements == ((2, 0),)

    def test_matches_greedy_fill_order(self, small_shape):
        # the literal grid's fill numbers, read in order, walk the same chain
        for parts in iter_start_parts(small_shape):
            sv = StartVector.of(parts, small_shape.n)
            cells = literal_grid(parts, small_shape.n)
            fills = sorted(
                (cell.order, i) for i, row in enumerate(cells) for cell in row if isinstance(cell, Fillable)
            )
            cur = list(sv.parts)
            expected = [tuple(cur)]
            for _, i in fills:
                cur[i] += 1
                expected.append(tuple(cur))
            assert list(chain_elements(sv).elements) == expected

    def test_chain_path_never_builds_grid(self, monkeypatch, capsys):
        def refuse(sv):
            raise AssertionError(f"grid built for {sv.parts}")

        monkeypatch.setattr(tableau, "build_tableau", refuse)
        monkeypatch.setattr(cli, "build_tableau", refuse)
        assert list(chain_elements(SAMPLE_A).elements) == SAMPLE_A_CHAIN
        chains = [ch.elements for ch in decompose(GridShape(2, 1))]
        assert chains == [((0, 0), (0, 1), (1, 1)), ((1, 0),)]
        assert cli.main(["chain", "--alpha", "1,3,2,0", "-n", "4"]) == 0
        assert json.loads(capsys.readouterr().out)["elements"] == [list(p) for p in SAMPLE_B_CHAIN]

    def test_short_chain_at_huge_n_builds_no_table(self):
        # a 21-element chain of N(2, 10**8); a table of all 10**8 + 1 part
        # values would take about 800 MB
        sv = StartVector.of((10**8 - 10, 0), 10**8)
        tracemalloc.start()
        try:
            ch = chain_elements(sv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ch) == 21
        assert ch.elements[0] == (10**8 - 10, 0)
        assert ch.elements[-1] == (10**8, 10)
        assert peak < 1 << 20, peak

    def test_length_formula(self, small_shape):
        top = small_shape.top_rank
        for parts in iter_start_parts(small_shape):
            sv = StartVector.of(parts, small_shape.n)
            assert len(chain_elements(sv)) == top - 2 * sum(sv.parts) + 1

    def test_saturated_and_symmetric(self, small_shape):
        top = small_shape.top_rank
        for parts in iter_start_parts(small_shape):
            sv = StartVector.of(parts, small_shape.n)
            ch = chain_elements(sv)
            assert sum(ch.elements[0]) + sum(ch.elements[-1]) == top
            for a, b in zip(ch.elements, ch.elements[1:]):
                assert covers(Composition(small_shape, a), Composition(small_shape, b))

    def test_end_point_from_alpha_end(self, small_shape):
        n = small_shape.n
        for parts in iter_start_parts(small_shape):
            sv = StartVector.of(parts, small_shape.n)
            ch = chain_elements(sv)
            assert ch.elements[-1] == tuple(n - e for e in ch.alpha.end)

    def test_fill_vectors_have_frontier_shape(self, small_shape):
        # c - alpha is all-zero above its topmost positive row, within
        # capacity there, and at full capacity below it, where full rows are
        # saturated against the forbidden counts
        n = small_shape.n
        for parts in iter_start_parts(small_shape):
            sv = StartVector.of(parts, small_shape.n)
            end = alpha_end_parts(sv.parts, n)
            caps = [n - a - e for a, e in zip(sv.parts, end)]
            for el in chain_elements(sv).elements:
                fill = [c - a for c, a in zip(el, sv.parts)]
                assert all(v >= 0 for v in fill)
                positive = [i for i, v in enumerate(fill) if v > 0]
                if not positive:
                    continue
                f = positive[0]
                assert fill[f] <= caps[f]
                for i in range(f + 1, len(fill)):
                    assert fill[i] == caps[i], (sv.parts, el)
                    assert el[i] + end[i] == n


def seeded_start(seed, m, n):
    """The start of the chain through a seeded random composition of N(m, n)."""
    rng = random.Random(seed)
    return locate(Composition.of([rng.randint(0, n) for _ in range(m)], n))


class TestFillWalk:
    """`chain_elements` walks the part values, as a range or a list,
    `decompose` their strings and `chain` strings made on demand; every walk
    must give the same elements."""

    @staticmethod
    def walks(sv):
        parts, end, n = sv.parts, sv.end, sv.shape.n
        tuples = fill_walk(parts, end, n, range(n + 1), tuple)
        assert fill_walk(parts, end, n, list(range(n + 1)), tuple) == tuples
        text = fill_walk(parts, end, n, [str(p) for p in range(n + 1)], ",".join)
        assert fill_walk(parts, end, n, cli._PartStrings(), ",".join) == text
        assert text == [",".join(map(str, el)) for el in tuples]
        return tuples

    @pytest.mark.parametrize(
        "sv",
        [StartVector.of((0, 0), 3000), seeded_start(1, 3, 5000)],
        ids=["chain-0,0-n3000", "seeded-N(3,5000)"],
    )
    def test_text_and_tuples_agree_past_a_slice(self, sv):
        tuples = self.walks(sv)
        assert len(tuples) > cli._CHUNK
        assert max(max(el) for el in tuples) >= 1000

    def test_text_and_tuples_agree_on_small_shapes(self, small_shape):
        for parts in iter_start_parts(small_shape):
            self.walks(StartVector.of(parts, small_shape.n))

    @pytest.mark.parametrize("m, n", [(4, 9), (4, 10), (2, 99), (2, 100)])
    def test_text_and_tuples_agree_where_parts_cross_a_digit_width(self, m, n):
        widths = set()
        for parts in iter_start_parts(GridShape(m, n)):
            for el in self.walks(StartVector.of(parts, n)):
                widths.update(len(str(p)) for p in el)
        assert widths == {len(str(p)) for p in range(n + 1)}


class TestElementAt:
    def test_position_zero_is_alpha(self):
        assert element_at(SAMPLE_A, 0).parts == (2, 0, 5, 0)

    def test_last_position_is_end_point(self):
        assert element_at(SAMPLE_A, 10).parts == (6, 4, 6, 1)

    def test_intermediate_position(self):
        assert element_at(SAMPLE_B, 2).parts == (2, 3, 2, 1)

    def test_out_of_range(self):
        with pytest.raises(IndexError) as past:
            element_at(SAMPLE_B, 5)
        with pytest.raises(IndexError) as below:
            element_at(SAMPLE_B, -1)
        assert str(past.value) == "chain of (1, 3, 2, 0) has positions 0..4, got 5"
        assert str(below.value) == "chain of (1, 3, 2, 0) has positions 0..4, got -1"

    def test_agrees_with_materialized_chain(self, small_shape):
        for parts in iter_start_parts(small_shape):
            sv = StartVector.of(parts, small_shape.n)
            ch = chain_elements(sv)
            for j, el in enumerate(ch.elements):
                assert element_at(sv, j).parts == el

    def test_chain_contains(self):
        assert chain_contains(SAMPLE_A, Composition.of((2, 3, 6, 1), 6))
        assert not chain_contains(SAMPLE_A, Composition.of((2, 3, 5, 1), 6))
        assert not chain_contains(SAMPLE_A, Composition.of((1, 1, 1, 1), 6))

    def test_chain_contains_exactly_its_chain(self, small_shape):
        # every composition, below a chain's start and above its top too, is
        # on the chain exactly when it is an element of the same chain of the
        # independent decomposition
        m, n = small_shape.m, small_shape.n
        for chain in dbtk_chains(m, n):
            sv, on = StartVector.of(chain[0], n), set(map(tuple, chain))
            for parts in all_parts(m, n):
                assert chain_contains(sv, Composition(small_shape, parts)) == (parts in on), (chain[0], parts)


class TestRotation:
    def test_rotation_gives_image_tableau(self):
        rotated = rotate_180(build_tableau(SAMPLE_A))
        assert rotated == strip_sources(build_tableau(StartVector.of((5, 0, 2, 0), 6)).cells)

    def test_double_rotation_restores_grid(self):
        t = build_tableau(SAMPLE_B)
        assert rotate_180(rotate_180(t)) == strip_sources(t.cells)

    def test_rotation_matches_psi_everywhere(self, small_shape):
        for parts in iter_start_parts(small_shape):
            sv = StartVector.of(parts, small_shape.n)
            rotated = rotate_180(build_tableau(sv))
            assert rotated == strip_sources(build_tableau(psi(sv)).cells)

    def test_image_chain_is_reversed_star(self, small_shape):
        for parts in iter_start_parts(small_shape):
            sv = StartVector.of(parts, small_shape.n)
            fwd = chain_elements(sv).elements
            bwd = chain_elements(psi(sv)).elements
            assert len(fwd) == len(bwd)
            for b, f in zip(bwd, reversed(fwd)):
                assert b == star(Composition(small_shape, f)).parts
