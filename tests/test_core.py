from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scdposet import (
    Composition,
    GridShape,
    ShapeMismatchError,
    covers,
    format_parts,
    leq,
    parse_parts,
    rank,
    star,
)

from conftest import all_parts


def comp(parts, n):
    return Composition.of(parts, n)


# Strategy: a random small composition together with its grid parameters.
compositions = st.integers(1, 6).flatmap(
    lambda m: st.integers(1, 8).flatmap(
        lambda n: st.lists(st.integers(0, n), min_size=m, max_size=m).map(lambda ps: comp(ps, n))
    )
)


class TestShapeAndComposition:
    def test_shape_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            GridShape(0, 3)
        with pytest.raises(ValueError):
            GridShape(3, 0)

    def test_shape_rejects_huge_grid(self):
        with pytest.raises(ValueError):
            GridShape(2**20, 2**20)

    def test_part_count_must_match(self):
        with pytest.raises(ValueError):
            Composition(GridShape(3, 2), (1, 2))

    def test_parts_must_be_in_range(self):
        with pytest.raises(ValueError):
            comp((0, 3), 2)
        with pytest.raises(ValueError):
            comp((0, -1), 2)

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            parse_parts("")
        with pytest.raises(ValueError):
            parse_parts("1,x,2")

    @pytest.mark.parametrize("item", ["1_0", "+2", " 3", "3 ", "\u0663", "-1"])
    def test_parse_accepts_ascii_decimal_digits_only(self, item):
        with pytest.raises(ValueError):
            parse_parts(f"1,{item},2")

    def test_format_parts(self):
        assert format_parts((0, 10, 3)) == "0,10,3"
        assert parse_parts("2,0,5,0") == (2, 0, 5, 0)
        assert format_parts(parse_parts("2,0,5,0")) == "2,0,5,0"


class TestRank:
    def test_sum_of_parts(self):
        assert rank(comp((2, 0, 5, 0), 6)) == 7

    def test_zero_vector(self):
        assert rank(comp((0, 0, 0), 4)) == 0

    def test_top_element(self):
        shape = GridShape(3, 5)
        assert rank(Composition(shape, (5, 5, 5))) == shape.top_rank


class TestLeq:
    def test_chain_neighbors(self):
        assert leq(comp((2, 0, 5, 0), 6), comp((2, 0, 5, 1), 6))

    def test_incomparable(self):
        assert not leq(comp((1, 0), 1), comp((0, 1), 1))

    def test_reflexive(self):
        c = comp((3, 1, 4), 5)
        assert leq(c, c)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            leq(comp((0, 0), 2), comp((0, 0, 0), 2))
        with pytest.raises(ShapeMismatchError):
            leq(comp((0, 0), 2), comp((0, 0), 3))


class TestCovers:
    def test_single_step(self):
        assert covers(comp((2, 0, 5, 0), 6), comp((2, 0, 5, 1), 6))

    def test_rank_jump_of_two(self):
        assert not covers(comp((2, 0, 5, 0), 6), comp((2, 0, 6, 1), 6))

    def test_equal_elements(self):
        assert not covers(comp((0, 0), 1), comp((0, 0), 1))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            covers(comp((0, 0), 2), comp((0, 0, 0), 2))

    def test_cover_implies_leq_and_rank_step(self):
        shape = GridShape(3, 2)
        for a in all_parts(3, 2):
            for b in all_parts(3, 2):
                ca, cb = Composition(shape, a), Composition(shape, b)
                if covers(ca, cb):
                    assert leq(ca, cb)
                    assert rank(cb) == rank(ca) + 1


class TestStar:
    def test_example_end_point(self):
        assert star(comp((6, 4, 6, 1), 6)).parts == (5, 0, 2, 0)

    def test_zero_maps_to_top(self):
        assert star(comp((0, 0, 0), 4)).parts == (4, 4, 4)

    @given(compositions)
    def test_involution(self, c):
        assert star(star(c)).parts == c.parts

    @given(compositions)
    def test_rank_complement(self, c):
        assert rank(c) + rank(star(c)) == c.shape.top_rank

    @pytest.mark.parametrize("m,n", [(3, 3), (4, 2), (2, 5)])
    def test_order_anti_automorphism_exhaustive(self, m, n):
        shape = GridShape(m, n)
        elems = [Composition(shape, p) for p in product(range(n + 1), repeat=m)]
        for a in elems:
            for b in elems:
                assert leq(b, a) == leq(star(a), star(b))
