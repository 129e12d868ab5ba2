import importlib
import pkgutil
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

import scdposet
from scdposet import Composition, GridShape, rank
from scdposet.core import (
    MAX_CELLS,
    Record,
    ShapeMismatchError,
    covers,
    format_parts,
    leq,
    parse_parts,
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

    def test_cell_limit_is_inclusive(self):
        assert MAX_CELLS == 2**31
        assert GridShape(2, 2**30).top_rank == MAX_CELLS
        with pytest.raises(ValueError, match=f"grid shape too large: 2\\*1073741825 cells exceeds {MAX_CELLS}"):
            GridShape(2, 2**30 + 1)

    @pytest.mark.parametrize("m, n", [(2.0, 3), (2, 3.0)])
    def test_shape_refuses_sizes_that_are_not_integers(self, m, n):
        # a float size used to be accepted and fail later, deep in enumeration
        with pytest.raises(TypeError):
            GridShape(m, n)

    def test_composition_refuses_parts_that_are_not_a_tuple(self):
        # a list would compare unequal to the tuple form and be unhashable
        with pytest.raises(TypeError):
            Composition(GridShape(2, 3), [1, 2])

    @pytest.mark.parametrize("parts", [(1.0, 0), (0, 2.5), (True, 0)])
    def test_composition_refuses_parts_that_are_not_ints(self, parts):
        # (1.0, 0) used to be built and certified as a start vector, and fail
        # only when its chain was walked
        with pytest.raises(TypeError, match="is not an int"):
            Composition(GridShape(2, 3), parts)

    @pytest.mark.parametrize(
        "parts, error, message",
        [
            # 1.0 == 1, so the position is found by identity, not equality
            ((1, 1.0), TypeError, "part 2 (1.0) is not an int"),
            ((0, 4), ValueError, "part 2 (4) is outside [0, 3]"),
            ((10**20 - 1, 0), ValueError, "part 1 (99999999999999999999) is outside [0, 3]"),
            ((0, -(10**20)), ValueError, "part 2 (a 21-digit number) is outside [0, 3]"),
            ((10**20, 0), ValueError, "part 1 (a 21-digit number) is outside [0, 3]"),
            ((10**4300 - 1, 0), ValueError, "part 1 (a 4300-digit number) is outside [0, 3]"),
        ],
        ids=["float", "above-n", "20-digits", "21-digits", "21-digits-positive", "4300-digits"],
    )
    def test_refusal_names_the_part_and_not_the_vector(self, parts, error, message):
        # a value past 20 digits is shown by its digit count, so the message
        # stays one short line however long the part or the vector
        with pytest.raises(error) as refused:
            Composition(GridShape(2, 3), parts)
        assert str(refused.value) == message

    def test_part_count_must_match(self):
        with pytest.raises(ValueError):
            Composition(GridShape(3, 2), (1, 2))

    def test_parts_must_be_in_range(self):
        with pytest.raises(ValueError):
            comp((0, 3), 2)
        with pytest.raises(ValueError):
            comp((0, -1), 2)

    @pytest.mark.parametrize("parts", [(0.9, 1.7), (1.0, 0), "10"])
    def test_of_refuses_parts_that_are_not_integers(self, parts):
        with pytest.raises(TypeError):
            Composition.of(parts, 2)

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            parse_parts("")
        with pytest.raises(ValueError):
            parse_parts("1,x,2")

    @pytest.mark.parametrize("item", ["1_0", "+2", " 3", "3 ", "\u0663", "-1"])
    def test_parse_accepts_ascii_decimal_digits_only(self, item):
        with pytest.raises(ValueError):
            parse_parts(f"1,{item},2")

    def test_parse_refuses_a_part_past_the_digit_limit_by_position(self):
        # `int` itself converts at most 4,300 digits, and its message names
        # neither the part nor the input
        assert parse_parts("0," + "0" * 4299 + "7") == (0, 7)
        with pytest.raises(ValueError) as raised:
            parse_parts("0,0," + "1" * 4301)
        assert str(raised.value) == "part 3 has 4301 digits, more than the limit of 4300"

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


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_record_field_list_is_its_slots():
    for info in pkgutil.iter_modules(scdposet.__path__):
        importlib.import_module(f"scdposet.{info.name}")
    records = {cls for cls in _subclasses(Record) if cls.__module__.startswith("scdposet.")}
    assert {cls.__name__ for cls in records} >= {"Composition", "StartVector", "CheckResult", "Fixed"}
    for cls in records:
        expected = ("alpha",) if cls.__name__ == "StartVector" else cls.__slots__
        assert cls._fields == expected, cls
