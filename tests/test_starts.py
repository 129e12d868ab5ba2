import random
import sys
from collections import Counter
from itertools import islice

import pytest

import scdposet.starts
from scdposet import (
    Composition,
    GridShape,
    NotStartVectorError,
    StartVector,
    build_tableau,
    certificate,
    decompose,
    element_at,
    level_sizes,
    psi,
    render_ascii,
    verify,
)
from scdposet.starts import alpha_end_parts, iter_start_parts, start_end

from conftest import SMALL_SHAPES, all_parts, brute_is_start, literal_end_vector, literal_splitting_rows


def accepts(parts, n):
    """True iff `StartVector` certifies `parts`; a refusal carries the one message."""
    try:
        StartVector.of(parts, n)
    except NotStartVectorError as exc:
        assert str(exc) == f"{tuple(parts)} is not a start vector for n={n}"
        return False
    return True


def low_rank_draws(count=1000, seed=17):
    """Seeded (parts, n) up to m = 60 with the last part 0 and every other
    part at most a drawn cap, so that most draws are starts and the rest
    mostly fail a suffix inequality, not the rank bound."""
    rng = random.Random(seed)
    for _ in range(count):
        m, n = rng.randint(2, 60), rng.randint(1, 12)
        cap = rng.randint(0, n)
        yield tuple(rng.randint(0, cap) for _ in range(m - 1)) + (0,), n


class TestIsStart:
    def test_worked_example(self):
        assert brute_is_start((2, 0, 5, 0), 6)
        assert accepts((2, 0, 5, 0), 6)

    def test_zero_vector(self):
        assert brute_is_start((0, 0, 0, 0, 0), 3)
        assert accepts((0, 0, 0, 0, 0), 3)

    def test_suffix_inequality_failure(self):
        # t=1 demands 2+2 <= (2-2)+(2-0); the chain through (2,2,0) starts lower.
        assert not brute_is_start((2, 2, 0), 2)
        assert not accepts((2, 2, 0), 2)
        starts = [ch.elements[0] for ch in decompose(GridShape(3, 2))]
        assert (2, 2, 0) not in starts

    def test_only_a_middle_suffix_inequality_fails(self):
        # last part 0, rank 3 <= 4, t=1: 3 <= 3 and t=3: 2 <= 2 hold; only
        # t=2: 1+2 <= (2-2)+(2-0) fails, so the block scan alone refuses it
        parts, n = (0, 1, 2, 0), 2
        assert [
            sum(parts[t - 1 : 3]) <= sum(n - parts[i] for i in range(t, 4)) for t in (1, 2, 3)
        ] == [True, False, True]
        assert not brute_is_start(parts, n)
        with pytest.raises(NotStartVectorError) as raised:
            StartVector.of(parts, n)
        assert str(raised.value) == "(0, 1, 2, 0) is not a start vector for n=2"

    def test_nonzero_last_part(self):
        assert not brute_is_start((0, 0, 1), 4)
        assert not accepts((0, 0, 1), 4)

    def test_rank_bound_implied_by_suffix_inequalities(self, small_shape):
        # the explicit rank check in start_end is redundancy by design: the
        # t=1 suffix inequality already forces rank <= floor(m*n/2)
        m, n = small_shape.m, small_shape.n
        for parts in all_parts(m, n):
            if parts[-1] != 0:
                continue
            ok = all(
                sum(parts[t - 1 : m - 1]) <= sum(n - parts[i] for i in range(t, m))
                for t in range(1, m)
            )
            if ok:
                assert 2 * sum(parts) <= m * n, parts

    @pytest.mark.parametrize("m, n", SMALL_SHAPES + [(5, 3), (6, 2)])
    def test_start_vector_accepts_exactly_the_brute_force_set(self, m, n):
        # certification is the last-part and rank comparisons plus the block
        # scan closing its last block, nothing else
        for parts in all_parts(m, n):
            assert accepts(parts, n) == brute_is_start(parts, n), parts

    def test_start_vector_accepts_exactly_the_brute_force_set_on_long_draws(self):
        refused = 0
        for parts, n in low_rank_draws():
            expected = brute_is_start(parts, n)
            assert accepts(parts, n) == expected, (parts, n)
            refused += not expected and 2 * sum(parts) <= len(parts) * n
        assert refused >= 50  # refusals left to the suffix inequalities alone

    @pytest.mark.parametrize("m, n", SMALL_SHAPES)
    def test_start_end_is_the_one_certification(self, m, n):
        # `start_end` refuses exactly the brute-force rejects, with the one
        # message, and where it accepts it returns the end vector that
        # `StartVector` certifies through it
        for parts in all_parts(m, n):
            if brute_is_start(parts, n):
                c = Composition(GridShape(m, n), parts)
                assert StartVector(c).end == start_end(c.parts, n), parts
            else:
                with pytest.raises(NotStartVectorError) as raised:
                    start_end(parts, n)
                assert str(raised.value) == f"{parts} is not a start vector for n={n}"

    def test_start_vector_construction_guard(self):
        with pytest.raises(NotStartVectorError):
            StartVector.of((2, 2, 0), 2)


class TestAlphaEnd:
    def test_worked_example(self):
        assert StartVector.of((2, 0, 5, 0), 6).end == (0, 2, 0, 5)

    def test_second_worked_example(self):
        assert StartVector.of((1, 3, 2, 0), 4).end == (0, 1, 2, 3)

    def test_thirteen_row_regression(self):
        # frozen from the greedy grid simulation before being asserted here
        sv = StartVector.of((5, 2, 1, 6, 4, 1, 4, 0, 5, 4, 3, 2, 0), 7)
        assert sv.end == (0, 5, 2, 1, 3, 6, 2, 4, 0, 3, 4, 5, 2)

    def test_end_is_the_formula_and_not_part_of_the_value(self, small_shape):
        n = small_shape.n
        for parts in iter_start_parts(small_shape):
            sv = StartVector.of(parts, n)
            assert sv.end == alpha_end_parts(parts, n)
            twin = StartVector(sv.alpha)
            object.__setattr__(twin, "end", ())
            assert twin == sv and hash(twin) == hash(sv) and repr(twin) == repr(sv)
        assert repr(StartVector.of((1, 0), 2)) == "StartVector(alpha=Composition(shape=GridShape(m=2, n=2), parts=(1, 0)))"

    def test_matches_literal_block_sums(self, small_shape):
        n = small_shape.n
        for parts in iter_start_parts(small_shape):
            assert alpha_end_parts(parts, n) == literal_end_vector(parts, n), parts

    def test_computed_once_per_start_vector(self, monkeypatch):
        # StartVector construction is the one production site of the end
        # vector; chains, psi, certificates, verify and render read `.end`.
        # verify builds the 85 starts, two psi images at each of the 30
        # smaller starts of the psi pairs and one at each of the 25 fixed
        # points, and the located start of each of disjoint's 512 round trips
        calls = Counter()
        original = scdposet.starts.alpha_end_parts

        def counting(parts, n):
            calls["alpha_end_parts"] += 1
            return original(parts, n)

        for name, module in list(sys.modules.items()):
            if name.startswith("scdposet") and getattr(module, "alpha_end_parts", None) is original:
                monkeypatch.setattr(module, "alpha_end_parts", counting)
        post_init = StartVector.__post_init__

        def constructing(self):
            calls["StartVector"] += 1
            post_init(self)

        monkeypatch.setattr(StartVector, "__post_init__", constructing)
        shape = GridShape(4, 4)
        assert verify(shape).passed
        assert calls == {"alpha_end_parts": 682, "StartVector": 682}
        assert len(list(decompose(shape))) == 85
        sv = certificate(Composition.of((1, 3, 2, 2), 4)).alpha
        assert element_at(sv, 1).parts == (1, 2, 2, 1)
        assert psi(sv).parts == (2, 2, 1, 0)
        assert render_ascii(build_tableau(sv)).startswith("alpha=1,2,2,0 alphaE=0,1,2,2")
        assert calls["StartVector"] == 682 + 85 + 2
        assert calls["alpha_end_parts"] == calls["StartVector"]

    def test_first_entry_zero_and_total_is_rank(self, small_shape):
        n = small_shape.n
        for parts in iter_start_parts(small_shape):
            end = alpha_end_parts(parts, n)
            assert end[0] == 0
            assert sum(end) == sum(parts)
            assert all(0 <= e <= n for e in end)

    def test_block_partial_sums(self, small_shape):
        # within a block the running fixed-cell total stays strictly ahead of
        # the capacity below, and lands at or under it on the last row
        n = small_shape.n
        for parts in iter_start_parts(small_shape):
            rows = literal_splitting_rows(parts, n)
            for qk, qk1 in zip(rows, rows[1:]):
                lhs = 0
                rhs = 0
                for j in range(qk, qk1):  # 1-based partial sums
                    lhs += parts[j - 1]
                    rhs += n - parts[j]
                    if j < qk1 - 1:
                        assert lhs > rhs, (parts, qk, qk1, j)
                    else:
                        assert lhs <= rhs, (parts, qk, qk1, j)


class TestBlockScanRaises:
    def test_last_block_never_closes(self):
        # (1, 1, 0), n = 1: the block opened at row 1 is still open at row 3
        with pytest.raises(NotStartVectorError):
            alpha_end_parts((1, 1, 0), 1)

    @pytest.mark.parametrize("m, n", [mn for mn in SMALL_SHAPES if mn[0] <= 4])
    def test_raises_exactly_where_literal_recursion_stops(self, m, n):
        # every composition, start vector or not
        stopped = 0
        for parts in all_parts(m, n):
            rows = literal_splitting_rows(parts, n)
            if rows is None:
                stopped += 1
                with pytest.raises(NotStartVectorError):
                    alpha_end_parts(parts, n)
            else:
                assert alpha_end_parts(parts, n) == literal_end_vector(parts, n), parts
        assert stopped > 0 or m == 1


class TestPsi:
    def test_worked_example(self):
        assert psi(StartVector.of((2, 0, 5, 0), 6)).parts == (5, 0, 2, 0)

    def test_zero_fixed_point(self):
        assert psi(StartVector.of((0, 0, 0), 5)).parts == (0, 0, 0)

    def test_involution_on_4x4(self):
        for parts in iter_start_parts(GridShape(4, 4)):
            sv = StartVector.of(parts, 4)
            assert psi(psi(sv)).parts == sv.parts

    def test_end_vector_of_image_is_reverse(self, small_shape):
        for parts in iter_start_parts(small_shape):
            sv = StartVector.of(parts, small_shape.n)
            assert psi(sv).end == tuple(reversed(sv.parts))


class TestEnumerateStarts:
    def test_3x2_has_seven(self):
        got = list(iter_start_parts(GridShape(3, 2)))
        assert len(got) == 7
        assert got == sorted(got)

    def test_2x1_exact_set(self):
        assert list(iter_start_parts(GridShape(2, 1))) == [(0, 0), (1, 0)]

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_single_row_only_zero(self, n):
        assert list(iter_start_parts(GridShape(1, n))) == [(0,)]

    def test_matches_brute_filter(self, small_shape):
        n = small_shape.n
        expected = [p for p in all_parts(small_shape.m, n) if brute_is_start(p, n)]
        assert list(iter_start_parts(small_shape)) == expected

    def test_count_is_middle_level_size(self, small_shape):
        count = sum(1 for _ in iter_start_parts(small_shape))
        assert count == level_sizes(small_shape).middle

    def test_thousand_row_grid_enumerates_without_recursion(self):
        first = list(islice(iter_start_parts(GridShape(1200, 1)), 3))
        zero = (0,) * 1200
        assert first == [zero, zero[:-2] + (1, 0), zero[:-3] + (1, 0, 0)]
