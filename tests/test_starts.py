import sys
from collections import Counter

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
from scdposet.starts import alpha_end_parts, is_start_parts, iter_start_parts, splitting_rows_parts

from conftest import SMALL_SHAPES, all_parts, brute_is_start, literal_end_vector, literal_splitting_rows


class TestIsStart:
    def test_worked_example(self):
        assert is_start_parts((2, 0, 5, 0), 6)

    def test_zero_vector(self):
        assert is_start_parts((0, 0, 0, 0, 0), 3)

    def test_suffix_inequality_failure(self):
        # t=1 demands 2+2 <= (2-2)+(2-0); the chain through (2,2,0) starts lower.
        assert not is_start_parts((2, 2, 0), 2)
        starts = [ch.elements[0] for ch in decompose(GridShape(3, 2))]
        assert (2, 2, 0) not in starts

    def test_nonzero_last_part(self):
        assert not is_start_parts((0, 0, 1), 4)

    def test_rank_bound_implied_by_suffix_inequalities(self, small_shape):
        # the explicit rank check in is_start_parts is redundancy by design: the
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

    def test_matches_brute_force(self, small_shape):
        n = small_shape.n
        for parts in all_parts(small_shape.m, n):
            assert is_start_parts(parts, n) == brute_is_start(parts, n), parts

    def test_start_vector_construction_guard(self):
        with pytest.raises(NotStartVectorError):
            StartVector.of((2, 2, 0), 2)


class TestSplittingRows:
    def test_worked_example(self):
        assert splitting_rows_parts((2, 0, 5, 0), 6) == (1, 2, 3, 4)

    def test_block_of_length_two(self):
        # row 3 is skipped: 3 > 4-2 at q=2, then 3+2 <= (4-2)+(4-0)
        assert splitting_rows_parts((1, 3, 2, 0), 4) == (1, 2, 4)

    def test_zero_vector_every_row_splits(self):
        assert splitting_rows_parts((0,) * 6, 3) == (1, 2, 3, 4, 5, 6)

    def test_matches_literal_recursion(self, small_shape):
        n = small_shape.n
        for parts in iter_start_parts(small_shape):
            assert splitting_rows_parts(parts, n) == literal_splitting_rows(parts, n), parts

    def test_ends_at_last_row(self, small_shape):
        for parts in iter_start_parts(small_shape):
            rows = splitting_rows_parts(parts, small_shape.n)
            assert rows[0] == 1 and rows[-1] == small_shape.m
            assert list(rows) == sorted(set(rows))


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
        # vector; chains, psi, certificates, verify and render read `.end`
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
        assert calls == {"alpha_end_parts": 255, "StartVector": 255}
        assert len(list(decompose(shape))) == 85
        sv = certificate(Composition.of((1, 3, 2, 2), 4)).alpha
        assert element_at(sv, 1).parts == (1, 2, 2, 1)
        assert psi(sv).parts == (2, 2, 1, 0)
        assert render_ascii(build_tableau(sv)).startswith("alpha=1,2,2,0 alphaE=0,1,2,2")
        assert calls["StartVector"] == 255 + 85 + 2
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
            rows = splitting_rows_parts(parts, n)
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
            splitting_rows_parts((1, 1, 0), 1)
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
                    splitting_rows_parts(parts, n)
                with pytest.raises(NotStartVectorError):
                    alpha_end_parts(parts, n)
            else:
                assert splitting_rows_parts(parts, n) == rows, parts
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
