from hypothesis import given, settings
from hypothesis import strategies as st

from scdposet import (
    Composition,
    GridShape,
    StartVector,
    certificate,
    chain_contains,
    chain_elements,
    decompose,
    element_at,
    is_start,
    locate,
    locate_parts,
    psi,
    rank,
)
from scdposet.starts import iter_start_parts

from conftest import all_parts

# Grids far too large to enumerate, where every operation below is O(m).  Half
# the vectors take only the parts 0, 1, n-1 and n, so that the block sums of
# `locate` often tie.
large_compositions = st.integers(1, 200).flatmap(
    lambda m: st.integers(1, 10**6).flatmap(
        lambda n: st.one_of(
            st.lists(st.integers(0, n), min_size=m, max_size=m),
            st.lists(st.sampled_from([0, 1, n - 1, n]), min_size=m, max_size=m),
        ).map(lambda parts: Composition.of(parts, n))
    )
)


class TestLocate:
    def test_worked_example(self):
        c = Composition.of((5, 2, 3, 6, 4, 1, 5, 3), 7)
        assert locate(c).parts == (5, 2, 1, 6, 4, 1, 4, 0)

    def test_bottom_locates_to_itself(self):
        c = Composition.of((0, 0, 0, 0), 5)
        assert locate(c).parts == (0, 0, 0, 0)

    def test_top_locates_to_bottom(self):
        c = Composition.of((5, 5, 5, 5), 5)
        assert locate(c).parts == (0, 0, 0, 0)

    def test_result_is_always_a_start(self, small_shape):
        n = small_shape.n
        for parts in all_parts(small_shape.m, n):
            sv = locate(Composition(small_shape, parts))  # validates on construction
            assert is_start(sv.alpha)

    def test_round_trip_membership(self, small_shape):
        for parts in all_parts(small_shape.m, small_shape.n):
            c = Composition(small_shape, parts)
            assert chain_contains(locate(c), c), parts

    def test_inverse_consistency(self, small_shape):
        # every element of every chain locates back to its own start; with
        # the round trip above this realizes the disjoint-union property
        n = small_shape.n
        for aparts in iter_start_parts(small_shape):
            sv = StartVector(Composition(small_shape, aparts))
            for el in chain_elements(sv).elements:
                assert locate_parts(el.parts, n) == aparts

    def test_middle_rank_surjectivity(self, small_shape):
        mid = small_shape.top_rank // 2
        located = {
            locate_parts(parts, small_shape.n)
            for parts in all_parts(small_shape.m, small_shape.n)
            if sum(parts) == mid
        }
        assert located == set(iter_start_parts(small_shape))


class TestCertificate:
    def test_worked_example(self):
        cert = certificate(Composition.of((5, 2, 3, 6, 4, 1, 5, 3), 7))
        assert cert.alpha.parts == (5, 2, 1, 6, 4, 1, 4, 0)
        assert cert.fill_vector == (0, 0, 2, 0, 0, 0, 1, 3)
        assert cert.positive_set == {3, 7, 8}

    def test_start_certifies_itself(self):
        cert = certificate(Composition.of((1, 3, 2, 0), 4))
        assert cert.alpha.parts == (1, 3, 2, 0)
        assert cert.fill_vector == (0, 0, 0, 0)
        assert cert.positive_set == {4}

    def test_end_point_fills_every_row(self):
        # the end of a chain uses the full capacity of every row
        cert = certificate(Composition.of((6, 4, 6, 1), 6))
        assert cert.alpha.parts == (2, 0, 5, 0)
        assert cert.fill_vector == (4, 4, 1, 1)
        assert cert.positive_set == {1, 2, 3, 4}

    def test_fill_vector_adds_up(self, small_shape):
        for parts in all_parts(small_shape.m, small_shape.n):
            c = Composition(small_shape, parts)
            cert = certificate(c)
            assert tuple(a + f for a, f in zip(cert.alpha.parts, cert.fill_vector)) == parts
            assert rank(c) - sum(cert.alpha.parts) == sum(cert.fill_vector)

    @given(
        st.integers(1, 9).flatmap(
            lambda m: st.integers(1, 9).flatmap(
                lambda n: st.tuples(
                    st.just(n), st.lists(st.integers(0, n), min_size=m, max_size=m)
                )
            )
        )
    )
    def test_never_raises_on_valid_input(self, case):
        n, parts = case
        cert = certificate(Composition.of(parts, n))
        assert chain_contains(cert.alpha, Composition.of(parts, n))


class TestAgainstDecomposition:
    def test_locate_agrees_with_full_decomposition(self):
        shape = GridShape(3, 3)
        for ch in decompose(shape):
            for el in ch.elements:
                assert locate(el).parts == ch.alpha.parts


class TestLargeGrids:
    @settings(max_examples=50, deadline=None)
    @given(large_compositions)
    def test_locate_element_at_and_psi(self, c):
        # is_start(locate(c)), element_at(locate(c), rank(c) - rank(locate(c))) == c,
        # and psi(psi(a)) == a, checked on one drawn composition
        assert is_start(Composition(c.shape, locate_parts(c.parts, c.shape.n)))
        sv = locate(c)
        assert element_at(sv, rank(c) - rank(sv.alpha)) == c
        assert psi(psi(sv)) == sv
