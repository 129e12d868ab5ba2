import importlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scdposet.starts
from scdposet import (
    CertificateError,
    Composition,
    GridShape,
    StartVector,
    certificate,
    chain_contains,
    chain_elements,
    decompose,
    element_at,
    locate,
    locate_parts,
    psi,
    rank,
)
from scdposet.starts import NotStartVectorError, iter_start_parts

from conftest import (
    SMALL_SHAPES,
    all_parts,
    brute_is_start,
    literal_end_vector,
    literal_splitting_rows,
    record_checks,
    shift_one_forbidden_cell,
)

# the module, not the `locate` function the package exports under its name
locate_module = importlib.import_module("scdposet.locate")

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
            sv = locate(Composition(small_shape, parts))  # certified on construction
            assert brute_is_start(sv.parts, n)

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
                assert locate_parts(el, n) == aparts

    def test_middle_rank_surjectivity(self, small_shape):
        mid = small_shape.top_rank // 2
        located = {
            locate_parts(parts, small_shape.n)
            for parts in all_parts(small_shape.m, small_shape.n)
            if sum(parts) == mid
        }
        assert located == set(iter_start_parts(small_shape))


class TestValidations:
    def test_round_trip_validates_no_composition_and_psi_one(self, monkeypatch):
        # the located start and the chain element are derived from a
        # validated composition, so only the start is certified; a psi image
        # is validated, since that certifies the end-vector formula
        c = Composition.of((5, 2, 3, 6, 4, 1, 5, 3), 7)
        checked = record_checks(monkeypatch, Composition, StartVector)
        sv = locate(c)
        assert element_at(sv, rank(c) - rank(sv.alpha)) == c
        assert checked == {Composition: [], StartVector: [sv.parts]}
        image = psi(sv)
        assert checked == {Composition: [image.parts], StartVector: [sv.parts, image.parts]}

    def test_derived_values_pass_the_checks_they_skip(self, small_shape):
        # the located start and the top of its chain, the largest parts
        # element_at returns, rebuilt through the checking constructor
        top = small_shape.top_rank
        for parts in all_parts(small_shape.m, small_shape.n):
            sv = locate(Composition(small_shape, parts))
            for value in (sv.alpha, element_at(sv, top - 2 * rank(sv.alpha))):
                assert Composition(small_shape, value.parts) == value


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


def earlier_certificate_rejects(cparts, n):
    """True where the certificate's earlier checks reject `cparts`: a
    non-negative fill, fill rows that are all splitting rows of alpha (here by
    the literal rule), saturated rows below the topmost fill row, and the
    block sums scanned up from each fill row.  Reads `locate_parts` and the
    end vector through the package, so that planted faults reach it."""
    m = len(cparts)
    aparts = locate_module.locate_parts(cparts, n)
    fill = [x - y for x, y in zip(cparts, aparts)]
    if min(fill) < 0:
        return True
    positive = {i + 1 for i, v in enumerate(fill) if v > 0} | {m}
    rows = literal_splitting_rows(aparts, n)
    if rows is None or not positive <= set(rows):
        return True
    try:
        end = StartVector(Composition.of(aparts, n)).end
    except NotStartVectorError:
        return True
    if any(cparts[t - 1] + end[t - 1] != n for t in range(min(positive) + 1, m + 1)):
        return True
    for j in positive:
        lhs = rhs = 0
        for i in range(j - 1, 0, -1):
            lhs += aparts[i - 1]
            rhs += n - cparts[i]
            if fill[i - 1] > 0:
                if lhs != rhs:
                    return True
                break
            if lhs > rhs:
                return True
    return False


def _lowered(c, n):
    """The start of `c` with its last positive part lowered by one."""
    i = max((i for i, p in enumerate(c) if p), default=None)
    return locate_parts(c if i is None else c[:i] + (c[i] - 1,) + c[i + 1 :], n)


END_FAULTS = {
    "none": None,
    "shift-up": shift_one_forbidden_cell,
    "shift-down": lambda end: shift_one_forbidden_cell(end, upward=False),
}
LOCATE_FAULTS = {
    "none": None,
    "zero": lambda c, n: (0,) * len(c),
    "lowered": _lowered,
    "reversed-input": lambda c, n: locate_parts(c[::-1], n),
}


class TestCertificateFaults:
    @pytest.mark.parametrize("end_fault", END_FAULTS)
    @pytest.mark.parametrize("locate_fault", LOCATE_FAULTS)
    def test_rejects_every_input_the_earlier_checks_reject(self, monkeypatch, end_fault, locate_fault):
        # the chain-membership scan replaced a subset check against the
        # splitting rows; under planted faults it must still reject at least
        # what the earlier checks did, on every composition of every small grid
        if END_FAULTS[end_fault]:
            monkeypatch.setattr(scdposet.starts, "alpha_end_parts", END_FAULTS[end_fault](scdposet.starts.alpha_end_parts))
        if LOCATE_FAULTS[locate_fault]:
            monkeypatch.setattr(locate_module, "locate_parts", LOCATE_FAULTS[locate_fault])
        earlier = 0
        for m, n in SMALL_SHAPES:
            for parts in all_parts(m, n):
                if earlier_certificate_rejects(parts, n):
                    earlier += 1
                    with pytest.raises((CertificateError, NotStartVectorError)):
                        certificate(Composition.of(parts, n))
        assert (earlier > 0) == (end_fault != "none" or locate_fault != "none")

    def test_catches_forbidden_cell_moved_to_the_last_row(self, monkeypatch):
        # with one forbidden cell moved from row 2 to row 3, the chain of
        # (1, 0, 0) no longer reaches 2 in row 3; the splitting rows of the
        # start, (1, 2, 3), did not see that
        shifted = shift_one_forbidden_cell(scdposet.starts.alpha_end_parts, upward=False)
        monkeypatch.setattr(scdposet.starts, "alpha_end_parts", shifted)
        with pytest.raises(CertificateError, match=re.escape("fill row 3 of c=(1, 0, 2) exceeds its capacity")):
            certificate(Composition.of((1, 0, 2), 2))

    @pytest.mark.parametrize(
        "c, n, start, shift_end, message",
        [
            ((0, 0), 1, (1, 0), False, "negative fill (-1, 0) for c=(0, 0)"),
            ((0, 1), 1, (1, 0), False, "fill row 2 of c=(0, 1) exceeds its capacity against alpha=(1, 0)"),
            ((1, 0), 1, (0, 0), False, "row 2 of c=(1, 0) not saturated against alpha=(0, 0)"),
            ((2, 3), 3, (1, 0), True, "block 1..2 of c=(2, 3) unbalanced: 1 != 0"),
            ((1, 2), 2, (1, 0), True, "block 1..2 of c=(1, 2) overflows: 1 > 0"),
        ],
        ids=["negative", "capacity", "saturated", "unbalanced", "overflows"],
    )
    def test_each_check_fires(self, monkeypatch, c, n, start, shift_end, message):
        # a wrong start alone breaks chain membership; the block sums fail
        # first only when the end vector is wrong as well
        monkeypatch.setattr(locate_module, "locate_parts", lambda parts, n: start)
        if shift_end:
            monkeypatch.setattr(scdposet.starts, "alpha_end_parts", shift_one_forbidden_cell(scdposet.starts.alpha_end_parts))
        with pytest.raises(CertificateError) as raised:
            certificate(Composition.of(c, n))
        assert str(raised.value) == message


class TestAgainstDecomposition:
    def test_locate_agrees_with_full_decomposition(self):
        shape = GridShape(3, 3)
        for ch in decompose(shape):
            for el in ch.elements:
                assert locate(Composition(shape, el)).parts == ch.alpha.parts


class TestLargeGrids:
    @settings(max_examples=50, deadline=None)
    @given(large_compositions)
    def test_locate_element_at_and_psi(self, c):
        # locate_parts(c) against the defining inequalities, the end vector
        # against the literal block sums, element_at(locate(c), rank(c) -
        # rank(locate(c))) == c, and psi(psi(a)) == a, on one drawn composition
        assert brute_is_start(locate_parts(c.parts, c.shape.n), c.shape.n)
        sv = locate(c)
        assert sv.end == literal_end_vector(sv.parts, c.shape.n)
        assert element_at(sv, rank(c) - rank(sv.alpha)) == c
        assert psi(psi(sv)) == sv

    @settings(max_examples=50, deadline=None)
    @given(large_compositions)
    def test_certificate_never_raises_on_valid_input(self, c):
        cert = certificate(c)
        assert tuple(map(int.__add__, cert.alpha.parts, cert.fill_vector)) == c.parts
        assert chain_contains(cert.alpha, c)
