import importlib
import json
import tracemalloc
from collections import Counter
from dataclasses import replace
from math import comb

import pytest

import scdposet.tableau
from scdposet import (
    Composition,
    GridShape,
    chain_length_histogram,
    check_partition,
    decompose,
    level_sizes,
    verify,
)
from scdposet.decompose import middle_level_size

from conftest import all_parts, brute_level_sizes, dbtk_chains


def shift_one_forbidden_cell(original):
    """A planted fault: `original` end vectors with one forbidden cell moved
    from row m to row m-1, keeping the sum."""

    def shifted(parts, n):
        end = list(original(parts, n))
        if end[-1] > 0 and parts[-2] + end[-2] < n:
            end[-1] -= 1
            end[-2] += 1
        return tuple(end)

    return shifted


class TestDecompose:
    def test_3x2_shape(self):
        chains = list(decompose(GridShape(3, 2)))
        assert len(chains) == 7
        assert sum(len(ch) for ch in chains) == 27

    def test_single_row_is_one_full_chain(self):
        chains = list(decompose(GridShape(1, 4)))
        assert len(chains) == 1
        assert chains[0].elements == ((0,), (1,), (2,), (3,), (4,))

    def test_2x1_exact_chains(self):
        chains = [ch.elements for ch in decompose(GridShape(2, 1))]
        assert chains == [((0, 0), (0, 1), (1, 1)), ((1, 0),)]

    def test_deterministic(self):
        shape = GridShape(3, 3)
        first = [ch.elements for ch in decompose(shape)]
        second = [ch.elements for ch in decompose(shape)]
        assert first == second

    def test_materialized_container(self):
        chains = list(decompose(GridShape(2, 2)))
        assert len(chains) == 3
        assert sum(len(ch) for ch in chains) == 9

    def test_validates_each_start_once(self, monkeypatch):
        # chain elements are plain parts tuples: the only Composition built
        # per chain is the one its StartVector certifies
        validated = []
        original = Composition.__post_init__

        def counting(self):
            validated.append(self.parts)
            original(self)

        monkeypatch.setattr(Composition, "__post_init__", counting)
        chains = list(decompose(GridShape(4, 4)))
        assert len(chains) == 85
        assert validated == [ch.alpha.parts for ch in chains]


class TestLevelSizes:
    def test_3x2_profile(self):
        assert level_sizes(GridShape(3, 2)).sizes == (1, 3, 6, 7, 6, 3, 1)

    def test_single_row_all_ones(self):
        assert level_sizes(GridShape(1, 5)).sizes == (1,) * 6

    def test_2x1_profile(self):
        assert level_sizes(GridShape(2, 1)).sizes == (1, 2, 1)

    def test_matches_brute_count(self, small_shape):
        brute = brute_level_sizes(small_shape.m, small_shape.n)
        assert level_sizes(small_shape).sizes == brute
        assert middle_level_size(small_shape) == brute[small_shape.top_rank // 2]

    def test_matches_inclusion_exclusion_at_large_n(self):
        # compositions of k into m parts of at most n, by inclusion-exclusion
        # over the parts forced above n
        m, n = 12, 50
        expected = tuple(
            sum((-1) ** j * comb(m, j) * comb(k - j * (n + 1) + m - 1, m - 1) for j in range(k // (n + 1) + 1))
            for k in range(m * n + 1)
        )
        assert level_sizes(GridShape(m, n)).sizes == expected
        assert middle_level_size(GridShape(m, n)) == expected[m * n // 2]

    def test_symmetric_unimodal_and_total(self, small_shape):
        sizes = level_sizes(small_shape).sizes
        top = small_shape.top_rank
        assert sum(sizes) == small_shape.size
        assert all(sizes[k] == sizes[top - k] for k in range(top + 1))
        mid = top // 2
        assert all(sizes[k] <= sizes[k + 1] for k in range(mid))
        assert all(sizes[k] >= sizes[k + 1] for k in range(mid, top))


class TestChainLengthHistogram:
    def test_3x2_histogram(self):
        # brute recount: chains of ranks 0,1,1,2,2,2,3 in a rank-6 poset
        assert chain_length_histogram(GridShape(3, 2)) == {7: 1, 5: 2, 3: 3, 1: 1}

    def test_single_row(self):
        assert chain_length_histogram(GridShape(1, 6)) == {7: 1}

    def test_2x1(self):
        assert chain_length_histogram(GridShape(2, 1)) == {3: 1, 1: 1}

    def test_matches_level_size_differences(self, small_shape):
        assert chain_length_histogram(small_shape) == level_sizes(small_shape).length_counts()

    def test_matches_materialized_chain_lengths(self, small_shape):
        expected = Counter(len(ch) for ch in decompose(small_shape))
        assert chain_length_histogram(small_shape) == dict(expected)


class TestVerify:
    def test_3x2_all_checks_pass(self):
        report = verify(GridShape(3, 2), use_oracle=True)
        assert report.passed
        names = [c.name for c in report.checks]
        assert names == [
            "partition",
            "symmetric",
            "saturated",
            "disjoint",
            "involution",
            "corollary-vs-simulation",
            "middle-rank-count",
        ]
        assert not any(c.skipped for c in report.checks)

    def test_4x6_all_checks_pass(self):
        report = verify(GridShape(4, 6), use_oracle=True)
        assert report.passed

    def test_small_shapes_pass(self, small_shape):
        assert verify(small_shape, use_oracle=True).passed

    def test_report_is_json_serializable(self):
        report = verify(GridShape(2, 3), use_oracle=True)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["passed"] is True
        assert len(payload["checks"]) == 7

    def test_mutated_chain_fails_partition(self):
        # harness self-test: move one element between chains and the oracle
        # must name it
        shape = GridShape(3, 2)
        chains = list(decompose(shape))
        stolen = chains[0].elements[1]
        victim = chains[1]
        chains[1] = replace(victim, elements=victim.elements[:-1] + (stolen,))
        result = check_partition(shape, chains)
        assert not result.passed
        assert result.counterexample["element"] == list(stolen)

    def test_dropped_element_fails_partition(self):
        shape = GridShape(3, 2)
        chains = list(decompose(shape))
        victim = chains[0]
        chains[0] = replace(victim, elements=victim.elements[:-1])
        result = check_partition(shape, chains)
        assert not result.passed
        assert result.counterexample["element"] == list(victim.elements[-1])

    def test_cap_exceeded_skips_oracle_but_runs_rest(self):
        report = verify(GridShape(4, 4), use_oracle=True, cap=100)
        partition = report.check("partition")
        assert partition.skipped
        assert "exceeds cap" in partition.message
        assert report.check("disjoint").passed
        assert "random round trips" in report.check("disjoint").message
        assert report.passed

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError, match=r"^cap must be at least 0, got -5$"):
            verify(GridShape(2, 1), cap=-5)
        report = verify(GridShape(2, 1), cap=0)
        assert report.passed
        assert report.check("partition").skipped
        assert report.check("middle-rank-count").skipped

    def test_oracle_disabled(self):
        report = verify(GridShape(2, 2), use_oracle=False)
        assert report.check("partition").skipped
        assert report.passed

    def test_middle_count_skipped_past_cap(self):
        report = verify(GridShape(6, 6), use_oracle=True, cap=50, sample=16)
        assert report.check("middle-rank-count").skipped
        assert report.passed

    def test_sampled_mode_is_deterministic(self):
        shape = GridShape(4, 5)
        a = verify(shape, use_oracle=True, cap=100, sample=32).to_dict()
        b = verify(shape, use_oracle=True, cap=100, sample=32).to_dict()
        for check in a["checks"] + b["checks"]:
            del check["seconds"]
        assert a == b

    def test_full_mode_builds_each_chain_once_and_no_grid(self, monkeypatch):
        # one value per start: its chain and greedy row counts, plus the
        # partition oracle's chain and the psi image's chain; no cell grid is
        # coloured, and chain elements stay plain tuples, so the only
        # Compositions are those of the start, psi(start), psi(psi(start))
        # and the oracle's start
        module = importlib.import_module("scdposet.decompose")
        built = Counter()
        fn = module.chain_elements

        def counting(sv):
            built["chain_elements"] += 1
            return fn(sv)

        def refuse(parts, n):
            raise AssertionError(f"grid built for {parts}")

        validated = Counter()
        original = Composition.__post_init__

        def validating(self):
            validated["compositions"] += 1
            original(self)

        monkeypatch.setattr(module, "chain_elements", counting)
        monkeypatch.setattr(scdposet.tableau, "build_grid_cells", refuse)
        monkeypatch.setattr(Composition, "__post_init__", validating)
        report = verify(GridShape(4, 4))
        assert report.passed
        starts = report.chain_count
        assert starts == 85
        assert built["chain_elements"] <= 3 * starts
        assert validated["compositions"] <= 4 * starts

    def test_symmetric_catches_wrong_end_vector(self, monkeypatch):
        # the chain still ends at the complementary rank, but not where
        # locate says
        shifted = shift_one_forbidden_cell(scdposet.tableau.alpha_end_parts)
        monkeypatch.setattr(scdposet.tableau, "alpha_end_parts", shifted)
        report = verify(GridShape(3, 3))
        assert not report.check("symmetric").passed

    def test_sampled_large_grid_colours_no_grid(self, monkeypatch):
        # a 400,000-cell grid: no cell grid is built, every per-chain check
        # runs, and memory does not grow with n
        def refuse(parts, n):
            raise AssertionError(f"grid built for {parts}")

        monkeypatch.setattr(scdposet.tableau, "build_grid_cells", refuse)
        tracemalloc.start()
        try:
            report = verify(GridShape(2, 200000), sample=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert [c.name for c in report.checks if c.skipped] == ["partition"]
        corollary = report.check("corollary-vs-simulation")
        assert corollary.passed and corollary.message == "sampled 1 chains"
        assert not report.check("involution").skipped
        assert peak < 5 * 2**20, f"verify peaked at {peak} bytes traced"

    def test_corollary_catches_wrong_end_vector_at_large_n(self, monkeypatch):
        # the fault sits in the formula verify compares against the greedy
        # counts, on a 400,000-cell grid that is sampled, not enumerated
        module = importlib.import_module("scdposet.decompose")
        monkeypatch.setattr(module, "alpha_end_parts", shift_one_forbidden_cell(module.alpha_end_parts))
        report = verify(GridShape(2, 200000), sample=4)
        corollary = report.check("corollary-vs-simulation")
        assert not corollary.skipped
        assert not corollary.passed
        assert corollary.counterexample == {"alpha": [1, 0], "formula": [1, 0], "simulation": [0, 1]}
        assert not report.passed

    def test_involution_catches_psi_that_is_not_the_half_turn(self, monkeypatch):
        # psi replaced by the identity is still an involution, and on the
        # fixed point 0 it still matches the reversed star, so the count form
        # of the half-turn is what fails first
        module = importlib.import_module("scdposet.decompose")
        monkeypatch.setattr(module, "psi", lambda sv: sv)
        report = verify(GridShape(3, 3))
        involution = report.check("involution")
        assert not involution.passed
        assert involution.counterexample["reason"] == "rotated tableau differs"
        assert involution.counterexample["alpha"] == [0, 1, 0]


class TestAgainstDeBruijnTengbergenKruyswijk:
    def test_same_chain_count_and_length_histogram(self, small_shape):
        m, n = small_shape.m, small_shape.n
        classical = dbtk_chains(m, n)
        lengths = Counter(len(ch) for ch in decompose(small_shape))
        assert Counter(len(ch) for ch in classical) == lengths
        assert len(classical) == sum(lengths.values()) == brute_level_sizes(m, n)[m * n // 2]

    def test_oracle_is_a_symmetric_chain_decomposition(self, small_shape):
        m, n = small_shape.m, small_shape.n
        classical = dbtk_chains(m, n)
        assert sorted(el for ch in classical for el in ch) == list(all_parts(m, n))
        for ch in classical:
            assert sum(ch[0]) + sum(ch[-1]) == m * n
            for low, high in zip(ch, ch[1:]):
                assert sorted(h - l for l, h in zip(low, high)) == [0] * (m - 1) + [1]
