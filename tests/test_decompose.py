import importlib
import json
import random
import time
import tracemalloc
from collections import Counter
from itertools import islice, product
from math import comb

import pytest

import scdposet.starts
import scdposet.tableau
from scdposet import (
    Chain,
    Composition,
    GridShape,
    StartVector,
    decompose,
    level_sizes,
    verify,
)
from scdposet.decompose import chain_length_histogram, check_partition, middle_level_size
from scdposet.locate import locate_parts
from scdposet.starts import alpha_end_parts, iter_start_parts

from conftest import (
    SMALL_SHAPES,
    all_parts,
    brute_level_sizes,
    dbtk_chains,
    is_keyed_start,
    plant,
    record_checks,
    shift_one_forbidden_cell,
    verify_with,
    walk_editing_keyed_chain,
)


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

    def test_certifies_each_start_once(self, monkeypatch):
        # chain elements are plain parts tuples, and the odometer's starts
        # are derived values: per chain, the only check is its StartVector
        # certification, and no Composition is validated
        checked = record_checks(monkeypatch, Composition, StartVector)
        chains = list(decompose(GridShape(4, 4)))
        assert len(chains) == 85
        assert checked == {Composition: [], StartVector: [ch.alpha.parts for ch in chains]}


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
        report = verify(GridShape(3, 2))
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
        report = verify(GridShape(4, 6))
        assert report.passed

    def test_small_shapes_pass(self, small_shape):
        assert verify(small_shape).passed

    def test_report_is_json_serializable(self):
        report = verify(GridShape(2, 3))
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
        chains[1] = Chain(victim.alpha, victim.elements[:-1] + (stolen,))
        result = check_partition(shape, chains)
        assert not result.passed
        assert result.counterexample["element"] == list(stolen)

    def test_dropped_element_fails_partition(self):
        shape = GridShape(3, 2)
        chains = list(decompose(shape))
        victim = chains[0]
        chains[0] = Chain(victim.alpha, victim.elements[:-1])
        result = check_partition(shape, chains)
        assert not result.passed
        assert result.counterexample["element"] == list(victim.elements[-1])

    def test_cap_exceeded_skips_oracle_but_runs_rest(self, monkeypatch):
        report = verify_with(monkeypatch, GridShape(4, 4), DEFAULT_CAP=100)
        partition = report.check("partition")
        assert partition.skipped
        assert "exceeds cap" in partition.message
        assert report.check("disjoint").passed
        assert "random round trips" in report.check("disjoint").message
        assert report.passed

    def test_oracle_cannot_be_disabled(self):
        # within the cap the partition oracle always runs, and verify takes
        # no argument after the shape that could turn it off
        report = verify(GridShape(2, 2))
        partition = report.check("partition")
        assert partition.passed and not partition.skipped and partition.message == ""
        assert report.passed
        with pytest.raises(TypeError):
            verify(GridShape(2, 2), False)
        for name in ("cap", "sample"):
            with pytest.raises(TypeError):
                verify(GridShape(2, 2), **{name: 1})

    @pytest.mark.parametrize("cap, full", [(9, True), (8, False)])
    def test_cap_is_inclusive(self, monkeypatch, cap, full):
        report = verify_with(monkeypatch, GridShape(2, 2), DEFAULT_CAP=cap)
        partition = report.check("partition")
        assert report.passed
        if full:
            assert partition.passed and not partition.skipped
            assert (report.chain_count, report.element_count) == (3, 9)
        else:
            assert partition.skipped
            assert partition.message == "poset size 3**2 exceeds cap 8; oracle mode refused"
            assert (report.chain_count, report.element_count) == (None, None)

    @pytest.mark.parametrize("work, chains", [(1, 1), (12 * 8 + 5, 8), (12 * 512 - 1, 511), (12 * 512, 512)])
    def test_work_bound_sizes_the_sample_and_says_when_it_cuts(self, monkeypatch, work, chains):
        # past the cap N(12, 9) reads min(512, max(1, work // 12)) chains and
        # runs as many round trips
        module = importlib.import_module("scdposet.decompose")
        roundtrip, trips = module._random_roundtrip, []

        def counting(shape, count):
            trips.append(count)
            return roundtrip(shape, count)

        monkeypatch.setattr(module, "_random_roundtrip", counting)
        report = verify_with(monkeypatch, GridShape(12, 9), SAMPLE_WORK=work)
        assert report.passed and trips == [chains]
        message = f"sampled {chains} chains" + (f", cut from 512 by the work bound {work} // m" if chains < 512 else "")
        for name in ("symmetric", "saturated", "involution", "corollary-vs-simulation"):
            assert report.check(name).message == message
        assert report.check("disjoint").message == f"{message}; {chains} random round trips"

    def test_full_mode_is_never_cut(self, monkeypatch):
        # every full-mode shape has at most 19 rows, where the default bound
        # allows every chain; even a bound of 1 leaves full mode its 512
        # round trips
        module = importlib.import_module("scdposet.decompose")
        widest = max(m for m in range(1, 64) if 2**m <= module.DEFAULT_CAP)
        assert widest == 19 and module.SAMPLE_WORK // widest >= module.SAMPLE_STARTS
        trips = []
        monkeypatch.setattr(module, "_random_roundtrip", lambda shape, count: trips.append(count))
        report = verify_with(monkeypatch, GridShape(4, 4), SAMPLE_WORK=1)
        assert report.passed and trips == [512]
        assert all(c.message == "" for c in report.checks)

    def test_counts_past_the_decimal_limit_are_printed_in_closed_form(self, monkeypatch):
        # 30001**1000 has 4,478 digits, more than the interpreter converts to
        # decimal by default, and neither it nor, at 1,000 rows, the middle
        # rank's size is computed
        report = verify_with(monkeypatch, GridShape(1000, 30000), SAMPLE_STARTS=1)
        assert report.passed
        assert [c.name for c in report.checks if c.skipped] == ["partition", "middle-rank-count"]
        partition = report.check("partition")
        assert partition.message == "poset size 30001**1000 exceeds cap 1000000; oracle mode refused"
        middle = report.check("middle-rank-count")
        assert middle.message == "middle rank size at least C(1000, 500) exceeds cap 1000000"

    def test_middle_rank_size_past_every_cap_is_not_computed(self, monkeypatch):
        # middle_level_size took over 5 s at this shape, only for its count to be skipped
        module = importlib.import_module("scdposet.decompose")

        def refuse(shape):
            raise AssertionError(f"middle rank size computed for {shape}")

        monkeypatch.setattr(module, "middle_level_size", refuse)
        report = verify_with(monkeypatch, GridShape(4400, 9), SAMPLE_STARTS=1)
        assert report.passed
        assert [c.name for c in report.checks if c.skipped] == ["partition", "middle-rank-count"]
        middle = report.check("middle-rank-count")
        assert middle.message == "middle rank size at least C(4400, 2200) exceeds cap 1000000"

    def test_middle_rank_fits_the_cap_limit_up_to_the_row_bound(self):
        module = importlib.import_module("scdposet.decompose")
        m = module.MIDDLE_COUNT_MAX_M
        assert middle_level_size(GridShape(m, 1)) <= module.DEFAULT_CAP < comb(m + 1, (m + 1) // 2)

    @pytest.mark.parametrize("m", [22, 23])
    def test_middle_rank_row_bound_is_inclusive(self, monkeypatch, m):
        report = verify_with(monkeypatch, GridShape(m, 1), DEFAULT_CAP=0, SAMPLE_STARTS=1)
        middle = report.check("middle-rank-count")
        assert middle.skipped and middle.passed
        if m == 22:
            assert middle.message == f"middle rank size {comb(22, 11)} exceeds cap 0"
        else:
            assert middle.message == "middle rank size at least C(23, 11) exceeds cap 0"

    def test_middle_rank_of_a_long_two_row_grid_is_counted(self, monkeypatch):
        # m*m*n is past the stats limit, but the middle rank, 300,001
        # compositions, fits the cap
        report = verify_with(monkeypatch, GridShape(2, 300000), SAMPLE_STARTS=1)
        middle = report.check("middle-rank-count")
        assert middle.passed and not middle.skipped

    def test_poset_size_is_computed_only_within_the_cap_bit_length(self, monkeypatch):
        # (n+1)**m >= 2**m exceeds a cap of 10 bits past 10 rows, so the
        # size of N(11, 1) is never computed; both are named in closed form
        computed = []
        size = GridShape.size.fget
        monkeypatch.setattr(GridShape, "size", property(lambda shape: computed.append(shape.m) or size(shape)))
        for m in (10, 11):
            report = verify_with(monkeypatch, GridShape(m, 1), DEFAULT_CAP=1000, SAMPLE_STARTS=1)
            assert report.passed
            assert report.check("partition").message == f"poset size 2**{m} exceeds cap 1000; oracle mode refused"
        assert computed == [10]

    @pytest.mark.parametrize("below", [0, 1])
    def test_middle_rank_size_equal_to_the_cap_is_counted(self, monkeypatch, below):
        # N(8, 5) is sampled at either cap; its middle rank is counted at a
        # cap equal to its size, and skipped one below
        shape = GridShape(8, 5)
        expected = middle_level_size(shape)
        report = verify_with(monkeypatch, shape, DEFAULT_CAP=expected - below)
        middle = report.check("middle-rank-count")
        assert report.passed and report.check("partition").skipped
        assert middle.skipped == bool(below)

    def test_skipped_middle_rank_count_is_charged_for_its_size(self, monkeypatch):
        module = importlib.import_module("scdposet.decompose")
        size = module.middle_level_size

        def slow_size(shape):
            time.sleep(0.05)
            return size(shape)

        monkeypatch.setattr(module, "middle_level_size", slow_size)
        middle = verify_with(monkeypatch, GridShape(2, 2), DEFAULT_CAP=0, SAMPLE_STARTS=1).check("middle-rank-count")
        assert middle.skipped
        assert middle.seconds >= 0.05

    @pytest.mark.parametrize("shape, sample", [(GridShape(4, 4), 512), (GridShape(12, 9), 64)])
    def test_check_seconds_add_up_to_no_more_than_the_wall_time(self, monkeypatch, shape, sample):
        monkeypatch.setattr(importlib.import_module("scdposet.decompose"), "SAMPLE_STARTS", sample)
        t0 = time.perf_counter()
        report = verify(shape)
        wall = time.perf_counter() - t0
        assert report.passed
        assert all(c.seconds >= 0 for c in report.checks)
        assert sum(c.seconds for c in report.checks) <= wall

    def test_middle_count_skipped_past_cap(self, monkeypatch):
        report = verify_with(monkeypatch, GridShape(6, 6), DEFAULT_CAP=50, SAMPLE_STARTS=16)
        assert report.check("middle-rank-count").skipped
        assert report.passed

    def test_sampled_mode_is_deterministic(self, monkeypatch):
        shape = GridShape(4, 5)
        a = verify_with(monkeypatch, shape, DEFAULT_CAP=100, SAMPLE_STARTS=32).to_dict()
        b = verify_with(monkeypatch, shape, DEFAULT_CAP=100, SAMPLE_STARTS=32).to_dict()
        for check in a["checks"] + b["checks"]:
            del check["seconds"]
        assert a == b

    def test_full_mode_builds_each_chain_once_and_no_grid(self, monkeypatch):
        # one value per start: its chain, which the partition oracle claims,
        # and, except at the larger start of a pair, its greedy row counts,
        # plus the psi image's chain once per pair
        # of distinct starts; no cell grid is coloured, and chain elements
        # stay plain tuples, so the only Compositions are those of the
        # start, psi(start) and psi(psi(start)), and the one random input
        # of each of disjoint's 512 round trips.  psi runs twice at each of
        # the 30 smaller starts of N(4, 4)'s psi pairs, once at each of its
        # 25 fixed points, and not at all at the 30 larger starts
        module = importlib.import_module("scdposet.decompose")
        built = Counter()
        fn = module.chain_elements
        psi = module.psi

        def counting(sv):
            built["chain_elements"] += 1
            return fn(sv)

        def counting_psi(sv):
            built["psi"] += 1
            return psi(sv)

        def refuse(sv):
            raise AssertionError(f"grid built for {sv.parts}")

        validated = Counter()
        original = Composition.__post_init__

        def validating(self):
            validated["compositions"] += 1
            original(self)

        monkeypatch.setattr(module, "chain_elements", counting)
        monkeypatch.setattr(module, "psi", counting_psi)
        monkeypatch.setattr(scdposet.tableau, "build_tableau", refuse)
        monkeypatch.setattr(Composition, "__post_init__", validating)
        report = verify(GridShape(4, 4))
        assert report.passed
        starts = report.chain_count
        assert starts == 85
        assert built["chain_elements"] <= starts + (starts + 1) // 2
        assert built["psi"] == 85
        assert validated["compositions"] <= 3 * starts + module.SAMPLE_STARTS

    def test_symmetric_catches_wrong_end_vector(self, monkeypatch):
        # the chain still ends at the complementary rank, but not where
        # locate says
        shifted = shift_one_forbidden_cell(scdposet.starts.alpha_end_parts)
        monkeypatch.setattr(scdposet.starts, "alpha_end_parts", shifted)
        report = verify(GridShape(3, 3))
        assert not report.check("symmetric").passed

    def test_sampled_large_grid_colours_no_grid(self, monkeypatch):
        # a 400,000-cell grid: no cell grid is built, every per-chain check
        # runs, and memory does not grow with n
        def refuse(sv):
            raise AssertionError(f"grid built for {sv.parts}")

        monkeypatch.setattr(scdposet.tableau, "build_tableau", refuse)
        tracemalloc.start()
        try:
            report = verify_with(monkeypatch, GridShape(2, 200000), SAMPLE_STARTS=1)
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
        shifted = shift_one_forbidden_cell(scdposet.starts.alpha_end_parts)
        monkeypatch.setattr(scdposet.starts, "alpha_end_parts", shifted)
        report = verify_with(monkeypatch, GridShape(2, 200000), SAMPLE_STARTS=4)
        corollary = report.check("corollary-vs-simulation")
        assert not corollary.skipped
        assert not corollary.passed
        assert corollary.counterexample == {"alpha": [1, 0], "formula": [1, 0], "simulation": [0, 1]}
        assert not report.passed

    def test_involution_reports_psi_image_outside_starting_set(self, monkeypatch):
        # with one forbidden cell moved, psi((1, 0)) reverses the wrong end
        # vector to (0, 1), which is no start; verify reports it, not raises
        shifted = shift_one_forbidden_cell(scdposet.starts.alpha_end_parts)
        monkeypatch.setattr(scdposet.starts, "alpha_end_parts", shifted)
        report = verify_with(monkeypatch, GridShape(2, 200000), SAMPLE_STARTS=4)
        involution = report.check("involution")
        assert not involution.skipped
        assert not involution.passed
        assert involution.counterexample == {"alpha": [1, 0], "reason": "psi(alpha) is not a start vector"}
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

    def test_involution_reports_psi_image_that_psi_refuses(self, monkeypatch):
        # a psi that certifies a start's image but refuses to map an image
        # it made: the first start of a pair is the counterexample.  At the
        # fixed point 0 before it psi(psi(0)) is psi(0), which is not built
        # twice
        module = importlib.import_module("scdposet.decompose")
        psi = module.psi
        images = []

        def psi_once(sv):
            if any(sv is image for image in images):
                raise scdposet.starts.NotStartVectorError(f"{sv.parts} refused")
            images.append(psi(sv))
            return images[-1]

        monkeypatch.setattr(module, "psi", psi_once)
        involution = verify(GridShape(3, 3)).check("involution")
        assert involution.counterexample == {
            "alpha": [0, 1, 0],
            "psi": [1, 0, 0],
            "reason": "psi(psi(alpha)) is not a start vector",
        }

    def test_involution_catches_psi_wrong_only_at_larger_starts(self, monkeypatch):
        # full mode skips the check at the larger start of each pair, but the
        # smaller start has already applied psi to that start's value: a psi
        # that is wrong only there still fails, at the first pair's smaller
        # start
        module = importlib.import_module("scdposet.decompose")
        psi = module.psi
        shape = GridShape(4, 4)

        def psi_wrong_above(sv):
            image = psi(sv)
            return sv if image.parts < sv.parts else image

        first = next(
            parts
            for parts in scdposet.starts.iter_start_parts(shape)
            if psi(StartVector.of(parts, shape.n)).parts > parts
        )
        monkeypatch.setattr(module, "psi", psi_wrong_above)
        involution = verify(shape).check("involution")
        assert not involution.passed
        image = list(psi(StartVector.of(first, shape.n)).parts)
        assert involution.counterexample == {"alpha": list(first), "psi": image, "psi_psi": image}

    def test_involution_reports_psi_psi_that_is_not_alpha(self, monkeypatch):
        # with one forbidden cell moved from row 4 to row 3, psi sends
        # (0, 0, 1, 0) to the start (0, 1, 0, 0), which it maps to itself
        shifted = shift_one_forbidden_cell(scdposet.starts.alpha_end_parts)
        monkeypatch.setattr(scdposet.starts, "alpha_end_parts", shifted)
        involution = verify(GridShape(4, 2)).check("involution")
        assert involution.counterexample == {"alpha": [0, 0, 1, 0], "psi": [0, 1, 0, 0], "psi_psi": [0, 1, 0, 0]}

    def test_involution_catches_image_chain_of_another_length(self, monkeypatch):
        # the chains of the pass are honest, but the chain built for each psi
        # image loses its last element
        module = importlib.import_module("scdposet.decompose")
        chain_elements = module.chain_elements

        def honest_decompose(shape):
            for parts in module.iter_start_parts(shape):
                yield chain_elements(StartVector(Composition(shape, parts)))

        def short_chain(sv):
            return Chain(sv, chain_elements(sv).elements[:-1])

        monkeypatch.setattr(module, "decompose", honest_decompose)
        monkeypatch.setattr(module, "chain_elements", short_chain)
        report = verify(GridShape(3, 3))
        assert report.check("partition").passed
        assert report.check("involution").counterexample == {
            "alpha": [0, 1, 0],
            "psi": [1, 0, 0],
            "reason": "chain is not the reversed star",
        }

    def test_disjoint_reports_failed_random_round_trip(self, monkeypatch):
        # the sampled chains locate back to their starts, so only the random
        # round trips, which probe membership by random access, can fail
        module = importlib.import_module("scdposet.decompose")
        monkeypatch.setattr(module, "chain_contains", lambda sv, c: False)
        disjoint = verify_with(monkeypatch, GridShape(4, 4), DEFAULT_CAP=100, SAMPLE_STARTS=8).check("disjoint")
        assert disjoint.message == "sampled 8 chains; 8 random round trips"
        assert not disjoint.passed
        element = disjoint.counterexample["element"]
        assert len(element) == 4 and all(0 <= p <= 4 for p in element)
        assert disjoint.counterexample == {"element": element, "located": list(module.locate_parts(tuple(element), 4))}

    def test_random_round_trips_draw_every_part_value(self, monkeypatch):
        module = importlib.import_module("scdposet.decompose")
        drawn, locate = set(), module.locate
        monkeypatch.setattr(module, "locate", lambda c: drawn.update(c.parts) or locate(c))
        assert module._random_roundtrip(GridShape(4, 4), 64) is None
        assert drawn == set(range(5))

    def test_probe_positions_hold_both_ends_and_at_most_64(self):
        # a sampled chain of up to 64 elements is probed everywhere, and a
        # longer one at 64 distinct positions, its ends included
        positions = importlib.import_module("scdposet.decompose")._positions
        for top in range(300):
            probed = positions(top)
            assert probed[0] == 0 and probed[-1] == top
            assert probed == sorted(set(probed)) and len(probed) == min(top + 1, 64)


def reference_partition(m, n, chains):
    """The partition verdict from definitions: a dict from element to start,
    filled in chain order, then a lexicographic sweep of the grid."""
    owner = {}
    for ch in chains:
        alpha = list(ch.alpha.parts)
        for el in ch.elements:
            if len(el) != m or any(p < 0 or p > n for p in el):
                return False, {"element": list(el), "chains": [alpha]}
            if el in owner:
                return False, {"element": list(el), "chains": [owner[el], alpha]}
            owner[el] = alpha
    for parts in product(range(n + 1), repeat=m):
        if parts not in owner:
            return False, {"element": list(parts), "chains": []}
    return True, None


def mutations(chains, rng):
    """Seeded tamperings of a decomposition, by name."""
    pick = rng.randrange
    a = pick(len(chains))
    b = (a + 1 + pick(len(chains) - 1)) % len(chains) if len(chains) > 1 else None

    def edited(edits):
        out = list(chains)
        for i, elements in edits.items():
            out[i] = Chain(chains[i].alpha, elements)
        return out

    ea = chains[a].elements
    ja = pick(len(ea))
    yield "none", list(chains)
    yield "drop one", edited({a: ea[:ja] + ea[ja + 1 :]})
    yield "duplicate one", edited({a: ea + (ea[ja],)})
    if b is not None:
        eb = chains[b].elements
        jb = pick(len(eb))
        yield "duplicate into another", edited({b: eb + (ea[ja],)})
        yield "move one", edited({a: ea[:ja] + ea[ja + 1 :], b: eb[:jb] + (ea[ja],) + eb[jb:]})
        yield "drop two", edited({a: ea[:ja] + ea[ja + 1 :], b: eb[:jb] + eb[jb + 1 :]})


def first_unsaturated_step(elements):
    """The first neighbours of `elements` that are no cover step, pair by pair."""
    for a, b in zip(elements, elements[1:]):
        if sum(b) != sum(a) + 1 or any(x > y for x, y in zip(a, b)):
            return a, b
    return None


class TestSaturatedCheck:
    """Full mode reads the whole chain in one pass; the counterexample is
    still the first pair that is no cover step."""

    SV = StartVector.of((0, 0, 0, 0), 4)

    @staticmethod
    def sideways(els, j):
        # keeps every rank step at one, but element j+1 is not above element j
        els[j] = (1, *els[j - 1][1:])

    @pytest.mark.parametrize(
        "edits",
        [[], [("sideways", 2)], [("gap", 6)], [("sideways", 9), ("gap", 4)], [("gap", 3), ("sideways", 10)], [("sideways", 16)]],
        ids=["intact", "sideways", "gap", "gap-first", "gap-then-sideways", "last-pair"],
    )
    def test_counterexample_is_the_first_bad_step(self, edits):
        module = importlib.import_module("scdposet.decompose")
        els = list(scdposet.tableau.chain_elements(self.SV).elements)
        for kind, j in edits:
            if kind == "gap":
                del els[j]
            else:
                self.sideways(els, j)
        els = tuple(els)
        bad = first_unsaturated_step(els)
        assert (bad is None) == (not edits)
        found = module._check_saturated(module._StartValue(self.SV, els))
        expected = None if bad is None else {"alpha": [0, 0, 0, 0], "low": list(bad[0]), "high": list(bad[1])}
        assert found == expected


class TestPartitionOracle:
    @pytest.mark.parametrize(
        "extra",
        [(1, 2), (1, 1, 0), (1,), (-1, 1)],
        ids=["part-above-n", "too-long", "too-short", "negative-part"],
    )
    def test_element_outside_grid_fails(self, extra):
        shape = GridShape(2, 1)
        chains = list(decompose(shape))
        first = chains[0]
        chains[0] = Chain(first.alpha, first.elements + (extra,))
        result = check_partition(shape, chains)
        assert not result.passed
        assert result.counterexample == {"element": list(extra), "chains": [list(first.alpha.parts)]}

    def test_negative_part_does_not_wrap_to_the_last_slot(self):
        # (0, -1) would index the slot of (1, 0) from the end if not refused;
        # drop (1, 1) so only the wrap could make the grid look covered
        shape = GridShape(2, 1)
        chains = [Chain(ch.alpha, tuple(el for el in ch.elements if el != (1, 1))) for ch in decompose(shape)]
        chains[0] = Chain(chains[0].alpha, chains[0].elements + ((0, -1),))
        result = check_partition(shape, chains)
        assert not result.passed
        assert result.counterexample["element"] == [0, -1]

    def test_start_outside_grid_fails(self):
        # every element lies in the grid, but the slots' owner is the start,
        # so a start from another grid is refused before anything is claimed
        shape = GridShape(2, 1)
        chains = list(decompose(shape))
        chains[1] = Chain(StartVector.of((2, 0), 3), chains[1].elements)
        result = check_partition(shape, chains)
        assert not result.passed
        assert result.counterexample == {"element": [2, 0], "chains": [[2, 0]]}

    def test_counterexamples_match_reference(self, small_shape):
        m, n = small_shape.m, small_shape.n
        chains = list(decompose(small_shape))
        seen = Counter()
        for seed in range(6):
            for name, tampered in mutations(chains, random.Random(seed)):
                got = check_partition(small_shape, tampered)
                assert (got.passed, got.counterexample) == reference_partition(m, n, tampered), (name, seed)
                assert got.name == "partition" and not got.skipped and got.message == ""
                seen[name, got.passed] += 1
        assert seen["none", True] == 6
        for name in ("drop one", "duplicate one"):
            assert seen[name, False] == 6
        if len(chains) > 1:
            assert seen["duplicate into another", False] == seen["drop two", False] == 6
            assert seen["move one", True] == 6

    def test_memory_stays_flat(self):
        shape = GridShape(8, 3)
        tracemalloc.start()
        try:
            result = check_partition(shape, decompose(shape))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.passed
        assert peak < 2 * 2**20, f"partition oracle peaked at {peak} bytes traced"


class TestVerifyPass:
    """Full-mode verify claims, checks and counts every chain in one pass."""

    @pytest.mark.parametrize("shape", [GridShape(3, 2), GridShape(4, 4)], ids=str)
    @pytest.mark.parametrize("tamper", ["steal one", "drop one"])
    def test_partition_counterexample_matches_standalone_oracle(self, monkeypatch, shape, tamper):
        module = importlib.import_module("scdposet.decompose")
        honest = list(decompose(shape))
        first, second = honest[0], honest[1]
        if tamper == "steal one":
            edits = {second.alpha: second.elements[:-1] + (first.elements[1],)}
        else:
            edits = {first.alpha: first.elements[:-1]}
        original = module.chain_elements

        def tampered(sv):
            ch = original(sv)
            return Chain(ch.alpha, edits.get(sv, ch.elements))

        monkeypatch.setattr(module, "chain_elements", tampered)
        chains = list(decompose(shape))
        expected = reference_partition(shape.m, shape.n, chains)
        assert not expected[0]
        standalone = check_partition(shape, chains)
        got = verify(shape).check("partition")
        assert (got.passed, got.counterexample) == (standalone.passed, standalone.counterexample) == expected

    def test_starts_are_enumerated_once_and_streamed(self, monkeypatch):
        # the pass builds each start's chain before it draws the next start,
        # and nothing else enumerates the starting set
        module = importlib.import_module("scdposet.decompose")
        log = []
        iter_start_parts, chain_elements = module.iter_start_parts, module.chain_elements

        def logged_starts(shape):
            for parts in iter_start_parts(shape):
                log.append(("start", parts))
                yield parts

        def logged_chain(sv):
            log.append(("chain", sv.parts))
            return chain_elements(sv)

        monkeypatch.setattr(module, "iter_start_parts", logged_starts)
        monkeypatch.setattr(module, "chain_elements", logged_chain)
        assert verify(GridShape(4, 4)).passed
        assert sum(event == "start" for event, _ in log) == 85
        for k, (event, parts) in enumerate(log):
            if event == "start":
                assert log[k + 1] == ("chain", parts)

    def test_pass_reads_every_start_after_every_chain_check_fails(self, monkeypatch):
        # reversed chains fail saturated, a locate that echoes its input
        # reversed fails symmetric and disjoint, and one extra greedy cell
        # in the first row fails involution and the corollary, all at the
        # first start, 0; the chain sets stay intact, so partition passes
        module = importlib.import_module("scdposet.decompose")
        chain_elements, greedy_counts = module.chain_elements, module.greedy_counts
        built = Counter()

        def reversed_chain(sv):
            built[sv.parts] += 1
            ch = chain_elements(sv)
            return Chain(ch.alpha, ch.elements[::-1])

        monkeypatch.setattr(module, "chain_elements", reversed_chain)
        monkeypatch.setattr(module, "locate_parts", lambda c, n: c[::-1])
        monkeypatch.setattr(module, "greedy_counts", lambda parts, n: (1, *greedy_counts(parts, n)[1:]))
        report = verify(GridShape(4, 4))
        chain_checks = ["symmetric", "saturated", "disjoint", "involution", "corollary-vs-simulation"]
        for name in chain_checks:
            assert report.check(name).counterexample["alpha"] == [0, 0, 0, 0], name
        assert report.chain_count == 85
        assert report.check("middle-rank-count").passed
        # the pass reads every chain of the stream once
        assert len(built) == 85 and set(built.values()) == {1}
        assert report.check("partition").passed and not report.check("partition").skipped

    @pytest.mark.parametrize("mode", ["full", "sampled"])
    def test_each_composition_is_located_once(self, monkeypatch, mode):
        # disjoint locates every element but the end, symmetric the end, at
        # every start, and no check an upper cover of an end.  Sampled over
        # all 85 starts of N(4, 4), every chain is shorter than the probe
        # budget, so every element is probed
        module = importlib.import_module("scdposet.decompose")
        original = module.locate_parts
        calls = Counter()

        def counting(c, n):
            calls[c] += 1
            return original(c, n)

        monkeypatch.setattr(module, "locate_parts", counting)
        shape = GridShape(4, 4)
        report = verify(shape) if mode == "full" else verify_with(monkeypatch, shape, DEFAULT_CAP=0, SAMPLE_STARTS=85)
        assert report.passed
        assert sum(calls.values()) == shape.size
        assert calls == Counter(product(range(5), repeat=4))

    @pytest.mark.parametrize("shape", [GridShape(m, n) for m, n in SMALL_SHAPES] + [GridShape(12, 9)], ids=str)
    def test_each_upper_cover_of_a_top_is_the_top_of_an_earlier_chain(self, shape):
        # why no check locates an upper cover of a chain's end: the chain
        # whose top it is comes earlier in every lexicographic prefix of
        # the starts, whose end locate meets a locate fault there first
        n = shape.n

        def top(alpha):
            return tuple(n - e for e in alpha_end_parts(alpha, n))

        for alpha in islice(iter_start_parts(shape), 512):
            end = top(alpha)
            for i, p in enumerate(end):
                if p < n:
                    cover = (*end[:i], p + 1, *end[i + 1 :])
                    owner = locate_parts(cover, n)
                    assert owner < alpha and top(owner) == cover, (alpha, cover, owner)

    def test_partner_starts_skip_what_their_pair_settled(self, monkeypatch):
        # the 30 larger starts of N(4, 4)'s psi pairs are the partners: the
        # pass runs there none of the checks their pair settled, and builds
        # no greedy counts for them, while each of the 55 smaller or
        # self-paired starts runs every check and builds its own greedy
        # counts and, unless it is a fixed point, its image's: once per start
        module = importlib.import_module("scdposet.decompose")
        shape = GridShape(4, 4)
        everyone = set(scdposet.starts.iter_start_parts(shape))
        larger = set()
        for parts in everyone:
            image = scdposet.starts.psi(StartVector.of(parts, shape.n)).parts
            if image > parts:
                larger.add(image)
        ran = {}
        counted = Counter()
        greedy_counts = module.greedy_counts

        def spying(name, check):
            def spy(v, *args):
                ran.setdefault(name, set()).add((v.sv.parts, v.partner))
                return check(v, *args)

            return spy

        def counting(parts, n):
            counted[parts] += 1
            return greedy_counts(parts, n)

        for name, check in list(module._CHAIN_CHECKS.items()):
            monkeypatch.setitem(module._CHAIN_CHECKS, name, spying(name, check))
        monkeypatch.setattr(module, "greedy_counts", counting)
        assert verify(shape).passed
        assert len(larger) == 30
        for name in ("symmetric", "disjoint"):
            assert ran[name] == {(parts, parts in larger) for parts in everyone}, name
        settled = {"saturated", "involution", "corollary-vs-simulation"}
        assert module._SETTLED_BY_PAIR == settled
        for name in settled:
            assert ran[name] == {(parts, False) for parts in everyone - larger}, name
        assert sum(counted.values()) == 85 and counted == Counter(everyone)

    def test_no_start_is_a_partner_once_involution_has_failed(self, monkeypatch):
        # psi is wrong only at (0, 0, 2, 0), where it fixes its input; every
        # later start runs saturated, (1, 0, 0, 0) too, whose pair (0, 0, 1,
        # 0) passed involution before the failure
        module = importlib.import_module("scdposet.decompose")
        shape = GridShape(4, 4)
        broken = (0, 0, 2, 0)
        plant(monkeypatch, "starts", "psi", lambda psi: lambda a: StartVector(a.alpha) if a.parts == broken else psi(a))
        saturated = module._CHAIN_CHECKS["saturated"]
        ran = set()

        def spy(v):
            ran.add(v.sv.parts)
            return saturated(v)

        monkeypatch.setitem(module._CHAIN_CHECKS, "saturated", spy)
        report = verify(shape)
        assert report.check("involution").counterexample == {
            "alpha": list(broken),
            "psi": list(broken),
            "reason": "rotated tableau differs",
        }
        later = {parts for parts in scdposet.starts.iter_start_parts(shape) if parts > broken}
        assert (1, 0, 0, 0) in later and later <= ran
        assert report.check("saturated").passed

    @pytest.mark.parametrize("first", [1, 3, 6])
    def test_involution_reports_the_first_mismatched_position(self, monkeypatch, first):
        # the chain of (1, 0, 0, 0), psi image of (0, 0, 1, 0), with two
        # elements swapped from position `first` on
        def swap(out):
            out[first], out[first + 1] = out[first + 1], out[first]

        plant(monkeypatch, "tableau", "fill_walk", walk_editing_keyed_chain(swap))
        involution = verify(GridShape(4, 4)).check("involution")
        assert involution.counterexample == {
            "alpha": [0, 0, 1, 0],
            "psi": [1, 0, 0, 0],
            "reason": f"chain mismatch at position {first}",
        }

    def test_stream_start_outside_the_grid_is_reported_not_raised(self, monkeypatch):
        # a start from another grid, (2, 0) for n = 3, is its own psi image,
        # so it is no partner and runs every check; partition refuses it
        module = importlib.import_module("scdposet.decompose")
        honest = module.decompose

        def with_stranger(shape):
            yield from honest(shape)
            yield module.chain_elements(StartVector.of((2, 0), 3))

        monkeypatch.setattr(module, "decompose", with_stranger)
        report = verify(GridShape(2, 1))
        assert report.check("partition").counterexample == {"element": [2, 0], "chains": [[2, 0]]}
        assert not report.check("middle-rank-count").passed

    def test_pass_reads_the_decompose_stream(self, monkeypatch):
        # verify certifies the chains `decompose` streams, not a rebuild of
        # them: a stream that drops one chain fails partition at its start
        module = importlib.import_module("scdposet.decompose")
        honest = module.decompose

        def dropping(shape):
            return (ch for ch in honest(shape) if ch.alpha.parts != (0, 1, 0))

        monkeypatch.setattr(module, "decompose", dropping)
        report = verify(GridShape(3, 2))
        assert report.check("partition").counterexample == {"element": [0, 1, 0], "chains": []}
        assert report.chain_count == 6
        assert report.check("middle-rank-count").counterexample == {"chain_count": 6, "middle_level_size": 7}

    def test_sampled_mode_enumerates_the_starts_once(self, monkeypatch):
        # past the cap the pass checks the first starts it samples, and the
        # same enumeration goes on to count the middle rank, which fits
        module = importlib.import_module("scdposet.decompose")
        calls = []
        iter_start_parts = module.iter_start_parts

        def logged_starts(shape):
            calls.append(shape)
            return iter_start_parts(shape)

        monkeypatch.setattr(module, "iter_start_parts", logged_starts)
        report = verify_with(monkeypatch, GridShape(4, 4), DEFAULT_CAP=100, SAMPLE_STARTS=8)
        assert calls == [GridShape(4, 4)]
        assert report.passed and report.check("symmetric").message == "sampled 8 chains"
        middle = report.check("middle-rank-count")
        assert middle.passed and not middle.skipped

    def test_sampled_count_of_too_many_starts_fails_without_raising(self, monkeypatch):
        # every start twice: 24 starts all land in the sample, past the
        # expected 12 + 1, so nothing is left to count and the count is capped
        module = importlib.import_module("scdposet.decompose")
        iter_start_parts = module.iter_start_parts

        def doubled_starts(shape):
            for parts in iter_start_parts(shape):
                yield from (parts, parts)

        monkeypatch.setattr(module, "iter_start_parts", doubled_starts)
        report = verify_with(monkeypatch, GridShape(3, 3), DEFAULT_CAP=50)
        assert report.check("symmetric").message == "sampled 24 chains"
        middle = report.check("middle-rank-count")
        assert not middle.passed and not middle.skipped
        assert middle.counterexample == {"chain_count": 13, "middle_level_size": 12}

    @pytest.mark.parametrize("shape, extra", [(GridShape(4, 4), 2), (GridShape(8, 5), 1)], ids=["full", "sampled"])
    def test_count_of_two_extra_starts_stops_one_past_the_middle_rank(self, monkeypatch, shape, extra):
        # the keyed start comes three times, past the 512 starts sampled at
        # N(8, 5): either mode counts expected + 1 chains, and the sampled
        # count reads only one of the extra starts, where full mode's
        # stream reads both
        yielded = []

        def tripled(original):
            def starts(grid):
                for parts in original(grid):
                    for again in (parts,) * (3 if is_keyed_start(parts) else 1):
                        yielded.append(again)
                        yield again

            return starts

        plant(monkeypatch, "starts", "iter_start_parts", tripled)
        expected = middle_level_size(shape)
        middle = verify(shape).check("middle-rank-count")
        assert middle.counterexample == {"chain_count": expected + 1, "middle_level_size": expected}
        assert len(yielded) == expected + extra


class TestAgainstDeBruijnTengbergenKruyswijk:
    def test_same_chain_count_and_length_histogram(self, small_shape):
        m, n = small_shape.m, small_shape.n
        classical = dbtk_chains(m, n)
        lengths = Counter(len(ch) for ch in decompose(small_shape))
        assert Counter(len(ch) for ch in classical) == lengths
        assert len(classical) == sum(lengths.values()) == brute_level_sizes(m, n)[m * n // 2]

    def test_same_chains(self, small_shape):
        m, n = small_shape.m, small_shape.n
        assert {ch.elements for ch in decompose(small_shape)} == {tuple(c) for c in dbtk_chains(m, n)}

    def test_oracle_is_a_symmetric_chain_decomposition(self, small_shape):
        m, n = small_shape.m, small_shape.n
        classical = dbtk_chains(m, n)
        assert sorted(el for ch in classical for el in ch) == list(all_parts(m, n))
        for ch in classical:
            assert sum(ch[0]) + sum(ch[-1]) == m * n
            for low, high in zip(ch, ch[1:]):
                assert sorted(h - l for l, h in zip(low, high)) == [0] * (m - 1) + [1]
