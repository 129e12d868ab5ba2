"""Which `verify` checks catch each planted fault, in each mode.

Every fault of `conftest.FAULTS` is a wrong version of one production
function, planted wherever the package binds it; no check is touched.  The
matrix pins the exact set of failing checks per fault and mode, so a change
to `verify` that loses (or gains) a catch shows here.  An empty set is a
gap: the mode runs no code the fault reaches, or probes none of what it
changes.  The gaps are asserted like any other cell, not skipped.
"""

import pytest

from scdposet import GridShape, decompose, verify

from conftest import FAULTS, middle_non_start, plant, verify_with

# mode -> shape and the constants of `scdposet.decompose` set for it
MODES = {
    "full": (GridShape(4, 4), {}),
    # an odd top rank: every chain has an even length, none is one middle
    # element, and m > n
    "full-odd-rank": (GridShape(5, 3), {}),
    "sampled": (GridShape(12, 9), {"SAMPLE_STARTS": 64}),
}

ALPHA_END = {"symmetric", "disjoint", "involution", "corollary-vs-simulation"}
WALK = {"saturated", "involution"}

# fault -> failing checks in full mode, at N(4,4) and at N(5,3) alike, and in
# sampled N(12,9) over 64 starts
MATRIX = {
    "alpha_end_parts shifted up": (ALPHA_END | {"partition"}, ALPHA_END),
    "alpha_end_parts shifted down": (ALPHA_END | {"partition"}, ALPHA_END),
    "locate_parts off by one at a block boundary": ({"symmetric", "disjoint"},) * 2,
    "greedy_counts shifted": ({"involution", "corollary-vs-simulation"},) * 2,
    "psi wrong at the larger start": ({"involution"},) * 2,
    # the keyed chain of (1, 0, ..., 0) lies past the first 64 starts, and
    # sampled mode reads chains by random access, never by the walk
    "fill_walk skipping one element": (WALK | {"partition"}, set()),
    "fill_walk repeating one element": (WALK | {"partition"}, set()),
    "fill_walk swapping two elements": (WALK, set()),
    # past the cap N(12,9) counts no starts: its middle rank is skipped
    "iter_start_parts dropping one start": ({"partition", "middle-rank-count"}, set()),
    "iter_start_parts repeating one start": ({"partition", "middle-rank-count"}, set()),
    # the pass ends at the non-start, which fails the first chain check
    # still running; the chains after it are never claimed or counted
    "iter_start_parts yielding a non-start": ({"partition", "symmetric", "middle-rank-count"}, set()),
    # full mode reads every chain from the walk; only the random round
    # trips that finish `disjoint` read chains through element_at
    "element_at wrong at one interior position": ({"disjoint"}, {"saturated", "disjoint", "involution"}),
}


def test_matrix_covers_every_fault():
    assert MATRIX.keys() == FAULTS.keys()


def test_every_fault_fails_full_mode():
    assert all(full for full, _ in MATRIX.values())


@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("fault", list(FAULTS))
def test_fault_fails_exactly_its_checks(monkeypatch, fault, mode):
    plant(monkeypatch, *FAULTS[fault])
    shape, constants = MODES[mode]
    report = verify_with(monkeypatch, shape, **constants)
    failing = {c.name for c in report.checks if not c.passed and not c.skipped}
    full, sampled = MATRIX[fault]
    assert failing == (sampled if mode == "sampled" else full)
    assert report.passed == (not failing)


@pytest.mark.parametrize("m, n", [(4, 4), (5, 3), (12, 9)])
def test_planted_non_start_fails_only_a_middle_suffix_inequality(m, n):
    parts = middle_non_start(m, n)
    failing = [t for t in range(1, m) if sum(parts[t - 1 : m - 1]) > sum(n - p for p in parts[t:])]
    assert parts[-1] == 0 and 2 * sum(parts) <= m * n
    assert failing == [m - 2]


def _upper_covers(parts, n):
    for i, p in enumerate(parts):
        if p < n:
            yield (*parts[:i], p + 1, *parts[i + 1 :])


@pytest.mark.parametrize("mode", ["full", "sampled"])
def test_upper_cover_locating_to_its_chain_start_is_caught(monkeypatch, mode):
    # one upper cover of the first chain end that has one locates to that
    # chain's start.  In this decomposition every upper cover of an end is
    # the end of an earlier chain, so the end locate of `symmetric` meets
    # the fault there first.  In full mode disjoint meets it first, on
    # that earlier chain's elements, since full mode locates no upper
    # cover; sampled mode, over all 85 starts of N(4,4) with no oracle,
    # relies on symmetric
    shape = GridShape(4, 4)
    chains = list(decompose(shape))
    order = {ch.alpha.parts: k for k, ch in enumerate(chains)}
    owner = {el: ch.alpha.parts for ch in chains for el in ch.elements}
    alpha, cover = next((ch.alpha.parts, up) for ch in chains for up in _upper_covers(ch.elements[-1], shape.n))
    assert order[owner[cover]] < order[alpha]

    def extending(original):
        return lambda c, n: alpha if tuple(c) == cover else original(c, n)

    plant(monkeypatch, "locate", "locate_parts", extending)
    report = verify(shape) if mode == "full" else verify_with(monkeypatch, shape, DEFAULT_CAP=0, SAMPLE_STARTS=85)
    failing = {c.name for c in report.checks if not c.passed and not c.skipped}
    if mode == "full":
        assert "disjoint" in failing
        assert report.check("disjoint").counterexample == {
            "alpha": list(owner[cover]),
            "element": list(cover),
            "located": list(alpha),
        }
    else:
        assert "symmetric" in failing
        assert report.check("symmetric").counterexample == {
            "alpha": list(owner[cover]),
            "end": list(cover),
            "located": list(alpha),
        }
