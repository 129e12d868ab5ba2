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

from conftest import FAULTS, plant

MODES = {
    "full-oracle": lambda: verify(GridShape(4, 4)),
    "full-no-oracle": lambda: verify(GridShape(4, 4), use_oracle=False),
    "sampled": lambda: verify(GridShape(12, 9), sample=64),
}

ALPHA_END = {"symmetric", "disjoint", "involution", "corollary-vs-simulation"}
WALK = {"saturated", "involution"}

# fault -> failing checks in full N(4,4) with the oracle, full N(4,4)
# without it, and sampled N(12,9) over 64 starts
MATRIX = {
    "alpha_end_parts shifted up": (ALPHA_END | {"partition"}, ALPHA_END, ALPHA_END),
    "alpha_end_parts shifted down": (ALPHA_END | {"partition"}, ALPHA_END, ALPHA_END),
    "locate_parts off by one at a block boundary": ({"symmetric", "disjoint"},) * 3,
    "greedy_counts shifted": ({"involution", "corollary-vs-simulation"},) * 3,
    "psi wrong at the larger start": ({"involution"},) * 3,
    # the keyed chain of (1, 0, ..., 0) lies past the first 64 starts, and
    # sampled mode reads chains by random access, never by the walk
    "fill_walk skipping one element": (WALK | {"partition"}, WALK, set()),
    "fill_walk repeating one element": (WALK | {"partition"}, WALK, set()),
    "fill_walk swapping two elements": (WALK, WALK, set()),
    # past the cap N(12,9) counts no starts: its middle rank is skipped
    "iter_start_parts dropping one start": ({"partition", "middle-rank-count"}, {"middle-rank-count"}, set()),
    "iter_start_parts repeating one start": ({"partition", "middle-rank-count"}, {"middle-rank-count"}, set()),
    # full mode reads every chain from the walk and never calls element_at
    "element_at wrong at one interior position": (set(), set(), {"saturated", "disjoint", "involution"}),
}


def test_matrix_covers_every_fault():
    assert MATRIX.keys() == FAULTS.keys()


def test_every_fault_but_random_access_fails_full_mode_with_the_oracle():
    gaps = [fault for fault, (full, _, _) in MATRIX.items() if not full]
    assert gaps == ["element_at wrong at one interior position"]


@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("fault", list(FAULTS))
def test_fault_fails_exactly_its_checks(monkeypatch, fault, mode):
    plant(monkeypatch, *FAULTS[fault])
    report = MODES[mode]()
    failing = {c.name for c in report.checks if not c.passed and not c.skipped}
    assert failing == MATRIX[fault][list(MODES).index(mode)]
    assert report.passed == (not failing)


def _upper_covers(parts, n):
    for i, p in enumerate(parts):
        if p < n:
            yield (*parts[:i], p + 1, *parts[i + 1 :])


@pytest.mark.parametrize("use_oracle", [True, False])
def test_upper_cover_locating_to_its_chain_start_is_caught(monkeypatch, use_oracle):
    # one upper cover of the first chain end that has one locates to that
    # chain's start.  In this decomposition every upper cover of an end is
    # the end of an earlier chain, so the end locate of `symmetric` meets
    # the fault there first, and disjoint meets it on that chain's elements
    shape = GridShape(4, 4)
    chains = list(decompose(shape))
    order = {ch.alpha.parts: k for k, ch in enumerate(chains)}
    owner = {el: ch.alpha.parts for ch in chains for el in ch.elements}
    alpha, cover = next((ch.alpha.parts, up) for ch in chains for up in _upper_covers(ch.elements[-1], shape.n))
    assert order[owner[cover]] < order[alpha]

    def extending(original):
        return lambda c, n: alpha if tuple(c) == cover else original(c, n)

    plant(monkeypatch, "locate", "locate_parts", extending)
    report = verify(shape, use_oracle=use_oracle)
    failing = {c.name for c in report.checks if not c.passed and not c.skipped}
    if use_oracle:
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
