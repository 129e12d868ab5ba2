"""Acceptance battery: golden examples, whole-poset verification, throughput.

Each test prints a single PASS line when its criterion holds (visible with
pytest -s or -rA); a failed criterion fails the test with the usual pytest
diagnostics instead.
"""

import json
import random
import time

from scdposet import (
    Composition,
    GridShape,
    StartVector,
    ChainTableau,
    chain_contains,
    chain_elements,
    cli,
    decompose,
    level_sizes,
    locate_parts,
    psi,
    verify,
)
from scdposet.core import star
from scdposet.decompose import chain_length_histogram
from scdposet.starts import alpha_end_parts, iter_start_parts
from scdposet.tableau import alpha_end_from_tableau, greedy_counts, rotate_180, strip_sources

from conftest import brute_is_start, literal_grid

# every grid with 1 <= m <= 5 and 1 <= n <= 4, plus three stretched ones
SHAPES = [(m, n) for m in range(1, 6) for n in range(1, 5)] + [(3, 6), (2, 10), (6, 2)]

GOLDEN_CHAIN_A = [
    [2, 0, 5, 0], [2, 0, 5, 1], [2, 0, 6, 1], [2, 1, 6, 1], [2, 2, 6, 1], [2, 3, 6, 1],
    [2, 4, 6, 1], [3, 4, 6, 1], [4, 4, 6, 1], [5, 4, 6, 1], [6, 4, 6, 1],
]
GOLDEN_CHAIN_B = [[1, 3, 2, 0], [1, 3, 2, 1], [2, 3, 2, 1], [3, 3, 2, 1], [4, 3, 2, 1]]

# agreed with the greedy grid simulation before being frozen here
THIRTEEN_ROW_ALPHA = (5, 2, 1, 6, 4, 1, 4, 0, 5, 4, 3, 2, 0)
THIRTEEN_ROW_END = (0, 5, 2, 1, 3, 6, 2, 4, 0, 3, 4, 5, 2)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_criterion_1_golden_chain(capsys):
    argv = ["chain", "--alpha", "2,0,5,0", "-n", "6"]
    code, out = run_cli(capsys, *argv)  # warm-up, also the checked output
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha_end"] == [0, 2, 0, 5]
    assert payload["start"] == [2, 0, 5, 0]
    assert payload["end"] == [6, 4, 6, 1]
    assert payload["elements"] == GOLDEN_CHAIN_A

    best = min(_timed_cli_run(capsys, argv) for _ in range(5))
    assert best < 0.010, f"chain command took {best * 1000:.2f} ms"
    print(f"\ncriterion 1 golden chain (2,0,5,0) n=6: PASS ({best * 1000:.2f} ms)")


def _timed_cli_run(capsys, argv):
    t0 = time.perf_counter()
    code = cli.main(list(argv))
    elapsed = time.perf_counter() - t0
    capsys.readouterr()
    assert code == 0
    return elapsed


def test_criterion_2_second_golden_chain(capsys):
    code, out = run_cli(capsys, "chain", "--alpha", "1,3,2,0", "-n", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha_end"] == [0, 1, 2, 3]
    assert payload["elements"] == GOLDEN_CHAIN_B
    print("\ncriterion 2 golden chain (1,3,2,0) n=4: PASS")


def test_criterion_3_golden_locate(capsys):
    code, out = run_cli(capsys, "locate", "--c", "5,2,3,6,4,1,5,3", "-n", "7")
    assert code == 0
    assert json.loads(out)["alpha"] == [5, 2, 1, 6, 4, 1, 4, 0]
    print("\ncriterion 3 golden locate in N(8,7): PASS")


def test_criterion_4_oracle_verification():
    t0 = time.perf_counter()
    for m, n in SHAPES:
        report = verify(GridShape(m, n))
        for name in ("partition", "symmetric", "saturated", "disjoint"):
            check = report.check(name)
            assert check.passed and not check.skipped, (m, n, name, check.counterexample)
        assert report.passed, (m, n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"verification sweep took {elapsed:.1f} s"
    print(f"\ncriterion 4 oracle verification over {len(SHAPES)} shapes: PASS ({elapsed:.1f} s)")


def test_criterion_5_counting_identity():
    for m, n in SHAPES:
        shape = GridShape(m, n)
        profile = level_sizes(shape)
        assert sum(1 for _ in iter_start_parts(shape)) == profile.middle, (m, n)
        assert chain_length_histogram(shape) == profile.length_counts(), (m, n)
    chains = list(decompose(GridShape(3, 2)))
    assert len(chains) == 7
    assert sum(len(ch) for ch in chains) == 27
    print(f"\ncriterion 5 counting identity over {len(SHAPES)} shapes: PASS")


def test_criterion_6_corollary_vs_simulation():
    for m, n in SHAPES:
        shape = GridShape(m, n)
        for parts in iter_start_parts(shape):
            sv = StartVector(Composition(shape, parts))
            simulated = alpha_end_from_tableau(ChainTableau(sv, literal_grid(parts, n)))
            assert alpha_end_parts(parts, n) == simulated, parts
            assert greedy_counts(parts, n) == simulated, parts
    sv = StartVector.of(THIRTEEN_ROW_ALPHA, 7)
    assert sv.end == THIRTEEN_ROW_END
    assert alpha_end_from_tableau(ChainTableau(sv, literal_grid(THIRTEEN_ROW_ALPHA, 7))) == THIRTEEN_ROW_END
    assert greedy_counts(THIRTEEN_ROW_ALPHA, 7) == THIRTEEN_ROW_END
    print("\ncriterion 6 corollary vs simulation (incl. 13-row grid): PASS")


def test_criterion_7_involution_suite():
    failures = 0
    for m, n in SHAPES:
        shape = GridShape(m, n)
        for parts in iter_start_parts(shape):
            sv = StartVector(Composition(shape, parts))
            image = psi(sv)
            if psi(image).parts != parts:
                failures += 1
            if image.end != tuple(reversed(parts)):
                failures += 1
            rotated = rotate_180(literal_grid(parts, n)) == strip_sources(literal_grid(image.parts, n))
            if not rotated:
                failures += 1
            # the count form of the half-turn that verify reads
            by_counts = (
                image.parts[::-1] == greedy_counts(parts, n) and greedy_counts(image.parts, n)[::-1] == parts
            )
            if by_counts != rotated:
                failures += 1
            fwd = chain_elements(sv).elements
            bwd = chain_elements(image).elements
            if list(bwd) != [star(Composition(shape, el)).parts for el in reversed(fwd)]:
                failures += 1
    assert failures == 0
    print(f"\ncriterion 7 involution suite over {len(SHAPES)} shapes: PASS")


def test_criterion_8_locate_throughput():
    m, n = 13, 7
    shape = GridShape(m, n)
    rng = random.Random(20240813)
    cases = [tuple(rng.randint(0, n) for _ in range(m)) for _ in range(100_000)]

    t0 = time.perf_counter()
    results = [locate_parts(c, n) for c in cases]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"locate on 10^5 compositions took {elapsed:.3f} s"

    for c, a in zip(cases, results):
        assert brute_is_start(a, n), (c, a)
        sv = StartVector(Composition(shape, a))
        assert chain_contains(sv, Composition(shape, c)), (c, a)
    print(f"\ncriterion 8 locate throughput in N(13,7): PASS ({elapsed:.3f} s for 10^5)")
