"""The bracket oracle against the package, and against the dBTK chains.

`conftest.bracket_locate` and `bracket_top` read a composition as Greene
and Kleitman's bracket word, sharing no code with the package.  The
package's located starts, end vectors, chain tops and psi images must
agree with them on every composition and start of the small shapes and on
seeded draws up to m = 2,000, and grouping the compositions by their
bracket start must give the de Bruijn-Tengbergen-Kruyswijk chains.
"""

import importlib
import random
from collections import defaultdict

import pytest

import scdposet.starts
from scdposet import GridShape, StartVector, chain_elements, element_at
from scdposet.starts import iter_start_parts

from conftest import FAULTS, SMALL_SHAPES, all_parts, bracket_locate, bracket_top, dbtk_chains, plant

# package functions are read through their modules, so a planted fault is
# read here too; `scdposet.locate` is the function that shadows its module
LOCATE = importlib.import_module("scdposet.locate")


def start_disagreements(sv, last):
    """Where the start `sv` disagrees with its bracket top: the end vector,
    the chain's last element `last`, or psi(sv) as the reversed top's
    complement."""
    n = sv.shape.n
    top = bracket_top(sv.parts, n)
    if top != tuple(n - e for e in sv.end):
        yield "end vector", sv.parts
    if top != last:
        yield "last element", sv.parts
    if tuple(n - t for t in reversed(top)) != scdposet.starts.psi(sv).parts:
        yield "psi", sv.parts


def disagreements(m, n):
    """Every place N(m, n) disagrees with the bracket oracle, in order."""
    for c in all_parts(m, n):
        if LOCATE.locate_parts(c, n) != bracket_locate(c, n):
            yield "locate", c
    for parts in iter_start_parts(GridShape(m, n)):
        sv = StartVector.of(parts, n)
        yield from start_disagreements(sv, chain_elements(sv).elements[-1])


def draws(count, seed):
    """Seeded uniform (parts, n) with m up to 2,000 and n up to 5."""
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.choice((1, 2, 3, 8, 40, 300, 2000))
        n = rng.randint(1, 5)
        yield tuple(rng.randint(0, n) for _ in range(m)), n


@pytest.mark.parametrize("m, n", SMALL_SHAPES)
def test_package_agrees_with_the_bracket_oracle_everywhere(m, n):
    assert next(disagreements(m, n), None) is None


def test_package_agrees_with_the_bracket_oracle_on_long_draws():
    for c, n in draws(300, seed=8):
        alpha = LOCATE.locate_parts(c, n)
        assert alpha == bracket_locate(c, n), (c, n)
        sv = StartVector.of(alpha, n)
        last = element_at(sv, sv.shape.top_rank - 2 * sum(alpha)).parts
        assert next(start_disagreements(sv, last), None) is None, (alpha, n)


@pytest.mark.parametrize("m, n", SMALL_SHAPES)
def test_bracket_starts_group_into_the_dbtk_chains(m, n):
    groups = defaultdict(list)
    for c in all_parts(m, n):
        groups[bracket_locate(c, n)].append(c)
    chains = sorted(sorted(group, key=sum) for group in groups.values())
    assert chains == sorted(dbtk_chains(m, n))


@pytest.mark.parametrize(
    "fault",
    [
        "alpha_end_parts shifted up",
        "alpha_end_parts shifted down",
        "locate_parts off by one at a block boundary",
        "psi wrong at the larger start",
    ],
)
def test_a_planted_fault_disagrees_with_the_bracket_oracle(monkeypatch, fault):
    plant(monkeypatch, *FAULTS[fault])
    assert any(next(disagreements(m, n), None) for m, n in SMALL_SHAPES)
