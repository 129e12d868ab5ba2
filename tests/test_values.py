"""The value-type contract: equality, hashing, repr, immutability and copying.

Every public value type compares and hashes by its fields, prints in the
`Name(field=value, ...)` form, refuses assignment, and survives `pickle`
and `copy.copy` as an equal value.  The records `verify` fills in compare
and print the same way but stay mutable, and so unhashable.
"""

import copy
import pickle

import pytest

from scdposet import (
    Chain,
    ChainTableau,
    Composition,
    Fillable,
    Fixed,
    Forbidden,
    GridShape,
    LevelProfile,
    MembershipCertificate,
    StartVector,
    build_tableau,
    certificate,
    chain_elements,
    level_sizes,
)
from scdposet.decompose import CheckResult, VerificationReport

SV = StartVector.of((1, 0), 2)

# (value, an equal value built separately, an unequal value, expected repr)
CASES = {
    "GridShape": (GridShape(2, 3), GridShape(2, 3), GridShape(3, 2), "GridShape(m=2, n=3)"),
    "Composition": (
        Composition.of((1, 0), 2),
        Composition(GridShape(2, 2), (1, 0)),
        Composition.of((1, 0), 3),
        "Composition(shape=GridShape(m=2, n=2), parts=(1, 0))",
    ),
    "StartVector": (
        SV,
        StartVector.of((1, 0), 2),
        StartVector.of((0, 0), 2),
        "StartVector(alpha=Composition(shape=GridShape(m=2, n=2), parts=(1, 0)))",
    ),
    "Chain": (
        chain_elements(SV),
        Chain(StartVector.of((1, 0), 2), ((1, 0), (1, 1), (2, 1))),
        Chain(SV, ((1, 0), (1, 1))),
        "Chain(alpha=StartVector(alpha=Composition(shape=GridShape(m=2, n=2), parts=(1, 0))), "
        "elements=((1, 0), (1, 1), (2, 1)))",
    ),
    "ChainTableau": (
        build_tableau(SV),
        ChainTableau(StartVector.of((1, 0), 2), ((Fixed(), Fillable(2)), (Fillable(1), Forbidden(1)))),
        build_tableau(StartVector.of((0, 0), 2)),
        "ChainTableau(alpha=StartVector(alpha=Composition(shape=GridShape(m=2, n=2), parts=(1, 0))), "
        "cells=((Fixed(), Fillable(order=2)), (Fillable(order=1), Forbidden(source=1))))",
    ),
    "MembershipCertificate": (
        certificate(Composition.of((1, 1), 2)),
        MembershipCertificate(SV, (0, 1), frozenset({2})),
        certificate(Composition.of((1, 2), 2)),
        "MembershipCertificate(alpha=StartVector(alpha=Composition(shape=GridShape(m=2, n=2), parts=(1, 0))), "
        "fill_vector=(0, 1), positive_set=frozenset({2}))",
    ),
    "LevelProfile": (
        level_sizes(GridShape(2, 1)),
        LevelProfile(GridShape(2, 1), (1, 2, 1)),
        level_sizes(GridShape(1, 2)),
        "LevelProfile(shape=GridShape(m=2, n=1), sizes=(1, 2, 1))",
    ),
    "Fixed": (Fixed(), Fixed(), Forbidden(), "Fixed()"),
    "Forbidden": (Forbidden(1), Forbidden(source=1), Forbidden(), "Forbidden(source=1)"),
    "Fillable": (Fillable(3), Fillable(order=3), Fillable(4), "Fillable(order=3)"),
}

# One field of each type that has fields, for the assignment test.
FIELDS = {
    "GridShape": "m",
    "Composition": "parts",
    "StartVector": "alpha",
    "Chain": "elements",
    "ChainTableau": "cells",
    "MembershipCertificate": "fill_vector",
    "LevelProfile": "sizes",
    "Forbidden": "source",
    "Fillable": "order",
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


def test_value_equality_and_hash(case):
    value, twin, other, _ = case
    assert value is not twin
    assert value == twin and not value != twin
    assert hash(value) == hash(twin)
    assert value != other and not value == other
    assert value != object()
    assert len({value, twin, other}) == 2


def test_dataclass_style_repr(case):
    value, twin, _, expected = case
    assert repr(value) == repr(twin) == expected


@pytest.mark.parametrize("kind", sorted(FIELDS))
def test_assignment_and_deletion_refused(kind):
    value, name = CASES[kind][0], FIELDS[kind]
    before = repr(value)
    with pytest.raises(AttributeError):
        setattr(value, name, 0)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert repr(value) == before


@pytest.mark.parametrize("roundtrip", [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))])
def test_copy_and_pickle_round_trips(case, roundtrip):
    value = case[0]
    back = roundtrip(value)
    assert type(back) is type(value)
    assert back == value and hash(back) == hash(value) and repr(back) == repr(value)


@pytest.mark.parametrize("roundtrip", [copy.copy, lambda v: pickle.loads(pickle.dumps(v))])
def test_start_vector_keeps_its_end_vector(roundtrip):
    sv = StartVector.of((2, 0, 5, 0), 6)
    back = roundtrip(sv)
    assert back.end == sv.end == (0, 2, 0, 5)


def test_cell_states_of_different_kinds_differ():
    assert Forbidden(1) != Fillable(1)
    assert Fixed() != Forbidden() and Forbidden() != Fixed()
    assert Forbidden() == Forbidden(None)


def test_verify_records_stay_mutable_values():
    a, b = CheckResult("partition", True), CheckResult("partition", True)
    assert a == b
    assert repr(a) == (
        "CheckResult(name='partition', passed=True, seconds=0.0, counterexample=None, skipped=False, message='')"
    )
    b.passed = False
    assert a != b
    with pytest.raises(TypeError):
        hash(a)
    report = VerificationReport(GridShape(2, 2))
    assert report.checks == [] and report.checks is not VerificationReport(GridShape(2, 2)).checks
    report.checks.append(a)
    report.chain_count = 3
    assert report == pickle.loads(pickle.dumps(report))
    assert repr(report) == (
        f"VerificationReport(shape=GridShape(m=2, n=2), checks=[{a!r}], chain_count=3, element_count=None)"
    )
