"""The library's record types are immutable, hashable tuples with named
fields; the validating ones refuse a bad field with an InputError, whose
message is what the CLI prints."""

import pytest

from unicomplex.bhargava import INTEGERS, GroundSet, explicit, geometric
from unicomplex.buchstaber import ZetaThetaBounds, zeta_theta_bounds
from unicomplex.errors import InputError
from unicomplex.homology import HomologyProfile, reduced_homology
from unicomplex.morse import Matching, greedy_matching
from unicomplex.universal_fp import UniversalKind, build_universal, standard_pivot_ids
from unicomplex.zlattice import QuasitoricPair, parse_quasitoric_pair

PAIR = "1 2\n1 3\n2 3\n\n1 0 -1\n0 1 -1\n"


def records():
    kind = UniversalKind("K", 2, 3)
    K = build_universal(kind)
    return [
        kind,
        INTEGERS,
        geometric(1, 2),
        explicit([0, 1, 3]),
        zeta_theta_bounds(2, 3, 2),
        reduced_homology(K),
        greedy_matching(K, standard_pivot_ids(kind)),
        parse_quasitoric_pair(PAIR),
    ]


@pytest.mark.parametrize("make, message", [
    (lambda: UniversalKind("Y", 2, 2), "variant must be 'X' or 'K', got 'Y'"),
    (lambda: UniversalKind("K", 4, 2), "not a prime: 4"),
    (lambda: UniversalKind("X", 2, 0), "ambient dimension must be >= 1, got 0"),
    (lambda: GroundSet("geometric", a=0, q=2),
     "geometric ground set needs a != 0, q not in {0,1,-1}"),
    (lambda: GroundSet("geometric", a=3), "geometric ground set needs a != 0, q not in {0,1,-1}"),
    (lambda: geometric(2, -1), "geometric ground set needs a != 0, q not in {0,1,-1}"),
    (lambda: GroundSet("explicit"), "explicit ground set needs elements"),
    (lambda: explicit([]), "explicit ground set needs elements"),
    (lambda: explicit([4, 1, 4]), "explicit ground set has duplicates"),
    (lambda: GroundSet("naturals"), "unknown ground set kind 'naturals'"),
])
def test_validation_messages(make, message):
    with pytest.raises(InputError) as exc:
        make()
    assert str(exc.value) == message


def test_fields_by_name_and_defaults():
    assert UniversalKind(variant="X", p=3, n=2) == UniversalKind("X", 3, 2)
    assert str(UniversalKind("X", 3, 2)) == "X(F_3^2)"
    assert repr(UniversalKind("X", 3, 2)) == "UniversalKind(variant='X', p=3, n=2)"
    assert (INTEGERS.a, INTEGERS.q, INTEGERS.elements) == (None, None, None)
    assert geometric(1, 2) == GroundSet("geometric", a=1, q=2)
    assert zeta_theta_bounds(2, 3, 2) == ZetaThetaBounds(
        zeta_lower=2, zeta_upper=3, theta_lower=2, theta_upper=3)
    prof = HomologyProfile((0, 1), ((), ()))
    assert prof.betti == (0, 1) and prof.torsion_free
    assert not HomologyProfile((0, 0), ((2,), ())).torsion_free
    M = Matching(pairs=(), critical=((0,),))
    assert (M.pairs, M.critical) == ((), ((0,),))
    pair = parse_quasitoric_pair(PAIR)
    assert (pair.n, pair.m, pair.column(2)) == (2, 3, (-1, -1))
    assert pair == QuasitoricPair(pair.dual_complex, pair.lam)


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = 1  # no instance dict
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_records_are_hashable(record):
    copy = type(record)(*record)
    assert copy == record and hash(copy) == hash(record)
    assert {record: 1}[copy] == 1
