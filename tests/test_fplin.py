import random

import pytest

from unicomplex.errors import InputError
from unicomplex.fplin import (
    MILLER_RABIN_BOUND,
    FpLine,
    FpVector,
    PrimeField,
    enumerate_lines_fp,
    enumerate_vectors_fp,
    fp_vector,
    is_prime,
    is_unimodular_fp,
    line_canonical_fp,
    rank_fp,
    _quotient_step_fp,
)

from oracles import scalar_class, span_size_rank, trial_division_is_prime

F2 = PrimeField(2)
F3 = PrimeField(3)


def V(*coords):
    return FpVector(tuple(coords))


def test_prime_field_rejects_composites():
    for bad in (0, 1, 4, 9, 15):
        with pytest.raises(InputError):
            PrimeField(bad)
    for good in (2, 3, 5, 7, 11, 13):
        PrimeField(good)


def test_is_prime_matches_trial_division():
    assert all(is_prime(n) == trial_division_is_prime(n) for n in range(10**5))
    assert not is_prime(-7)


def test_is_prime_rejects_strong_pseudoprimes():
    # strong pseudoprimes to base 2; to bases 2..7; to 2..23; to 2..37
    for n in (2047, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    for p in (10**18 + 3, 2**61 - 1, 2**31 - 1):
        assert is_prime(p)


def test_is_prime_bound():
    assert not is_prime(MILLER_RABIN_BOUND - 1)
    for n in (MILLER_RABIN_BOUND, 2**89 - 1):
        with pytest.raises(InputError):
            is_prime(n)


def test_rank_standard_basis():
    assert rank_fp([V(1, 0, 0), V(0, 1, 0)], F2) == 2


def test_rank_empty():
    assert rank_fp([], F3) == 0


def test_rank_scalar_multiples():
    assert rank_fp([V(1, 1), V(2, 2)], F3) == 1


def test_rank_matches_span_size_oracle():
    rng = random.Random(7)
    for p in (2, 3, 5):
        field = PrimeField(p)
        for _ in range(60):
            n = rng.randint(1, 4)
            m = rng.randint(0, 4)
            rows = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(m)]
            assert rank_fp([FpVector(r) for r in rows], field) == span_size_rank(
                rows, p
            )


def test_rank_dimension_mismatch():
    with pytest.raises(InputError):
        rank_fp([V(1, 0), V(1, 0, 0)], F2)


def test_unimodular_basic():
    assert is_unimodular_fp([V(1, 0), V(1, 1)], F2)
    assert not is_unimodular_fp([V(1, 0), V(0, 1), V(1, 1)], F2)


def test_unimodular_determinant_oracle():
    # det((1,2),(2,1)) = 1 - 4 = -3 = 0 mod 3
    assert not is_unimodular_fp([V(1, 2), V(2, 1)], F3)


def test_unimodular_duplicates_false():
    assert not is_unimodular_fp([V(1, 0), V(1, 0)], F2)


def test_unimodular_hereditary():
    rng = random.Random(11)
    field = PrimeField(3)
    for _ in range(40):
        m = rng.randint(1, 3)
        vecs = []
        while len(vecs) < m:
            v = V(*(rng.randrange(3) for _ in range(3)))
            if not v.is_zero() and v not in vecs:
                vecs.append(v)
        if is_unimodular_fp(vecs, field):
            for size in range(len(vecs)):
                subset = rng.sample(vecs, size)
                assert is_unimodular_fp(subset, field)


def test_line_canonical_examples():
    assert line_canonical_fp(V(0, 2), F3).generator == V(0, 1)
    # (2,1) * 2 = (4,2) = (1,2) mod 3
    assert line_canonical_fp(V(2, 1), F3).generator == V(1, 2)
    assert line_canonical_fp(V(1, 0, 1), F2).generator == V(1, 0, 1)


def test_line_canonical_zero_rejected():
    with pytest.raises(InputError):
        line_canonical_fp(V(0, 0), F3)


def test_line_canonical_scalar_sweep_oracle():
    for p in (3, 5):
        field = PrimeField(p)
        for v in enumerate_vectors_fp(2, field):
            reps = {
                line_canonical_fp(FpVector(w), field)
                for w in scalar_class(v.coords, p)
            }
            assert len(reps) == 1
            canon = reps.pop()
            assert canon.generator.coords in scalar_class(v.coords, p)
            # idempotent
            assert line_canonical_fp(canon.generator, field) == canon


def test_enumerate_lines_counts():
    assert len(enumerate_lines_fp(2, F3)) == 4
    assert len(enumerate_lines_fp(3, F2)) == 7
    assert len(enumerate_lines_fp(1, PrimeField(7))) == 1


def test_enumerate_lines_partitions_vectors():
    for p, n in ((2, 3), (3, 2), (5, 2)):
        field = PrimeField(p)
        lines = enumerate_lines_fp(n, field)
        assert len(lines) * (p - 1) == p**n - 1
        seen = set()
        for line in lines:
            cls = scalar_class(line.generator.coords, p)
            assert not cls & seen
            seen |= cls
        assert len(seen) == p**n - 1


def test_enumerate_lines_sorted_unique():
    lines = enumerate_lines_fp(3, F3)
    gens = [l.generator.coords for l in lines]
    assert gens == sorted(gens)
    assert len(set(gens)) == len(gens)


def test_fp_vector_reduces():
    assert fp_vector((-1, 5), F3) == V(2, 2)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_quotient_step_fold_against_span_size(p):
    # fold random rows into the identity surjection: a row is accepted
    # exactly when it raises the span-size rank, and the rows left form a
    # surjection of the right size that kills every accepted row
    rng = random.Random(p)
    for _ in range(40):
        n = rng.randint(1, 4)
        state = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        accepted = []
        for _ in range(rng.randint(1, n + 2)):
            w = tuple(rng.randrange(p) for _ in range(n))
            if rng.random() < 0.3 and accepted:
                w = tuple(sum(rng.randrange(p) * v[i] for v in accepted) % p
                          for i in range(n))
            independent = span_size_rank(accepted + [w], p) == len(accepted) + 1
            nxt = _quotient_step_fp(state, w, p)
            assert (nxt is not None) == independent
            if nxt is None:
                continue
            state = nxt
            accepted.append(w)
            assert len(state) == n - len(accepted)
            if state:
                assert span_size_rank(list(state), p) == len(state)
            for row in state:
                for v in accepted:
                    assert sum(a * b for a, b in zip(row, v)) % p == 0
