import random

import pytest

from unicomplex.errors import InputError
from unicomplex.fplin import (
    MILLER_RABIN_BOUND,
    check_prime,
    enumerate_lines_fp,
    enumerate_vectors_fp,
    is_prime,
    is_unimodular_fp,
    line_canonical_fp,
    _common_dimension,
    _quotient_step_fp,
    _span_quotient_fp,
)

from oracles import scalar_class, span_size_rank, trial_division_is_prime

def V(*coords):
    return tuple(coords)


def fp_vector(coords, p):
    """A vector of F_p^n, each coordinate reduced mod p."""
    return tuple(int(c) % p for c in coords)


def rank_fp(vectors, p):
    """Rank of the span of the given vectors."""
    vectors = list(vectors)
    n = _common_dimension(vectors)
    return n - len(_span_quotient_fp(vectors, n, p))


def test_check_prime_rejects_composites():
    for bad in (0, 1, 4, 9, 15):
        with pytest.raises(InputError, match=f"not a prime: {bad}"):
            check_prime(bad)
    for good in (2, 3, 5, 7, 11, 13):
        check_prime(good)


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
    assert rank_fp([V(1, 0, 0), V(0, 1, 0)], 2) == 2


def test_rank_empty():
    assert rank_fp([], 3) == 0


def test_rank_scalar_multiples():
    assert rank_fp([V(1, 1), V(2, 2)], 3) == 1


def test_rank_matches_span_size_oracle():
    rng = random.Random(7)
    for p in (2, 3, 5):
        for _ in range(60):
            n = rng.randint(1, 4)
            m = rng.randint(0, 4)
            rows = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(m)]
            assert rank_fp(rows, p) == span_size_rank(rows, p)


def test_rank_dimension_mismatch():
    with pytest.raises(InputError):
        rank_fp([V(1, 0), V(1, 0, 0)], 2)


def test_unimodular_basic():
    assert is_unimodular_fp([V(1, 0), V(1, 1)], 2)
    assert not is_unimodular_fp([V(1, 0), V(0, 1), V(1, 1)], 2)


def test_unimodular_determinant_oracle():
    # det((1,2),(2,1)) = 1 - 4 = -3 = 0 mod 3
    assert not is_unimodular_fp([V(1, 2), V(2, 1)], 3)


def test_unimodular_duplicates_false():
    assert not is_unimodular_fp([V(1, 0), V(1, 0)], 2)


def test_unimodular_hereditary():
    rng = random.Random(11)
    for _ in range(40):
        m = rng.randint(1, 3)
        vecs = []
        while len(vecs) < m:
            v = V(*(rng.randrange(3) for _ in range(3)))
            if any(v) and v not in vecs:
                vecs.append(v)
        if is_unimodular_fp(vecs, 3):
            for size in range(len(vecs)):
                subset = rng.sample(vecs, size)
                assert is_unimodular_fp(subset, 3)


def test_line_canonical_examples():
    assert line_canonical_fp(V(0, 2), 3) == V(0, 1)
    # (2,1) * 2 = (4,2) = (1,2) mod 3
    assert line_canonical_fp(V(2, 1), 3) == V(1, 2)
    assert line_canonical_fp(V(1, 0, 1), 2) == V(1, 0, 1)


def test_line_canonical_zero_rejected():
    with pytest.raises(InputError):
        line_canonical_fp(V(0, 0), 3)


def test_line_canonical_scalar_sweep_oracle():
    for p in (3, 5):
        for v in enumerate_vectors_fp(2, p):
            reps = {line_canonical_fp(w, p) for w in scalar_class(v, p)}
            assert len(reps) == 1
            canon = reps.pop()
            assert canon in scalar_class(v, p)
            # idempotent
            assert line_canonical_fp(canon, p) == canon


@pytest.mark.parametrize("enumerate_fp", [enumerate_vectors_fp, enumerate_lines_fp],
                         ids=["vectors", "lines"])
def test_enumerations_refuse_dimension_zero(enumerate_fp):
    with pytest.raises(InputError, match="ambient dimension must be >= 1, got 0"):
        enumerate_fp(0, 2)


def test_enumerate_lines_counts():
    assert len(enumerate_lines_fp(2, 3)) == 4
    assert len(enumerate_lines_fp(3, 2)) == 7
    assert len(enumerate_lines_fp(1, 7)) == 1


def test_enumerate_lines_partitions_vectors():
    for p, n in ((2, 3), (3, 2), (5, 2)):
        lines = enumerate_lines_fp(n, p)
        assert len(lines) * (p - 1) == p**n - 1
        seen = set()
        for line in lines:
            cls = scalar_class(line, p)
            assert not cls & seen
            seen |= cls
        assert len(seen) == p**n - 1


def test_enumerate_lines_sorted_unique():
    gens = enumerate_lines_fp(3, 3)
    assert list(gens) == sorted(gens)
    assert len(set(gens)) == len(gens)
    assert all(line_canonical_fp(g, 3) == g for g in gens)


def test_fp_vector_reduces():
    assert fp_vector((-1, 5), 3) == V(2, 2)


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
