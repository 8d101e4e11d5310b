import random
from itertools import combinations
from math import factorial

import pytest

from unicomplex.errors import InputError
from unicomplex.bhargava import (
    INTEGERS,
    check_identities,
    explicit,
    generalized_factorial,
    generalized_factorials,
    geometric,
    nu_k,
    p_ordering,
    _greedy_p_ordering,
)
from unicomplex.universal_fp import UniversalKind, formula_f_vector

from oracles import (
    min_valuation_over_window,
    p_exponent,
    reference_greedy_p_ordering,
    trial_division_is_prime,
)


def is_p_ordering(candidates, p, sequence):
    """Check that a given prefix sequence is a valid p-ordering of a finite
    window: each element attains the minimal valuation among the
    candidates."""
    prefix = []
    for a in sequence:
        if prefix:
            mine = sum(p_exponent(a - b, p) for b in prefix)
            best = min(
                sum(p_exponent(c - b, p) for b in prefix)
                for c in candidates
                if c not in prefix
            )
            if mine != best:
                return False
        prefix.append(a)
    return True


def test_ground_set_validation():
    with pytest.raises(InputError):
        geometric(0, 2)
    with pytest.raises(InputError):
        geometric(1, 1)
    with pytest.raises(InputError):
        explicit([1, 1, 2])


@pytest.mark.parametrize("call,match", [
    (lambda: p_ordering(INTEGERS, 2, -1), "K must be >= 0"),
    (lambda: generalized_factorial(INTEGERS, -1), "k must be >= 0"),
    (lambda: check_identities(2, 0), "k must be >= 1"),
], ids=["p_ordering", "generalized_factorial", "check_identities"])
def test_index_guards(call, match):
    with pytest.raises(InputError, match=match):
        call()


def test_p_ordering_z_example():
    assert p_ordering(INTEGERS, 2, 3) == (1, 1, 2, 2)


def test_p_ordering_budget_too_small():
    # an explicit set has too few elements for K
    with pytest.raises(InputError, match="ground set yields only 2 elements"):
        p_ordering(explicit([0, 1]), 2, 3)


def test_p_ordering_powers_sequence_is_valid():
    # 1, p, p^2, ... is an l-ordering of the powers of p at every prime l
    for p in (2, 3):
        window = [p**i for i in range(10)]
        for l in (2, 3, 5, 7):
            assert is_p_ordering(window, l, window[:4])


def test_greedy_valuations_match_exhaustive_window_oracle():
    for p in (2, 3, 5):
        window = list(range(-20, 21))
        chosen = [0]
        exps = [0]
        for _ in range(4):
            e = min_valuation_over_window(chosen, window, p)
            exps.append(e)
            # take the first window element achieving it, like the library
            nxt = next(
                c
                for c in integer_window(41)
                if c not in chosen
                and sum(p_exponent(c - a, p) for a in chosen) == e
            )
            chosen.append(nxt)
        assert p_ordering(INTEGERS, p, 4) == tuple(p**e for e in exps)


def integer_window(size):
    """0, 1, -1, 2, -2, ... written out here, not taken from the library."""
    out = [0]
    for k in range(1, size):
        out += [k, -k]
    return out[:size]


def geometric_window(a, q):
    """a, aq, aq^2, ...: 2(K + 1) terms for a p-ordering up to K."""
    return lambda K: [a * q**i for i in range(2 * (K + 1))]


# (a, q) with p | a, p | q and negative q for some p in 2, 3, 5, 7
GEOMETRIC_CASES = ((1, 2), (3, -5), (2, 6), (9, -3), (-2, 5), (6, 7), (5, -2),
                   (-1, 9))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_p_ordering_matches_quadratic_reference(p):
    squares = [i * i for i in range(1, 14)]
    mixed = [7, -3, 12, 0, 5, 40, -18, 2, 33, 27, 1, -64, 11]
    sets = [
        (INTEGERS, lambda K: integer_window(8 * max(K, 1) + 1)),  # [-4K, 4K]
        *((geometric(a, q), geometric_window(a, q)) for a, q in GEOMETRIC_CASES),
        (explicit(squares), lambda K: squares),
        (explicit(mixed), lambda K: mixed),
    ]
    for S, window in sets:
        for K in (0, 1, 2, 3, 5, 8, 12):
            cands = window(K)
            for start in (s for s in (0, 1, 3) if s < len(cands)):
                chosen, exps = reference_greedy_p_ordering(cands, p, K, start)
                assert _greedy_p_ordering(cands, p, K, start) == (chosen, exps)
                assert p_ordering(S, p, K, start_index=start) == tuple(
                    p**e for e in exps)


def test_nu_examples():
    assert nu_k(INTEGERS, 2, 3) == 2
    assert nu_k(geometric(1, 3), 3, 2) == 3
    assert nu_k(explicit([0, 1]), 3, 1) == 1
    assert nu_k(INTEGERS, 7, 0) == 1


def test_nu_seed_invariance():
    # the greedy runs on explicit sets; on a window of Z it keeps Z's nu_k
    window = explicit(range(-12, 13))
    for p in (2, 3, 5):
        for k in range(1, 7):
            vals = {
                nu_k(window, p, k, start_index=s) for s in (0, 1, 5, 12, 24)
            }
            assert vals == {nu_k(INTEGERS, p, k)}


def test_generalized_factorial_closed_forms():
    assert generalized_factorial(geometric(1, 2), 3) == 168
    assert generalized_factorial(geometric(1, 3), 2) == 48
    assert generalized_factorial(INTEGERS, 4) == 24
    assert generalized_factorial(geometric(1, 5), 0) == 1


def test_generalized_factorial_explicit_matches_product_of_nus():
    S = explicit([0, 2, 6, 7])
    # primes dividing pairwise differences: 2, 3, 5, 7
    for k in (1, 2, 3):
        val = generalized_factorial(S, k)
        prod = 1
        for p in (2, 3, 5, 7):
            prod *= nu_k(S, p, k)
        assert val == prod


def test_generalized_factorials_match_per_k_nu_products():
    rng = random.Random(11)
    for _ in range(12):
        elems = rng.sample(range(-40, 41), rng.randint(1, 9))
        S = explicit(elems)
        top = len(elems) - 1
        diffs = [abs(a - b) for a, b in combinations(elems, 2)]
        support = [p for p in range(2, 81)
                   if trial_division_is_prime(p) and any(d % p == 0 for d in diffs)]
        want = []
        for k in range(top + 1):
            val = 1
            for p in support:
                val *= nu_k(S, p, k)
            want.append(val)
        assert generalized_factorials(S, top) == want
        assert [generalized_factorial(S, k) for k in range(top + 1)] == want
        assert generalized_factorials(S, top - 1) == want[:-1]
        with pytest.raises(InputError, match=f"k = {len(elems)} out of range"):
            generalized_factorials(S, top + 3)
    for S in (INTEGERS, geometric(1, 3), geometric(2, -2)):
        assert generalized_factorials(S, 5) == [generalized_factorial(S, k) for k in range(6)]
    assert generalized_factorials(INTEGERS, -1) == []


def test_running_products_match_the_closed_forms():
    assert generalized_factorials(INTEGERS, 40) == [factorial(k) for k in range(41)]
    for a, q in ((1, 2), (3, 5), (-2, 3), (5, -2), (-1, -7)):
        want = []
        for k in range(41):
            val = a**k
            for j in range(k):
                val *= q**k - q**j
            want.append(val)
        assert generalized_factorials(geometric(a, q), 40) == want


def test_generalized_factorial_explicit_range():
    with pytest.raises(InputError):
        generalized_factorial(explicit([1, 2]), 2)


def test_explicit_agrees_with_integers_on_windows():
    # a wide window of Z behaves like Z for small k
    window = explicit(list(range(-12, 13)))
    for k in (1, 2, 3):
        assert generalized_factorial(window, k) == generalized_factorial(INTEGERS, k)


def test_divisibility_for_nested_sets():
    big = explicit(list(range(0, 16)))
    small = explicit([0, 3, 6, 9, 12, 15])
    for k in (1, 2, 3, 4):
        fs = generalized_factorial(big, k)
        ft = generalized_factorial(small, k)
        assert ft % fs == 0


def test_identities_examples():
    # the three values the identity relates: k!_{powers of p}, k! and
    # f_{k-1}(X(F_p^k))
    def values(p, k):
        return (generalized_factorial(geometric(1, p), k), factorial(k),
                formula_f_vector(UniversalKind("X", p, k))[k])

    assert values(2, 3) == (168, 6, 28)
    assert check_identities(2, 3)
    assert values(3, 2) == (48, 2, 24)
    assert check_identities(3, 2)
    assert values(5, 1) == (4, 1, 4)  # k!_{powers of p} = p - 1
    assert check_identities(5, 1)


def gaussian_binomials(n, q):
    """[n choose j]_q for 0 <= j <= n, by the q-Pascal rule
    [m choose j]_q = [m-1 choose j-1]_q + q^j [m-1 choose j]_q."""
    row = [1]
    for m in range(1, n + 1):
        row = [1] + [row[j - 1] + q**j * row[j] for j in range(1, m)] + [1]
    return row


def test_identities_sweep():
    # f_{j-1}(X(F_p^n)) j! = [n choose j]_p j!_{1,p,p^2,...} on every face
    for p in (2, 3, 5, 7):
        facts = generalized_factorials(geometric(1, p), 8)
        for n in range(1, 9):
            faces = formula_f_vector(UniversalKind("X", p, n))
            for j, gauss in enumerate(gaussian_binomials(n, p)):
                assert faces[j] * factorial(j) == gauss * facts[j]
            assert check_identities(p, n) is True
