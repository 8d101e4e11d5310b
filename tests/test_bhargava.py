import random
from itertools import combinations

import pytest

from unicomplex.errors import InputError
from unicomplex.bhargava import (
    INTEGERS,
    check_identities,
    default_budget,
    explicit,
    generalized_factorial,
    generalized_factorials,
    geometric,
    is_p_ordering,
    nu_k,
    p_ordering,
)

from oracles import (
    min_valuation_over_window,
    p_exponent,
    reference_greedy_p_ordering,
    trial_division_is_prime,
)


def test_ground_set_validation():
    with pytest.raises(InputError):
        geometric(0, 2)
    with pytest.raises(InputError):
        geometric(1, 1)
    with pytest.raises(InputError):
        explicit([1, 1, 2])


def test_enumeration_orders():
    assert INTEGERS.enumerate(5) == [0, 1, -1, 2, -2]
    assert geometric(1, 2).enumerate(4) == [1, 2, 4, 8]
    assert explicit([5, 7, 11]).enumerate(10) == [5, 7, 11]


def test_p_ordering_z_example():
    ordering = p_ordering(INTEGERS, 2, 3)
    assert ordering.valuations == (1, 1, 2, 2)


def test_p_ordering_budget_too_small():
    with pytest.raises(InputError):
        p_ordering(INTEGERS, 2, 3, budget=2)


def test_p_ordering_powers_sequence_is_valid():
    # 1, p, p^2, ... is an l-ordering of the powers of p at every prime l
    for p in (2, 3):
        S = geometric(1, p)
        for l in (2, 3, 5, 7):
            assert is_p_ordering(S, l, S.enumerate(4), budget=10)


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
                for c in INTEGERS.enumerate(41)
                if c not in chosen
                and sum(p_exponent(c - a, p) for a in chosen) == e
            )
            chosen.append(nxt)
        ordering = p_ordering(INTEGERS, p, 4)
        assert ordering.valuations == tuple(p**e for e in exps)


def integer_window(size):
    """0, 1, -1, 2, -2, ... written out here, not taken from the library."""
    out = [0]
    for k in range(1, size):
        out += [k, -k]
    return out[:size]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_p_ordering_matches_quadratic_reference(p):
    squares = [i * i for i in range(1, 14)]
    mixed = [7, -3, 12, 0, 5, 40, -18, 2, 33, 27, 1, -64, 11]
    sets = [
        (INTEGERS, integer_window),
        (geometric(1, 2), lambda size: [2**i for i in range(size)]),
        (geometric(3, -5), lambda size: [3 * (-5) ** i for i in range(size)]),
        (explicit(squares), lambda size: squares[:size]),
        (explicit(mixed), lambda size: mixed[:size]),
    ]
    for S, window in sets:
        for K in (0, 1, 2, 5, 8, 12):
            size = default_budget(S, K)
            assert S.enumerate(size) == window(size)
            for start in (s for s in (0, 1, 3) if s < size):
                ordering = p_ordering(S, p, K, start_index=start)
                chosen, exps = reference_greedy_p_ordering(window(size), p, K, start)
                assert list(ordering.elements) == chosen
                assert ordering.valuations == tuple(p**e for e in exps)


def test_nu_examples():
    assert nu_k(INTEGERS, 2, 3) == 2
    assert nu_k(geometric(1, 3), 3, 2) == 3
    assert nu_k(explicit([0, 1]), 3, 1) == 1
    assert nu_k(INTEGERS, 7, 0) == 1


def test_nu_seed_invariance():
    for p in (2, 3):
        for k in (1, 2, 3):
            vals = {
                nu_k(INTEGERS, p, k, start_index=s) for s in (0, 1, 2)
            }
            assert len(vals) == 1


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
    rep = check_identities(2, 3)
    assert rep.factorial_geometric == 168
    assert rep.factorial_integers == 6
    assert rep.face_count == 28
    assert rep.product_identity and rep.divisibility
    rep = check_identities(3, 2)
    assert rep.factorial_geometric == 48 and rep.face_count == 24
    rep = check_identities(5, 1)
    assert rep.factorial_geometric == 4  # p - 1
    assert rep.face_count == 4


def test_identities_sweep():
    for p in (2, 3, 5):
        for k in range(1, 6):
            rep = check_identities(p, k)
            assert rep.product_identity and rep.divisibility
