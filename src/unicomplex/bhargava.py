"""p-orderings, the valuation invariants nu_k, generalized factorials, and
the identity linking them to face counts of X(F_p^k).

nu_k(S, p) is the p-power part of (a_k - a_0)...(a_k - a_{k-1}) along any
p-ordering of S; it does not depend on the p-ordering, and k!_S is the
product of the nu_k(S, p) over all primes (Bhargava 1997).  So on the
infinite ground sets nu_k(S, p) is the p-part of the closed form of k!_S:
k! for the integers, a^k q^(k(k-1)/2) (q - 1)(q^2 - 1)...(q^k - 1) for
{a q^i}.  Each is written once, as its step factor k!_S / (k-1)!_S; the
running products of the step factors are the factorials, and the running
sums of their p-adic valuations the exponents of the nu_k.  An explicit set
gets the greedy p-ordering of its own elements, which is exact; the tests
exercise its independence of a_0 by reseeding it.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate
from math import factorial, prod
from operator import mul

from .errors import InputError
from .fplin import check_prime, is_prime


class GroundSet(namedtuple("GroundSet", "kind a q elements")):
    """The integers (kind "integers"), {a q^i} ("geometric") or a finite
    tuple of `elements` ("explicit")."""

    __slots__ = ()

    def __new__(cls, kind, a=None, q=None, elements=None):
        if kind == "geometric":
            if not a or q in (None, 0, 1, -1):
                raise InputError("geometric ground set needs a != 0, q not in {0,1,-1}")
        elif kind == "explicit":
            if not elements:
                raise InputError("explicit ground set needs elements")
            if len(set(elements)) != len(elements):
                raise InputError("explicit ground set has duplicates")
        elif kind != "integers":
            raise InputError(f"unknown ground set kind {kind!r}")
        return super().__new__(cls, kind, a, q, elements)


INTEGERS = GroundSet("integers")


def geometric(a, q):
    return GroundSet("geometric", a=a, q=q)


def explicit(elements):
    return GroundSet("explicit", elements=tuple(elements))


def _vp(x, p):
    """Exponent of p in x (x != 0)."""
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


def _step_factor(S, k):
    """k!_S / (k-1)!_S for k >= 1 on an infinite ground set: k for the
    integers, a q^(k-1) (q^k - 1) for {a q^i}.  Never 0, as q is not 0, 1
    or -1."""
    if S.kind == "integers":
        return k
    return S.a * S.q ** (k - 1) * (S.q**k - 1)


def _greedy_p_ordering(elements, p, K, start_index):
    """Greedy p-ordering of a finite set: each step takes the first
    element of least valuation sum over the chosen prefix.  The sums are
    kept per element and grow by one term per step."""
    chosen = [elements[start_index]]
    rest = [c for i, c in enumerate(elements) if i != start_index]
    sums = [0] * len(rest)
    exps = [0]
    for _ in range(K):
        a = chosen[-1]
        sums = [e + _vp(c - a, p) for e, c in zip(sums, rest)]
        best_exp = min(sums)
        pos = sums.index(best_exp)
        chosen.append(rest.pop(pos))
        sums.pop(pos)
        exps.append(best_exp)
    return chosen, exps


def p_ordering(S, p, K, start_index=0):
    """The valuations (nu_0, ..., nu_K) of S at p, as exact p-powers.

    For an explicit set they come from the greedy p-ordering that starts
    at a_0 = S.elements[start_index].  For the integers and geometric sets
    they are the running sums of the step factors' valuations; a_0 plays
    no part there, as nu_k does not depend on the p-ordering, so
    `start_index` is ignored."""
    check_prime(p)
    if K < 0:
        raise InputError("K must be >= 0")
    if S.kind == "explicit":
        if len(S.elements) < K + 1:
            raise InputError(f"ground set yields only {len(S.elements)} elements")
        _, exps = _greedy_p_ordering(S.elements, p, K, start_index)
    else:
        exps = accumulate((_vp(_step_factor(S, k), p) for k in range(1, K + 1)),
                          initial=0)
    return tuple(p**e for e in exps)


def nu_k(S, p, k, start_index=0):
    """The invariant p-power nu_k(S, p)."""
    return p_ordering(S, p, k, start_index)[k]


def generalized_factorial(S, k):
    """k!_S = prod over primes of nu_k(S, p).

    Closed forms: k! for the integers, a^k (q^k - 1)(q^k - q)...(q^k - q^{k-1})
    for a geometric progression.  For explicit sets only primes dividing some
    pairwise difference contribute, so the product has certified finite
    support."""
    if k < 0:
        raise InputError("k must be >= 0")
    if S.kind == "explicit" and k >= len(S.elements):
        raise _out_of_range(k, S)
    return generalized_factorials(S, k)[k]


def generalized_factorials(S, k_max):
    """[0!_S, 1!_S, ..., k_max!_S].

    The closed forms of the integer and geometric sets are running
    products of their step factors, one multiplication per k.  On an
    explicit set the support primes are found once and each gets one
    p-ordering, whose valuations serve every k: the greedy steps do not
    depend on how far the ordering runs.  The errors come in the order of
    a k-by-k computation: those of the p-orderings first, then, for k_max
    past the last element, an InputError naming the first k out of range."""
    if k_max < 0:
        return []
    if S.kind != "explicit":
        return list(accumulate((_step_factor(S, k) for k in range(1, k_max + 1)),
                               mul, initial=1))
    elems = S.elements
    top = min(k_max, len(elems) - 1)
    out = [1] * (top + 1)
    if top > 0:
        support = set()
        for i in range(len(elems)):
            for j in range(i + 1, len(elems)):
                support.update(_prime_factors(abs(elems[i] - elems[j])))
        for p in sorted(support):
            for k, nu in enumerate(p_ordering(S, p, top)):
                out[k] *= nu
    if k_max > top:
        raise _out_of_range(len(elems), S)
    return out


def _out_of_range(k, S):
    return InputError(
        f"k = {k} out of range for an explicit set of {len(S.elements)} elements"
    )


# Trial division stops here; what is left is then decided by `is_prime`.
TRIAL_DIVISION_BOUND = 10**6


def _prime_factors(n):
    """Prime factors of n >= 0 by trial division up to TRIAL_DIVISION_BOUND.
    A cofactor left above the bound must be prime, decided by `is_prime`;
    a composite one would need factoring past the bound, so it is refused
    with InputError."""
    out = set()
    d = 2
    while d * d <= n and d <= TRIAL_DIVISION_BOUND:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        if d * d <= n and not is_prime(n):
            raise InputError(
                f"{n} has no prime factor up to {TRIAL_DIVISION_BOUND} and is "
                "not prime; its factorization is out of reach"
            )
        out.add(n)
    return out


def check_identities(p, k):
    """Whether the face-count identity
    f_{j-1}(X(F_p^k)) * j! = [k choose j]_p * j!_{1,p,p^2,...}
    holds for every 0 <= j <= k, with the Gaussian binomial
    [k choose j]_p = prod_{i<j} (p^k - p^i) / prod_{i<j} (p^j - p^i) checked
    exact.  At j = k it is k!_{1,p,p^2,...} = k! * f_{k-1}(X(F_p^k)), and
    since k! >= 1 also the divisibility statement: k!_Z divides
    k!_{1,p,p^2,...} with quotient f_{k-1}(X(F_p^k))."""
    # imported here, so that the factorials alone do not load the builder
    from .universal_fp import UniversalKind, _exact_div, formula_f_vector

    check_prime(p)
    if k < 1:
        raise InputError("k must be >= 1")
    faces = formula_f_vector(UniversalKind("X", p, k))
    facts = generalized_factorials(geometric(1, p), k)
    for j in range(k + 1):
        num = prod(p**k - p**i for i in range(j))
        den = prod(p**j - p**i for i in range(j))
        gauss = _exact_div(num, den, f"[{k} choose {j}]_{p}")
        if faces[j] * factorial(j) != gauss * facts[j]:
            return False
    return True
