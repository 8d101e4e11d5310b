"""p-orderings, the valuation invariants nu_k, generalized factorials, and
the identity linking them to face counts of X(F_p^k).

nu_k(S, p) is the p-power part of (a_k - a_0)...(a_k - a_{k-1}) along any
p-ordering of S; it does not depend on the p-ordering, which the tests
exercise by reseeding a_0.  The greedy construction here quantifies over a
finite enumeration window of S; for the infinite ground sets the window is
re-verified by doubling, and instability is an error rather than an answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, prod

from .errors import InputError
from .fplin import is_prime
from .universal_fp import UniversalKind, formula_f_vector


@dataclass(frozen=True)
class GroundSet:
    kind: str  # "integers" | "geometric" | "explicit"
    a: int = None
    q: int = None
    elements: tuple = None

    def __post_init__(self):
        if self.kind == "geometric":
            if not self.a or self.q in (None, 0, 1, -1):
                raise InputError("geometric ground set needs a != 0, q not in {0,1,-1}")
        elif self.kind == "explicit":
            if not self.elements:
                raise InputError("explicit ground set needs elements")
            if len(set(self.elements)) != len(self.elements):
                raise InputError("explicit ground set has duplicates")
        elif self.kind != "integers":
            raise InputError(f"unknown ground set kind {self.kind!r}")

    def enumerate(self, budget):
        """First `budget` elements in the canonical enumeration order:
        0, 1, -1, 2, -2, ... for Z; a, aq, aq^2, ... for geometric sets;
        list order for explicit sets (capped by their length)."""
        if self.kind == "integers":
            out = [0]
            k = 1
            while len(out) < budget:
                out.append(k)
                if len(out) < budget:
                    out.append(-k)
                k += 1
            return out[:budget]
        if self.kind == "geometric":
            out = []
            val = self.a
            for _ in range(budget):
                out.append(val)
                val *= self.q
            return out
        return list(self.elements[:budget])


INTEGERS = GroundSet("integers")


def geometric(a, q):
    return GroundSet("geometric", a=a, q=q)


def explicit(elements):
    return GroundSet("explicit", elements=tuple(elements))


@dataclass(frozen=True)
class POrdering:
    prime: int
    elements: tuple
    valuations: tuple  # nu_k as exact p-powers, index k


def _vp(x, p):
    """Exponent of p in x (x != 0)."""
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


def _greedy_p_ordering(candidates, p, K, start_index):
    """Greedy p-ordering: each step takes the first candidate of least
    valuation sum over the chosen prefix.  The sums are kept per candidate
    and grow by one term per step."""
    chosen = [candidates[start_index]]
    rest = [c for i, c in enumerate(candidates) if i != start_index]
    sums = [0] * len(rest)
    exps = [0]
    for _ in range(K):
        if not rest:
            raise InputError("ground set exhausted before reaching K")
        a = chosen[-1]
        sums = [e + _vp(c - a, p) for e, c in zip(sums, rest)]
        best_exp = min(sums)
        pos = sums.index(best_exp)
        chosen.append(rest.pop(pos))
        sums.pop(pos)
        exps.append(best_exp)
    return chosen, exps


def default_budget(S, K):
    if S.kind == "integers":
        return 8 * max(K, 1) + 1  # the window [-4K, 4K]
    if S.kind == "geometric":
        return 2 * (K + 1)
    return len(S.elements)


def p_ordering(S, p, K, budget=None, start_index=0):
    """Greedy p-ordering of the first `budget` elements of S, with nu_k
    attached.  For the integer and geometric kinds the valuations are
    certified stable against doubling the window."""
    if not is_prime(p):
        raise InputError(f"not a prime: {p}")
    if K < 0:
        raise InputError("K must be >= 0")
    if budget is None:
        budget = default_budget(S, K)
    if budget < K + 1:
        raise InputError(f"budget {budget} < K+1 = {K + 1}")
    candidates = S.enumerate(budget)
    if len(candidates) < K + 1:
        raise InputError(f"ground set yields only {len(candidates)} elements")
    elems, exps = _greedy_p_ordering(candidates, p, K, start_index)
    if S.kind in ("integers", "geometric"):
        wide = S.enumerate(2 * budget)
        _, exps2 = _greedy_p_ordering(wide, p, K, start_index)
        if exps != exps2:
            raise AssertionError(
                f"p-ordering window unstable for {S.kind} at p={p}, K={K}; "
                "increase the budget"
            )
    return POrdering(p, tuple(elems), tuple(p**e for e in exps))


def nu_k(S, p, k, budget=None, start_index=0):
    """The invariant p-power nu_k(S, p)."""
    return p_ordering(S, p, k, budget, start_index).valuations[k]


def is_p_ordering(S, p, sequence, budget=None):
    """Check that a given prefix sequence is a valid p-ordering of S: each
    element attains the minimal valuation among the enumerated candidates."""
    K = len(sequence) - 1
    if budget is None:
        budget = default_budget(S, K)
    candidates = S.enumerate(budget)
    prefix = []
    for a in sequence:
        if prefix:
            mine = sum(_vp(a - b, p) for b in prefix)
            best = min(
                sum(_vp(c - b, p) for b in prefix)
                for c in candidates
                if c not in prefix
            )
            if mine != best:
                return False
        prefix.append(a)
    return True


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

    On an explicit set the support primes are found once and each gets one
    p-ordering, whose valuations serve every k: the greedy steps do not
    depend on how far the ordering runs.  The errors come in the order of
    a k-by-k computation: those of the p-orderings first, then, for k_max
    past the last element, an InputError naming the first k out of range."""
    if S.kind == "integers":
        return [factorial(k) for k in range(k_max + 1)]
    if S.kind == "geometric":
        return [S.a**k * prod(S.q**k - S.q**j for j in range(k))
                for k in range(k_max + 1)]
    elems = S.elements
    top = min(k_max, len(elems) - 1)
    out = [1] * (top + 1)
    if top > 0:
        support = set()
        for i in range(len(elems)):
            for j in range(i + 1, len(elems)):
                support.update(_prime_factors(abs(elems[i] - elems[j])))
        for p in sorted(support):
            for k, nu in enumerate(p_ordering(S, p, top).valuations):
                out[k] *= nu
    if k_max > top:
        raise _out_of_range(len(elems), S)
    return out


def _out_of_range(k, S):
    return InputError(
        f"k = {k} out of range for an explicit set of {len(S.elements)} elements"
    )


def _prime_factors(n):
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


@dataclass(frozen=True)
class IdentityReport:
    p: int
    k: int
    factorial_geometric: int  # k!_{powers of p}
    factorial_integers: int  # k!_Z = k!
    face_count: int  # f_{k-1}(X(F_p^k))
    product_identity: bool  # k!_{powers of p} == k! * f_{k-1}(X(F_p^k))
    divisibility: bool  # k!_Z divides k!_{powers of p} with that quotient


def check_identities(p, k):
    """The face-count identity k!_{1,p,p^2,...} = k! * f_{k-1}(X(F_p^k)) and
    the matching divisibility statement."""
    if not is_prime(p):
        raise InputError(f"not a prime: {p}")
    if k < 1:
        raise InputError("k must be >= 1")
    lhs = generalized_factorial(geometric(1, p), k)
    kz = factorial(k)
    face = formula_f_vector(UniversalKind("X", p, k)).entries[k]
    product_ok = lhs == kz * face
    divisible = lhs % kz == 0 and lhs // kz == face
    return IdentityReport(p, k, lhs, kz, face, product_ok, divisible)
