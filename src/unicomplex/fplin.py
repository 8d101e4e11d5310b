"""Exact linear algebra over the prime field F_p.

Vectors are immutable coordinate tuples with entries reduced into [0, p).
Lines (projective points) are represented by the unique generator whose
first nonzero coordinate is 1, which makes equality and enumeration order
well defined.

Independence is tested by one quotient step, `_quotient_step_fp`, the F_p
twin of `zlattice._quotient_step`: the state of an independent set sigma of
k vectors in F_p^n is the rows of a surjection Q: F_p^n -> F_p^(n-k) whose
kernel is span(sigma), the identity for the empty set.  sigma + {w} is
independent iff Q w != 0, and one pivot elimination on Q w followed by
dropping the pivot row gives the surjection for sigma + {w}.
`_span_quotient_fp` folds it from the identity rows, for `is_unimodular_fp`
(independent iff no vector is skipped) and the shelling construction.  The
F_p builder runs it down to the states of two rows, two levels below the
top of its frontier; from such a state Q it makes the last two levels at
once, by where Q puts each candidate on the projective line
(`universal_fp`).  `echelon_basis` is kept for the one place that needs an
explicit basis of a span.
"""

from __future__ import annotations

from itertools import product
from operator import mul

from .errors import InputError


# Miller-Rabin with the first 13 prime bases decides primality of every
# n < MILLER_RABIN_BOUND (Sorenson and Webster, Math. Comp. 86, 2017).
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(p):
    """Deterministic Miller-Rabin primality test, proven correct below
    MILLER_RABIN_BOUND; larger p raise InputError."""
    if p >= MILLER_RABIN_BOUND:
        raise InputError(f"primality of {p} is only decided below {MILLER_RABIN_BOUND}")
    if p < 2:
        return False
    for b in MILLER_RABIN_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in MILLER_RABIN_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def check_prime(p):
    """Raise InputError unless p is a prime."""
    if not is_prime(p):
        raise InputError(f"not a prime: {p}")


def _common_dimension(vectors):
    dims = {len(v) for v in vectors}
    if len(dims) > 1:
        raise InputError(f"ambient dimension mismatch: {sorted(dims)}")
    return dims.pop() if dims else 0


def _identity_rows(n):
    """The quotient state of the empty set in F_p^n or Z^n."""
    return tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n))


def _quotient_step_fp(rows, w, p):
    """Extend an independent set by the vector w over F_p.  `rows` is the
    surjection Q whose kernel is the span of the set; returns the rows of
    the surjection for the set plus w (one row fewer), or None if w lies in
    the span.  The first row with a nonzero image is the pivot: it is
    dropped, and a multiple of it is subtracted from every later row whose
    image is nonzero, so that the image becomes 0."""
    out = []
    pivot = None
    for row in rows:
        x = sum(map(mul, row, w)) % p
        if not x:
            out.append(row)
        elif pivot is None:
            pivot, inv = row, pow(x, -1, p)
        else:
            f = x * inv % p
            out.append(tuple([(a - f * b) % p for a, b in zip(row, pivot)]))
    return None if pivot is None else tuple(out)


def _span_quotient_fp(vectors, n, p):
    """Fold `_quotient_step_fp` over coordinate tuples of F_p^n from the
    identity rows, skipping each vector in the span of those before it.
    The span has rank n minus the number of rows returned."""
    rows = _identity_rows(n)
    for w in vectors:
        nxt = _quotient_step_fp(rows, w, p)
        if nxt is not None:
            rows = nxt
    return rows


def echelon_basis(rows, p):
    """Echelon basis (tuple of (pivot_col, row), each row with a leading 1,
    sorted by pivot column) of the span of integer rows."""
    basis = []
    for r in rows:
        row = [c % p for c in r]
        for pivot_col, brow in basis:
            c = row[pivot_col]
            if c:
                row = [(a - c * b) % p for a, b in zip(row, brow)]
        col = next((k for k, c in enumerate(row) if c), None)
        if col is not None:
            inv = pow(row[col], -1, p)
            basis.append((col, tuple((a * inv) % p for a in row)))
            basis.sort()
    return tuple(basis)


def is_unimodular_fp(vectors, p):
    """True iff the vectors are linearly independent (duplicates force
    False): their span has rank equal to their number."""
    vectors = list(vectors)
    n = _common_dimension(vectors)
    return n - len(_span_quotient_fp(vectors, n, p)) == len(vectors)


def line_canonical_fp(v, p):
    """The generator of the line through v whose first nonzero coordinate
    is 1."""
    first = next((c for c in v if c % p), None)
    if first is None:
        raise InputError("zero vector spans no line")
    inv = pow(first, -1, p)
    return tuple(c * inv % p for c in v)


def enumerate_vectors_fp(n, p):
    """All nonzero vectors of F_p^n in lexicographic coordinate order."""
    if n < 1:
        raise InputError(f"ambient dimension must be >= 1, got {n}")
    return tuple(c for c in product(range(p), repeat=n) if any(c))


def enumerate_lines_fp(n, p):
    """All lines of F_p^n exactly once, as canonical generators in
    lexicographic order; the count is (p^n - 1)/(p - 1).  A generator with
    more leading zeros comes first, and those with the same leading zeros
    come out of `product` in order."""
    if n < 1:
        raise InputError(f"ambient dimension must be >= 1, got {n}")
    return tuple(
        (0,) * first + (1,) + rest
        for first in reversed(range(n))
        for rest in product(range(p), repeat=n - first - 1)
    )
