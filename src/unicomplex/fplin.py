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
`is_unimodular_fp` and the shelling construction fold it from the identity
rows.  The F_p builder runs it below the top level of its frontier; at the
top the state is one row q, and the vertices completing a facet are those
off the hyperplane q w = 0, which the builder reads from a bitset kept per
row (`universal_fp`).  `echelon_basis` is kept for the one place that needs
an explicit basis of a span.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True, order=True)
class PrimeField:
    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise InputError(f"not a prime: {self.p}")


@dataclass(frozen=True, order=True)
class FpVector:
    """A vector in F_p^n; coords are ints in [0, p), reduced by the caller."""

    coords: tuple

    @property
    def n(self):
        return len(self.coords)

    def is_zero(self):
        return not any(self.coords)

    def __str__(self):
        return "(" + ",".join(map(str, self.coords)) + ")"


@dataclass(frozen=True, order=True)
class FpLine:
    """A line through the origin; generator has first nonzero coordinate 1."""

    generator: FpVector

    @property
    def n(self):
        return self.generator.n

    def __str__(self):
        return "[" + ",".join(map(str, self.generator.coords)) + "]"


def _common_dimension(vectors):
    dims = {v.n for v in vectors}
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


def is_unimodular_fp(vectors, field):
    """True iff the vectors are linearly independent (duplicates force False)."""
    vectors = list(vectors)
    rows = _identity_rows(_common_dimension(vectors))
    for v in vectors:
        rows = _quotient_step_fp(rows, v.coords, field.p)
        if rows is None:
            return False
    return True


def line_canonical_fp(v, field):
    """The line through v, represented by the scalar multiple of v whose
    first nonzero coordinate is 1."""
    if v.is_zero():
        raise InputError("zero vector spans no line")
    p = field.p
    first = next(c for c in v.coords if c % p)
    inv = pow(first % p, -1, p)
    return FpLine(FpVector(tuple((c * inv) % p for c in v.coords)))


def enumerate_vectors_fp(n, field):
    """All nonzero vectors of F_p^n in lexicographic coordinate order."""
    if n < 1:
        raise InputError(f"ambient dimension must be >= 1, got {n}")
    p = field.p
    return tuple(
        FpVector(c) for c in product(range(p), repeat=n) if any(c)
    )


def enumerate_lines_fp(n, field):
    """All lines of F_p^n exactly once, ordered lexicographically by
    canonical generator; the count is (p^n - 1)/(p - 1)."""
    if n < 1:
        raise InputError(f"ambient dimension must be >= 1, got {n}")
    p = field.p
    lines = []
    for first in range(n):
        for rest in product(range(p), repeat=n - first - 1):
            lines.append(FpLine(FpVector((0,) * first + (1,) + rest)))
    lines.sort(key=lambda l: l.generator.coords)
    return tuple(lines)
