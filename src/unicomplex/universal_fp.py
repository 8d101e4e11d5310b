"""Builders and closed-form counts for the universal complexes over F_p.

X(F_p^n) has the nonzero vectors of F_p^n as vertices, with simplices the
linearly independent subsets.  K(F_p^n) has the lines through the origin as
vertices, with simplices the sets of lines spanning a subspace of dimension
equal to their number.  Both are pure of dimension n-1 and carry a transitive
GL(n, F_p) action, which is what makes the closed-form face counts below work.
The vertex ids and coordinates are decided here once, by
`_vertex_enumeration`, for the builder and the shelling construction alike.

The builder grows simplices in the shared frontier loop
`scomplex.grow_by_extension` with the quotient step
`fplin._quotient_step_fp`: a simplex sigma carries the rows of a surjection
F_p^n -> F_p^(n-k) with kernel span(sigma), and a candidate vertex w
extends it iff its image under that surjection is nonzero.  Candidates are
ascending vertex ids.  The steps stop where the surjection has two rows
Q, two levels below the top; `_finish_fp` then makes both remaining levels
at once from where each candidate's image lies on the projective line
P^1(F_p): w extends sigma iff Q w != 0, and g completes the facet through
w iff Q g lies on another point than Q w.  So each simplex below the top
costs two dot products per candidate, and each facet none: it is a pair
of candidates on two points.  The built level sizes are checked against
the closed-form f-vector, a second derivation.
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial
from itertools import combinations, compress, starmap
from operator import mul, ne

from .errors import InputError, ResourceLimitError
from .fplin import (
    check_prime,
    enumerate_lines_fp,
    enumerate_vectors_fp,
    _identity_rows,
    _quotient_step_fp,
)
from .scomplex import (
    SIMPLEX_BUDGET,
    SimplicialComplex,
    euler_characteristic,
    grow_by_extension,
    vertex_label,
)


class UniversalKind(namedtuple("UniversalKind", "variant p n")):
    """X(F_p^n) (variant "X", vector vertices) or K(F_p^n) ("K", line
    vertices)."""

    __slots__ = ()

    def __new__(cls, variant, p, n):
        if variant not in ("X", "K"):
            raise InputError(f"variant must be 'X' or 'K', got {variant!r}")
        check_prime(p)
        if n < 1:
            raise InputError(f"ambient dimension must be >= 1, got {n}")
        return super().__new__(cls, variant, p, n)

    def __str__(self):
        return f"{self.variant}(F_{self.p}^{self.n})"


def _exact_div(num, den, what):
    q, r = divmod(num, den)
    if r:
        raise AssertionError(f"non-exact division in {what}: {num} / {den}")
    return q


def formula_f_vector(kind, link_dim=None):
    """Closed-form f-vector of the universal complex, or of the link of an
    i-simplex when link_dim = i is given; the whole complex is the link of
    the empty simplex, i = -1.  Numerator and denominator of the entries
    are running products, and every division is checked exact."""
    p, n = kind.p, kind.n
    if link_dim is None:
        i, where = -1, str(kind)
    else:
        i, where = link_dim, f"link_{link_dim} {kind}"
        if not 0 <= i <= n - 1:
            raise InputError(f"link dimension {i} out of range [0, {n - 1}]")
    line_factor = (p - 1) if kind.variant == "K" else 1
    whole, power = p**n, p ** (i + 1)
    f, num, den = [1], 1, 1
    for k in range(n - i - 1):
        num *= whole - power
        den *= (k + 1) * line_factor
        power *= p
        f.append(_exact_div(num, den, f"f_{k}({where})"))
    return tuple(f)


def sphere_count(f):
    """Number of top spheres in the wedge decomposition of a complex with
    f-vector f: its reduced Euler characteristic chi - 1 up to the sign
    (-1)^d of the sphere dimension d = len(f) - 2 (n-1 for the whole
    complex, n-i-2 for the link of an i-simplex)."""
    reduced = euler_characteristic(f) - 1
    count = reduced if len(f) % 2 == 0 else -reduced
    if count < 0:
        raise AssertionError(f"negative sphere count from the f-vector {f}")
    return count


def _finish_fp(gens, p):
    """The last two levels of the frontier over F_p.  The state of a simplex
    sigma two below the top is two rows Q = (q_1, q_2), and sigma + {w} is
    a simplex iff Q w != 0.  sigma + {w, g} is one iff Q w and Q g are
    independent in F_p^2, that is, iff Q g != 0 lies on another point of
    the projective line P^1(F_p) than Q w.  Returns
    `finish(rows, cands, room)`, which puts each candidate id with
    Q w != 0 on its point, (1 : y/x) or (0 : 1) for Q w = (x, y), and
    returns them, every pair of them but those on one point as a lazy
    C-level pass, and the count of those pairs: a few integer operations
    per candidate, and none per facet.  `room` is not read: the pairs are
    counted before one is formed, so the loop refuses an over-budget batch
    unformed."""
    def finish(rows, cands, room):
        q1, q2 = rows
        on = {}  # point of P^1 -> how many candidates lie on it
        ids, pts, n_pairs = [], [], 0
        for j in cands:
            w = gens[j]
            x = sum(map(mul, q1, w)) % p
            y = sum(map(mul, q2, w)) % p
            if x:
                t = y * pow(x, -1, p) % p
            elif y:
                t = p
            else:
                continue
            n_pairs += len(ids) - on.get(t, 0)  # the earlier ones on other points
            on[t] = on.get(t, 0) + 1
            ids.append(j)
            pts.append(t)
        return ids, compress(combinations(ids, 2), starmap(ne, combinations(pts, 2))), n_pairs

    return finish


def _vertex_enumeration(variant, p, n):
    """The vertex coordinates of X/K(F_p^n) in id order: the nonzero
    vectors for X, the lines' canonical generators for K."""
    return (enumerate_vectors_fp if variant == "X" else enumerate_lines_fp)(n, p)


def _vertex_count(kind):
    """f_0 of the universal complex: p^n - 1 vectors, (p^n - 1)/(p - 1) lines."""
    return (kind.p**kind.n - 1) // (1 if kind.variant == "X" else kind.p - 1)


def build_universal(kind, budget=SIMPLEX_BUDGET):
    """Construct the complex explicitly by incremental extension: a simplex
    is grown only by vertices (in enumeration order, past its last one) that
    raise the rank, so each unimodular subset is produced exactly once.  The
    rank test is the quotient step, starting from the identity rows, and the
    last two levels are finished by `_finish_fp`.  Before anything is
    allocated the vertex count, and then the closed-form simplex count, is
    checked against `budget`.  The vertex count goes first, as it is cheap
    where the closed form of a large n is not; the refusal prints neither,
    as a large count can have more digits than the interpreter prints.  The
    one closed form serves the budget and the final check.  That check also
    gives purity in dimension n-1: the f-vector's length fixes the
    dimension, and as every simplex is grown by an independence test, equal
    counts mean every independent set was built, and the independent sets
    of a vector configuration form a matroid complex, which is pure."""
    formula = None if _vertex_count(kind) > budget else formula_f_vector(kind)
    if formula is None or sum(formula[1:]) > budget:
        raise ResourceLimitError(
            f"{kind} has more simplices than the simplex budget {budget}")
    p, n = kind.p, kind.n
    gens = _vertex_enumeration(kind.variant, p, n)
    by_dim = grow_by_extension(gens, n, _identity_rows(n),
                               partial(_quotient_step_fp, p=p),
                               _finish_fp(gens, p), budget, str(kind))
    K = SimplicialComplex(by_dim, {i: vertex_label(kind.variant, c)
                                   for i, c in enumerate(gens)})
    if K.f_vector() != formula:
        raise AssertionError(
            f"built {kind} has f-vector {K.f_vector()}, the closed form gives {formula}"
        )
    return K


def standard_pivot_ids(kind):
    """Vertex ids of e_1, ..., e_n (X) or L(e_1), ..., L(e_n) (K) in
    `build_universal(kind)`, in order.

    These are the pivot schedules used by the greedy matchings.  A vertex
    id is the position of the vertex's coordinates in the lexicographic
    enumeration.  The vectors before e_i are the nonzero ones with zeros in
    coordinates 1..i, p^(n-i) - 1 of them, and the lines before L(e_i) are
    the lines among those, (p^(n-i) - 1) / (p - 1)."""
    p, n = kind.p, kind.n
    per_id = 1 if kind.variant == "X" else p - 1
    return tuple((p ** (n - i) - 1) // per_id for i in range(1, n + 1))
