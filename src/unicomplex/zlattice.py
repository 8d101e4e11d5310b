"""Integer-lattice side: unimodularity over Z, the canonical line order,
truncated universal complexes over Z, the explicit critical family, and
quasitoric pair validation.

A line in Z^n is a rank-1 direct summand; it has two generators and is
represented by the primitive one whose first nonzero coordinate is positive.
Lines are well-ordered by 1-norm of the generator, ties broken from the last
coordinate downward; truncating by 1-norm therefore takes order ideals of
that well-order.  `z_line_key` spells the order and stays its definition;
the enumeration meets it without sorting, as it makes the vectors one
1-norm shell at a time, each shell already in that order.

Unimodularity is decided by one quotient-map step.  The state of a
unimodular set sigma of k vectors in Z^n is the rows of a surjection
Q: Z^n -> Z^(n-k) whose kernel is span(sigma); the empty set has the
identity.  Because Z^n / span(sigma) is free and Q identifies it with
Z^(n-k), sigma + {w} is unimodular iff Q w is primitive, i.e. gcd(Q w) = 1.
In that case integer row operations on Q (Euclid on the entries of Q w)
reduce Q w to a single entry +-1, and dropping that row leaves a surjection
whose kernel is span(sigma + {w}).  Each test costs O(n^2) integer
operations; `is_unimodular_z` folds the step over a list.  The truncation
builder runs it inside the shared frontier loop `scomplex.grow_by_extension`
down to the states of two rows, on candidate ids: a range for the empty
simplex and for a vertex, the set bits of the AND of the vertices'
later-neighbour bitsets from the edges on.  From such a state Q = (q_1, q_2)
`_finish_z` makes the last two levels at once, w accepted iff
gcd(Q w) = 1 and g completing the facet through w iff det(Q w, Q g) = +-1,
both read off the slots of packed big integers, and it stops as soon as
what it has found is past the simplex budget, so an over-budget batch is
refused before it is formed.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain, combinations, compress, count, islice, repeat, starmap
from math import comb, gcd
from operator import add, mul
from sys import byteorder

from .errors import InputError, ResourceLimitError
from .fplin import _common_dimension, _identity_rows
from .scomplex import (
    SIMPLEX_BUDGET,
    SimplicialComplex,
    grow_by_extension,
    parse_facet_list,
    token_lines,
    vertex_label,
)


def z_line(coords):
    """The line through an integer vector, as its primitive generator with
    the first nonzero coordinate positive."""
    c = tuple(int(x) for x in coords)
    if not any(c):
        raise InputError("zero vector spans no line")
    g = gcd(*c)
    if next(filter(None, c)) < 0:
        g = -g
    return tuple(x // g for x in c)


def _quotient_step(rows, w):
    """Extend a unimodular set by the integer vector w, by Euclid's loop.
    `rows` is the surjection Q whose kernel is the span of the set; returns
    the rows for the set plus w, or None if that set is not unimodular."""
    c = [sum(map(mul, row, w)) for row in rows]
    if gcd(*c) != 1:
        return None
    rows = list(rows)
    while True:
        live = [k for k, x in enumerate(c) if x]
        if len(live) == 1:
            i = live[0]
            return tuple(rows[:i] + rows[i + 1:])
        i = min(live, key=lambda k: abs(c[k]))
        ci, pivot = c[i], rows[i]
        for j in live:
            if j != i:
                q = c[j] // ci
                c[j] -= q * ci
                rows[j] = tuple([a - q * b for a, b in zip(rows[j], pivot)])


def _slot(bound):
    """The bytes and signed `array` typecode of the narrowest slot, of 1, 2,
    4 or 8 bytes, holding every integer of absolute value at most `bound`."""
    for size, code in ((1, "b"), (2, "h"), (4, "i"), (8, "q")):
        if bound < 1 << 8 * size - 1:
            return size, code
    raise AssertionError(f"a slot for values up to {bound} is wider than 8 bytes")


def _tops(count, size):
    """H: the top bit of each of `count` slots of `size` bytes."""
    return int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")


def _finish_z(gens):
    """The last two levels of the frontier over Z.  The state of a simplex
    sigma two below the top is two rows Q = (q_1, q_2); sigma + {w} is
    unimodular iff Q w = (a_w, b_w) has gcd 1, and sigma + {w, g} is iff
    det(Q w, Q g) = a_w b_g - b_w a_g is +-1 (then Q g is primitive, so g
    is accepted too).  Returns `finish(rows, ids, room)`: each such w among
    the candidate ids (ascending), each such pair w < g, and the number of
    pairs.  `room` is how many simplices the budget still allows: once the
    accepted ids and the pairs found are more than that, the finish forms
    no further pair or row, and the frontier loop refuses what it returns.

    Both tests read slots of packed integers: value k owns the bits
    [kW, kW + W), W = 8 size, and H holds h = 2^(W-1) in every slot.  A
    row's images of all generators come from one evaluation
    sum_i q_i P_i + H, P_i = sum_j w_j[i] 2^(jW), whose slot j holds
    q w_j + h; XOR H makes that two's complement, read back as a signed
    `array`.  The accepted images pack into A = sum_k a_k 2^(kW) and B, and
    s = b_w A - a_w B + H + ones holds det(Q w, Q g) + h + 1 in the slot of
    each accepted g.  The determinant is +-1 iff that slot is h or h + 2:
    with M the low W - 1 bits of every slot and R those but bit 1,
    `s & ~((s & R) + M) & H` keeps the top bit of exactly those slots, no
    sum carrying out of its slot.  The top bytes of the slots after each w
    in turn select the pairs from `combinations(ids, 2)` in one `compress`,
    which makes each w's row only when it reaches it.

    A slot holds values in [-h, h): the values' slot is fitted to
    |q|_1 max|w_i|, the determinants' to 2 max|a| max|b| + 1, and past 8
    bytes `_slot` raises AssertionError rather than misread.  Under the
    simplex budget that does not occur.  At n = 2 the state is the identity
    and the determinants are at most 2 N^2, N the norm bound, past 8 bytes
    only at N >= 2^31, with over 2^64 vectors to enumerate.  At n >= 3 the
    vertex level, charged before the finish, holds the 2N^2 - 2N + 1 lines
    (1, x, y, 0, ...) with |x| + |y| < N, so N < 2^12 by default, and a
    determinant slot past 8 bytes needs |q_1|_1 |q_2|_1 > 2^37, while the
    states' entries stay near N (|q|_1 <= 42 on K(Z^3) at norm 40)."""
    # imported here, as in `morse.greedy_matching`: only a Z build loads it
    from array import array

    m = len(gens)
    wmax = max(abs(c) for w in gens for c in w)
    packs = {}  # slot bytes -> (the packed coordinates P_i, H)

    def spread(values, code, high):  # sum_k values[k] 2^(kW)
        return (int.from_bytes(array(code, values), byteorder) ^ high) - high

    def images(q):
        size, code = _slot(sum(map(abs, q)) * wmax)
        if size not in packs:
            high = _tops(m, size)
            packs[size] = [spread(col, code, high) for col in zip(*gens)], high
        coords, high = packs[size]
        return array(code, (sum(map(mul, q, coords), high) ^ high).to_bytes(m * size, byteorder))

    def finish(rows, ids, room):
        a, b = (list(map(images(q).__getitem__, ids)) for q in rows)
        keep = list(map((1).__eq__, map(gcd, a, b)))
        ids, a, b = (list(compress(x, keep)) for x in (ids, a, b))
        size, code = _slot(2 * max(map(abs, a), default=0) * max(map(abs, b), default=0) + 1)
        width = len(ids) * size
        high = _tops(len(ids), size)
        A, B = spread(a, code, high), spread(b, code, high)
        ones = high >> 8 * size - 1
        low, rest, bias = high - ones, high - 3 * ones, high + ones

        def hits():  # for each w, the top byte of the slot of each g after w
            for x, y, start in zip(a, b, range(2 * size - 1, width, size)):
                s = y * A - x * B + bias
                yield (s & ~((s & rest) + low) & high).to_bytes(width, "little")[start::size]

        pairs = list(islice(compress(combinations(ids, 2), chain.from_iterable(hits())),
                            max(room - len(ids) + 1, 0)))
        return ids, pairs, len(pairs)

    return finish


def is_unimodular_z(vectors):
    """True iff the vectors span a direct summand of rank equal to their
    number."""
    vectors = list(vectors)
    rows = _identity_rows(_common_dimension(vectors))
    for v in vectors:
        rows = _quotient_step(rows, v)
        if rows is None:
            return False
    return True


# -- the line well-order ------------------------------------------------------


def z_line_key(line):
    """Primary key 1-norm; ties compared from the last coordinate downward."""
    return (sum(map(abs, line)), line[::-1])


def enumerate_z_vectors(n, max_norm):
    """All primitive vectors (both signs) with 1-norm <= max_norm, in
    `z_line_key` order, made one 1-norm shell at a time and never sorted.
    Ordered by reversed coordinates, the vectors of 1-norm k run through
    the last coordinate t = -k..k, each t followed by the shell of 1-norm
    k - |t| one dimension down in its own order; those lower shells are
    made once each, and only the primitive vectors of the top shells are
    kept.  So no vector past the bound is formed.  Past norm 1, Z^1 has no
    primitive vector."""
    if n < 1 or max_norm < 1:
        raise InputError("need n >= 1 and max_norm >= 1")
    lower = {}  # (d, k) -> the vectors of Z^d of 1-norm k, d < n, in order

    def shell(d, k):
        if d == 1:
            return [(-k,), (k,)] if k else [(0,)]
        out = []
        for t in range(-k, k + 1):
            r = k - abs(t)
            if (d - 1, r) not in lower:
                lower[d - 1, r] = shell(d - 1, r)
            out += map(add, lower[d - 1, r], repeat((t,)))
        return out

    out = []
    for k in range(1, (max_norm if n > 1 else 1) + 1):
        vectors = shell(n, k)
        out += compress(vectors, map((1).__eq__, starmap(gcd, vectors)))
    return tuple(out)


def enumerate_z_lines(n, max_norm):
    """All lines with generator 1-norm <= max_norm, as their generators in
    the well-order; growing max_norm only appends."""
    return tuple(c for c in enumerate_z_vectors(n, max_norm)
                 if next(filter(None, c)) > 0)


def _mobius_divisors(k):
    """(d, mu(d)) for each squarefree divisor d of k >= 1, from the primes
    of k found by trial division."""
    out, p = [(1, 1)], 2
    while p * p <= k:
        if k % p == 0:
            out += [(d * p, -mu) for d, mu in out]
            while k % p == 0:
                k //= p
        p += 1
    if k > 1:
        out += [(d * k, -mu) for d, mu in out]
    return out


def _vertex_count(variant, n, max_norm, cap):
    """f_0 of the truncation of X(Z^n) or K(Z^n) at max_norm, counted one
    1-norm shell at a time without enumerating a vertex, or the count so far
    once it passes `cap`; 0 where `enumerate_z_vectors` refuses the bounds.

    The vectors of 1-norm m with j nonzero coordinates number 2^j C(n, j)
    C(m - 1, j - 1): a support, its signs and a composition of m into j
    parts.  S(m) sums them over j, and by Moebius inversion over the gcd the
    primitive vectors of 1-norm k number sum_{d | k} mu(d) S(k / d).  X has
    all of them and K one line per two.  Past norm 1, Z^1 has none."""
    if n < 1 or max_norm < 1:
        return 0
    weights = [2**j * comb(n, j) for j in range(1, n + 1)]
    total = 0
    for k in range(1, (max_norm if n > 1 else 1) + 1):
        primitive = sum(
            mu * sum(w * comb(k // d - 1, j) for j, w in enumerate(weights))
            for d, mu in _mobius_divisors(k))
        total += primitive if variant == "X" else primitive // 2
        if total > cap:
            break
    return total


def build_truncated_universal_z(variant, n, max_norm, budget=SIMPLEX_BUDGET):
    """Full subcomplex of X(Z^n) or K(Z^n) on the vertices within the norm
    bound.  Every simplex is grown by the quotient-map step, or in the last
    two levels accepted by `_finish_z`, so each one is unimodular over Z.
    The vertices are counted against `budget` before they are enumerated.
    No closed form counts the simplices, so the frontier loop counts them
    against `budget` batch by batch, and `_finish_z` stops a batch once it
    is past what the budget still allows, so it is refused unformed."""
    if variant not in ("X", "K"):
        raise InputError(f"variant must be 'X' or 'K', got {variant!r}")
    what = f"truncated {variant}(Z^{n}), max_norm={max_norm}"
    if _vertex_count(variant, n, max_norm, budget) > budget:
        raise ResourceLimitError(f"{what} exceeds simplex budget {budget}")
    gens = (enumerate_z_lines if variant == "K" else enumerate_z_vectors)(n, max_norm)
    by_dim = grow_by_extension(gens, n, _identity_rows(n), _quotient_step,
                               _finish_z(gens), budget, what)
    return SimplicialComplex(by_dim, {i: vertex_label(variant, c)
                                      for i, c in enumerate(gens)})


def critical_family_sigma(n, k):
    """The explicit unimodular (n-1)-simplex family sigma_k, as the
    generators of its lines:
    {L(e_1 + k e_2), L(2 e_1 + (2k-1) e_2), L(e_1 + e_3), ..., L(e_1 + e_n)}."""
    if n < 2 or k < 1:
        raise InputError("need n >= 2 and k >= 1")
    gens = [(1, k) + (0,) * (n - 2), (2, 2 * k - 1) + (0,) * (n - 2)]
    for j in range(2, n):
        gens.append(tuple(1 if i == 0 or i == j else 0 for i in range(n)))
    lines = tuple(map(z_line, gens))
    if not is_unimodular_z(lines):
        raise AssertionError(f"sigma_{k} in Z^{n} is not unimodular")
    return lines


def sigma_family(K, n):
    """(k, simplex) for k = 1, 2, ... while every line of sigma_k is a vertex
    of the truncation K of K(Z^n), with the simplex as sorted vertex ids;
    nothing for n < 2, where the family is not defined."""
    if n < 2:
        return
    id_of = {lab: v for v, lab in K.labels.items()}
    for k in count(1):
        labels = [vertex_label("K", l) for l in critical_family_sigma(n, k)]
        if not all(lab in id_of for lab in labels):
            return
        yield k, tuple(sorted(id_of[lab] for lab in labels))


# -- quasitoric pairs ---------------------------------------------------------


class QuasitoricPair(namedtuple("QuasitoricPair", "dual_complex lam")):
    """`dual_complex`: the boundary complex P* of a simple polytope, a
    SimplicialComplex; `lam`: n rows x m columns of ints, one column per
    vertex of P*."""

    __slots__ = ()

    @property
    def n(self):
        return len(self.lam)

    @property
    def m(self):
        return len(self.lam[0]) if self.lam else 0

    def column(self, j):
        return tuple(row[j] for row in self.lam)


def _pair_shape_check(pair):
    K = pair.dual_complex
    if not K.is_pure() or K.dim != pair.n - 1:
        raise InputError(
            f"dual complex must be pure of dimension n-1 = {pair.n - 1}"
        )
    if pair.m != K.n_vertices:
        raise InputError(
            f"matrix has {pair.m} columns but the dual complex has "
            f"{K.n_vertices} vertices"
        )


def validate_quasitoric_pair(pair):
    """True iff for every facet of the dual complex the n x n minor of the
    characteristic matrix on its columns has determinant +-1.  On failure
    returns the first offending facet as witness."""
    _pair_shape_check(pair)
    verts = pair.dual_complex.vertices()
    col_of = {v: j for j, v in enumerate(verts)}
    for facet in pair.dual_complex.facets():
        cols = [pair.column(col_of[v]) for v in facet]
        if not is_unimodular_z(cols):
            return False, facet
    return True, None


def parse_quasitoric_pair(text, budget=SIMPLEX_BUDGET):
    """Pair file: a facet-list block for P*, a blank line, then n rows of m
    whitespace-separated integers (columns in sorted vertex-label order).
    A facet line holds n labels and a matrix row m > n integers, so the
    blocks split at the first blank or comment line followed by rows of one
    length only (else at the first): a comment among the facets is skipped.
    The facet block is closed under the simplex budget."""
    tokens = list(token_lines(text))
    filled = [i for i, toks in enumerate(tokens) if toks] or [len(tokens)]
    gaps = [i for i in range(filled[0], len(tokens)) if not tokens[i]]
    if not gaps:
        raise InputError("pair file needs a blank line between facets and matrix")
    width = len(tokens[filled[-1]])
    other = max((i for i in filled if len(tokens[i]) != width), default=-1)
    split = next((i for i in gaps if other < i < filled[-1]), gaps[0])
    K = parse_facet_list("\n".join(text.splitlines()[:split]), budget=budget)
    rows = []
    for toks in filter(None, tokens[split:]):
        try:
            rows.append(tuple(map(int, toks)))
        except ValueError as exc:
            raise InputError(f"bad matrix row: {' '.join(toks)!r}") from exc
    if not rows or len({len(r) for r in rows}) != 1:
        raise InputError("matrix block missing or ragged")
    return QuasitoricPair(K, tuple(rows))
