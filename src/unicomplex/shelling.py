"""Shelling verification, the inductive shelling of the universal complexes
over F_p, and shiftedness testing.

The constructed shelling groups facets of the n-dimensional complex by
their set of vertices outside the (n-1)-dimensional subcomplex (the "new"
vertices), orders groups by size of that set and then lexicographically,
and orders each group by a recursively constructed shelling of the link of
the subspace the new vertices cut out of the old coordinate hyperplane.
The verifier, not the construction, is the ground truth.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .errors import InputError
from .fplin import (
    FpLine,
    FpVector,
    PrimeField,
    echelon_basis,
    line_canonical_fp,
    _echelon_insert,
)
from .universal_fp import build_universal, formula_f_vector, sphere_count


@dataclass(frozen=True)
class ShellingOrder:
    facets: tuple  # ordered simplices (vertex-id tuples), each facet once


def shelling_h_vector(K, order):
    """Check the shelling condition in one pass by restriction faces and
    count their sizes.

    R(F_k) is the set of vertices v of facet k with F_k - v a face of an
    earlier facet.  The faces of F_k in the earlier complex always include
    those missing a vertex of R(F_k); the intersection is pure of
    codimension 1 exactly when nothing more is there, that is, when R(F_k)
    itself is not a face of the earlier complex (faces are closed under
    subsets).  The empty face belongs to every nonempty complex, so a facet
    meeting no codimension-1 face of the earlier ones fails.

    Returns (None, h) for a shelling, whose h-vector h_i counts the facets
    with |R(F_k)| = i, or (k, h) with the first failing 1-based index k and
    the counts over the facets before it."""
    facets = K.facets()
    width = K.dim + 1
    if any(len(f) != width for f in facets):
        raise InputError("shellings are defined for pure complexes")
    forder = [tuple(f) for f in order.facets]
    if len(set(forder)) != len(forder) or sorted(forder) != facets:
        raise InputError("order must cover every facet exactly once")
    h = [0] * (width + 1)
    seen = set()  # every face of the facets placed; empty, so F_1 passes
    for k, F in enumerate(forder):
        restriction = tuple(
            v for i, v in enumerate(F) if F[:i] + F[i + 1:] in seen
        )
        if restriction in seen:
            return k + 1, tuple(h)
        h[len(restriction)] += 1
        for size in range(width + 1):
            seen.update(combinations(F, size))
    return None, tuple(h)


def verify_shelling(K, order):
    """Check the shelling condition: for each k >= 2 the maximal faces of
    the intersection of facet k with the union of the earlier ones all have
    cardinality |F_k| - 1.  Returns (True, None) or (False, k) with the
    first failing 1-based index."""
    idx, _ = shelling_h_vector(K, order)
    return idx is None, idx


# -- inductive construction over F_p ----------------------------------------


def _coords(label):
    return label.generator.coords if isinstance(label, FpLine) else label.coords


def _vertex_labels(variant, p, n):
    from .fplin import enumerate_lines_fp, enumerate_vectors_fp

    field = PrimeField(p)
    if variant == "K":
        return enumerate_lines_fp(n, field)
    return enumerate_vectors_fp(n, field)


def _rank(rows, p):
    return len(echelon_basis(rows, p))


def _hyperplane_intersection_basis(rows, p):
    """Basis of (row space) intersected with {last coordinate = 0}, as
    echelon rows with the last coordinate dropped."""
    basis = [list(r) for _, r in echelon_basis(rows, p)]
    carriers = [r for r in basis if r[-1]]
    flat = [r for r in basis if not r[-1]]
    if carriers:
        u = carriers[0]
        inv = pow(u[-1], -1, p)
        for r in carriers[1:]:
            f = (r[-1] * inv) % p
            flat.append([(a - f * b) % p for a, b in zip(r, u)])
    trunc = [tuple(r[:-1]) for r in flat]
    return [r for _, r in echelon_basis(trunc, p)]


def _completion_matrix(basis_rows, p, size):
    """Invertible size x size matrix whose first columns are the given
    vectors, completed greedily by standard basis vectors."""
    cols = [tuple(b) for b in basis_rows]
    ech = echelon_basis(cols, p)
    for t in range(size):
        if len(cols) == size:
            break
        e = tuple(1 if i == t else 0 for i in range(size))
        ext = _echelon_insert(ech, e, p)
        if ext is not None:
            ech = ext
            cols.append(e)
    return cols  # column vectors


def _apply_columns(cols, vec, p):
    size = len(cols[0])
    out = [0] * size
    for w, col in zip(vec, cols):
        if w:
            for i in range(size):
                out[i] = (out[i] + w * col[i]) % p
    return tuple(out)


def _transport_label(variant, cols, label, p):
    image = _apply_columns(cols, _coords(label), p)
    if variant == "K":
        return line_canonical_fp(FpVector(image), PrimeField(p))
    return FpVector(image)


def _embed_label(variant, label):
    coords = _coords(label) + (0,)
    return FpLine(FpVector(coords)) if variant == "K" else FpVector(coords)


def _shell_labels(variant, p, amb, d, memo):
    """Ordered facets of the link of span(e_1..e_d) inside the universal
    complex on F_p^amb, as tuples of labels."""
    key = (variant, p, amb, d)
    if key in memo:
        return memo[key]
    if d >= amb:
        memo[key] = ()
        return ()
    all_labels = _vertex_labels(variant, p, amb)
    if d == amb - 1:
        out = tuple((lab,) for lab in all_labels if any(_coords(lab)[d:]))
        memo[key] = out
        return out

    std = [tuple(1 if i == j else 0 for i in range(amb)) for j in range(d)]
    v1 = [lab for lab in all_labels if _coords(lab)[-1]]
    out = []
    for i in range(1, amb - d + 1):
        for combo in combinations(v1, i):
            rows = std + [_coords(lab) for lab in combo]
            if _rank(rows, p) != d + i:
                continue
            if i < amb - d:
                wbasis = _hyperplane_intersection_basis(rows, p)
                k = d + i - 1
                if len(wbasis) != k:
                    raise AssertionError("old-subspace intersection has wrong rank")
                cols = _completion_matrix(wbasis, p, amb - 1)
                for facet in _shell_labels(variant, p, amb - 1, k, memo):
                    moved = tuple(
                        _embed_label(variant, _transport_label(variant, cols, lab, p))
                        for lab in facet
                    )
                    out.append(tuple(sorted(moved + combo)))
            else:
                out.append(tuple(sorted(combo)))
    memo[key] = tuple(out)
    return memo[key]


def construct_shelling_fp(kind, built=None):
    """The inductive shelling order for X/K(F_p^n).  The output is verified,
    and the h-vector of the same pass must equal the one of the closed-form
    f-vector, with h_n the sphere count; a failure is a hard error carrying
    the counterexample index or the two vectors."""
    if built is None:
        built = build_universal(kind)
    label_facets = _shell_labels(kind.variant, kind.p, kind.n, 0, {})
    vid = {lab: v for v, lab in built.labels.items()}
    order = ShellingOrder(
        tuple(tuple(sorted(vid[lab] for lab in f)) for f in label_facets)
    )
    idx, h = shelling_h_vector(built, order)
    if idx is not None:
        raise AssertionError(
            f"constructed order for {kind} fails the shelling condition at facet {idx}"
        )
    want = h_vector_from_f(formula_f_vector(kind).entries)
    if h != want:
        raise AssertionError(
            f"constructed shelling of {kind} has h-vector {h}, "
            f"the closed-form f-vector gives {want}"
        )
    spheres = sphere_count(kind).count
    if h[-1] != spheres:
        raise AssertionError(
            f"constructed shelling of {kind} has h_{kind.n} = {h[-1]}, "
            f"sphere_count gives {spheres}"
        )
    return order


def h_vector_from_f(f):
    """h-vector of a pure complex from its f-vector (f_{-1}, f_0, ...):
    h_k = sum_i (-1)^(k-i) C(n-i, k-i) f_{i-1} with n = len(f) - 1."""
    n = len(f) - 1
    return tuple(
        sum((-1) ** (k - i) * comb(n - i, k - i) * f[i] for i in range(k + 1))
        for k in range(n + 1)
    )


# -- shiftedness -------------------------------------------------------------


def _shift_constraints(K, verts):
    """The constraint digraph of `is_shifted` on vertex indices: bit j of
    out[i] is set when verts[j] must get a larger label than verts[i].

    Replacing v by u in a facet f leaves K exactly when u is outside f and
    outside cof(f - v) = {u | (f - v) + u in K}.  One pass over the levels
    that hold facets records cof(r) as a bitset for every codimension-1
    face r there; then each facet f and each v in f add the complement of
    f | cof(f - v) to the out-set of v."""
    index = {v: i for i, v in enumerate(verts)}
    facets = K.facets()
    cof = {}
    for size in {len(f) for f in facets}:
        for s in K.simplices_of_dim(size - 1):
            for i in range(size):
                r = s[:i] + s[i + 1:]
                cof[r] = cof.get(r, 0) | 1 << index[s[i]]
    everything = (1 << len(verts)) - 1
    out = [0] * len(verts)
    for f in facets:
        fbits = 0
        for v in f:
            fbits |= 1 << index[v]
        for i, v in enumerate(f):
            out[index[v]] |= everything & ~(fbits | cof[f[:i] + f[i + 1:]])
    return out


def is_shifted(K):
    """Decide whether some vertex labeling makes K closed under replacing a
    vertex of a simplex by one with a smaller label.

    Replacement closure on all simplices reduces to closure on facets, and
    whether labels can be chosen at all reduces to precedence constraints:
    if replacing v by u in some facet leaves the complex, u must get a
    larger label than v.  K is shifted iff the constraint digraph is
    acyclic; a witness labeling is read off a topological order."""
    verts = K.vertices()
    m = len(verts)
    succ = [
        [j for j in range(m) if outs >> j & 1] for outs in _shift_constraints(K, verts)
    ]
    indeg = [0] * m
    for targets in succ:
        for j in targets:
            indeg[j] += 1
    heap = [i for i in range(m) if indeg[i] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        i = heapq.heappop(heap)
        order.append(verts[i])
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(heap, j)
    if len(order) < m:
        return False, None
    return True, {v: i + 1 for i, v in enumerate(order)}
