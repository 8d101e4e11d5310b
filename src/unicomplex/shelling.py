"""Shelling verification, the inductive shelling of the universal complexes
over F_p, and shiftedness testing.

A shelling order is a sequence of facets, each a sorted tuple of vertex ids.
`shelling_h_vector` checks one by a count over ridges (Björner's
restriction intervals, Ziegler's Lectures on Polytopes §8.3): one C-level
pass notes the facet at which each ridge is first met, which gives every
restriction face R(F_k), and the order is a shelling iff the intervals
[R(F_k), F_k] hold as many faces as K, the empty face included.  The pass
keeps one dict entry per ridge; only when the count fails does a loop that
keeps every placed face, one more tuple set the size of K, run to find the
first failing facet.

The constructed shelling groups facets of the n-dimensional complex by
their set of vertices outside the (n-1)-dimensional subcomplex (the "new"
vertices), orders groups by size of that set and then lexicographically,
and orders each group by a recursively constructed shelling of the link of
the subspace the new vertices cut out of the old coordinate hyperplane.
The verifier, not the construction, is the ground truth: the constructed
order goes through `shelling_h_vector` before it is returned.

The construction works on vertex ids and coordinate tuples, both taken
from the one enumeration in `universal_fp` (a line's coordinates are its
canonical generator).  The groups come from the frontier builder over the
vertices off the old hyperplane, started at the quotient of the span being
linked.  A recursive order lives in the space one dimension down; it is
carried up by a transport table, made once per subspace: for each vertex
of the smaller space, the completion matrix of the subspace applied to its
coordinates, with a zero last coordinate appended and a line's image
normalised to its generator, looked up by coordinates among the ids of
the larger space.  So a transported facet is a tuple of table lookups,
sorted as ints.

Shiftedness checks one labeling.  In a shifted complex domination of vertices
(u dominates v when replacing v by u never leaves the complex) is a total
preorder, and strict domination strictly raises the number of faces through
a vertex, so the vertices sorted by that number, most first, form a valid
labeling whenever one exists.  Checking it takes one sort of each coface
list and one binary search per codimension-1 face of each facet.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from functools import partial
from itertools import chain, combinations, compress, repeat
from math import comb
from operator import is_not

from .errors import InputError
from .fplin import (
    echelon_basis,
    line_canonical_fp,
    _identity_rows,
    _quotient_step_fp,
    _span_quotient_fp,
)
from .scomplex import grow_by_extension
from .universal_fp import formula_f_vector, _finish_fp, _vertex_enumeration


def shelling_h_vector(K, order):
    """Decide whether the facet sequence `order` is a shelling of K from
    one pass over its ridges, and histogram its restriction-face sizes.

    R(F_k) is the set of vertices v of facet k with F_k - v a face of an
    earlier facet.  The faces of F_k in the earlier complex always include
    those missing a vertex of R(F_k); the intersection is pure of
    codimension 1 exactly when nothing more is there, that is, when R(F_k)
    itself is not a face of the earlier complex (faces are closed under
    subsets).  The empty face belongs to every nonempty complex, so a facet
    meeting no codimension-1 face of the earlier ones fails.

    A face of F_k of size w - 1 (w = dim K + 1) lies in an earlier facet
    iff it is one of that facet's ridges, so one pass over the incidences
    (F_k, ridge of F_k), each sent through `first.setdefault(ridge, F_k)`,
    finds every R(F_k): v is in it iff the ridge F_k - v was first met at
    an earlier facet.  The order is a shelling iff

        sum over k of 2^(w - |R(F_k)|)  =  1 + K.n_simplices.

    Proof: a face of F_k missing some v of R(F_k) lies in the earlier
    ridge F_k - v, so the faces new at step k lie in the interval
    [R(F_k), F_k] of 2^(w - |R(F_k)|) faces.  They fill it iff R(F_k) is
    not an earlier face, which is the test above.  Every face of K, the
    empty face included, is new at exactly one step, so the sum is at
    least 1 + K.n_simplices, with equality iff every step passes.

    The pass holds one dict entry per ridge and no face set.  Only when
    the count says no does the face-set loop run, as the search for the
    first failing facet: it keeps every face of the facets placed, about
    one more tuple set the size of K.

    Returns (None, h) for a shelling, whose h-vector h_i counts the facets
    with |R(F_k)| = i, or (k, h) with the first failing 1-based index k and
    the counts over the facets before it."""
    if not K.is_pure():
        raise InputError("shellings are defined for pure complexes")
    width = K.dim + 1
    top = K.sorted_simplices(K.dim)  # the facets, K being pure
    forder = [tuple(f) for f in order]
    rest = set(top)
    rest.difference_update(forder)
    if len(forder) != len(top) or rest:
        raise InputError("order must cover every facet exactly once")

    def each_facet_per_ridge():
        return chain.from_iterable(map(repeat, forder, repeat(width)))

    first = {}
    ridges = chain.from_iterable(map(combinations, forder, repeat(width - 1)))
    # the facets are distinct, so `is not` tells an earlier one from F_k
    earlier = map(is_not, map(first.setdefault, ridges, each_facet_per_ridge()),
                  each_facet_per_ridge())
    sizes = Counter(map(sum, zip(*[earlier] * width)))  # |R(F_k)| per facet
    if sum(c << (width - r) for r, c in sizes.items()) == 1 + K.n_simplices:
        return None, tuple(sizes[r] for r in range(width + 1))
    # some step fails (or K has no facet): find the first, face by face
    h = [0] * (width + 1)
    seen = set()  # every face of the facets placed; empty, so F_1 passes
    for k, F in enumerate(forder):
        in_r = [F[:i] + F[i + 1:] in seen for i in range(len(F))]
        restriction = tuple(compress(F, in_r))
        if restriction in seen:
            return k + 1, tuple(h)
        h[len(restriction)] += 1
        # the faces of F missing a vertex of R(F) are seen already, so the
        # new ones are the supersets of R(F) in F
        new = [restriction]
        for v, r in zip(F, in_r):
            if not r:
                new += [tuple(sorted(s + (v,))) for s in new]
        seen.update(new)
    return None, tuple(h)


# -- inductive construction over F_p ----------------------------------------


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
    quotient = _span_quotient_fp(cols, size, p)
    for e in _identity_rows(size):
        if len(cols) == size:
            break
        nxt = _quotient_step_fp(quotient, e, p)
        if nxt is not None:
            quotient = nxt
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


def _space(variant, p, amb, memo):
    """The vertex coordinates of the complex on F_p^amb in id order, and the
    map from each coordinate tuple to its id."""
    key = ("space", amb)
    if key not in memo:
        coords = _vertex_enumeration(variant, p, amb)
        memo[key] = coords, {c: u for u, c in enumerate(coords)}
    return memo[key]


def _transport_table(variant, p, amb, wbasis, memo):
    """The vertex ids of F_p^amb that the completion of `wbasis` followed by
    the embedding into the first amb - 1 coordinates sends the vertices of
    F_p^(amb-1) to, indexed by their ids.  A line's image is normalised to
    its generator.  The completion depends on `wbasis` only, so one table
    serves every combination cutting out the same subspace."""
    key = ("table", amb, wbasis)
    if key not in memo:
        cols = _completion_matrix(wbasis, p, amb - 1)
        small, _ = _space(variant, p, amb - 1, memo)
        _, id_of = _space(variant, p, amb, memo)
        table = []
        for c in small:
            image = _apply_columns(cols, c, p) + (0,)
            if variant == "K":
                image = line_canonical_fp(image, p)
            table.append(id_of[image])
        memo[key] = table
    return memo[key]


def _shell_ids(variant, p, amb, d, bound, memo):
    """Ordered facets of the link of span(e_1..e_d) inside the universal
    complex on F_p^amb, as sorted tuples of vertex ids in the enumeration of
    F_p^amb.  `bound` is the simplex count of the complex on F_p^n, n >= amb,
    that the recursion started in.

    The new vertices are the combinations, by size and then lexicographically,
    of vertices off the hyperplane {last coordinate = 0} that are independent
    modulo span(e_1..e_d): the simplices of a frontier over those vertices
    that starts from the quotient of that span.  A combination short of a
    facet is completed by the recursive order of a link in F_p^(amb-1),
    carried over by a transport table."""
    key = ("order", amb, d)
    if key in memo:
        return memo[key]
    coords, _ = _space(variant, p, amb, memo)
    std = list(_identity_rows(amb)[:d])
    v1 = [u for u, c in enumerate(coords) if c[-1]]
    gens = [coords[u] for u in v1]
    # the combinations are simplices of the complex on F_p^amb, which
    # embeds in the one on F_p^n, so its simplex count bounds them
    levels = grow_by_extension(
        gens, amb - d, _span_quotient_fp(std, amb, p),
        partial(_quotient_step_fp, p=p), _finish_fp(gens, p), bound,
        f"combinations in F_{p}^{amb}",
    )
    out = []
    for i, level in enumerate(levels[:-1], 1):
        k = d + i - 1
        inner = _shell_ids(variant, p, amb - 1, k, bound, memo)
        for combo in level:
            wbasis = _hyperplane_intersection_basis(
                std + [gens[j] for j in combo], p)
            if len(wbasis) != k:
                raise AssertionError("old-subspace intersection has wrong rank")
            table = _transport_table(variant, p, amb, tuple(wbasis), memo)
            new = tuple(v1[j] for j in combo)
            for facet in inner:
                out.append(tuple(sorted((*map(table.__getitem__, facet), *new))))
    out.extend(tuple(v1[j] for j in combo) for combo in levels[-1])
    memo[key] = tuple(out)
    return memo[key]


def construct_shelling_fp(kind, built):
    """The inductive shelling order for X/K(F_p^n), as a tuple of facets.
    The output is verified, and the h-vector of the same pass must equal the
    one of the closed-form f-vector, whose h_n is the sphere count; a failure
    is a hard error carrying the counterexample index or the two vectors.
    `built` is the complex of `build_universal(kind)`, whose vertex ids are
    the enumeration order."""
    order = _shell_ids(kind.variant, kind.p, kind.n, 0, built.n_simplices, {})
    idx, h = shelling_h_vector(built, order)
    if idx is not None:
        raise AssertionError(
            f"constructed order for {kind} fails the shelling condition at facet {idx}"
        )
    want = h_vector_from_f(formula_f_vector(kind))
    if h != want:
        raise AssertionError(
            f"constructed shelling of {kind} has h-vector {h}, "
            f"the closed-form f-vector gives {want}"
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


def is_shifted(K):
    """Decide whether some vertex labeling makes K closed under replacing a
    vertex of a simplex by one with a smaller label.

    Say u dominates v when replacing v by u never leaves K.  A face s that
    holds v but not u goes to s - v + u, an injection into the faces that
    hold u but not v, so u dominating v gives u at least as many faces as v,
    and strictly more unless v dominates u too.  In a shifted complex
    domination is a total preorder (Klivans), so sorting the vertices by
    (-faces through the vertex, id) gives a valid labeling whenever any
    exists: it is the only one checked.

    Closure on all simplices reduces to closure on facets: K is shifted iff
    for each facet f = r + v every u outside f labeled below v has r + u in
    K.  With cof(r) = {u | r + u in K} sorted by label, that is one count:
    the labels of cof(r) below label(v) number label(v) minus those of r."""
    faces = dict.fromkeys(K.vertices(), 0)
    for s in K.all_simplices():
        for v in s:
            faces[v] += 1
    order = sorted(faces, key=lambda v: (-faces[v], v))
    label = {v: i for i, v in enumerate(order)}
    facets = K.facets()
    cof = {}
    for size in {len(f) for f in facets}:
        for s in K.sorted_simplices(size - 1):
            for i in range(size):
                cof.setdefault(s[:i] + s[i + 1:], []).append(label[s[i]])
    for labels in cof.values():
        labels.sort()
    for f in facets:
        for i, v in enumerate(f):
            r = f[:i] + f[i + 1:]
            lv = label[v]
            below = lv - sum(1 for w in r if label[w] < lv)
            if bisect_left(cof[r], lv) != below:
                return False, None
    return True, {v: i + 1 for i, v in enumerate(order)}
