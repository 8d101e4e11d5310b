"""Reduced integral simplicial homology: coreduction, Morse complex, SNF.

`reduced_homology` runs one path.  A Mrozek-Batko coreduction pass pairs
each simplex that has exactly one live codimension-1 face with that face;
when no such simplex is left, a live simplex with no live faces is taken as
critical.  The pairs form an acyclic matching, and since every incidence of
a simplicial complex is +-1 they are valid over Z.  The boundary of the
Morse complex on the critical simplices is computed over Z by following the
gradient flow (Harker-Mischaikow-Mrozek-Nanda), with the sign (-1)^k on the
face that drops the k-th vertex, and an augmentation row over the critical
vertices makes the Betti numbers reduced.  Coreduction leaves exactly one
critical vertex in each connected component of K, so the Morse boundary
from dimension 1 is zero and is never formed.  Every other Morse boundary
goes through the exact Smith normal form: one sparse elimination loop
pivots on the first +-1 entry it meets, or on an entry of least absolute
value when none is left, and one pass of pairwise gcd and lcm repairs the
divisibility chain.  Betti numbers and torsion are
therefore exact in every dimension.

The full chain-level boundary operator is not built here; the tests keep it
(`tests/oracles.py`) as the reference the Morse complex is checked against.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque, namedtuple
from heapq import heappop, heappush
from itertools import accumulate, chain, combinations, compress, repeat
from math import gcd
from operator import itemgetter

from .scomplex import euler_characteristic

_REVERSED = itemgetter(slice(None, None, -1))


class HomologyProfile(namedtuple("HomologyProfile", "betti torsion")):
    """`betti`: the reduced Betti numbers, dims 0..dim K; `torsion`: per
    dimension, the tuple of torsion coefficients."""

    __slots__ = ()

    @property
    def torsion_free(self):
        return all(not t for t in self.torsion)


# -- Smith normal form -------------------------------------------------------


def _fix_divisibility(diag):
    """Invariant factors of a diagonal of positive entries, in ascending
    order, by one pass over the pairs i < j: a pair that does not divide
    becomes its gcd and lcm.  After the pairs (i, j > i), entry i divides
    every later entry, and the later pairs only change entries i divides,
    so the pass leaves a divisibility chain; gcd and lcm keep each prime's
    multiset of exponents, so the chain is the invariant factors."""
    diag = list(diag)
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            if diag[j] % diag[i]:
                g = gcd(diag[i], diag[j])
                diag[i], diag[j] = g, diag[i] * diag[j] // g
    return diag


def _pivot(rows):
    """The next pivot (row, col): the first +-1 entry met in one scan of the
    rows, or, when there is none, the first entry of least absolute value."""
    least = None
    for i, r in rows.items():
        for j, v in r.items():
            a = abs(v)
            if least is None or a < least:
                least, best = a, (i, j)
                if a == 1:
                    return best
    return best


def smith_normal_form(M):
    """Smith normal form of a sparse integer matrix {row: {col: value}}: the
    tuple of its positive invariant factors d_1 | d_2 | ..., whose length is
    the rank.

    The argument is not modified; the elimination runs on a copy of the
    rows, one pivot s per round (see `_pivot`).  Row operations with floor
    quotients clear the pivot's column; if a remainder is left there, the
    round ends.  Otherwise column operations reduce every other entry of
    the pivot row modulo s, and a pivot left alone in its row and column is
    recorded and removed.  A unit pivot is always removed in its round.  A
    round that removes nothing has a pivot of least absolute value and
    leaves a remainder smaller than |s|, so the next pivot is smaller
    still and the loop ends.  The result is invariant under row/column
    permutation of the input."""
    rows = {}
    for i, r in M.items():
        r = {j: v for j, v in r.items() if v}
        if r:
            rows[i] = r
    diag = []
    while rows:
        pi, pj = _pivot(rows)
        prow = rows[pi]
        s = prow[pj]
        clear = True
        for i in [i for i, r in rows.items() if pj in r and i != pi]:
            ri = rows[i]
            f = ri[pj] // s  # nonzero: |ri[pj]| >= |s| or s is a unit
            for j, v in prow.items():
                nv = ri.get(j, 0) - f * v
                if nv:
                    ri[j] = nv
                else:
                    del ri[j]
            if pj in ri:
                clear = False  # a remainder is left in column pj
            elif not ri:
                del rows[i]
        if not clear:
            continue
        # column pj is clear, so column operations change only the pivot row
        left = {j: r for j, v in prow.items() if (r := v % s)}
        if left:
            # the remainders stay with the pivot, and a smaller one is next
            left[pj] = s
            rows[pi] = left
        else:
            diag.append(abs(s))
            del rows[pi]
    return tuple(_fix_divisibility(diag))


# -- coreduction and the Morse complex ----------------------------------------


def coreduce(K):
    """One Mrozek-Batko coreduction pass over K.

    Cells are the simplices of K, numbered by `SimplicialComplex.ids` (the
    top level continuing it), each with a count of its live codimension-1
    faces.  A cell b with exactly one live face a is paired as (a, b) and
    both leave; when no such cell is queued, the first live cell in
    numbering order (it has the lowest live dimension, so none of its faces
    is live) leaves as critical.
    Every cell leaves after all of its faces except its partner, so the
    matching is acyclic and removal stamps decrease along gradient paths.

    Returns (faces, partner, stamp): faces[c] is the tuple of ids of the
    codimension-1 faces of the cell with id c in vertex-deletion order,
    partner[c] the id matched with c (-1 for a critical cell) and stamp[c]
    the step at which c left.

    The face table is built in one C-level pass per level: `combinations(s,
    d)` lists the faces of a d-simplex s in the order that deletes its last
    vertex first, so the face ids of the whole level come out as one run,
    which is cut into groups of d + 1 per cell and each group reversed."""
    n = K.n_simplices
    top = len(K.sorted_simplices(K.dim))
    face_id = K.ids().__getitem__
    faces = [()] * len(K.sorted_simplices(0))
    cofaces = [[] for _ in range(n - top)]
    cofaces.extend(repeat((), top))  # no cofaces: one shared empty tuple
    for d in range(1, K.dim + 1):
        level = K.sorted_simplices(d)
        ids = list(map(face_id, chain.from_iterable(
            map(combinations, level, repeat(d)))))
        c = len(faces)
        faces.extend(map(_REVERSED, zip(*[iter(ids)] * (d + 1))))
        for a, b in zip(ids, chain.from_iterable(
                map(repeat, range(c, len(faces)), repeat(d + 1)))):
            cofaces[a].append(b)
    live = list(map(len, faces))  # -1 once the cell has left
    partner = [-1] * n
    stamp = [0] * n
    queue = deque()
    clock = 0
    first_live = 0
    while True:
        if queue:
            b = queue.popleft()
            if live[b] != 1:
                continue
            for a in faces[b]:
                if live[a] >= 0:
                    break
            partner[a], partner[b] = b, a
            leaving = (a, b)
        else:
            while first_live < n and live[first_live] < 0:
                first_live += 1
            if first_live == n:
                break
            leaving = (first_live,)
        for c in leaving:
            live[c] = -1
            stamp[c] = clock
            clock += 1
            for u in cofaces[c]:
                k = live[u]
                if k > 0:
                    live[u] = k - 1
                    if k == 2:
                        queue.append(u)
    return faces, partner, stamp


def _morse_boundary(faces, partner, stamp, lower, upper):
    """Sparse rows {row: {col: v}} of the Morse boundary from the critical
    cells `upper` (dimension d >= 1) to the critical cells `lower` (d - 1).

    The chain x = boundary(c) is swept in decreasing removal stamp: a
    critical face keeps its coefficient, a face a matched up to b is
    cancelled by x -= x_a [b:a] boundary(b) (whose other faces all left
    before a), and a face matched down contributes nothing."""
    row_of = {a: i for i, a in enumerate(lower)}
    rows = {}
    for j, c in enumerate(upper):
        x = {}
        heap = []
        for k, a in enumerate(faces[c]):
            x[a] = -1 if k % 2 else 1
            heappush(heap, (-stamp[a], a))
        while heap:
            a = heappop(heap)[1]
            v = x.pop(a)
            if not v:
                continue
            b = partner[a]
            if b < 0:
                rows.setdefault(row_of[a], {})[j] = v
            elif b > a:
                fb = faces[b]
                f = v if fb.index(a) % 2 else -v  # -v [b:a]
                for k, g in enumerate(fb):
                    if g == a:
                        continue
                    w = -f if k % 2 else f
                    if g in x:
                        x[g] += w
                    else:
                        x[g] = w
                        heappush(heap, (-stamp[g], g))
    return rows


# -- homology ---------------------------------------------------------------


def _critical_by_dim(partner, f):
    """The critical cell ids of each dimension, ascending, from the partner
    table of `coreduce` and the f-vector f = (1, f_0, ..., f_dim).  Cell ids
    ascend with dimension, so the critical ids, listed in one C-level pass,
    split by dimension at the level offsets."""
    ids = list(compress(range(len(partner)), map((0).__gt__, partner)))
    cuts = [0, *(bisect_left(ids, end) for end in accumulate(f[1:]))]
    return [ids[i:j] for i, j in zip(cuts, cuts[1:])]


def reduced_homology(K):
    """Reduced Betti numbers and torsion coefficients over Z.

    K is coreduced to its critical cells; betti_d = #critical_d - rank_d -
    rank_{d+1} over the Morse boundaries, where the boundary for d = 0 is
    the augmentation row over the critical vertices, and the torsion of H_d
    is read off the invariant factors > 1 of the Morse boundary d+1.  A
    Morse boundary is only computed where both of its dimensions have
    critical cells; otherwise it is zero.

    The boundary for d = 1 is zero and is never formed: coreduction leaves
    exactly one critical vertex in each connected component.  While a
    vertex u is live, no edge at u is taken as critical (u has a lower id)
    or leaves below a triangle (another edge at u would have to leave
    first), so the first edge at u to leave is paired with u.  So when a
    vertex leaves, each edge from it to a live vertex is queued with that
    vertex as its one live face, and the queue empties only after the
    whole component has left: the first vertex of a component to leave is
    its one critical vertex.  C_0 of the Morse complex is then
    Z^(components) = H_0(K), and the augmentation row, all ones, has rank
    1 (the empty complex has no degree to read it in)."""
    dim = K.dim
    faces, partner, stamp = coreduce(K)
    critical = _critical_by_dim(partner, K.f_vector())
    census = [len(cs) for cs in critical]
    euler = euler_characteristic(K.f_vector())
    if sum((-1) ** d * m for d, m in enumerate(census)) != euler:
        raise AssertionError(f"critical census {census} does not give chi = {euler}")
    ranks = [0] * (dim + 2)
    ranks[0] = 1
    torsion = [()] * (dim + 1)
    for d in range(2, dim + 1):
        if critical[d] and critical[d - 1]:
            factors = smith_normal_form(
                _morse_boundary(faces, partner, stamp, critical[d - 1], critical[d])
            )
            ranks[d] = len(factors)
            torsion[d - 1] = tuple(v for v in factors if v > 1)
    betti = tuple(census[d] - ranks[d] - ranks[d + 1] for d in range(dim + 1))
    if any(b < 0 for b in betti):
        raise AssertionError(f"negative Betti number computed: {betti}")
    return HomologyProfile(betti, tuple(torsion))


def reisner_check(K, orbit_sample=False, profile=None):
    """Cohen-Macaulayness over every field, by Reisner's homological
    criterion: every link (including the whole complex, the link of the
    empty simplex) must have vanishing reduced homology below its top
    dimension, with no torsion there either.  Returns (True, None) or
    (False, (simplex, i)) for the first failing link in the order of the
    empty simplex, then the simplices by dimension and lexicographically.

    A link is built only for a simplex of dimension at most K.dim - 2.  The
    link of s is made of the simplices t with s + t in K, so its dimension
    is at most K.dim - |s|, which is <= 0 for every larger simplex; a link
    of dimension <= 0 has no degree below its top and cannot fail.  The
    bound is exact, as each face of a K.dim-dimensional facet reaches it.
    So every simplex whose link can fail is still visited, in the same
    order, and verdict and witness are those of the sweep over all links.

    `profile` is K's own `HomologyProfile` when the caller already has it;
    otherwise it is computed here.  With orbit_sample=True only the
    lexicographically first simplex of each dimension is checked, which is
    exhaustive up to symmetry for the vertex-transitive universal
    complexes."""
    def gap(L, prof):
        """The first degree below the top of L with homology, or None."""
        return next((i for i in range(L.dim)
                     if prof.betti[i] or prof.torsion[i]), None)

    i = gap(K, reduced_homology(K) if profile is None else profile)
    if i is not None:
        return False, ((), i)
    for d in range(K.dim - 1):
        level = K.sorted_simplices(d)
        for s in level[:1] if orbit_sample else level:
            L = K.link(s)
            if L.dim > 0:
                i = gap(L, reduced_homology(L))
                if i is not None:
                    return False, (s, i)
    return True, None
