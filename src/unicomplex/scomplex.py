"""Finite abstract simplicial complexes with exact combinatorial queries.

Simplices are tuples of strictly increasing vertex ids (dense ints).  The
empty simplex is implicit (f_{-1} = 1) and never stored.  A complex stores
all simplices grouped by dimension together with a label table mapping each
vertex id to its label, the string token it prints as, and nothing else: it
keeps no record of how it was made, so a caller that needs, say, the
universal kind a complex was built from passes that kind along itself.

Each level is stored once, as a lexicographically sorted tuple.  The sort
runs once per level, when the complex is made, and nothing sorts a level
again: the sorted queries, the facet list, and the layers above (matching,
coreduction, Reisner links) read the stored order, and membership is a
binary search in it.  The frontier builder hands its levels over already in
that order, so their sort is one linear pass (timsort finds a single run);
facet files and links pay for it once.

A facet file's labels are its tokens.  A universal complex over F_p or Z
labels a vertex by its coordinates, made into a token once when it is
built by `vertex_label`: "(a,b)" for a vector of X, "[a,b]" for the
canonical generator of a line of K.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import reduce
from heapq import merge
from itertools import chain, combinations, compress, count, filterfalse, repeat
from operator import and_, itemgetter, lt, methodcaller

from .errors import InputError, ResourceLimitError

# The one default resource limit: the most simplices any entry point builds
# or reads.  Builders check it against a count known before allocation where
# there is one, and otherwise count simplices as they are produced.
SIMPLEX_BUDGET = 10**7

# upper simplices whose faces `facets` strikes in one C-level pass between
# its checks for an exhausted level
_STRIKE_CHUNK = 4096

_TAIL = itemgetter(slice(1, None))


def vertex_label(variant, coords):
    """The label of the vertex of X ("(a,b)") or K ("[a,b]") with the given
    coordinates: a vector, or a line's canonical generator."""
    text = ",".join(map(str, coords))
    return f"({text})" if variant == "X" else f"[{text}]"


def check_simplex(vertices):
    """Validate and normalize one simplex: strictly increasing int tuple."""
    s = tuple(vertices)
    if not all(map(isinstance, s, repeat(int))):
        v = next(v for v in s if not isinstance(v, int))
        raise InputError(f"vertex ids must be ints, got {v!r}")
    if not all(map(lt, s, s[1:])):
        raise InputError(f"simplex vertices not strictly increasing: {s}")
    return s


def euler_characteristic(f):
    """Euler characteristic f_0 - f_1 + f_2 - ... of an f-vector
    (f_{-1}, f_0, ..., f_dim); the empty face is excluded."""
    return sum((-1) ** i * x for i, x in enumerate(f[1:]))


class SimplicialComplex:
    """Immutable finite simplicial complex, closed under taking subsets."""

    __slots__ = ("_levels", "_facets", "labels")

    def __init__(self, by_dim, labels):
        levels = [tuple(sorted(level)) for level in by_dim]
        while levels and not levels[-1]:
            levels.pop()
        self._levels = tuple(levels)
        self._facets = None  # sorted tuple, computed on first use
        self.labels = dict(labels)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_simplices(cls, simplices, labels, budget=SIMPLEX_BUDGET):
        """Downward closure of the given simplices.  Every key of `labels`
        becomes a vertex (so isolated vertices are allowed); every simplex
        must use labeled vertices only.

        Raises ResourceLimitError once the faces of a simplex take the
        closure past `budget` distinct simplices, counted as the growth of
        each level; a simplex with 2^|s| - 1 > budget faces is refused
        outright.  The simplices are validated and closed in chunks, each
        in one C-level pass per face size.  A chunk holds max(1, (budget -
        count) // (2^big - 1)) simplices, where big is the largest simplex
        size, so a chunk of two or more cannot take the count past the
        budget: every verdict and message is that of closing one simplex
        at a time, and a refusal holds at most one simplex's faces past the
        budget."""
        labels = dict(labels)
        by_dim = [{(v,) for v in labels}]
        count = len(labels)
        if count > budget:
            raise ResourceLimitError(
                f"{count} vertices exceed simplex budget {budget}"
            )
        simplices = list(map(tuple, simplices))
        cap = max(1, 2 ** max(map(len, simplices), default=0) - 1)
        start = 0
        while start < len(simplices):
            size = max(1, (budget - count) // cap)
            chunk = simplices[start:start + size]
            start += size
            # the checks of `check_simplex` and the label test, over the
            # whole chunk: int vertices, increasing simplices, all labeled
            if not (all(map(isinstance, chain.from_iterable(chunk), repeat(int)))
                    and all(map(all, map(map, repeat(lt), chunk, map(_TAIL, chunk))))
                    and all(map(labels.__contains__, chain.from_iterable(chunk)))):
                for s in chunk:  # raise the first fault in input order
                    check_simplex(s)
                    if not all(map(labels.__contains__, s)):
                        v = next(v for v in s if v not in labels)
                        raise InputError(f"simplex {s} uses unlabeled vertex {v}")
            big = len(max(chunk, key=len))
            if 2 ** big - 1 > budget:  # then the chunk is that one simplex
                raise ResourceLimitError(
                    f"simplex with {big} vertices has {2 ** big - 1} "
                    f"faces, over simplex budget {budget}"
                )
            while len(by_dim) < big:
                by_dim.append(set())
            for k in range(2, big + 1):
                level = by_dim[k - 1]
                before = len(level)
                level.update(chain.from_iterable(
                    map(combinations, chunk, repeat(k))))
                count += len(level) - before
                if count > budget:
                    raise ResourceLimitError(
                        f"closure exceeds simplex budget {budget}"
                    )
        return cls(by_dim, labels)

    # -- basic queries -----------------------------------------------------

    @property
    def dim(self):
        return len(self._levels) - 1

    def vertices(self):
        return sorted(self.labels)

    @property
    def n_vertices(self):
        return len(self.labels)

    def sorted_simplices(self, d):
        """The d-simplices in lexicographic order, as the stored tuple."""
        if d < 0 or d > self.dim:
            return ()
        return self._levels[d]

    def ids(self):
        """The one numbering of simplices: each simplex below the top level
        maps to its position in its sorted level plus the sizes of the
        levels below.  A top simplex's id would continue the numbering, but
        no top simplex is a face of another, so the top level is left out;
        a complex of dimension 0 or below gives {}."""
        return dict(zip(chain.from_iterable(self._levels[:-1]), count()))

    def all_simplices(self):
        for level in self._levels:
            yield from level

    @property
    def n_simplices(self):
        return sum(len(level) for level in self._levels)

    def __contains__(self, simplex):
        """A binary search in the level of the simplex's size."""
        s = tuple(simplex)
        if not 0 < len(s) <= len(self._levels):
            return False
        level = self._levels[len(s) - 1]
        try:
            i = bisect_left(level, s)
        except TypeError:  # an entry that does not compare with vertex ids
            return False
        return i < len(level) and level[i] == s

    def is_pure(self):
        """All facets have dimension dim: every top simplex is a facet, so
        that holds iff there are no other facets."""
        return not self._levels or len(self.facets()) == len(self._levels[-1])

    def facets(self):
        """Maximal simplices, sorted, as a fresh list.  They are computed
        once per complex: the codimension-1 faces of each level are struck
        from the level below, a chunk of simplices at a time so that the
        striking runs in C and still stops once nothing is left there, and
        the sorted levels that remain are merged."""
        if self._facets is None:
            runs = [self._levels[-1]] if self._levels else []
            for k, (level, upper) in enumerate(
                    zip(self._levels, self._levels[1:]), 1):
                left = set(level)
                for i in range(0, len(upper), _STRIKE_CHUNK):
                    left.difference_update(chain.from_iterable(map(
                        combinations, upper[i:i + _STRIKE_CHUNK], repeat(k))))
                    if not left:
                        break
                if left:
                    runs.append([s for s in level if s in left])
            self._facets = runs[0] if len(runs) == 1 else tuple(merge(*runs))
        return list(self._facets)

    def f_vector(self):
        """Face counts (f_{-1}=1, f_0, ..., f_dim) as a tuple."""
        return (1, *map(len, self._levels))

    # -- derived complexes --------------------------------------------------

    def link(self, simplex):
        """link(sigma) = {tau | sigma U tau in K, sigma and tau disjoint},
        each level made in C-level passes: the simplices through sigma are
        picked by `issubset` and lose sigma's vertices by `filterfalse`."""
        s = check_simplex(simplex)
        if s and s not in self:
            raise InputError(f"simplex {s} not in complex")
        sset = set(s)
        # deleting the vertices of sigma keeps the lexicographic order of
        # the simplices through it, so each level comes out sorted
        by_dim = [
            list(map(tuple, map(filterfalse, repeat(sset.__contains__), compress(
                level, map(sset.issubset, level)))))
            for level in self._levels[len(s):]
        ]
        labels = {v: self.labels[v] for (v,) in by_dim[0]} if by_dim else {}
        return SimplicialComplex(by_dim, labels)


def _bit_ids(bits):
    """The positions of the set bits of an int, ascending.  Peeling the
    lowest bit costs per set bit, where a scan of `bin(bits)` costs per
    bit.  It reads the candidates of a simplex from its edges on, which are
    sparse; a vertex's candidates are every later id, a range, and are
    never a bitset."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def grow_by_extension(gens, depth, start, extend, finish, budget, what):
    """Simplices (grouped by dimension, up to depth - 1) of the complex on
    vertex ids 0..len(gens)-1 whose faces are the subsets that `extend`
    accepts one generator at a time.

    `extend(state, w)` returns the state of sigma + {w} from the state of
    sigma, or None when sigma + {w} is not a simplex; `start` is the state of
    the empty simplex.  Depth 1 is one level of `extend` from `start`.  From
    depth 2 on, `extend` stops two levels below the top, and the two levels
    left come from `finish(state, ids, room)`, called once per simplex
    sigma of the level below them with sigma's candidate ids, ascending,
    and the number of simplices the budget still allows: it returns
    `(ids, pairs, n_pairs)`: the candidates w with sigma + {w} a simplex,
    ascending, an iterable of the n_pairs pairs (w, g), w < g, with
    sigma + {w, g} a simplex, in lexicographic order.  The loop charges
    len(ids) + n_pairs before it reads the pairs and prefixes sigma to
    each, so a finish may stop as soon as what it has found is past `room`
    and return that: the loop refuses it before the rest is formed.

    The candidates of the empty simplex are every id, and those of a
    vertex every id after it, both a `range`.  From the edges on they are
    the set bits of the AND of the vertices' later-neighbour bitsets,
    which the edge level records: a simplex only grows by a common
    neighbour of its vertices, since the complex is closed under faces.
    So each simplex is produced exactly once, as a tuple of ascending ids,
    and no V-bit set is formed before the vertices are charged.

    Each level is a list in lexicographic order.  Level 0 is ascending.  If
    a level is, so is the next: the frontier is that level, and each of its
    simplices appends its children in ascending last id, so the children of
    an earlier parent precede those of a later one and, under one parent,
    they differ only in the last id.  The last two levels come out the same
    way, `pairs` being lexicographic.  `SimplicialComplex` then sorts each
    level in one linear pass.  Raises ResourceLimitError naming `what`
    before a batch of simplices takes the count past `budget`."""
    later = {}  # each vertex's later neighbours, once the edge level has run

    def candidates(simp):
        if len(simp) < 2:
            return range(simp[0] + 1 if simp else 0, len(gens))
        return _bit_ids(reduce(and_, map(later.__getitem__, simp)))

    count = 0

    def charge(k):
        nonlocal count
        count += k
        if count > budget:
            raise ResourceLimitError(f"{what} exceeds simplex budget {budget}")

    by_dim = []
    frontier = [((), start)]
    for d in range(depth - 2 if depth > 1 else depth):
        nxt = []
        for simp, state in frontier:
            kids = []
            for j in candidates(simp):
                ext = extend(state, gens[j])
                if ext is not None:
                    kids.append((simp + (j,), ext))
            charge(len(kids))
            nxt.extend(kids)
            if d == 1:  # the edges at simp[0] are known: its later neighbours
                later[simp[0]] = sum(1 << new[-1] for new, _ in kids)
        by_dim.append([new for new, _ in nxt])
        frontier = nxt
    if depth > 1:
        below, top = [], []
        for simp, state in frontier:
            ids, pairs, n_pairs = finish(state, candidates(simp), budget - count)
            charge(len(ids) + n_pairs)
            below.extend(map(simp.__add__, zip(ids)))
            top.extend(map(simp.__add__, pairs))
        by_dim += [below, top]
    return by_dim


# -- facet-list text format ------------------------------------------------
#
# One facet per line, whitespace-separated vertex labels; '#' starts a
# comment.  Vertex ids are assigned by sorting the distinct label tokens
# (numeric tokens sort numerically, before non-numeric ones).  Every text
# input (facet lists, shelling orders, quasitoric pair files) is read line
# by line through `token_lines`, and every facet line through `facet_lines`.
# A facet list is read in two streamed passes over its lines, one for the
# label set and one for the facet tuples, so no token list outlives its
# line.


def token_lines(text):
    """The whitespace-separated tokens of each line of `text`, with '#'
    starting a comment, one list per line in a lazy C-level pass; a blank
    or comment-only line gives []."""
    return map(str.split, map(itemgetter(0), map(
        methodcaller("partition", "#"), text.splitlines())))


def facet_lines(text):
    """The token lists of the facet lines of `text`, blank lines skipped,
    one at a time; a line naming a vertex twice is an InputError."""
    for toks in filter(None, token_lines(text)):
        if len(set(toks)) < len(toks):
            raise InputError(f"repeated vertex in facet line: {' '.join(toks)!r}")
        yield toks


def _token_key(tok):
    try:
        return (0, int(tok), tok)
    except ValueError:
        return (1, 0, tok)


def parse_facet_list(text, budget=SIMPLEX_BUDGET):
    """The complex closed from a facet-list text, under the simplex budget
    of `SimplicialComplex.from_simplices`.  The first pass over the lines
    checks each for a repeated vertex and collects the labels; the second
    turns each facet line into a tuple of vertex ids."""
    order = sorted(set(chain.from_iterable(facet_lines(text))), key=_token_key)
    vid = dict(zip(order, range(len(order)))).__getitem__
    facets = list(map(tuple, map(sorted, map(
        map, repeat(vid), filter(None, token_lines(text))))))
    return SimplicialComplex.from_simplices(facets, dict(enumerate(order)),
                                            budget=budget)


def format_facet_list(K, header=None):
    lines = []
    if header:
        for h in header.splitlines():
            lines.append(f"# {h}")
    for f in K.facets():
        lines.append(" ".join(K.labels[v] for v in f))
    return "\n".join(lines) + "\n"
