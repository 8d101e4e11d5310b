"""Finite abstract simplicial complexes with exact combinatorial queries.

Simplices are tuples of strictly increasing vertex ids (dense ints).  The
empty simplex is implicit (f_{-1} = 1) and never stored.  A complex stores
all simplices grouped by dimension together with a label table mapping each
vertex id to an opaque label (an FpVector, FpLine, ZLine, or plain string).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import InputError, ResourceLimitError


def check_simplex(vertices):
    """Validate and normalize one simplex: strictly increasing int tuple."""
    s = tuple(vertices)
    for v in s:
        if not isinstance(v, int):
            raise InputError(f"vertex ids must be ints, got {v!r}")
    if any(a >= b for a, b in zip(s, s[1:])):
        raise InputError(f"simplex vertices not strictly increasing: {s}")
    return s


@dataclass(frozen=True)
class FVector:
    """Face counts (f_{-1}=1, f_0, ..., f_dim)."""

    entries: tuple

    @property
    def euler(self):
        """Euler characteristic f_0 - f_1 + f_2 - ... (the empty face excluded)."""
        return sum((-1) ** i * f for i, f in enumerate(self.entries[1:]))

    def __iter__(self):
        return iter(self.entries)


class SimplicialComplex:
    """Immutable finite simplicial complex, closed under taking subsets."""

    __slots__ = ("_by_dim", "_facets", "labels", "meta")

    def __init__(self, by_dim, labels, meta=None):
        trimmed = [frozenset(level) for level in by_dim]
        while trimmed and not trimmed[-1]:
            trimmed.pop()
        self._by_dim = tuple(trimmed)
        self._facets = None  # sorted tuple, computed on first use
        self.labels = dict(labels)
        self.meta = dict(meta) if meta else {}

    # -- construction ------------------------------------------------------

    @classmethod
    def from_simplices(cls, simplices, labels, meta=None):
        """Downward closure of the given simplices.  Every key of `labels`
        becomes a vertex (so isolated vertices are allowed); every simplex
        must use labeled vertices only."""
        labels = dict(labels)
        by_dim = [set()]
        for v in labels:
            by_dim[0].add((v,))
        for s in simplices:
            s = check_simplex(s)
            if not s:
                continue
            for v in s:
                if v not in labels:
                    raise InputError(f"simplex {s} uses unlabeled vertex {v}")
            d = len(s) - 1
            while len(by_dim) <= d:
                by_dim.append(set())
            for k in range(1, len(s) + 1):
                for face in combinations(s, k):
                    by_dim[k - 1].add(face)
        return cls(by_dim, labels, meta)

    # -- basic queries -----------------------------------------------------

    @property
    def dim(self):
        return len(self._by_dim) - 1

    def vertices(self):
        return sorted(self.labels)

    @property
    def n_vertices(self):
        return len(self.labels)

    def simplices_of_dim(self, d):
        if d < 0 or d > self.dim:
            return frozenset()
        return self._by_dim[d]

    def sorted_simplices(self, d):
        return sorted(self.simplices_of_dim(d))

    def all_simplices(self):
        for level in self._by_dim:
            yield from sorted(level)

    @property
    def n_simplices(self):
        return sum(len(level) for level in self._by_dim)

    def __contains__(self, simplex):
        s = tuple(simplex)
        d = len(s) - 1
        return 0 <= d <= self.dim and s in self._by_dim[d]

    def is_pure(self):
        """All facets have dimension dim: every top simplex is a facet, so
        that holds iff there are no other facets."""
        return not self._by_dim or len(self.facets()) == len(self._by_dim[-1])

    def facets(self):
        """Maximal simplices, sorted, as a fresh list.  They are computed
        once per complex: the codimension-1 faces of each level are struck
        from the level below, stopping once nothing is left there."""
        if self._facets is None:
            out = list(self._by_dim[-1]) if self._by_dim else []
            for level, upper in zip(self._by_dim, self._by_dim[1:]):
                left = set(level)
                strike = left.discard
                for tau in upper:
                    for i in range(len(tau)):
                        strike(tau[:i] + tau[i + 1:])
                    if not left:
                        break
                out.extend(left)
            self._facets = tuple(sorted(out))
        return list(self._facets)

    def f_vector(self):
        return FVector((1,) + tuple(len(level) for level in self._by_dim))

    # -- derived complexes --------------------------------------------------

    def link(self, simplex):
        """link(sigma) = {tau | sigma U tau in K, sigma and tau disjoint}."""
        s = check_simplex(simplex)
        if s and s not in self:
            raise InputError(f"simplex {s} not in complex")
        sset = set(s)
        by_dim = []
        link_vertices = set()
        for d in range(len(s) - 1, self.dim + 1):
            for rho in self._by_dim[d]:
                if sset.issubset(rho):
                    tau = tuple(v for v in rho if v not in sset)
                    if not tau:
                        continue
                    k = len(tau) - 1
                    while len(by_dim) <= k:
                        by_dim.append(set())
                    by_dim[k].add(tau)
                    link_vertices.update(tau)
        labels = {v: self.labels[v] for v in link_vertices}
        return SimplicialComplex(by_dim, labels, self.meta)

    def full_subcomplex(self, vertex_set):
        """Restriction K_I to the vertices in I (ids preserved)."""
        I = set(vertex_set)
        unknown = I - set(self.labels)
        if unknown:
            raise InputError(f"unknown vertices: {sorted(unknown)}")
        by_dim = [
            {s for s in level if I.issuperset(s)} for level in self._by_dim
        ]
        labels = {v: self.labels[v] for v in I}
        return SimplicialComplex(by_dim, labels, self.meta)

    def skeleton(self, r):
        """All simplices of dimension <= r."""
        if r < -1 or r > self.dim:
            raise InputError(f"skeleton dimension {r} out of range [-1, {self.dim}]")
        labels = self.labels if r >= 0 else {}
        return SimplicialComplex(self._by_dim[: r + 1], labels, self.meta)


def empty_complex():
    return SimplicialComplex([], {})


def grow_by_extension(gens, depth, start, extend, budget, what):
    """Simplices (grouped by dimension, up to depth - 1) of the complex on
    vertex ids 0..len(gens)-1 whose faces are the subsets that `extend`
    accepts one generator at a time.

    `extend(state, w)` returns the state of sigma + {w} from the state of
    sigma, or None when sigma + {w} is not a simplex; `start` is the state of
    the empty simplex.  A simplex is grown only by generators past its last
    vertex, so each simplex is produced exactly once.  States of the top
    level are never extended and so are not kept.  Raises ResourceLimitError
    naming `what` once more than `budget` simplices have been produced."""
    m = len(gens)
    by_dim = []
    frontier = [((), start)]
    count = 0
    for d in range(depth):
        level = set()
        nxt = []
        keep = d < depth - 1
        for simp, state in frontier:
            for j in range(simp[-1] + 1 if simp else 0, m):
                ext = extend(state, gens[j])
                if ext is None:
                    continue
                new = simp + (j,)
                level.add(new)
                count += 1
                if count > budget:
                    raise ResourceLimitError(
                        f"{what} exceeds simplex budget {budget}"
                    )
                if keep:
                    nxt.append((new, ext))
        by_dim.append(level)
        frontier = nxt
    return by_dim


# -- facet-list text format ------------------------------------------------
#
# One facet per line, whitespace-separated vertex labels; '#' starts a
# comment.  Vertex ids are assigned by sorting the distinct label tokens
# (numeric tokens sort numerically, before non-numeric ones).


def _token_key(tok):
    try:
        return (0, int(tok), tok)
    except ValueError:
        return (1, 0, tok)


def parse_facet_list(text):
    facets_tokens = []
    tokens = set()
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if len(set(toks)) < len(toks):
            raise InputError(f"repeated vertex in facet line: {line!r}")
        facets_tokens.append(toks)
        tokens.update(toks)
    order = sorted(tokens, key=_token_key)
    vid = {tok: i for i, tok in enumerate(order)}
    labels = {i: tok for tok, i in vid.items()}
    facets = [tuple(sorted(vid[t] for t in toks)) for toks in facets_tokens]
    return SimplicialComplex.from_simplices(facets, labels)


def format_facet_list(K, header=None):
    lines = []
    if header:
        for h in header.splitlines():
            lines.append(f"# {h}")
    for f in K.facets():
        lines.append(" ".join(str(K.labels[v]) for v in f))
    return "\n".join(lines) + "\n"
