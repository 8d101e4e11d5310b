"""Hasse diagrams, greedy pivot matchings, acyclicity, critical cells.

A matching is built inductively over an ordered pivot schedule: in step k,
every still-unmatched simplex sigma that does not contain pivot_k is paired
with sigma + {pivot_k}, provided that upper partner is a simplex of the
complex and is itself still unmatched.  Within a step the pairing is
conflict-free: lower partners never contain the pivot, upper partners always
do, and the upper partner determines the lower one, so the result does not
depend on the order in which a step visits the simplices.  The empty simplex
participates in no pair.

Discrete Morse theory asks only that the pairs be covering pairs forming an
acyclic matching.  No test that the pivot's label lies outside span(sigma) is
needed: every simplex of every complex the library builds is an independent
set, so sigma + {pivot_k} being a simplex already implies it.

Acyclicity is Forman's criterion: a matching is a discrete gradient iff it
has no closed V-path.  A V-path is a sequence lo_0, up_0, lo_1, up_1, ...
in which each (lo_i, up_i) is a pair and lo_(i+1) != lo_i is a
codimension-1 face of up_i.  A directed cycle of the modified Hasse diagram
(matched edges reversed to point up) is exactly a closed V-path: it cannot
take two matched edges in a row, because a cell lies in at most one pair,
so it alternates up and down inside one band of adjacent dimensions, and
every cell it reaches by a down edge must leave by its matched edge, so it
is the lower cell of a pair.  The search therefore runs on the lower cells
of the pairs only, with at most dim + 1 edges out of each: the cost is
O(pairs * dim), and critical cells and the simplices of no pair are never
visited.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AcyclicityError, InputError


@dataclass(frozen=True)
class Matching:
    pairs: tuple  # ((lower, upper), ...) sorted
    pivot_schedule: tuple
    critical: tuple  # sorted unmatched simplices

    def partner_map(self):
        out = {}
        for lo, hi in self.pairs:
            out[lo] = hi
            out[hi] = lo
        return out


@dataclass(frozen=True)
class MorseSummary:
    pivot_schedule: tuple
    n_pairs: int
    acyclic: bool
    critical_by_dim: dict
    euler: int
    euler_consistent: bool  # only meaningful when middle_critical is False
    middle_critical: bool


def hasse_edges(K):
    """Directed covering edges sigma -> tau with tau a codimension-1 face."""
    for d in range(1, K.dim + 1):
        for s in K.sorted_simplices(d):
            for i in range(len(s)):
                yield s, s[:i] + s[i + 1:]


def greedy_matching(K, pivots):
    """Run the inductive pivot schedule and return the resulting matching.

    Every simplex of dimension >= 1 is indexed once under each of its
    vertices that is a scheduled pivot; the step for pivot v pairs
    (up - v, up) for every up in the star of v whose two members are both
    still unmatched."""
    vertex_set = set(K.labels)
    for pv in pivots:
        if pv not in vertex_set:
            raise InputError(f"pivot {pv} is not a vertex of the complex")
    star = {v: [] for v in pivots}
    for d in range(1, K.dim + 1):
        for up in K.simplices_of_dim(d):
            for v in up:
                if v in star:
                    star[v].append(up)

    matched = set()
    pairs = []
    for pivot in pivots:
        for up in star[pivot]:
            if up in matched:
                continue
            i = up.index(pivot)
            lo = up[:i] + up[i + 1:]
            if lo in matched:
                continue
            matched.add(lo)
            matched.add(up)
            pairs.append((lo, up))
    critical = tuple(
        s for d in range(K.dim + 1)
        for s in sorted(K.simplices_of_dim(d).difference(matched))
    )
    return Matching(tuple(sorted(pairs)), tuple(pivots), critical)


def _check_pairs(K, pairs):
    """Raise InputError unless every pair is a covering pair of K and no
    simplex occurs twice; returns the set of matched simplices."""
    seen = set()
    for lo, hi in pairs:
        if lo not in K or hi not in K:
            raise InputError(f"pair ({lo}, {hi}) uses simplices outside the complex")
        if len(hi) != len(lo) + 1 or not set(lo).issubset(hi):
            raise InputError(f"pair ({lo}, {hi}) is not a covering pair")
        if lo in seen or hi in seen:
            raise InputError("a simplex occurs in two pairs")
        seen.update((lo, hi))
    return seen


def matching_from_pairs(K, pairs):
    """Package explicit (lower, upper) pairs as a Matching (for checks)."""
    seen = _check_pairs(K, pairs)
    critical = tuple(s for s in K.all_simplices() if s not in seen)
    return Matching(tuple(sorted(pairs)), (), critical)


def validate_matching(K, matching):
    """Every pair is a covering pair in K and no simplex occurs twice."""
    _check_pairs(K, matching.pairs)
    return True


def _next_lower_cells(lo, up_of):
    """Successors of lo in the V-path digraph: the faces f != lo of its
    partner that are themselves lower cells of pairs."""
    up = up_of[lo]
    for i in range(len(up)):
        f = up[:i] + up[i + 1:]
        if f != lo and f in up_of:
            yield f


def check_acyclic(K, matching):
    """Search for a closed V-path (Forman's criterion; see the module
    docstring for why that is every directed cycle of the modified Hasse
    diagram).

    The nodes are the lower cells of the pairs, with an edge lo -> f for
    each codimension-1 face f != lo of partner(lo) that is itself a lower
    cell; an iterative three-colour depth-first search finds a cycle in
    O(pairs * dim).  Returns (True, None), or (False, cycle) with cycle the
    closed V-path [lo, up, lo', up', ...] (its last upper cell has the first
    lower cell as a face).
    """
    validate_matching(K, matching)
    up_of = dict(matching.pairs)
    color = {}  # 1 on the current path, 2 finished
    for start in up_of:
        if start in color:
            continue
        color[start] = 1
        path = [start]
        stack = [_next_lower_cells(start, up_of)]
        while stack:
            for nxt in stack[-1]:
                c = color.get(nxt)
                if c == 1:
                    loop = path[path.index(nxt):]
                    return False, [cell for lo in loop for cell in (lo, up_of[lo])]
                if c is None:
                    color[nxt] = 1
                    path.append(nxt)
                    stack.append(_next_lower_cells(nxt, up_of))
                    break
            else:
                color[path.pop()] = 2
                stack.pop()
    return True, None


def critical_cells(matching):
    """Unmatched simplices partitioned by dimension."""
    by_dim = {}
    for s in matching.critical:
        by_dim.setdefault(len(s) - 1, []).append(s)
    return {d: sorted(cells) for d, cells in sorted(by_dim.items())}


def pivot_free_facet_count(K, pivots):
    """Facets containing none of the pivot vertices (the census the matching
    step analysis predicts in prose; recorded next to the operational census,
    the two are not asserted equal)."""
    pv = set(pivots)
    return sum(1 for f in K.facets() if not pv & set(f))


def morse_summary(K, pivots):
    """Matching + acyclicity + critical census + Euler bookkeeping.

    When the critical cells are exactly one vertex plus top-dimensional
    cells, chi(K) must equal 1 + (-1)^top * (top critical count); any
    critical cell in another dimension is flagged instead."""
    matching = greedy_matching(K, pivots)
    ok, cycle = check_acyclic(K, matching)
    if not ok:
        raise AcyclicityError(cycle)
    census = {d: len(cells) for d, cells in critical_cells(matching).items()}
    euler = K.f_vector().euler
    top = K.dim
    clean = set(census) <= {0, top} and census.get(0) == 1
    middle = not clean
    morse_euler = sum((-1) ** d * c for d, c in census.items())
    consistent = clean and euler == morse_euler
    if clean and not consistent:
        raise AssertionError(
            f"Euler count mismatch: chi={euler}, census={census}"
        )
    return MorseSummary(
        pivot_schedule=tuple(pivots),
        n_pairs=len(matching.pairs),
        acyclic=True,
        critical_by_dim=census,
        euler=euler,
        euler_consistent=consistent,
        middle_critical=middle,
    )
