"""Greedy pivot matchings, acyclicity, critical cells.

A matching is built inductively over an ordered pivot schedule: in step k,
every still-unmatched simplex sigma that does not contain pivot_k is paired
with sigma + {pivot_k}, provided that upper partner is a simplex of the
complex and is itself still unmatched.  Within a step the pairing is
conflict-free: lower partners never contain the pivot, upper partners always
do, and the upper partner determines the lower one, so the result does not
depend on the order in which a step visits the simplices.  The empty simplex
participates in no pair.  `greedy_matching` returns the sorted pairs and the
critical cells only after `check_acyclic` has found no cycle among the
pairs, so every `Matching` it returns is a discrete gradient; on a cycle it
raises AcyclicityError.  `check_acyclic` reads a list of pairs alone,
wherever it comes from, and `critical_census` counts the critical cells by
dimension: for any matching, their alternating sum is the Euler
characteristic.

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
from itertools import groupby

from .errors import AcyclicityError, InputError


@dataclass(frozen=True)
class Matching:
    pairs: tuple  # ((lower, upper), ...) sorted
    critical: tuple  # unmatched simplices, by dimension, each sorted


def greedy_matching(K, pivots):
    """Run the inductive pivot schedule and return the resulting matching,
    checked acyclic (AcyclicityError with the witness cycle otherwise).

    Every simplex of dimension >= 1 is indexed once under each of its
    vertices that is a scheduled pivot; the step for pivot v pairs
    (up - v, up) for every up in the star of v whose two members are both
    still unmatched.  The star lists and the matched set are released
    before the acyclicity check runs."""
    vertex_set = set(K.labels)
    for pv in pivots:
        if pv not in vertex_set:
            raise InputError(f"pivot {pv} is not a vertex of the complex")
    star = {v: [] for v in pivots}
    for d in range(1, K.dim + 1):
        for up in K.sorted_simplices(d):
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
        for s in K.sorted_simplices(d) if s not in matched
    )
    del star, matched
    pairs = tuple(sorted(pairs))
    ok, cycle = check_acyclic(K, pairs)
    if not ok:
        raise AcyclicityError(cycle)
    return Matching(pairs, critical)


def _check_pairs(K, pairs):
    """Raise InputError unless every pair is a covering pair of K and no
    simplex occurs twice.  Only the upper cell is looked up in K: a
    nonempty lower cell that is a sorted codimension-1 face of it is in K
    too, as K is closed under faces, so the lower cell is looked up only to
    name the error when it is not."""
    seen = set()
    for lo, hi in pairs:
        if hi not in K:
            raise InputError(f"pair ({lo}, {hi}) uses simplices outside the complex")
        vs = set(lo)
        if not (lo and len(hi) == len(lo) + 1 and vs.issubset(hi)
                and lo == tuple(sorted(vs))):
            if lo not in K:
                raise InputError(
                    f"pair ({lo}, {hi}) uses simplices outside the complex")
            raise InputError(f"pair ({lo}, {hi}) is not a covering pair")
        if lo in seen or hi in seen:
            raise InputError("a simplex occurs in two pairs")
        seen.update((lo, hi))


def _next_lower_cells(lo, up_of):
    """Successors of lo in the V-path digraph: the faces f != lo of its
    partner that are themselves lower cells of pairs."""
    up = up_of[lo]
    for i in range(len(up)):
        f = up[:i] + up[i + 1:]
        if f != lo and f in up_of:
            yield f


def check_acyclic(K, pairs):
    """Search the (lower, upper) pairs for a closed V-path (Forman's
    criterion; see the module docstring for why that is every directed cycle
    of the modified Hasse diagram).  The pairs must be covering pairs of K,
    each simplex in one pair at most, or InputError is raised.

    The nodes are the lower cells of the pairs, with an edge lo -> f for
    each codimension-1 face f != lo of partner(lo) that is itself a lower
    cell; an iterative three-colour depth-first search finds a cycle in
    O(pairs * dim).  Returns (True, None), or (False, cycle) with cycle the
    closed V-path [lo, up, lo', up', ...] (its last upper cell has the first
    lower cell as a face).
    """
    _check_pairs(K, pairs)
    up_of = dict(pairs)
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


def critical_census(matching):
    """The number of critical cells of each dimension, {d: count} in
    ascending d; `matching.critical` is sorted by dimension, so each
    dimension is one run of it."""
    return {size - 1: sum(1 for _ in run)
            for size, run in groupby(matching.critical, len)}

