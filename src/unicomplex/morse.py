"""Greedy pivot matchings, acyclicity, critical cells.

A matching is built inductively over an ordered pivot schedule: in step k,
every still-unmatched simplex sigma that does not contain pivot_k is paired
with sigma + {pivot_k}, provided that upper partner is a simplex of the
complex and is itself still unmatched.  Within a step the pairing is
conflict-free: lower partners never contain the pivot, upper partners always
do, and the upper partner determines the lower one, so the result does not
depend on the order in which a step visits the simplices.  The empty simplex
participates in no pair.  `greedy_matching` works on the complex's one
numbering of simplices, `SimplicialComplex.ids`, and returns the sorted
pairs and the critical cells only after the V-path search `_closed_v_path`
has found no cycle among the pairs, so every `Matching` it returns is a
discrete gradient; on a cycle it raises AcyclicityError.  `check_acyclic`
reads a list of pairs alone, wherever it comes from, checks them, and runs
the same search on their ids.  `critical_census` counts the critical cells by
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
of the pairs only, all bands in one search over their ids, with at most
dim + 1 edges out of each: the cost is O(pairs * dim), and critical cells
and the simplices of no pair are never visited.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from itertools import accumulate, chain, combinations, compress, count, islice

from .errors import AcyclicityError, InputError


class Matching(namedtuple("Matching", "pairs critical")):
    """`pairs`: ((lower, upper), ...), sorted; `critical`: the unmatched
    simplices, by dimension, each dimension sorted."""

    __slots__ = ()


def greedy_matching(K, pivots):
    """Run the inductive pivot schedule and return the resulting matching,
    checked acyclic (AcyclicityError with the witness cycle otherwise).

    The work runs on K's one numbering, `SimplicialComplex.ids`, which the
    top level continues.  One pass over the levels lists, for each pivot v
    and each dimension d >= 1, the ids of the d-simplices through v: only a
    simplex whose first vertex is at most the largest pivot can hold one, so
    the pass reads each sorted level up to there, and each simplex up to its
    first vertex past the largest pivot.  The step for v pairs (up - v, up)
    for each such up whose two members are both unmarked, in one bytearray
    of marks over all ids, and records the pair once, as the upper cell at
    the lower cell's id in one partner list.  The star lists are released
    before the one V-path search of `_closed_v_path`, and `ids` before the
    pairs are formed.  The critical cells are the unmarked ones, taken in
    one C-level pass."""
    # imported here, so that a process that never matches does not load the
    # extension module and keep its pages resident
    from array import array

    vertex_set = set(K.labels)
    for pv in pivots:
        if pv not in vertex_set:
            raise InputError(f"pivot {pv} is not a vertex of the complex")
    levels = [K.sorted_simplices(d) for d in range(K.dim + 1)]
    offsets = list(accumulate(map(len, levels), initial=0))
    bands = range(1, len(levels))
    star = {v: [array("l") for _ in levels] for v in pivots}
    last = max(pivots, default=-1)
    for d in bands:
        add = {v: runs[d].append for v, runs in star.items()}.get
        level = levels[d]
        ups = islice(level, bisect_left(level, (last + 1,)))
        for c, up in enumerate(ups, offsets[d]):
            for v in up:
                if v > last:
                    break
                append = add(v)
                if append is not None:
                    append(c)

    ids = K.ids()
    mark = bytearray(offsets[-1])
    partner = [None] * len(ids)
    try:
        for pivot in pivots:
            runs = star[pivot]
            for d in bands:
                upper, offset = levels[d], offsets[d]
                for c in runs[d]:
                    if mark[c]:
                        continue
                    up = upper[c - offset]
                    k = up.index(pivot)
                    j = ids[up[:k] + up[k + 1:]]
                    if mark[j]:
                        continue
                    mark[j] = mark[c] = 1
                    partner[j] = up
    except KeyError as exc:
        raise AssertionError(
            f"the face {exc} is not a simplex of the complex") from None
    del star

    cycle = _closed_v_path(ids, partner)
    if cycle is not None:
        raise AcyclicityError(cycle)
    del ids
    # each band is a sorted run, so the sort merges them
    pairs = sorted(zip(compress(chain.from_iterable(levels), partner),
                       filter(None, partner)))
    unmarked = bytes.maketrans(b"\0\1", b"\1\0")
    critical = tuple(compress(chain.from_iterable(levels), mark.translate(unmarked)))
    return Matching(tuple(pairs), critical)


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


def _closed_v_path(ids, partner):
    """A closed V-path among the pairs, or None.

    `ids` is K's numbering of the simplices below its top level, and
    partner[j] is the upper cell paired with the cell of id j, or None when
    that cell is the lower cell of no pair.  The nodes are the ids of the
    lower cells, with an edge j -> f for each codimension-1 face of
    partner[j], other than the cell j, that is itself a lower cell f.  No
    edge leaves its band of adjacent dimensions, so one search over every
    id searches each band apart, the bands in ascending dimension.  An
    iterative three-colour depth-first search, started from the nodes in
    ascending id order, visits the faces in vertex-deletion order and finds
    a cycle in O(pairs * dim).  The cycle is returned as the closed V-path
    [lo, up, lo', up', ...] of simplices (its last upper cell has the first
    lower cell as a face)."""
    color = bytearray(len(partner))  # 1 on the current path, 2 finished

    def faces(j):  # of partner[j], the last vertex deleted first
        return combinations(partner[j], len(partner[j]) - 1)

    def successors(j):
        out = [f for f in map(ids.__getitem__, faces(j))
               if f != j and partner[f] is not None]
        out.reverse()  # vertex-deletion order
        return iter(out)

    for start in compress(count(), partner):
        if color[start]:
            continue
        color[start] = 1
        path = [start]
        stack = [successors(start)]
        while stack:
            for nxt in stack[-1]:
                c = color[nxt]
                if c == 1:
                    return [cell for j in path[path.index(nxt):] for cell in (
                        next(f for f in faces(j) if ids[f] == j), partner[j])]
                if not c:
                    color[nxt] = 1
                    path.append(nxt)
                    stack.append(successors(nxt))
                    break
            else:
                color[path.pop()] = 2
                stack.pop()
    return None


def check_acyclic(K, pairs):
    """Search the (lower, upper) pairs for a closed V-path (Forman's
    criterion; see the module docstring for why that is every directed cycle
    of the modified Hasse diagram).  The pairs must be covering pairs of K,
    each simplex in one pair at most, or InputError is raised.

    Each lower cell's id in K's numbering (`SimplicialComplex.ids`) holds
    its partner, and the one search of `_closed_v_path` runs on them.
    Returns (True, None), or (False, cycle) with cycle the closed V-path
    [lo, up, lo', up', ...] (its last upper cell has the first lower cell
    as a face)."""
    _check_pairs(K, pairs)
    ids = K.ids()
    partner = [None] * len(ids)
    for lo, up in pairs:
        partner[ids[lo]] = up
    cycle = _closed_v_path(ids, partner)
    return (True, None) if cycle is None else (False, cycle)


def critical_census(matching):
    """The number of critical cells of each dimension, {d: count} in
    ascending d.  `matching.critical` is sorted by dimension, so each
    dimension is one run of it, and a binary search keyed on the simplex
    size finds where the run ends: O(dim log cells) C-level steps."""
    critical, census, start = matching.critical, {}, 0
    while start < len(critical):
        size = len(critical[start])
        end = bisect_right(critical, size, lo=start, key=len)
        census[size - 1] = end - start
        start = end
    return census
