"""Greedy pivot matchings, acyclicity, critical cells.

A matching is built inductively over an ordered pivot schedule: in step k,
every still-unmatched simplex sigma that does not contain pivot_k is paired
with sigma + {pivot_k}, provided that upper partner is a simplex of the
complex and is itself still unmatched.  Within a step the pairing is
conflict-free: lower partners never contain the pivot, upper partners always
do, and the upper partner determines the lower one, so the result does not
depend on the order in which a step visits the simplices.  The empty simplex
participates in no pair.  `greedy_matching` works on positions within the
complex's sorted levels, and returns the sorted pairs and the critical
cells only after the V-path search `_closed_v_path` has found no cycle
among the pairs, so every `Matching` it returns is a discrete gradient; on
a cycle it raises AcyclicityError.  `check_acyclic` reads a list of pairs
alone, wherever it comes from, checks them, and runs the same search on
their positions.  `critical_census` counts the critical cells by
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
of the pairs only, one band at a time, with at most dim + 1 edges out of
each: the cost is O(pairs * dim), and critical cells and the simplices of
no pair are never visited.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from itertools import chain, combinations, compress, count, islice

from .errors import AcyclicityError, InputError


class Matching(namedtuple("Matching", "pairs critical")):
    """`pairs`: ((lower, upper), ...), sorted; `critical`: the unmatched
    simplices, by dimension, each dimension sorted."""

    __slots__ = ()


def greedy_matching(K, pivots):
    """Run the inductive pivot schedule and return the resulting matching,
    checked acyclic (AcyclicityError with the witness cycle otherwise).

    The work runs on positions within K's levels.  One pass over the
    levels lists, for each scheduled pivot v and each dimension d >= 1, the
    positions of the d-simplices through v.  Only a simplex whose first
    vertex is at most the largest pivot can hold one, so the pass reads
    each sorted level up to there, and each simplex up to its first vertex
    past the largest pivot.  The step for v pairs (up - v, up) for each such
    up whose two members are both still unmarked, with a bytearray of marks
    per level.  An upper cell is read from K's own level, and a lower
    cell's position comes from a dict over the level below; the top level
    is never indexed.  Each pair is a covering pair of K by construction,
    and is recorded once, as the upper cell at the lower cell's position in
    a partner list per band.  The pairs of each band of adjacent dimensions
    go through the V-path search of `_closed_v_path`, and the star lists
    are released before it runs.  The critical cells are the unmarked ones,
    taken from each level in one C-level pass."""
    # imported here, so that a process that never matches does not load the
    # extension module and keep its pages resident
    from array import array

    vertex_set = set(K.labels)
    for pv in pivots:
        if pv not in vertex_set:
            raise InputError(f"pivot {pv} is not a vertex of the complex")
    levels = [K.sorted_simplices(d) for d in range(K.dim + 1)]
    bands = range(1, len(levels))
    star = {v: [array("l") for _ in levels] for v in pivots}
    last = max(pivots, default=-1)
    for d in bands:
        add = {v: runs[d].append for v, runs in star.items()}.get
        level = levels[d]
        for i, up in enumerate(islice(level, bisect_left(level, (last + 1,)))):
            for v in up:
                if v > last:
                    break
                append = add(v)
                if append is not None:
                    append(i)

    marks = [bytearray(len(level)) for level in levels]
    index = [dict(zip(level, count())) for level in levels[:-1]]
    # band d: the upper cell paired with each position of level d - 1
    partners = [[None] * len(level) for level in levels[:-1]]
    try:
        for pivot in pivots:
            runs = star[pivot]
            for d in bands:
                upper, up_mark, lo_mark = levels[d], marks[d], marks[d - 1]
                position_of = index[d - 1].__getitem__
                partner = partners[d - 1]
                for i in runs[d]:
                    if up_mark[i]:
                        continue
                    up = upper[i]
                    k = up.index(pivot)
                    j = position_of(up[:k] + up[k + 1:])
                    if lo_mark[j]:
                        continue
                    lo_mark[j] = up_mark[i] = 1
                    partner[j] = up
    except KeyError as exc:
        raise AssertionError(
            f"the face {exc} is not a simplex of the complex") from None
    del star

    # the top band first, so that each band's tables are dropped once its
    # search has read them
    pairs = []
    for d in reversed(bands):
        position, partner = index.pop(), partners.pop()
        lower = levels[d - 1]
        cells = list(compress(position.values(), partner))
        cycle = _closed_v_path(lower, position, cells, partner)
        if cycle is not None:
            raise AcyclicityError(cycle)
        del position
        pairs += zip(map(lower.__getitem__, cells), map(partner.__getitem__, cells))
    pairs.sort()  # the bands are sorted runs, so the sort merges them
    unmarked = bytes.maketrans(b"\0\1", b"\1\0")
    critical = tuple(chain.from_iterable(
        compress(level, mark.translate(unmarked))
        for level, mark in zip(levels, marks)))
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


def _closed_v_path(lower, position, cells, partner):
    """A closed V-path among the pairs of one band, or None.

    The pairs are (lower[j], partner[j]) for the positions j in `cells`,
    ascending; `partner` is None at every other position of `lower`, and
    `position` maps each simplex of `lower` to its position there.  The
    nodes are the positions of the lower cells, with an edge j -> f for
    each codimension-1 face of partner[j], other than lower[j], that is
    itself a lower cell f.  An iterative three-colour depth-first search,
    started from the nodes in ascending order, visits the faces in
    vertex-deletion order and finds a cycle in O(pairs * dim).  The cycle
    is returned as the closed V-path [lo, up, lo', up', ...] of simplices
    (its last upper cell has the first lower cell as a face)."""
    color = bytearray(len(lower))  # 1 on the current path, 2 finished

    def successors(j):
        out = [f for f in map(position.__getitem__, combinations(partner[j], len(lower[j])))
               if f != j and partner[f] is not None]
        out.reverse()  # combinations deletes the last vertex first
        return iter(out)

    for start in cells:
        if color[start]:
            continue
        color[start] = 1
        path = [start]
        stack = [successors(start)]
        while stack:
            for nxt in stack[-1]:
                c = color[nxt]
                if c == 1:
                    loop = path[path.index(nxt):]
                    return [cell for j in loop for cell in (lower[j], partner[j])]
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

    The pairs are split into bands by dimension, and each band goes through
    the search of `_closed_v_path` on the positions of its lower cells in
    K's level, each holding its partner.  Returns (True, None), or (False, cycle) with cycle the closed V-path
    [lo, up, lo', up', ...] (its last upper cell has the first lower cell
    as a face)."""
    _check_pairs(K, pairs)
    bands = {}
    for lo, up in pairs:
        bands.setdefault(len(lo), []).append((lo, up))
    for size in sorted(bands):
        lower = K.sorted_simplices(size - 1)
        position = dict(zip(lower, count()))
        partner = [None] * len(lower)
        for lo, up in bands[size]:
            partner[position[lo]] = up
        cells = list(compress(position.values(), partner))
        cycle = _closed_v_path(lower, position, cells, partner)
        if cycle is not None:
            return False, cycle
    return True, None


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
