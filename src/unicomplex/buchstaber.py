"""Buchstaber invariant machinery: exact chromatic numbers, general
bounds with the exact value where it is known, direct nondegenerate-map
search, and the bound functions for maps between universal complexes.

s_{F_p}(K) = m - r where r is the least rank with a nondegenerate simplicial
map K -> K(F_p^r).  For graphs this reduces to a ceiling logarithm of the
chromatic number (the log bound, reported as the `formula` method), which
gives the cross-validation target for the searcher.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import count

from .errors import InputError, ResourceLimitError
from .fplin import check_prime, enumerate_lines_fp, is_unimodular_fp

SEARCH_VERTEX_CAP = 12
SEARCH_RANK_CAP = 4
COLORING_VERTEX_CAP = 24


def ceil_log(base, x):
    """Smallest k >= 0 with base**k >= x, by integer exponentiation."""
    if x < 1:
        raise InputError(f"ceil_log needs x >= 1, got {x}")
    k = 0
    power = 1
    while power < x:
        power *= base
        k += 1
    return k


# -- chromatic number ---------------------------------------------------------


def _adjacency(K):
    adj = {v: set() for v in K.vertices()}
    for a, b in K.sorted_simplices(1):
        adj[a].add(b)
        adj[b].add(a)
    return adj


def _greedy_clique(adj, order):
    clique = []
    for v in order:
        if all(v in adj[u] for u in clique):
            clique.append(v)
    return clique


def chromatic_number(K):
    """Exact chromatic number of the 1-skeleton with a witness coloring, of
    at most COLORING_VERTEX_CAP vertices: the least k, counting up from
    the size of a greedy clique, for which a backtracking search over
    vertex colorings finds a k-coloring."""
    verts = K.vertices()
    if len(verts) > COLORING_VERTEX_CAP:
        raise ResourceLimitError(
            f"{len(verts)} vertices exceeds the coloring cap {COLORING_VERTEX_CAP}"
        )
    adj = _adjacency(K)
    order = sorted(verts, key=lambda v: (-len(adj[v]), v))

    def try_k(k):
        coloring = {}

        def place(idx, used):
            if idx == len(order):
                return True
            v = order[idx]
            forbidden = {coloring[u] for u in adj[v] if u in coloring}
            for c in range(min(used + 1, k)):
                if c in forbidden:
                    continue
                coloring[v] = c
                if place(idx + 1, max(used, c + 1)):
                    return True
                del coloring[v]
            return False

        return dict(coloring) if place(0, 0) else None

    # a clique needs as many colors as it has vertices, and len(verts)
    # colors always suffice, so the count ends
    for k in count(len(_greedy_clique(adj, order))):
        witness = try_k(k)
        if witness is not None:
            return k, witness


# -- direct search for nondegenerate maps ------------------------------------


def is_nondegenerate_map(source, vmap, lines, p):
    """Check that every facet of the source maps to pairwise distinct lines
    (canonical generators over F_p) forming a unimodular set; a repeated
    line makes the set dependent, so the one test decides both."""
    return all(is_unimodular_fp([lines[vmap[v]] for v in f], p)
               for f in source.facets())


def min_rank_search(K, p, r_max=SEARCH_RANK_CAP):
    """Least r <= r_max admitting a nondegenerate map K -> K(F_p^r), by
    backtracking over vertex assignments to lines; returns (r, map), the map
    a dict from source vertex id to target line index, or (None, None).  The
    ranks tried start at dim K + 1, as a top facet needs that many
    independent lines.  The first vertex is pinned to the first line (the
    target symmetry group is transitive on lines), later candidates are
    tried in canonical order, so the witness is deterministic.  Each set of
    placed lines has its unimodularity decided once per rank."""
    check_prime(p)
    verts = K.vertices()
    if len(verts) > SEARCH_VERTEX_CAP:
        raise ResourceLimitError(
            f"{len(verts)} vertices exceeds the search cap {SEARCH_VERTEX_CAP}"
        )
    if r_max > SEARCH_RANK_CAP:
        raise ResourceLimitError(f"r_max {r_max} exceeds the cap {SEARCH_RANK_CAP}")
    if not verts:
        return None, None
    facets = [tuple(f) for f in K.facets()]
    facets_with = {v: [f for f in facets if v in f] for v in verts}

    for r in range(K.dim + 1, r_max + 1):
        lines = enumerate_lines_fp(r, p)
        assign = {}
        unimodular = {}  # sorted tuple of placed line indices -> verdict

        def consistent(v):
            for f in facets_with[v]:
                placed = [assign[u] for u in f if u in assign]
                if len(set(placed)) != len(placed):
                    return False
                key = tuple(sorted(placed))
                ok = unimodular.get(key)
                if ok is None:
                    ok = unimodular[key] = is_unimodular_fp(
                        [lines[i] for i in key], p)
                if not ok:
                    return False
            return True

        def place(idx):
            if idx == len(verts):
                return True
            v = verts[idx]
            candidates = [0] if idx == 0 else range(len(lines))
            for c in candidates:
                assign[v] = c
                if consistent(v) and place(idx + 1):
                    return True
                del assign[v]
            return False

        if place(0):
            vmap = dict(assign)
            if not is_nondegenerate_map(K, vmap, lines, p):
                raise AssertionError("search produced a degenerate map")
            return r, vmap
    return None, None


# -- bounds -------------------------------------------------------------------


def buchstaber_bounds(K, primes):
    """All bounds for each prime of `primes`, plus the exact s_{F_p} when
    the complex is a graph (the closed formula, which is the log bound
    itself) or small enough to search, as {p: report}.  Every prime is
    checked before K is colored, once for all of them.  A report is a
    dict: m, gamma, lower = m - gamma, upper_dim = m - dim K - 1,
    upper_log = m - ceil(log_p((p-1) gamma + 1)), method ("formula",
    "search" or "bounds-only") and, only when it was computed, s_fp.  The
    chain lower <= s_fp <= upper bounds is asserted whenever s_fp is
    computed."""
    for p in primes:
        check_prime(p)
        # an empty K is refused right after the first prime's check: a bad
        # first prime is the error named, any later one is not
        if K.n_vertices == 0:
            raise InputError("bounds need at least one vertex")
    gamma, _ = chromatic_number(K)
    return {p: _bounds_report(K, p, gamma) for p in primes}


def _bounds_report(K, p, gamma):
    m = K.n_vertices
    lower = m - gamma
    upper_dim = m - K.dim - 1
    upper_log = m - ceil_log(p, (p - 1) * gamma + 1)
    s_fp = None
    method = "bounds-only"
    if K.dim <= 1:
        s_fp = upper_log
        method = "formula"
    elif m <= SEARCH_VERTEX_CAP and gamma <= SEARCH_RANK_CAP:
        # a gamma-coloring sends each facet to distinct coordinate lines of
        # F_p^gamma, a nondegenerate map, so the search ends by r = gamma
        r, _ = min_rank_search(K, p, r_max=gamma)
        s_fp = m - r
        method = "search"
    report = {"m": m, "gamma": gamma, "lower": lower, "upper_dim": upper_dim,
              "upper_log": upper_log, "method": method}
    if s_fp is not None:
        if not (lower <= s_fp <= upper_dim and s_fp <= upper_log):
            raise AssertionError(
                f"bound chain violated: {lower} <= {s_fp} <= "
                f"{upper_dim}, log bound {upper_log}"
            )
        report["s_fp"] = s_fp
    return report


class ZetaThetaBounds(namedtuple(
        "ZetaThetaBounds", "zeta_lower zeta_upper theta_lower theta_upper")):
    __slots__ = ()


def _zeta_lower(p, q, n):
    f0 = (p**n - 1) // (p - 1)
    return ceil_log(q, (q - 1) * f0 + 1)


def zeta_theta_bounds(p, q, n):
    """Exact bounds for the least rank of a universal-complex target over
    F_q (zeta) or Z (theta) receiving K(F_p^n) nondegenerately; the theta
    lower bound takes q = 2, where it is sharpest."""
    check_prime(p)
    check_prime(q)
    if n < 1:
        raise InputError("n must be >= 1")
    f0 = (p**n - 1) // (p - 1)
    return ZetaThetaBounds(_zeta_lower(p, q, n), f0, _zeta_lower(p, 2, n), f0)
