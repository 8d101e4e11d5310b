"""Independent oracles for the test suite.

Everything here is deliberately naive: boundaries are full chain-level
matrices, spans are enumerated element by element, determinants are
expanded by cofactors, invariant factors are quotients of gcds of minors,
minimality is exhausted over windows, primes are found by trial division,
ranks over Q by elimination on Fractions, shellings by intersecting every
facet with every earlier one, p-orderings by re-summing every valuation at
every step, acyclicity by searching the whole modified Hasse diagram,
shiftedness by trying every vertex swap in every facet, chromatic
numbers by trying every coloring, connected components by union-find
over the edges and the integer vectors of the line order by sorting the
whole norm box.  None of it shares
code with the library's elimination, quotient-step, Smith normal form,
coreduction, restriction-face, running-sum, V-path, degree-labeling,
backtracking-coloring or shell-by-shell enumeration paths, so agreement is
evidence, not tautology.
"""

from itertools import combinations, product
from math import gcd


def span_size_rank(rows, p):
    """Rank over F_p via |span| = p^rank: enumerate every linear combination."""
    span = set()
    m = len(rows)
    n = len(rows[0]) if rows else 0
    for coeffs in product(range(p), repeat=m):
        vec = tuple(
            sum(c * row[i] for c, row in zip(coeffs, rows)) % p for i in range(n)
        )
        span.add(vec)
    rank = 0
    while p**rank < len(span):
        rank += 1
    return rank


def brute_unimodular_complex(generators, p):
    """All unimodular subsets of the given generators, by filtering the
    power set with the span-size rank.  Returns sets of indices by size."""
    m = len(generators)
    by_size = {}
    for size in range(1, m + 1):
        for idx in combinations(range(m), size):
            rows = [generators[i] for i in idx]
            if span_size_rank(rows, p) == size:
                by_size.setdefault(size, set()).add(idx)
        if size not in by_size:
            break
    return by_size


def boundary_matrix(K, d):
    """The chain-level boundary operator C_d -> C_{d-1} of a complex as
    sparse rows {row: {col: +-1}} indexed by the sorted simplices, with
    sign (-1)^k on the face that drops the k-th vertex; for d = 0 the
    augmentation row.  Raises ValueError for d outside [0, dim K]."""
    if d < 0 or d > K.dim:
        raise ValueError(f"boundary dimension {d} out of range [0, {K.dim}]")
    cols = K.sorted_simplices(d)
    if d == 0:
        return {0: dict.fromkeys(range(len(cols)), 1)}
    row_index = {s: i for i, s in enumerate(K.sorted_simplices(d - 1))}
    rows = {}
    for j, s in enumerate(cols):
        for k in range(len(s)):
            rows.setdefault(row_index[s[:k] + s[k + 1:]], {})[j] = -1 if k % 2 else 1
    return rows


def component_count(K):
    """The number of connected components of K, by union-find over its
    edges (0 for a complex without vertices)."""
    parent = {v: v for v in K.vertices()}

    def root(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in K.sorted_simplices(1):
        parent[root(u)] = root(v)
    return len({root(v) for v in parent})


def det_cofactor(a):
    """Exact determinant by cofactor expansion (small matrices only)."""
    n = len(a)
    if n == 1:
        return a[0][0]
    total = 0
    for j in range(n):
        if a[0][j]:
            minor = [row[:j] + row[j + 1:] for row in a[1:]]
            total += (-1) ** j * a[0][j] * det_cofactor(minor)
    return total


def determinantal_invariant_factors(rows):
    """Invariant factors of an integer matrix by determinantal divisors:
    d_k is the gcd of all k x k minors, and while d_k != 0 the k-th factor
    is d_k / d_(k-1), with d_0 = 1."""
    from math import gcd

    m, n = len(rows), len(rows[0]) if rows else 0
    factors = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        d = 0
        for rs in combinations(range(m), k):
            for cs in combinations(range(n), k):
                d = gcd(d, det_cofactor([[rows[r][c] for c in cs] for r in rs]))
        if not d:
            break
        factors.append(d // prev)
        prev = d
    return tuple(factors)


def minor_gcd_unimodular(rows):
    """Unimodularity over Z: some maximal minor nonzero and the gcd of all
    maximal minors is 1."""
    from math import gcd

    m, n = len(rows), len(rows[0])
    if m > n:
        return False
    g = 0
    for cols in combinations(range(n), m):
        sub = [[row[c] for c in cols] for row in rows]
        g = gcd(g, abs(det_cofactor(sub)))
        if g == 1:
            return True
    return False


def p_exponent(x, p):
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


def min_valuation_over_window(chosen, window, p):
    """The smallest p-adic valuation of prod(c - a) over candidates c in the
    window not already chosen."""
    best = None
    for c in window:
        if c in chosen:
            continue
        e = sum(p_exponent(c - a, p) for a in chosen)
        if best is None or e < best:
            best = e
    return best


def reference_greedy_p_ordering(window, p, K, start_index):
    """Greedy p-ordering of a finite window, quadratic: at every step each
    unchosen candidate's valuation sum is recomputed over the whole chosen
    prefix, and the first candidate (in window order) of least sum is taken.
    Returns (chosen elements, their valuation exponents)."""
    chosen = [window[start_index]]
    exps = [0]
    for _ in range(K):
        best = None
        for c in window:
            if c in chosen:
                continue
            e = sum(p_exponent(c - a, p) for a in chosen)
            if best is None or e < best[1]:
                best = (c, e)
        chosen.append(best[0])
        exps.append(best[1])
    return chosen, exps


def coords_of(label):
    """The coordinate tuple that a vertex label "(a,b)" or "[a,b]" prints,
    read back from the string."""
    return tuple(map(int, label[1:-1].split(",")))


def scalar_class(coords, p):
    """All nonzero scalar multiples of a vector mod p."""
    return {
        tuple((a * c) % p for c in coords) for a in range(1, p)
    }


def rescan_greedy_matching(K, pivots):
    """Greedy pivot matching by rescanning every simplex for every pivot: in
    the step for v, each unmatched simplex s without v, taken in order of
    dimension, is paired with s + v when that is a simplex and still
    unmatched.  Returns (sorted pairs, critical simplices in the order of
    K.all_simplices())."""
    matched = set()
    pairs = []
    for v in pivots:
        for d in range(K.dim + 1):
            for s in K.sorted_simplices(d):
                if s in matched or v in s:
                    continue
                up = tuple(sorted(s + (v,)))
                if up not in K or up in matched:
                    continue
                matched.update((s, up))
                pairs.append((s, up))
    critical = tuple(s for s in K.all_simplices() if s not in matched)
    return tuple(sorted(pairs)), critical


def trial_division_is_prime(n):
    """Primality by trying every divisor up to sqrt(n)."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def rank_over_q_fractions(rows):
    """Rank over Q of a dense integer matrix (list of rows) by Gaussian
    elimination on Fractions."""
    from fractions import Fraction

    a = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    ncols = len(a[0]) if a else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(rank + 1, len(a)):
            f = a[i][c] / a[rank][c]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def pairwise_first_non_shelling_step(order):
    """First 1-based index k >= 2 at which facet k meets the union of the
    earlier facets in something that is not pure of codimension 1, or None.

    By the definition, facet against facet: the maximal faces of
    F_k & (F_1 | ... | F_(k-1)) are the maximal sets among F_k & F_j, j < k,
    and each must have |F_k| - 1 vertices."""
    earlier = []
    for k, facet in enumerate(order):
        F = frozenset(facet)
        if earlier:
            meets = {F & G for G in earlier}
            maximal = [s for s in meets if not any(s < t for t in meets)]
            if any(len(s) != len(F) - 1 for s in maximal):
                return k + 1
        earlier.append(F)
    return None


def hasse_band_cycle(K, pairs):
    """A directed cycle of the modified Hasse diagram of K with the given
    (lower, upper) pairs reversed, or None.

    Every simplex of each band of adjacent dimensions d, d + 1 is a node:
    an unmatched cell points to each of its codimension-1 faces except its
    partner, and a matched lower cell points up to its partner.  Each band
    is searched in full by depth-first search."""
    partner = {}
    for lo, hi in pairs:
        partner[lo] = hi
        partner[hi] = lo
    for d in range(K.dim):
        succ = {}
        for up in K.sorted_simplices(d + 1):
            down = [up[:i] + up[i + 1:] for i in range(len(up))]
            succ[up] = [f for f in down if partner.get(f) != up]
        for lo in K.sorted_simplices(d):
            up = partner.get(lo)
            succ[lo] = [up] if up is not None and len(up) == len(lo) + 1 else []
        color = {}
        for start in succ:
            if color.get(start):
                continue
            stack = [(start, iter(succ[start]))]
            color[start] = 1
            path = [start]
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    c = color.get(nxt, 0)
                    if c == 1:
                        return path[path.index(nxt):]
                    if c == 0:
                        color[nxt] = 1
                        path.append(nxt)
                        stack.append((nxt, iter(succ[nxt])))
                        advanced = True
                        break
                if not advanced:
                    color[node] = 2
                    path.pop()
                    stack.pop()
    return None


def quadratic_shift_labeling(K):
    """(True, labeling) when some vertex labeling makes K closed under
    replacing a vertex of a facet by one with a smaller label, else
    (False, None).

    For every ordered vertex pair (v, u) and every facet f holding v but
    not u, (f - v) + u is looked up in K; a miss means u must be labeled
    above v.  Labels are then handed out one at a time to the smallest
    vertex no unlabeled vertex must precede."""
    verts = K.vertices()
    facets = [set(f) for f in K.facets()]
    above = {v: set() for v in verts}  # v -> vertices labeled above v
    for v in verts:
        for u in verts:
            if u == v:
                continue
            for f in facets:
                if v in f and u not in f and tuple(sorted((f - {v}) | {u})) not in K:
                    above[v].add(u)
                    break
    labeling = {}
    while len(labeling) < len(verts):
        free = [u for u in verts if u not in labeling
                and not any(u in above[v] for v in verts if v not in labeling)]
        if not free:
            return False, None
        labeling[free[0]] = len(labeling) + 1
    return True, labeling


def brute_chromatic_number(n, edges):
    """Least k admitting a proper coloring of vertices 0..n-1 with k colors,
    by trying every coloring in turn; vertex 0 keeps color 0, as any
    coloring can be renamed to give it that."""
    for k in range(1, n + 1):
        for rest in product(range(k), repeat=n - 1):
            colors = (0,) + rest
            if all(colors[a] != colors[b] for a, b in edges):
                return k
    return 0


def box_z_vectors(n, max_norm):
    """The primitive vectors of Z^n with 1-norm <= max_norm, found by
    filtering every point of the box [-max_norm, max_norm]^n and sorted by
    (1-norm, reversed coordinates)."""
    return sorted((c for c in product(range(-max_norm, max_norm + 1), repeat=n)
                   if sum(map(abs, c)) <= max_norm and gcd(*c) == 1),
                  key=lambda c: (sum(map(abs, c)), c[::-1]))


def box_z_lines(n, max_norm):
    """The vectors of `box_z_vectors` whose first nonzero coordinate is
    positive: one generator per line."""
    return [c for c in box_z_vectors(n, max_norm)
            if [x for x in c if x][0] > 0]
