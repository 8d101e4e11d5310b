"""The full verification suite: every acceptance check, runnable from the
CLI (`verify-all`) and from the test suite.

Each criterion function returns (ok, detail).  Expected constants that have
an independent derivation (hand-evaluated determinants and alternating
sums, brute-force enumerations) are frozen inline; the library is never
asked to confirm itself against its own output alone.
"""

from __future__ import annotations

import random
import time
from itertools import combinations
from math import comb, gcd

from . import bhargava, buchstaber, homology, morse, shelling, zlattice
from .scomplex import SimplicialComplex
from .universal_fp import (
    UniversalKind,
    build_universal,
    formula_f_vector,
    sphere_count,
    standard_pivot_ids,
)

FP_PAIRS = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2))

ORACLE_SAMPLES = 10**4  # random matrices criterion 9 tests against the minors

FROZEN_FVECTORS = {
    ("K", 2, 3): (1, 7, 21, 28),
    ("K", 3, 3): (1, 13, 78, 234),
    ("X", 3, 2): (1, 8, 24),
}

FROZEN_SPHERES = {
    ("K", 3, 2): 3,
    ("K", 2, 3): 13,
    ("K", 3, 3): 168,
    ("X", 3, 2): 17,
}

ZETA_THETA_FROZEN = {
    # (p, q, n): zeta_lower, zeta_upper, theta_lower, theta_upper
    (2, 3, 2): (2, 3, 2, 3),
    (3, 2, 2): (3, 4, 3, 4),
    (3, 2, 3): (4, 13, 4, 13),
}


class Workspace:
    """The settings of a run, and caches of the built complexes shared by
    several criteria and of their homology profiles."""

    def __init__(self, fp_pairs=FP_PAIRS, oracle_samples=ORACLE_SAMPLES):
        self.fp_pairs = fp_pairs
        self.oracle_samples = oracle_samples
        self._built = {}
        self._profiles = {}

    def kinds(self):
        for variant in ("X", "K"):
            for p, n in self.fp_pairs:
                yield UniversalKind(variant, p, n)

    def built(self, kind):
        if kind not in self._built:
            self._built[kind] = build_universal(kind)
        return self._built[kind]

    def profile(self, kind):
        if kind not in self._profiles:
            self._profiles[kind] = homology.reduced_homology(self.built(kind))
        return self._profiles[kind]


def _sample_simplices(K, d, count=3):
    level = K.sorted_simplices(d)
    if len(level) <= count:
        return level
    step = len(level) // count
    return [level[i * step] for i in range(count)]


def criterion_1(ws):
    """f-vector formulas vs explicit enumeration, all test pairs, X and K."""
    for kind in ws.kinds():
        built = ws.built(kind).f_vector()
        formula = formula_f_vector(kind)
        if built != formula:
            return False, f"{kind}: built {built} != formula {formula}"
        frozen = FROZEN_FVECTORS.get(kind)
        if frozen is not None and built != frozen:
            return False, f"{kind}: {built} != frozen {frozen}"
    return True, f"{2 * len(ws.fp_pairs)} complexes, exact equality"


def criterion_2(ws):
    """Link f-vectors match the closed forms on sampled simplices."""
    checked = 0
    for kind in ws.kinds():
        K = ws.built(kind)
        for i in range(kind.n):
            want = formula_f_vector(kind, link_dim=i)
            for s in _sample_simplices(K, i):
                got = K.link(s).f_vector()
                if got != want:
                    return False, f"{kind} link of {s}: {got} != {want}"
                checked += 1
    return True, f"{checked} links, exact equality"


def criterion_3(ws):
    """Face-count recurrences in both the vector and line forms."""
    for kind in ws.kinds():
        p, n = kind.p, kind.n
        f = formula_f_vector(kind)
        for i in range(n - 1):
            step = p**n - p ** (i + 1)
            if kind.variant == "K":
                step, r = divmod(step, p - 1)
                if r:
                    return False, f"{kind}: non-exact recurrence factor at i={i}"
            if (i + 2) * f[i + 2] != step * f[i + 1]:
                return False, f"{kind}: recurrence fails at i={i}"
    return True, "all recurrences hold exactly"


def criterion_4(ws):
    """Greedy matchings are valid and acyclic with the expected census."""
    for kind in ws.kinds():
        # greedy_matching raises on a cycle; the public checker re-reads
        # the pairs it returns, from their simplices alone
        K = ws.built(kind)
        M = morse.greedy_matching(K, standard_pivot_ids(kind))
        ok, cycle = morse.check_acyclic(K, M.pairs)
        if not ok:
            return False, f"{kind}: closed V-path {cycle}"
        census = morse.critical_census(M)
        want = {0: 1, kind.n - 1: sphere_count(formula_f_vector(kind))}
        if kind.n == 1:
            want = {0: 1}
        if census != want:
            return False, f"{kind}: census {census} != {want}"
        frozen = FROZEN_SPHERES.get(kind)
        if frozen is not None and census.get(kind.n - 1) != frozen:
            return False, f"{kind}: top critical != frozen {frozen}"
    return True, "one critical vertex + top cells everywhere"


def criterion_5(ws):
    """Wedge homology: Betti zero below top, top equals the sphere count,
    no torsion; links included."""
    for kind in ws.kinds():
        K = ws.built(kind)
        prof = ws.profile(kind)
        want = sphere_count(formula_f_vector(kind))
        if prof.betti[: -1] != (0,) * (kind.n - 1) or prof.betti[-1] != want:
            return False, f"{kind}: betti {prof.betti}, want top {want}"
        if not prof.torsion_free:
            return False, f"{kind}: torsion {prof.torsion}"
        for i in range(kind.n - 1):
            s = K.sorted_simplices(i)[0]
            L = K.link(s)
            lp = homology.reduced_homology(L)
            lw = sphere_count(formula_f_vector(kind, link_dim=i))
            if lp.betti[-1] != lw or any(b for b in lp.betti[:-1]) or not lp.torsion_free:
                return False, f"{kind} link dim {i}: betti {lp.betti}, want top {lw}"
    return True, "wedge profiles confirmed, zero torsion"


def criterion_6(ws):
    """Reisner criterion: all universal complexes pass, the disconnected
    pure non-example fails."""
    for kind in ws.kinds():
        ok, witness = homology.reisner_check(ws.built(kind), orbit_sample=True,
                                             profile=ws.profile(kind))
        if not ok:
            return False, f"{kind}: Reisner fails at {witness}"
    two_edges = SimplicialComplex.from_simplices(
        [(0, 1), (2, 3)], {i: str(i) for i in range(4)}
    )
    ok, witness = homology.reisner_check(two_edges)
    if ok or witness != ((), 0):
        return False, f"disjoint edges: expected failure at ((), 0), got {ok}, {witness}"
    return True, "Cohen-Macaulay confirmed; non-example rejected"


def criterion_7(ws):
    """Constructed shellings verify (construct_shelling_fp checks the order
    and its h-vector); shiftedness matches the transitive action on every
    complex: GL_n(F_p) moves any vertex to any other, so a universal complex
    is shifted iff it is the full (n-1)-skeleton on its vertices, read off
    the closed-form f-vector."""
    for variant, p, n in (
        ("K", 2, 2), ("K", 2, 3), ("K", 3, 2), ("K", 3, 3),
        ("X", 2, 2), ("X", 2, 3), ("X", 3, 2),
    ):
        kind = UniversalKind(variant, p, n)
        shelling.construct_shelling_fp(kind, ws.built(kind))
    for kind in ws.kinds():
        f = formula_f_vector(kind)
        want = f[-1] == comb(f[1], kind.n)
        got, _ = shelling.is_shifted(ws.built(kind))
        if got != want:
            return False, f"{kind}: shifted {got}, want {want}"
    return True, "7 shellings verified; shiftedness as predicted"


def _random_graph(rng, m):
    edges = [e for e in combinations(range(m), 2) if rng.random() < 0.5]
    return SimplicialComplex.from_simplices(edges, {i: str(i) for i in range(m)})


def criterion_8(ws):
    """Graph cross-validation of the searcher against the closed formula,
    the bound chain, and the frozen zeta/theta values."""
    rng = random.Random(20240901)
    graphs = [_random_graph(rng, rng.randint(2, 6)) for _ in range(50)]
    for idx, G in enumerate(graphs):
        reports = buchstaber.buchstaber_bounds(G, (2, 3))
        for p, rep in reports.items():
            r, _ = buchstaber.min_rank_search(G, p)
            if r is None:
                return False, f"graph {idx}: no map found at p={p}"
            formula = rep["s_fp"]
            if G.n_vertices - r != formula:
                return False, (
                    f"graph {idx}, p={p}: search s={G.n_vertices - r} != "
                    f"formula {formula}"
                )
            if not (rep["lower"] <= formula <= rep["upper_dim"]):
                return False, f"graph {idx}, p={p}: bound chain violated"
    for (p, q, n), want in ZETA_THETA_FROZEN.items():
        b = buchstaber.zeta_theta_bounds(p, q, n)
        if b != want:
            return False, f"zeta/theta({p},{q},{n}): {tuple(b)} != {want}"
    return True, "50 graphs x 2 primes agree; zeta/theta frozen values match"


def _minor_gcd_unimodular(rows):
    """Independent oracle: full rank and gcd of all maximal minors equal 1."""
    m = len(rows)
    n = len(rows[0])
    if m > n:
        return False
    g = 0
    for cols in combinations(range(n), m):
        sub = [[row[c] for c in cols] for row in rows]
        g = gcd(g, abs(_det(sub)))
        if g == 1:
            return True
    return False


def _det(a):
    a = [row[:] for row in a]
    n = len(a)
    sign = 1
    prev = 1
    for c in range(n - 1):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            sign = -sign
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                a[i][j] = (a[i][j] * a[c][c] - a[i][c] * a[c][j]) // prev
            a[i][c] = 0
        prev = a[c][c]
    return sign * a[-1][-1]


def criterion_9(ws):
    """Z-side: unimodularity vs the minor-gcd oracle, the line order laws,
    and the truncated matchings with their explicit critical family."""
    samples = ws.oracle_samples
    rng = random.Random(573)
    for trial in range(samples):
        n = rng.randint(1, 5)
        m = rng.randint(1, n)
        rows = [
            tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(m)
        ]
        got = zlattice.is_unimodular_z(rows)
        want = _minor_gcd_unimodular([list(r) for r in rows])
        if got != want:
            return False, f"trial {trial}: {rows} snf={got} minors={want}"

    keys = list(map(zlattice.z_line_key, zlattice.enumerate_z_lines(2, 6)))
    if any(a >= b for a, b in zip(keys, keys[1:])):
        return False, "enumeration is not strictly increasing"
    prev = zlattice.enumerate_z_lines(2, 1)
    for norm in range(2, 7):
        cur = zlattice.enumerate_z_lines(2, norm)
        if cur[: len(prev)] != prev:
            return False, f"prefix stability fails at norm {norm}"
        prev = cur

    last_betti = -1
    for norm in (2, 3, 4):
        K = zlattice.build_truncated_universal_z("K", 2, norm)
        pivots = list(range(K.n_vertices))
        M = morse.greedy_matching(K, pivots)  # raises on a cycle
        crit = set(M.critical)
        for k, simp in zlattice.sigma_family(K, 2):
            if simp not in crit:
                return False, f"sigma_{k} not critical at norm {norm}"
        prof = homology.reduced_homology(K)
        if prof.betti[0] != 0:
            return False, f"truncation at norm {norm} is disconnected"
        if prof.betti[1] <= last_betti:
            return False, f"top Betti not growing at norm {norm}"
        last_betti = prof.betti[1]
    return True, f"{samples} oracle trials, order laws, truncated W matchings"


def criterion_10(ws):
    """Quasitoric pair validation with the det-2 mutant and its witness."""
    dual = SimplicialComplex.from_simplices(
        [(0, 1), (0, 2), (1, 2)], {0: "1", 1: "2", 2: "3"}
    )
    pair = zlattice.QuasitoricPair(dual, ((1, 0, -1), (0, 1, -1)))
    ok, _ = zlattice.validate_quasitoric_pair(pair)
    if not ok:
        return False, "the CP^2-style pair should validate"
    mutant = zlattice.QuasitoricPair(dual, ((2, 0, -1), (0, 1, -1)))
    ok, witness = zlattice.validate_quasitoric_pair(mutant)
    if ok or witness != (0, 1):
        return False, f"mutant: expected failure at facet (0, 1), got {ok}, {witness}"
    return True, "pair accepted; mutant rejected at the right facet"


def criterion_11(ws):
    """Bhargava identities on every face size, closed-form valuations, seed
    invariance of the greedy p-ordering, nested-set divisibility."""
    for p in (2, 3, 5):
        for k in range(1, 6):
            if not bhargava.check_identities(p, k):
                return False, f"identity fails at p={p}, k={k}"
    for q in (2, 3):
        S = bhargava.geometric(1, q)
        # the greedy on 1, q, ..., q^11 derives nu_k for k <= 5 independently
        powers = bhargava.explicit([q**i for i in range(12)])
        for p in (2, 3, 5, 7, 11, 13):
            for k in range(6):
                closed = bhargava.generalized_factorial(S, k)
                want = 1
                while closed % p == 0:
                    want *= p
                    closed //= p
                if not want == bhargava.nu_k(S, p, k) == bhargava.nu_k(powers, p, k):
                    return False, f"nu mismatch: S=powers of {q}, p={p}, k={k}"
    # the greedy runs only on explicit sets; a window of Z keeps nu_3 = 2
    window = bhargava.explicit(range(-12, 13))
    for seed in (0, 1, 5, 12, 24):
        if bhargava.nu_k(window, 2, 3, start_index=seed) != 2:
            return False, f"seed {seed}: nu_3([-12, 12], 2) != 2"
    rng = random.Random(99)
    for _ in range(10):
        big = sorted(rng.sample(range(-30, 31), 8))
        small = sorted(rng.sample(big, 4))
        fs = bhargava.generalized_factorials(bhargava.explicit(big), 3)
        ft = bhargava.generalized_factorials(bhargava.explicit(small), 3)
        for k in range(1, 4):
            if ft[k] % fs[k]:
                return False, f"divisibility fails for T={small} in S={big}, k={k}"
    return True, "identities, closed forms, invariance, divisibility all hold"


def criterion_12(ws):
    """Documented boundary: the statements about the full infinite complexes
    over Z (their wedge homotopy types and the infinite shelling order) are
    not desk-computable; the finite substitute is the truncation suite in
    criterion 9 together with the line-order laws."""
    return True, (
        "infinite-object statements are represented by the truncation and "
        "line-order property suites of criterion 9, not re-proved"
    )


CRITERIA = (
    ("01 f-vector formula vs enumeration", criterion_1),
    ("02 link f-vector formulas", criterion_2),
    ("03 face-count recurrences", criterion_3),
    ("04 Morse matchings and critical census", criterion_4),
    ("05 wedge homology verification", criterion_5),
    ("06 Reisner / Cohen-Macaulay", criterion_6),
    ("07 shellings and shiftedness", criterion_7),
    ("08 Buchstaber cross-validation", criterion_8),
    ("09 Z-lattice suite", criterion_9),
    ("10 quasitoric pairs", criterion_10),
    ("11 Bhargava identities", criterion_11),
    ("12 infinite-object boundary (documented)", criterion_12),
)


def run_all(fp_pairs=FP_PAIRS, oracle_samples=ORACLE_SAMPLES):
    """Run every criterion; returns a list of (name, ok, detail, seconds).
    A criterion's seconds include building the workspace complexes it is
    the first to use."""
    ws = Workspace(fp_pairs, oracle_samples)
    results = []
    for name, fn in CRITERIA:
        started = time.perf_counter()
        ok, detail = fn(ws)
        results.append((name, ok, detail, time.perf_counter() - started))
    return results
