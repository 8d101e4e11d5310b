"""Reduced integral simplicial homology via exact Smith normal form.

Boundary matrices are sparse rows {row: {col: +-1}} with the standard
alternating signs over the sorted vertex order, and an augmentation row for
d = 0 so that the resulting Betti numbers are reduced.  Every boundary
matrix goes through the same exact Smith normal form: +-1 pivots are
eliminated on the sparse rows first (boundary matrices are unit-heavy, and a
unit pivot needs no fill-correcting column work), a dense minimal-pivot
sweep finishes whatever non-unit block is left, and the divisibility chain
is repaired and checked.  Betti numbers and torsion are therefore exact in
every dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import InputError, ResourceLimitError

DEFAULT_SIMPLEX_BUDGET = 10**6


@dataclass(frozen=True)
class SNFResult:
    """Positive invariant factors d_1 | d_2 | ... ; rank is their count."""

    diagonal: tuple
    rank: int


@dataclass(frozen=True)
class HomologyProfile:
    betti: tuple  # reduced Betti numbers, dims 0..dim K
    torsion: tuple  # per-dimension tuples of torsion coefficients

    @property
    def torsion_free(self):
        return all(not t for t in self.torsion)


def boundary_matrix(K, d):
    """The boundary operator C_d -> C_{d-1} as sparse rows {row: {col: +-1}}
    indexed by the sorted simplices; for d = 0 the augmentation row."""
    if d < 0 or d > K.dim:
        raise InputError(f"boundary dimension {d} out of range [0, {K.dim}]")
    cols = K.sorted_simplices(d)
    if d == 0:
        return {0: dict.fromkeys(range(len(cols)), 1)}
    row_index = {s: i for i, s in enumerate(K.sorted_simplices(d - 1))}
    rows = {}
    for j, s in enumerate(cols):
        for k in range(len(s)):
            rows.setdefault(row_index[s[:k] + s[k + 1:]], {})[j] = -1 if k % 2 else 1
    return rows


# -- Smith normal form -------------------------------------------------------


def _dense_snf_diagonal(a):
    """Classic SNF sweep with minimal-absolute-value pivoting; returns the
    positive diagonal entries (no divisibility repair here)."""
    m = len(a)
    n = len(a[0]) if m else 0
    diag = []
    t = 0
    while t < min(m, n):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = a[i][j]
                if v and (best is None or abs(v) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        a[t], a[bi] = a[bi], a[t]
        for row in a:
            row[t], row[bj] = row[bj], row[t]
        while True:
            # clear column t with row operations, re-pivoting on remainders
            redo = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    if a[i][t] - q * a[t][t]:
                        a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                        a[t], a[i] = a[i], a[t]
                        redo = True
                        break
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            if redo:
                continue
            # clear row t with column operations
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    if a[t][j] - q * a[t][t]:
                        for row in a:
                            row[j] -= q * row[t]
                            row[t], row[j] = row[j], row[t]
                        redo = True
                        break
                    for row in a:
                        row[j] -= q * row[t]
            if not redo:
                break
        diag.append(abs(a[t][t]))
        t += 1
    return [d for d in diag if d]


def _fix_divisibility(diag):
    diag = sorted(diag)
    changed = True
    while changed:
        changed = False
        for i in range(len(diag)):
            for j in range(i + 1, len(diag)):
                if diag[j] % diag[i]:
                    g = gcd(diag[i], diag[j])
                    diag[i], diag[j] = g, diag[i] * diag[j] // g
                    changed = True
        diag.sort()
    return diag


def smith_normal_form(M):
    """Smith normal form of a sparse integer matrix {row: {col: value}}.

    The argument is not modified.  Unit entries are eliminated on a copy of
    the rows (with a Markowitz cost heuristic to limit fill-in); any
    remaining block is finished densely.  The result is invariant under
    row/column permutation of the input."""
    rows = {}
    colrows = {}
    for i, r in M.items():
        for j, v in r.items():
            if v:
                rows.setdefault(i, {})[j] = v
                colrows.setdefault(j, set()).add(i)
    units = {(i, j) for i, r in rows.items() for j, v in r.items() if v in (1, -1)}
    n_unit = 0
    while units:
        best = None
        best_cost = None
        seen = 0
        stale = []
        for pos in units:
            i, j = pos
            v = rows.get(i, {}).get(j, 0)
            if v not in (1, -1):
                # left behind by an earlier pivot's row or column
                stale.append(pos)
                continue
            cost = (len(rows[i]) - 1) * (len(colrows[j]) - 1)
            if best_cost is None or cost < best_cost:
                best, best_cost = pos, cost
            seen += 1
            if best_cost == 0 or seen >= 64:
                break
        units.difference_update(stale)
        if best is None:
            break
        pi, pj = best
        units.discard(best)
        s = rows[pi][pj]
        prow = rows[pi]
        for i in list(colrows[pj]):
            if i == pi:
                continue
            f = rows[i][pj] * s
            ri = rows[i]
            for j, v in prow.items():
                nv = ri.get(j, 0) - f * v
                if nv:
                    ri[j] = nv
                    colrows[j].add(i)
                    if nv in (1, -1):
                        units.add((i, j))
                else:
                    if j in ri:
                        del ri[j]
                        colrows[j].discard(i)
            if not ri:
                del rows[i]
        for j in prow:
            colrows[j].discard(pi)
            if not colrows[j]:
                del colrows[j]
        del rows[pi]
        n_unit += 1

    diag = [1] * n_unit
    if rows:
        live_rows = sorted(rows)
        live_cols = sorted({j for r in rows.values() for j in r})
        cindex = {j: k for k, j in enumerate(live_cols)}
        dense = [[0] * len(live_cols) for _ in live_rows]
        for k, i in enumerate(live_rows):
            for j, v in rows[i].items():
                dense[k][cindex[j]] = v
        diag.extend(_dense_snf_diagonal(dense))
    diag = _fix_divisibility(diag)
    for a, b in zip(diag, diag[1:]):
        if b % a:
            raise AssertionError("divisibility chain violated")
    return SNFResult(tuple(diag), len(diag))


# -- homology ---------------------------------------------------------------


def reduced_homology(K, budget=DEFAULT_SIMPLEX_BUDGET):
    """Reduced Betti numbers and torsion coefficients over Z.

    betti_d = f_d - rank(d_d) - rank(d_{d+1}); torsion of H_d is read off
    the invariant factors > 1 of d_{d+1}.  Every boundary matrix, whatever
    its size, goes through the exact Smith normal form, so both are exact
    in every dimension."""
    if K.dim < 0:
        return HomologyProfile((), ())
    if K.n_simplices > budget:
        raise ResourceLimitError(
            f"complex with {K.n_simplices} simplices exceeds homology budget {budget}"
        )
    dim = K.dim
    ranks = [0] * (dim + 2)
    torsion = [()] * (dim + 1)
    for d in range(dim + 1):
        snf = smith_normal_form(boundary_matrix(K, d))
        ranks[d] = snf.rank
        if d >= 1:
            torsion[d - 1] = tuple(v for v in snf.diagonal if v > 1)
    fv = K.f_vector().entries
    betti = tuple(fv[d + 1] - ranks[d] - ranks[d + 1] for d in range(dim + 1))
    if any(b < 0 for b in betti):
        raise AssertionError(f"negative Betti number computed: {betti}")
    return HomologyProfile(betti, tuple(torsion))


def reisner_check(K, orbit_sample=False, budget=DEFAULT_SIMPLEX_BUDGET):
    """Cohen-Macaulayness over every field, by the homological criterion:
    every link (including the whole complex, the link of the empty simplex)
    must have vanishing reduced homology below its top dimension, with no
    torsion there either.  Returns (True, None) or (False, (simplex, i)).

    With orbit_sample=True only the lexicographically first simplex of each
    dimension is checked, which is exhaustive up to symmetry for the
    vertex-transitive universal complexes."""
    targets = [()]
    for d in range(K.dim + 1):
        level = K.sorted_simplices(d)
        targets.extend(level[:1] if orbit_sample else level)
    for s in targets:
        L = K if s == () else K.link(s)
        top = L.dim
        if top <= 0:
            continue
        prof = reduced_homology(L, budget)
        for i in range(top):
            if prof.betti[i] or prof.torsion[i]:
                return False, (s, i)
    return True, None
