#!/usr/bin/env python3
"""Re-derive the frozen Z-side f-vectors of workloads.py without the library.

    python3 perfbench/derive_z.py

Enumerates the lines of Z^n (primitive vectors up to sign) with 1-norm at
most N, and counts the k-subsets whose k x k minors have gcd 1, i.e. that
span a direct summand.  Prints each f-vector next to the frozen one and
exits non-zero on a mismatch.  Takes a few seconds.
"""

from itertools import combinations, product
from math import gcd

import workloads


def lines(n, max_norm):
    out = []
    for c in product(range(-max_norm, max_norm + 1), repeat=n):
        if not any(c) or sum(map(abs, c)) > max_norm:
            continue
        g = 0
        for x in c:
            g = gcd(g, x)
        if g == 1 and next(x for x in c if x) > 0:
            out.append(c)
    return out


def det(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * det([r[:j] + r[j + 1:] for r in m[1:]])
               for j in range(len(m)))


def spans_summand(rows):
    g = 0
    for cols in combinations(range(len(rows[0])), len(rows)):
        g = gcd(g, det([[r[c] for c in cols] for r in rows]))
    return g == 1


def f_vector(n, max_norm):
    ls = lines(n, max_norm)
    fv = [1, len(ls)]
    for k in range(2, n + 1):
        fv.append(sum(1 for s in combinations(ls, k) if spans_summand(s)))
    return [str(f) for f in fv]


def main():
    frozen = {(3, 5): workloads.ZBUILD_K3_NORM5, **workloads.ZCHECK_F_VECTOR}
    ok = True
    for (n, max_norm), want in sorted(frozen.items()):
        got = f_vector(n, max_norm)
        ok = ok and got == want
        print(f"K(Z^{n}) norm <= {max_norm}: {got} (frozen {want})")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
