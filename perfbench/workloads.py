"""Workloads of the benchmark: seeded inputs, job lists and answer checks.

A workload is a list of jobs.  A job is one argv for
`unicomplex.cli.dispatch`, the exit code it must return and a check on its
report.  The seed sets every choice the inputs leave open (vertex labels of
facet files, pivot permutations, quasitoric pairs); the program sees only the
generated files and the argv.

The expected answers are frozen here and each has a derivation that does not
use the library: the closed-form f-vectors below, the wedge-of-spheres count
as the reduced Euler characteristic, Legendre's formula for k!, and for the
Z side values cross-checked by brute-force determinant enumeration (see
NOTES.md).  Checks read only report fields that the planned refactors keep;
`exact` and `flavor` are never read.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import factorial, prod
from pathlib import Path


class CheckError(Exception):
    """A report that does not match the expected answer."""


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple
    exit_code: int
    check: object  # callable(results dict) raising CheckError


# -- independent derivations ------------------------------------------------


def closed_form_f_vector(variant, p, n):
    """(f_-1, f_0, ..., f_{n-1}) of X(F_p^n) or K(F_p^n): ordered independent
    (i+1)-tuples, divided by the orderings and, for K, by the scalings."""
    scale = p - 1 if variant == "K" else 1
    return (1,) + tuple(
        prod(p**n - p**j for j in range(i + 1)) // (factorial(i + 1) * scale ** (i + 1))
        for i in range(n)
    )


def reduced_euler(fv):
    """sum_{d >= -1} (-1)^d f_d for an f-vector that starts at f_-1."""
    return sum((-1) ** (i - 1) * f for i, f in enumerate(fv))


def legendre(k, p):
    """Exponent of p in k!."""
    e, q = 0, p
    while q <= k:
        e += k // q
        q *= p
    return e


# Top reduced Betti number of each universal complex used below.  Each one is
# the absolute reduced Euler characteristic of the closed form, because the
# complex is a wedge of (n-1)-spheres; `_self_check` asserts the agreement.
TOP_BETTI = {("X", 3, 3): 1585, ("K", 2, 4): 511, ("K", 3, 3): 168, ("X", 7, 2): 961}
MORSE_CENSUS_K34 = {"0": "1", "3": "54561"}
SHELLING_FACETS_K53 = 3875
ZBUILD_K3_NORM5 = ["1", "97", "3465", "11509"]
ZCHECK_CENSUS = {(3, 3): {"0": "1", "2": "400"}, (2, 14): {"0": "1", "1": "126"}}
ZCHECK_F_VECTOR = {(3, 3): ["1", "25", "237", "613"], (2, 14): ["1", "128", "253"]}
CROSS_POLYTOPE_S_FP = 4  # m - n for the boundary of the 4-cross-polytope


def _self_check():
    for (v, p, n), top in TOP_BETTI.items():
        if abs(reduced_euler(closed_form_f_vector(v, p, n))) != top:
            raise AssertionError(f"frozen top Betti of {v}(F_{p}^{n}) disagrees")
    if closed_form_f_vector("K", 5, 3)[-1] != SHELLING_FACETS_K53:
        raise AssertionError("frozen facet count of K(F_5^3) disagrees")
    if reduced_euler(closed_form_f_vector("K", 3, 4)) != -int(MORSE_CENSUS_K34["3"]):
        raise AssertionError("frozen Morse census of K(F_3^4) disagrees")


_self_check()


# -- checks -------------------------------------------------------------------


def _expect(cond, what):
    if not cond:
        raise CheckError(what)


def _ints(values):
    return [int(x) for x in values]


def _census_euler(critical):
    return sum((-1) ** int(d) * int(c) for d, c in critical.items())


def check_homology(variant, p, n, reisner):
    fv = closed_form_f_vector(variant, p, n)
    top = TOP_BETTI[(variant, p, n)]

    def check(r):
        _expect(_ints(r["betti"]) == [0] * (n - 1) + [top], f"betti {r['betti']}")
        _expect(all(t == [] for t in r["torsion"]), f"torsion {r['torsion']}")
        _expect(r["torsion_free"] is True, "torsion_free")
        _expect(tuple(_ints(r["f_vector"])) == fv, f"f_vector {r['f_vector']}")
        if reisner:
            _expect(r.get("cohen_macaulay") is True, "cohen_macaulay")

    return check


def check_morse(variant, p, n, census=None, pivots=None):
    """Standard schedule: the frozen census.  A seed-permuted schedule has no
    frozen census, so it is checked by invariants: the matching is acyclic,
    it covers every simplex once, and the census's Euler sum equals chi."""
    fv = closed_form_f_vector(variant, p, n)
    chi = reduced_euler(fv) + 1

    def check(r):
        _expect(r["acyclic"] is True, "acyclic")
        crit = r["critical"]
        if census is not None:
            _expect(crit == census, f"critical {crit}")
        _expect(_census_euler(crit) == chi, f"census Euler sum {crit} != {chi}")
        covered = 2 * int(r["pairs"]) + sum(_ints(crit.values()))
        _expect(covered == sum(fv[1:]), f"pairs {r['pairs']} + critical {crit}")
        if pivots is not None:
            _expect(_ints(r["pivots"]) == list(pivots), "pivot schedule echo")

    return check


def check_shelling(r):
    _expect(r["verified"] is True, "verified")
    _expect(int(r["n_facets"]) == SHELLING_FACETS_K53, f"n_facets {r['n_facets']}")


def check_zbuild(r):
    _expect(r["f_vector"] == ZBUILD_K3_NORM5, f"f_vector {r['f_vector']}")
    _expect(int(r["n_simplices"]) == sum(_ints(ZBUILD_K3_NORM5[1:])), "n_simplices")


def check_zcheck(n, max_norm):
    census = ZCHECK_CENSUS[(n, max_norm)]

    def check(r):
        _expect(r["critical"] == census, f"critical {r['critical']}")
        _expect(r["f_vector"] == ZCHECK_F_VECTOR[(n, max_norm)], f"f_vector {r['f_vector']}")
        _expect(r["w_matching_acyclic"] is True, "w_matching_acyclic")
        sigmas = r["sigma_family_critical"]
        _expect(sigmas and all(v is True for v in sigmas.values()), f"sigmas {sigmas}")
        chi = _census_euler(census)
        _expect(int(r["euler"]) == chi, f"euler {r['euler']} != census {chi}")

    return check


def check_pair(n, m, bad_label=None):
    def check(r):
        _expect((int(r["n"]), int(r["m"])) == (n, m), f"shape {r['n']}x{r['m']}")
        if bad_label is None:
            _expect(r["pair_valid"] is True, "pair_valid")
        else:
            _expect(r["pair_valid"] is False, "mutant accepted")
            _expect(bad_label in r["failing_facet"], f"witness {r['failing_facet']}")

    return check


def check_bhargava(k_max, primes):
    def check(r):
        for k in range(k_max + 1):
            e = r[f"k{k}"]
            _expect(int(e["factorial"]) == factorial(k), f"{k}!")
            for p in primes:
                _expect(int(e[f"nu_p{p}"]) == p ** legendre(k, p), f"nu_{k} at {p}")

    return check


def check_buchstaber(r):
    e = r["p2"]
    _expect(int(e["m"]) == 8, f"m {e['m']}")
    _expect(int(e["s_fp"]) == CROSS_POLYTOPE_S_FP, f"s_fp {e.get('s_fp')}")


# -- seeded input generation ------------------------------------------------


def _universal(variant, p, n):
    return ["--variant", variant, "--p", str(p), "--n", str(n)]


def _write_relabelled(path, variant, p, n, rng):
    """Facet list of a universal complex with its vertices relabelled by a
    seeded permutation of 0..m-1 (which also permutes the parsed vertex ids)."""
    from unicomplex.universal_fp import UniversalKind, build_universal

    K = build_universal(UniversalKind(variant, p, n))
    new = list(range(K.n_vertices))
    rng.shuffle(new)
    lines = [" ".join(str(new[v]) for v in f) for f in K.facets()]
    path.write_text("\n".join(lines) + "\n")


def _cross_polytope_facets(n, labels):
    """Facets of the boundary of the n-cross-polytope; vertex +i is
    labels[i], vertex -i is labels[n + i]."""
    return [
        [labels[i + n * ((mask >> i) & 1)] for i in range(n)]
        for mask in range(2**n)
    ]


def _random_unimodular(n, rng, steps=12):
    """Product of random elementary integer row operations (det 1)."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    return u


def _write_pair(path, n, rng, mutate_label=None):
    """Quasitoric pair over the dual of the n-cube (the n-cross-polytope).
    lambda(+i) = e_i and lambda(-i) = -e_i + (terms in e_j, j < i): every facet
    minor is triangular with diagonal +-1.  A random unimodular matrix then
    mixes the rows, which keeps every minor at +-1.  The mutant doubles one
    column, so each facet through that vertex gets determinant +-2."""
    labels = list(range(1, 2 * n + 1))
    rng.shuffle(labels)
    cols = {}
    for i in range(n):
        cols[labels[i]] = [int(j == i) for j in range(n)]
        cols[labels[n + i]] = [
            -1 if j == i else (rng.randint(-2, 2) if j < i else 0) for j in range(n)
        ]
    u = _random_unimodular(n, rng)
    cols = {lab: [sum(u[r][k] * c[k] for k in range(n)) for r in range(n)]
            for lab, c in cols.items()}
    if mutate_label is not None:
        cols[mutate_label] = [2 * x for x in cols[mutate_label]]
    facets = "\n".join(" ".join(map(str, f)) for f in _cross_polytope_facets(n, labels))
    rows = "\n".join(" ".join(str(cols[lab][r]) for lab in sorted(cols)) for r in range(n))
    path.write_text(facets + "\n\n" + rows + "\n")


def fp_homology(workdir: Path, rng):
    x33 = workdir / "x33.facets"
    k33 = workdir / "k33.facets"
    _write_relabelled(x33, "X", 3, 3, rng)
    _write_relabelled(k33, "K", 3, 3, rng)
    return [
        Job("homology X(F_3^3)", ("homology", *_universal("X", 3, 3)), 0,
            check_homology("X", 3, 3, False)),
        Job("homology --reisner K(F_2^4)",
            ("homology", "--reisner", *_universal("K", 2, 4)), 0,
            check_homology("K", 2, 4, True)),
        Job("homology --facets X(F_3^3)", ("homology", "--facets", str(x33)), 0,
            check_homology("X", 3, 3, False)),
        Job("homology --reisner --facets K(F_3^3)",
            ("homology", "--reisner", "--facets", str(k33)), 0,
            check_homology("K", 3, 3, True)),
        Job("homology X(F_7^2)", ("homology", *_universal("X", 7, 2)), 0,
            check_homology("X", 7, 2, False)),
    ]


def fp_morse_shelling(workdir: Path, rng):
    jobs = [
        Job("morse K(F_3^4)", ("morse", *_universal("K", 3, 4)), 0,
            check_morse("K", 3, 4, census=MORSE_CENSUS_K34)),
    ]
    for variant, p, n in (("K", 5, 3), ("X", 3, 3)):
        pivots = list(range(closed_form_f_vector(variant, p, n)[1]))
        rng.shuffle(pivots)
        jobs.append(Job(
            f"morse --pivots {variant}(F_{p}^{n})",
            ("morse", *_universal(variant, p, n), "--pivots", ",".join(map(str, pivots))),
            0, check_morse(variant, p, n, pivots=pivots)))
    jobs.append(Job("shelling K(F_5^3)", ("shelling", *_universal("K", 5, 3)), 0,
                    check_shelling))
    return jobs


def z_lattice(workdir: Path, rng):
    n = 4
    good, bad = workdir / "good.pair", workdir / "bad.pair"
    cross = workdir / "cross4.facets"
    pair_seed = rng.randrange(2**32)
    _write_pair(good, n, random.Random(pair_seed))
    mutant = str(rng.randint(1, 2 * n))
    _write_pair(bad, n, random.Random(pair_seed), mutate_label=int(mutant))
    labels = list(range(1, 2 * n + 1))
    rng.shuffle(labels)
    cross.write_text(
        "\n".join(" ".join(map(str, f)) for f in _cross_polytope_facets(n, labels)) + "\n")
    primes = (2, 3, 5, 7)
    return [
        Job("build --ring z K(Z^3) norm 5",
            ("build", "--ring", "z", "--variant", "K", "--n", "3", "--max-norm", "5"),
            0, check_zbuild),
        Job("zcheck n=3 norm 3", ("zcheck", "--n", "3", "--max-norm", "3"), 0,
            check_zcheck(3, 3)),
        Job("zcheck n=2 norm 14", ("zcheck", "--n", "2", "--max-norm", "14"), 0,
            check_zcheck(2, 14)),
        Job("zcheck --pair valid", ("zcheck", "--pair", str(good)), 0,
            check_pair(n, 2 * n)),
        Job("zcheck --pair det-2 mutant", ("zcheck", "--pair", str(bad)), 1,
            check_pair(n, 2 * n, bad_label=mutant)),
        Job("bhargava integers k=24",
            ("bhargava", "--set", "integers", "--k", "24",
             "--primes", ",".join(map(str, primes))),
            0, check_bhargava(24, primes)),
        Job("buchstaber cross-polytope", ("buchstaber", "--facets", str(cross),
                                          "--primes", "2"), 0, check_buchstaber),
    ]


WORKLOADS = {
    "fp_homology": fp_homology,
    "fp_morse_shelling": fp_morse_shelling,
    "z_lattice": z_lattice,
}


def make_jobs(workload, seed, workdir: Path):
    """Generate the workload's input files under `workdir`; return its jobs."""
    return WORKLOADS[workload](workdir, random.Random(f"{workload}:{seed}"))
