import copy
import json
import random
from itertools import chain, combinations

import pytest

from oracles import (
    boundary_matrix,
    component_count,
    determinantal_invariant_factors,
    rank_over_q_fractions,
)
from unicomplex import homology
from unicomplex.cli import dispatch
from unicomplex.homology import (
    reduced_homology,
    reisner_check,
    smith_normal_form,
)
from unicomplex.morse import Matching, check_acyclic, critical_census
from unicomplex.scomplex import (
    SimplicialComplex,
    euler_characteristic,
    format_facet_list,
    parse_facet_list,
)
from unicomplex.universal_fp import (
    UniversalKind,
    build_universal,
    formula_f_vector,
    sphere_count,
)


def labeled(n):
    return {i: str(i) for i in range(n)}


def circle():
    return SimplicialComplex.from_simplices([(0, 1), (0, 2), (1, 2)], labeled(3))


def rp2():
    facets = [
        (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
        (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5),
    ]
    return SimplicialComplex.from_simplices(facets, labeled(6))


def cells_of(K):
    """The simplices of K by `coreduce`'s cell id: the sorted levels, one
    after another."""
    return list(chain.from_iterable(map(K.sorted_simplices, range(K.dim + 1))))


def rp2_wedge(k):
    """k copies of rp2() glued at vertex 0."""
    facets = [
        tuple(sorted(v and 5 * c + v for v in f))
        for c in range(k)
        for f in rp2().facets()
    ]
    return SimplicialComplex.from_simplices(facets, labeled(5 * k + 1))


def moore_space_z7():
    """M(Z/7, 1) on 25 vertices: the ring b_k = a_(k mod 3), k = 0..20, runs
    seven times round the circle a0 a1 a2; a band joins it to the 21-gon c,
    which is coned off at z."""
    b = [f"a{k % 3}" for k in range(21)]
    c = [f"c{k}" for k in range(21)]
    facets = []
    for k in range(21):
        k1 = (k + 1) % 21
        facets += [(b[k], b[k1], c[k]), (b[k1], c[k], c[k1]), (c[k], c[k1], "z")]
    return facets


def moore_space_and_simplex_skeleton():
    """Facet-list text of M(Z/7, 1) taken disjoint with the 2-skeleton of a
    25-vertex simplex: 2363 triangles."""
    facets = moore_space_z7() + list(combinations([f"s{i}" for i in range(25)], 3))
    return "".join(" ".join(f) + "\n" for f in facets)


def sparse(rows):
    return {i: {j: v for j, v in enumerate(row) if v} for i, row in enumerate(rows)}


def dense(M, m, n):
    a = [[0] * n for _ in range(m)]
    for i, row in M.items():
        for j, v in row.items():
            a[i][j] = v
    return a


def test_boundary_triangle():
    M = dense(boundary_matrix(circle(), 1), 3, 3)
    for j in range(3):
        col = [M[i][j] for i in range(3)]
        assert sorted(col) == [-1, 0, 1]


def test_boundary_augmentation():
    assert boundary_matrix(circle(), 0) == {0: {0: 1, 1: 1, 2: 1}}


def test_boundary_out_of_range():
    with pytest.raises(ValueError):
        boundary_matrix(circle(), 2)


def test_chain_complex_identity():
    K = build_universal(UniversalKind("K", 2, 3))
    for d in range(K.dim):
        lower = boundary_matrix(K, d)
        upper = boundary_matrix(K, d + 1)
        for row in lower.values():
            composed = {}
            for j, a in row.items():
                for k, b in upper.get(j, {}).items():
                    composed[k] = composed.get(k, 0) + a * b
            assert not any(composed.values())


def test_snf_gcd_lcm_oracle():
    assert smith_normal_form(sparse([[2, 0], [0, 3]])) == (1, 6)


def test_snf_identity_and_zero():
    eye = sparse([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert smith_normal_form(eye) == smith_normal_form(eye)
    assert smith_normal_form(eye) == (1, 1, 1)
    for zero in (sparse([[0, 0], [0, 0]]), {}, {0: {1: 0}}):
        assert smith_normal_form(zero) == ()


def test_snf_leaves_argument_unchanged():
    rng = random.Random(3)
    for _ in range(20):
        M = sparse([[rng.randint(-3, 3) for _ in range(6)] for _ in range(5)])
        before = copy.deepcopy(M)
        smith_normal_form(M)
        assert M == before


def test_snf_permutation_invariance():
    rng = random.Random(5)
    base = [[rng.randint(-4, 4) for _ in range(5)] for _ in range(4)]
    want = smith_normal_form(sparse(base))
    for _ in range(10):
        rows = base[:]
        rng.shuffle(rows)
        cols = list(range(5))
        rng.shuffle(cols)
        shuffled = [[row[c] for c in cols] for row in rows]
        assert smith_normal_form(sparse(shuffled)) == want


def test_snf_divisibility_chain_random():
    rng = random.Random(17)
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        factors = smith_normal_form(sparse(rows))
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0
        assert len(factors) == rank_over_q_fractions(rows)


def test_snf_matches_determinantal_divisors():
    rng = random.Random(10)
    non_units = (0, 0, 2, -2, 3, -3, 4, -4, 6, -6, 9, -9)
    for t in range(400):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        pool = non_units if t % 4 else non_units + (1, -1)
        rows = [[rng.choice(pool) for _ in range(n)] for _ in range(m)]
        want = determinantal_invariant_factors(rows)
        assert smith_normal_form(sparse(rows)) == want, rows
    # diagonals long enough to give the divisibility repair long chains
    entries = (2, -3, 4, -5, 6, 9, -10, 12, 15, -25, 30, 49)
    for k in (6, 7, 8) * 8:
        diag = [rng.choice(entries) for _ in range(k)]
        rows = [[diag[i] if i == j else 0 for j in range(k)] for i in range(k)]
        want = determinantal_invariant_factors(rows)
        assert smith_normal_form(sparse(rows)) == want, rows


def test_rank_q_equals_snf_rank_on_boundaries():
    K = build_universal(UniversalKind("X", 3, 2))
    fv = K.f_vector()
    for d in range(K.dim + 1):
        M = boundary_matrix(K, d)
        rows = dense(M, fv[d], fv[d + 1])
        assert rank_over_q_fractions(rows) == len(smith_normal_form(M))


def test_homology_circle():
    prof = reduced_homology(circle())
    assert prof.betti == (0, 1)
    assert prof.torsion_free


def test_homology_sphere():
    K = SimplicialComplex.from_simplices(
        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)], labeled(4)
    )
    assert reduced_homology(K).betti == (0, 0, 1)


def test_homology_torsion_rp2():
    prof = reduced_homology(rp2())
    assert prof.betti == (0, 0, 0)
    assert prof.torsion == ((), (2,), ())


def test_homology_universal_wedges():
    for variant, p, n in (("K", 3, 2), ("K", 2, 3), ("X", 3, 2)):
        kind = UniversalKind(variant, p, n)
        prof = reduced_homology(build_universal(kind))
        assert prof.betti[-1] == sphere_count(formula_f_vector(kind))
        assert not any(prof.betti[:-1])
        assert prof.torsion_free


def test_homology_torsion_rp2_wedge():
    K = rp2_wedge(300)
    cells = cells_of(K)
    faces, partner, stamp = homology.coreduce(K)
    edges, triangles = (
        [c for c, b in enumerate(partner) if b < 0 and len(cells[c]) == size]
        for size in (2, 3)
    )
    # the Morse boundary from dimension 2 to 1 is a 300 x 300 non-unit block
    block = homology._morse_boundary(faces, partner, stamp, edges, triangles)
    assert len(edges) == len(triangles) == len(block) == 300
    assert all(abs(v) > 1 for row in block.values() for v in row.values())
    prof = reduced_homology(K)
    assert prof.betti == (0, 0, 0)
    assert prof.torsion == ((), (2,) * 300, ())


def test_euler_consistency():
    for K in (circle(), rp2()):
        prof = reduced_homology(K)
        chi = euler_characteristic(K.f_vector())
        assert sum((-1) ** d * b for d, b in enumerate(prof.betti)) == chi - 1


def test_torsion_found_in_2363_triangles(tmp_path):
    text = moore_space_and_simplex_skeleton()
    K = parse_facet_list(text)
    assert K.f_vector()[-1] == 2363
    prof = reduced_homology(K)
    assert prof.betti == (1, 0, 2024)
    assert prof.torsion == ((), (7,), ())

    facets = tmp_path / "moore.facets"
    facets.write_text(text)
    code, report = dispatch(["homology", "--facets", str(facets)])
    assert code == 0
    results = json.loads(report)["results"]
    assert results["torsion_free"] is False
    assert results["torsion"] == [[], ["7"], []]
    assert "exact" not in results


def test_complete_graph_k70():
    K = SimplicialComplex.from_simplices(combinations(range(70), 2), labeled(70))
    assert K.f_vector() == (1, 70, 2415)
    assert assert_matches_full_boundaries(K).betti == (0, 2346)


def test_reisner_universal_true():
    ok, witness = reisner_check(build_universal(UniversalKind("K", 3, 2)))
    assert ok and witness is None
    ok, _ = reisner_check(build_universal(UniversalKind("X", 2, 3)), orbit_sample=True)
    assert ok


def test_reisner_disjoint_edges_false():
    K = SimplicialComplex.from_simplices([(0, 1), (2, 3)], labeled(4))
    ok, witness = reisner_check(K)
    assert not ok
    assert witness == ((), 0)


def every_link_reisner(K):
    """Reisner's criterion by the sweep over the link of every simplex,
    each link built and its dimension read afterwards."""
    targets = [()]
    for d in range(K.dim + 1):
        targets.extend(K.sorted_simplices(d))
    for s in targets:
        L = K if s == () else K.link(s)
        if L.dim <= 0:
            continue
        prof = reduced_homology(L)
        for i in range(L.dim):
            if prof.betti[i] or prof.torsion[i]:
                return False, (s, i)
    return True, None


def test_reisner_matches_the_sweep_over_every_link():
    rng = random.Random(17)
    # the empty complex and two isolated vertices have no link that can fail
    named = [rp2(), parse_facet_list(
        "".join(" ".join(f) + "\n" for f in moore_space_z7())),
        parse_facet_list(""), parse_facet_list("a\nb\n")]
    randoms = [random_complex(rng) for _ in range(300)]
    verdicts = set()
    for K in named + randoms:
        want = every_link_reisner(K)
        assert reisner_check(K) == want
        assert reisner_check(K, profile=reduced_homology(K)) == want
        verdicts.add((K.is_pure(), want[0], want[1] is not None and want[1][0] != ()))
    # Cohen-Macaulay, failing at the whole complex, failing at a link
    assert verdicts >= {(True, True, False), (True, False, False), (True, False, True),
                        (False, False, False), (False, False, True)}
    assert reisner_check(rp2()) == (False, ((), 1))


def test_reisner_builds_no_link_that_cannot_fail(monkeypatch):
    real = SimplicialComplex.link
    asked = []

    def counting(K, s):
        asked.append((K.dim, len(s) - 1))
        return real(K, s)

    monkeypatch.setattr(SimplicialComplex, "link", counting)
    rng = random.Random(5)
    for K in [build_universal(UniversalKind("K", 3, 3)), rp2()] + [
            random_complex(rng) for _ in range(50)]:
        reisner_check(K)
    assert asked and all(d <= dim - 2 for dim, d in asked)
    assert {(dim, d) for dim, d in asked if d == dim - 2} >= {(2, 0), (3, 1)}


@pytest.mark.parametrize("argv", [
    ["--variant", "K", "--p", "3", "--n", "3"],
    ["--variant", "X", "--p", "2", "--n", "3"],
    ["--facets", "tetrahedron boundary"],
])
def test_homology_reisner_coreduces_the_complex_once(argv, monkeypatch, tmp_path):
    if argv[0] == "--facets":
        path = tmp_path / "sphere.facets"
        path.write_text("a b c\na b d\na c d\nb c d\n")
        argv = ["--facets", str(path)]
    real = homology.coreduce
    sizes = []

    def counting(K):
        sizes.append(K.f_vector())
        return real(K)

    monkeypatch.setattr(homology, "coreduce", counting)
    code, text = dispatch(["homology", "--reisner", *argv])
    assert code == 0
    fv = tuple(map(int, json.loads(text)["results"]["f_vector"]))
    assert sizes.count(fv) == 1 and len(sizes) > 1


@pytest.mark.parametrize("name", ["K-3-3", "X-2-4", "moore"])
def test_coreduce_face_ids_delete_the_kth_vertex(name):
    # the Morse boundary gives the face at position k the sign (-1)^k
    if name == "moore":
        K = parse_facet_list(moore_space_and_simplex_skeleton())
    else:
        variant, p, n = name.split("-")
        K = build_universal(UniversalKind(variant, int(p), int(n)))
    cells = cells_of(K)
    faces, _, _ = homology.coreduce(K)
    assert len(cells) == len(faces) == K.n_simplices
    for c, s in enumerate(cells):
        assert [cells[a] for a in faces[c]] == (
            [s[:k] + s[k + 1:] for k in range(len(s))] if len(s) > 1 else [])


# -- the coreduction / Morse-complex path against the full boundaries ---------


def full_boundary_homology(K):
    """(betti, torsion) from the SNF of every full boundary matrix."""
    fv = K.f_vector()
    snfs = [smith_normal_form(boundary_matrix(K, d)) for d in range(K.dim + 1)]
    ranks = [len(snf) for snf in snfs] + [0]
    betti = tuple(fv[d + 1] - ranks[d] - ranks[d + 1] for d in range(K.dim + 1))
    torsion = tuple(
        tuple(v for v in snfs[d + 1] if v > 1) for d in range(K.dim)
    ) + ((),)
    return betti, torsion


def relabelled(K, rng):
    """K with its vertex ids shuffled."""
    ids = K.vertices()
    perm = ids[:]
    rng.shuffle(perm)
    new = dict(zip(ids, perm))
    facets = [tuple(sorted(new[v] for v in f)) for f in K.facets()]
    return SimplicialComplex.from_simplices(facets, {new[v]: K.labels[v] for v in ids})


def random_complex(rng):
    """Up to 24 random faces on <= 8 vertices, most of them of the top size."""
    n = rng.randint(1, 8)
    top = rng.randint(0, 3)

    def size():
        return top + 1 if rng.random() < 0.7 else rng.randint(1, top + 1)

    facets = [
        tuple(sorted(rng.sample(range(n), min(n, size()))))
        for _ in range(rng.randint(1, 24))
    ]
    return SimplicialComplex.from_simplices(facets, labeled(n))


def assert_matches_full_boundaries(K):
    prof = reduced_homology(K)
    assert (prof.betti, prof.torsion) == full_boundary_homology(K)
    return prof


def test_morse_path_matches_full_boundaries_on_named_complexes():
    rng = random.Random(41)
    assert assert_matches_full_boundaries(circle()).betti == (0, 1)
    for _ in range(20):
        assert assert_matches_full_boundaries(relabelled(rp2(), rng)).torsion == (
            (), (2,), ())
    moore = parse_facet_list(moore_space_and_simplex_skeleton())
    assert assert_matches_full_boundaries(relabelled(moore, rng)).torsion == (
        (), (7,), ())


def test_morse_path_matches_full_boundaries_on_universal_links():
    for variant, p, n in (("K", 3, 3), ("X", 3, 3), ("K", 2, 4), ("X", 2, 3)):
        K = build_universal(UniversalKind(variant, p, n))
        for d in range(K.dim):
            assert_matches_full_boundaries(K.link(K.sorted_simplices(d)[0]))


def test_morse_path_matches_full_boundaries_on_random_complexes():
    rng = random.Random(2024)
    seen = set()
    for _ in range(300):
        K = random_complex(rng)
        prof = assert_matches_full_boundaries(K)
        assert reduced_homology(relabelled(K, rng)) == prof
        seen.add((K.dim, prof.betti[-1] > 0, any(prof.betti[:-1])))
    # homology in the top and in a lower dimension, in every dimension
    assert {d for d, top, _ in seen if top} == {0, 1, 2, 3}
    assert {d for d, _, lower in seen if lower} == {1, 2, 3}


def coreduction_matching(K):
    """The pairs and critical cells of `coreduce` as a Matching."""
    cells = cells_of(K)
    _, partner, _ = homology.coreduce(K)
    # ids grow with dimension, so the smaller id of a pair is its lower cell
    pairs = tuple(sorted((cells[a], cells[b]) for a, b in enumerate(partner) if b > a))
    critical = tuple(cells[c] for c, b in enumerate(partner) if b < 0)
    return Matching(pairs, critical)


@pytest.mark.parametrize("name", ["X-3-3", "K-2-4", "K-5-3", "moore"])
def test_coreduction_matching_is_acyclic(name):
    if name == "moore":
        kind = None
        K = parse_facet_list(moore_space_and_simplex_skeleton())
    else:
        variant, p, n = name.split("-")
        kind = UniversalKind(variant, int(p), int(n))
        K = build_universal(kind)
    matching = coreduction_matching(K)
    assert check_acyclic(K, matching.pairs) == (True, None)
    census = critical_census(matching)
    assert sum((-1) ** d * c for d, c in census.items()) == euler_characteristic(
        K.f_vector())
    if kind is not None:
        assert census == {0: 1, K.dim: sphere_count(formula_f_vector(kind))}


def test_census_mismatch_is_a_self_check_failure(monkeypatch):
    real = homology.coreduce

    def unmatch_one_lower_cell(K):
        faces, partner, stamp = real(K)
        a = next(c for c, b in enumerate(partner) if b > c)
        partner[a] = -1  # counted critical while its partner stays matched
        return faces, partner, stamp

    monkeypatch.setattr(homology, "coreduce", unmatch_one_lower_cell)
    with pytest.raises(AssertionError, match="critical census"):
        reduced_homology(circle())
    code, report = dispatch(["homology", "--variant", "K", "--p", "2", "--n", "3"])
    assert code == 1
    assert report.startswith("self-check failed: critical census")


def test_frontier_k73_exact():
    kind = UniversalKind("K", 7, 3)
    prof = reduced_homology(build_universal(kind))
    assert prof.betti == (0, 0, 24528) == (0, 0, sphere_count(formula_f_vector(kind)))
    assert prof.torsion_free


# -- one critical vertex per component, and the critical split ----------------


def recording_morse_boundaries(monkeypatch):
    """Record (d, lower, upper) for each Morse boundary that
    `reduced_homology` forms, d being the dimension of the upper cells."""
    real = homology._morse_boundary
    calls = []

    def recording(faces, partner, stamp, lower, upper):
        calls.append((len(faces[upper[0]]) - 1, list(lower), list(upper)))
        return real(faces, partner, stamp, lower, upper)

    monkeypatch.setattr(homology, "_morse_boundary", recording)
    return calls


def test_no_boundary_into_a_lone_critical_vertex(monkeypatch, tmp_path):
    calls = recording_morse_boundaries(monkeypatch)
    code, _ = dispatch(["homology", "--variant", "X", "--p", "7", "--n", "2"])
    assert code == 0
    k33 = tmp_path / "k33.facets"
    k33.write_text(format_facet_list(build_universal(UniversalKind("K", 3, 3))))
    code, text = dispatch(["homology", "--reisner", "--facets", str(k33)])
    assert code == 0 and json.loads(text)["results"]["cohen_macaulay"] is True
    assert all(d != 1 for d, _, _ in calls)


@pytest.mark.parametrize("facets, betti, formed", [
    ([(0, 1), (2, 3)], (1, 0), []),  # no critical edge, so nothing to form
    ([(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)], (1, 2), []),
], ids=["two disjoint edges", "two disjoint circles"])
def test_two_critical_vertices_match_full_boundaries(facets, betti, formed, monkeypatch):
    K = SimplicialComplex.from_simplices(facets, labeled(max(map(max, facets)) + 1))
    calls = recording_morse_boundaries(monkeypatch)
    assert assert_matches_full_boundaries(K).betti == betti
    assert [d for d, _, _ in calls] == formed


def disjoint_circles(k, size):
    """k disjoint cycles of `size` vertices each."""
    edges = [(c * size + i, c * size + (i + 1) % size)
             for c in range(k) for i in range(size)]
    return SimplicialComplex.from_simplices([tuple(sorted(e)) for e in edges],
                                            labeled(k * size))


def disjoint_union(A, B):
    """A and B side by side, B's vertex ids shifted past A's."""
    shift = max(A.vertices(), default=-1) + 1
    facets = list(A.facets()) + [tuple(v + shift for v in f) for f in B.facets()]
    return SimplicialComplex.from_simplices(
        facets, {**A.labels, **{v + shift: str(v + shift) for v in B.vertices()}})


def test_one_critical_vertex_per_component():
    rng = random.Random(25)
    previous = random_complex(rng)
    disconnected = 0
    for _ in range(2000):
        K = random_complex(rng)
        for L in (K, disjoint_union(previous, K)):
            cells = cells_of(L)
            _, partner, _ = homology.coreduce(L)
            critical_vertices = sum(
                1 for c, b in enumerate(partner) if b < 0 and len(cells[c]) == 1)
            components = component_count(L)
            assert critical_vertices == components
            disconnected += components > 1
        previous = K
    assert disconnected > 1000


def test_disconnected_complexes_match_full_boundaries():
    prof = assert_matches_full_boundaries(disjoint_circles(3, 4))
    assert prof.betti == (2, 3) and component_count(disjoint_circles(3, 4)) == 3
    moore = parse_facet_list(moore_space_and_simplex_skeleton())
    assert component_count(moore) == 2
    assert assert_matches_full_boundaries(moore).torsion == ((), (7,), ())


def test_connected_graphs_match_full_boundaries():
    X72 = build_universal(UniversalKind("X", 7, 2))
    assert assert_matches_full_boundaries(X72).betti[0] == 0
    K24 = build_universal(UniversalKind("K", 2, 4))
    for e in K24.sorted_simplices(1):
        L = K24.link(e)
        assert L.dim == 1
        assert assert_matches_full_boundaries(L).betti[0] == 0


@pytest.mark.parametrize("name", ["moore", "rp2 wedge", "links"])
def test_critical_split_by_dimension(name, monkeypatch):
    if name == "moore":
        complexes = [parse_facet_list(moore_space_and_simplex_skeleton())]
    elif name == "rp2 wedge":
        complexes = [rp2_wedge(5)]
    else:
        rp2s = rp2_wedge(2)
        K = build_universal(UniversalKind("K", 2, 4))
        # the link of a cone point of the suspension of rp2() is rp2()
        # itself, whose boundary from dimension 2 is formed; the link of
        # the wedge point is two disjoint hexagons
        suspension = SimplicialComplex.from_simplices(
            [f + (c,) for f in rp2().facets() for c in (6, 7)], labeled(8))
        complexes = [suspension.link((6,)), rp2s.link(rp2s.sorted_simplices(0)[0]),
                     K.link(K.sorted_simplices(0)[3]), K.link(K.sorted_simplices(1)[-1])]
    calls = recording_morse_boundaries(monkeypatch)
    formed = 0
    for K in complexes:
        cells = cells_of(K)
        _, partner, _ = homology.coreduce(K)
        by_cell = [[c for c, b in enumerate(partner) if b < 0 and len(cells[c]) == d + 1]
                   for d in range(K.dim + 1)]
        assert homology._critical_by_dim(partner, K.f_vector()) == by_cell
        # and those are the lists each Morse boundary is formed between
        del calls[:]
        reduced_homology(K)
        for d, lower, upper in calls:
            assert (lower, upper) == (by_cell[d - 1], by_cell[d])
        formed += len(calls)
    assert formed
