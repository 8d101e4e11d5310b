import random

import pytest

from unicomplex.errors import InputError
from unicomplex.homology import reduced_homology
from unicomplex.morse import (
    check_acyclic,
    critical_cells,
    greedy_matching,
    hasse_edges,
    matching_from_pairs,
    morse_summary,
    pivot_free_facet_count,
)
from unicomplex.scomplex import SimplicialComplex, parse_facet_list
from unicomplex.universal_fp import (
    UniversalKind,
    build_universal,
    sphere_count,
    standard_pivot_ids,
)
from unicomplex.zlattice import build_truncated_universal_z

from oracles import hasse_band_cycle, rescan_greedy_matching


def labeled(n):
    return {i: str(i) for i in range(n)}


def triangle_boundary():
    return SimplicialComplex.from_simplices([(0, 1), (0, 2), (1, 2)], labeled(3))


def test_hasse_edge_counts():
    K = build_universal(UniversalKind("K", 2, 3))
    edges = list(hasse_edges(K))
    fv = K.f_vector().entries
    assert len(edges) == sum((d + 1) * fv[d + 1] for d in range(1, K.dim + 1))
    for up, down in edges:
        assert len(up) == len(down) + 1
        assert set(down) < set(up)


def test_matching_k32_hand_trace():
    # pivots L(e_1), L(e_2); the critical cells are the vertex L(e_1) and
    # the three edges among the non-pivot lines and L(e_2)
    K = build_universal(UniversalKind("K", 3, 2))
    M = greedy_matching(K, standard_pivot_ids(K))
    cells = critical_cells(M)
    e1 = standard_pivot_ids(K)[0]
    assert cells[0] == [(e1,)]
    assert len(cells[1]) == 3
    assert sphere_count(UniversalKind("K", 3, 2)).count == 3


def test_matching_x32_census():
    K = build_universal(UniversalKind("X", 3, 2))
    M = greedy_matching(K, standard_pivot_ids(K))
    cells = critical_cells(M)
    assert len(cells[0]) == 1 and len(cells[1]) == 17


def test_matching_k23_census():
    K = build_universal(UniversalKind("K", 2, 3))
    M = greedy_matching(K, standard_pivot_ids(K))
    cells = critical_cells(M)
    assert {d: len(c) for d, c in cells.items()} == {0: 1, 2: 13}


def test_matching_validity_and_determinism():
    K = build_universal(UniversalKind("K", 3, 2))
    piv = standard_pivot_ids(K)
    a = greedy_matching(K, piv)
    b = greedy_matching(K, piv)
    assert a == b
    seen = set()
    for lo, hi in a.pairs:
        assert len(hi) == len(lo) + 1 and set(lo) < set(hi)
        added = (set(hi) - set(lo)).pop()
        assert added in piv
        assert lo not in seen and hi not in seen
        seen.update((lo, hi))


def test_unknown_pivot_rejected():
    K = triangle_boundary()
    with pytest.raises(InputError):
        greedy_matching(K, [99])


def test_greedy_matchings_acyclic():
    for variant, p, n in (("K", 2, 2), ("K", 2, 3), ("K", 3, 2), ("K", 3, 3)):
        kind = UniversalKind(variant, p, n)
        K = build_universal(kind)
        M = greedy_matching(K, standard_pivot_ids(K))
        ok, cycle = check_acyclic(K, M)
        assert ok and cycle is None


def test_classic_cyclic_matching_detected():
    K = triangle_boundary()
    M = matching_from_pairs(
        K, [((0,), (0, 1)), ((1,), (1, 2)), ((2,), (0, 2))]
    )
    ok, cycle = check_acyclic(K, M)
    assert not ok
    assert len(cycle) == 6
    _assert_closed_v_path(cycle, M.pairs)


def test_empty_matching_acyclic():
    K = triangle_boundary()
    M = matching_from_pairs(K, [])
    ok, cycle = check_acyclic(K, M)
    assert ok
    assert set(M.critical) == set(K.all_simplices())


def test_cone_fully_collapsible():
    # cone over two points: every positive-dimension simplex pairs away
    K = SimplicialComplex.from_simplices([(0, 1), (0, 2)], labeled(3))
    M = greedy_matching(K, [0])
    cells = critical_cells(M)
    assert set(cells) == {0}
    assert cells[0] == [(0,)]


def test_link_matching_in_x23():
    # pivots e_2, e_3 on the link of the vertex e_1
    kind = UniversalKind("X", 2, 3)
    X = build_universal(kind)
    pivots = standard_pivot_ids(X)
    L = X.link((pivots[0],))
    M = greedy_matching(L, pivots[1:])
    ok, _ = check_acyclic(L, M)
    assert ok
    census = {d: len(c) for d, c in critical_cells(M).items()}
    assert census == {0: 1, 1: sphere_count(kind, link_dim=0).count}


def test_link_matching_in_k33():
    kind = UniversalKind("K", 3, 3)
    K = build_universal(kind)
    pivots = standard_pivot_ids(K)
    L = K.link((pivots[0],))
    M = greedy_matching(L, pivots[1:])
    ok, _ = check_acyclic(L, M)
    assert ok
    census = {d: len(c) for d, c in critical_cells(M).items()}
    want = sphere_count(kind, link_dim=0).count
    assert census == {0: 1, 1: want}
    assert reduced_homology(L).betti == (0, want)


def test_morse_summary_k23():
    K = build_universal(UniversalKind("K", 2, 3))
    s = morse_summary(K, standard_pivot_ids(K))
    assert s.euler == 14
    assert s.critical_by_dim == {0: 1, 2: 13}
    assert s.euler_consistent and not s.middle_critical


def test_morse_summary_x32():
    K = build_universal(UniversalKind("X", 3, 2))
    s = morse_summary(K, standard_pivot_ids(K))
    assert s.euler == -16
    assert s.critical_by_dim == {0: 1, 1: 17}


def test_morse_summary_point():
    K = build_universal(UniversalKind("K", 5, 1))
    s = morse_summary(K, standard_pivot_ids(K))
    assert s.critical_by_dim == {0: 1}
    assert s.euler_consistent


def test_prose_census_recorded_not_asserted():
    # operational critical count (3) differs from the pivot-free facet
    # census (1) on K(F_3^2); both are exposed
    K = build_universal(UniversalKind("K", 3, 2))
    piv = standard_pivot_ids(K)
    M = greedy_matching(K, piv)
    assert len(critical_cells(M)[1]) == 3
    assert pivot_free_facet_count(K, piv) == 1



def _oracle_cases():
    rng = random.Random(2017)
    for variant in ("X", "K"):
        for p, n in ((2, 3), (3, 2), (3, 3), (2, 4), (5, 2)):
            K = build_universal(UniversalKind(variant, p, n))
            yield f"{variant}({p},{n}) standard", K, standard_pivot_ids(K)
            for i in range(2):
                perm = list(K.labels)
                rng.shuffle(perm)
                yield f"{variant}({p},{n}) permutation {i}", K, perm
    for kind in (UniversalKind("X", 2, 3), UniversalKind("K", 3, 3)):
        K = build_universal(kind)
        pivots = standard_pivot_ids(K)
        yield f"link in {kind}", K.link((pivots[0],)), pivots[1:]
    for n, norm in ((2, 6), (3, 3)):
        K = build_truncated_universal_z("K", n, norm)
        yield f"K(Z^{n}) norm {norm}", K, list(range(K.n_vertices))
        perm = list(range(K.n_vertices))
        rng.shuffle(perm)
        yield f"K(Z^{n}) norm {norm} permutation", K, perm
    S = parse_facet_list("a b c\nb c d\nc d e\na e\nf\n")
    yield "string labels", S, [1, 3, 0, 4]
    K = build_universal(UniversalKind("K", 2, 3))
    piv = standard_pivot_ids(K)
    yield "repeated pivot", K, [piv[1], piv[0], piv[1], piv[2], piv[0]]


def test_greedy_matching_equals_rescan_oracle():
    for name, K, pivots in _oracle_cases():
        M = greedy_matching(K, pivots)
        pairs, critical = rescan_greedy_matching(K, pivots)
        assert M.pairs == pairs, name
        assert M.critical == critical, name


def _random_covering_matching(K, rng, keep):
    """Covering pairs taken greedily from the shuffled Hasse edges, each
    kept with probability `keep`."""
    edges = list(hasse_edges(K))
    rng.shuffle(edges)
    matched, pairs = set(), []
    for up, down in edges:
        if up in matched or down in matched or rng.random() > keep:
            continue
        matched.update((up, down))
        pairs.append((down, up))
    return pairs


def _assert_closed_v_path(cycle, pairs):
    """cycle = [lo_0, up_0, ..., lo_(r-1), up_(r-1)] with every (lo_i, up_i)
    a pair, all lo_i distinct and of one dimension, and lo_(i+1 mod r) a
    codimension-1 face of up_i other than lo_i."""
    up_of = dict(pairs)
    lows, ups = cycle[0::2], cycle[1::2]
    assert len(cycle) % 2 == 0 and len(lows) >= 2
    assert len(set(lows)) == len(lows)
    assert len({len(lo) for lo in lows}) == 1
    for i, (lo, up) in enumerate(zip(lows, ups)):
        assert up_of[lo] == up
        nxt = lows[(i + 1) % len(lows)]
        assert nxt != lo and len(nxt) + 1 == len(up) and set(nxt) < set(up)


def _acyclicity_cases():
    rng = random.Random(1998)
    for t in range(60):
        n = rng.randint(4, 8)
        facets = [
            tuple(sorted(rng.sample(range(n), rng.randint(2, min(4, n)))))
            for _ in range(rng.randint(2, 7))
        ]
        K = SimplicialComplex.from_simplices(facets, labeled(n))
        yield f"random {t}", K, _random_covering_matching(K, rng, rng.choice((0.3, 1.0)))
        perm = list(range(n))
        rng.shuffle(perm)
        yield f"random {t} greedy", K, greedy_matching(K, perm[:rng.randint(1, n)]).pairs
    for kind in (UniversalKind("K", 2, 3), UniversalKind("K", 3, 3),
                 UniversalKind("X", 3, 2), UniversalKind("X", 2, 3)):
        K = build_universal(kind)
        yield f"{kind} standard", K, greedy_matching(K, standard_pivot_ids(K)).pairs
        yield f"{kind} random", K, _random_covering_matching(K, rng, 1.0)
    K = build_truncated_universal_z("K", 3, 4)
    yield "K(Z^3) norm 4 all vertices", K, greedy_matching(K, list(range(K.n_vertices))).pairs


def test_check_acyclic_against_hasse_band_oracle():
    verdicts = []
    for name, K, pairs in _acyclicity_cases():
        ok, cycle = check_acyclic(K, matching_from_pairs(K, pairs))
        assert ok == (hasse_band_cycle(K, pairs) is None), name
        if ok:
            assert cycle is None, name
        else:
            _assert_closed_v_path(cycle, pairs)
        verdicts.append(ok)
    assert verdicts.count(True) >= 15 and verdicts.count(False) >= 15
