import hashlib
import random

import pytest

from unicomplex import morse
from unicomplex.errors import AcyclicityError, InputError
from unicomplex.homology import reduced_homology
from unicomplex.morse import (
    check_acyclic,
    critical_census,
    greedy_matching,
)
from unicomplex.scomplex import SimplicialComplex, parse_facet_list
from unicomplex.universal_fp import (
    UniversalKind,
    build_universal,
    formula_f_vector,
    sphere_count,
    standard_pivot_ids,
)
from unicomplex.zlattice import build_truncated_universal_z

from oracles import hasse_band_cycle, rescan_greedy_matching


def labeled(n):
    return {i: str(i) for i in range(n)}


def hasse_edges(K):
    """Directed covering edges sigma -> tau with tau a codimension-1 face."""
    for d in range(1, K.dim + 1):
        for s in K.sorted_simplices(d):
            for i in range(len(s)):
                yield s, s[:i] + s[i + 1:]


def critical_cells(matching):
    """Unmatched simplices partitioned by dimension."""
    by_dim = {}
    for s in matching.critical:
        by_dim.setdefault(len(s) - 1, []).append(s)
    return {d: sorted(cells) for d, cells in sorted(by_dim.items())}


def triangle_boundary():
    return SimplicialComplex.from_simplices([(0, 1), (0, 2), (1, 2)], labeled(3))


def test_hasse_edge_counts():
    K = build_universal(UniversalKind("K", 2, 3))
    edges = list(hasse_edges(K))
    fv = K.f_vector()
    assert len(edges) == sum((d + 1) * fv[d + 1] for d in range(1, K.dim + 1))
    for up, down in edges:
        assert len(up) == len(down) + 1
        assert set(down) < set(up)


def test_matching_k32_hand_trace():
    # pivots L(e_1), L(e_2); the critical cells are the vertex L(e_1) and
    # the three edges among the non-pivot lines and L(e_2)
    kind = UniversalKind("K", 3, 2)
    K = build_universal(kind)
    M = greedy_matching(K, standard_pivot_ids(kind))
    cells = critical_cells(M)
    e1 = standard_pivot_ids(kind)[0]
    assert cells[0] == [(e1,)]
    assert len(cells[1]) == 3
    assert sphere_count(formula_f_vector(kind)) == 3


def test_matching_x32_census():
    kind = UniversalKind("X", 3, 2)
    M = greedy_matching(build_universal(kind), standard_pivot_ids(kind))
    assert critical_census(M) == {0: 1, 1: 17}


def test_matching_k23_census():
    kind = UniversalKind("K", 2, 3)
    M = greedy_matching(build_universal(kind), standard_pivot_ids(kind))
    assert critical_census(M) == {0: 1, 2: 13}


def test_matching_validity_and_determinism():
    kind = UniversalKind("K", 3, 2)
    K = build_universal(kind)
    piv = standard_pivot_ids(kind)
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
        M = greedy_matching(K, standard_pivot_ids(kind))
        ok, cycle = check_acyclic(K, M.pairs)
        assert ok and cycle is None


def test_greedy_matching_raises_on_a_cycle(monkeypatch):
    cycle = [(0,), (0, 1), (1,), (1, 2)]
    monkeypatch.setattr(morse, "_closed_v_path", lambda *band: cycle)
    with pytest.raises(AcyclicityError) as err:
        greedy_matching(triangle_boundary(), [0])
    assert err.value.cycle == cycle


def test_classic_cyclic_matching_detected():
    K = triangle_boundary()
    pairs = [((0,), (0, 1)), ((1,), (1, 2)), ((2,), (0, 2))]
    ok, cycle = check_acyclic(K, pairs)
    assert not ok
    assert len(cycle) == 6
    _assert_closed_v_path(cycle, pairs)


def test_empty_matching_acyclic():
    K = triangle_boundary()
    M = greedy_matching(K, [])
    ok, cycle = check_acyclic(K, M.pairs)
    assert ok
    assert set(M.critical) == set(K.all_simplices())


@pytest.mark.parametrize("pairs,message", [
    ([((2, 0), (0, 1, 2))], "outside the complex"),
    ([((0, 3), (0, 1, 3))], "outside the complex"),
    ([((0,), (1, 2))], "not a covering pair"),
    ([((0,), (0, 1)), ((1,), (0, 1))], "two pairs"),
])
def test_check_acyclic_rejects_bad_pairs(pairs, message):
    K = SimplicialComplex.from_simplices([(0, 1, 2)], labeled(3))
    with pytest.raises(InputError, match=message):
        check_acyclic(K, pairs)


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
    pivots = standard_pivot_ids(kind)
    L = X.link((pivots[0],))
    M = greedy_matching(L, pivots[1:])
    ok, _ = check_acyclic(L, M.pairs)
    assert ok
    census = critical_census(M)
    assert census == {0: 1, 1: sphere_count(formula_f_vector(kind, link_dim=0))}


def test_link_matching_in_k33():
    kind = UniversalKind("K", 3, 3)
    K = build_universal(kind)
    pivots = standard_pivot_ids(kind)
    L = K.link((pivots[0],))
    M = greedy_matching(L, pivots[1:])
    ok, _ = check_acyclic(L, M.pairs)
    assert ok
    census = critical_census(M)
    want = sphere_count(formula_f_vector(kind, link_dim=0))
    assert census == {0: 1, 1: want}
    assert reduced_homology(L).betti == (0, want)


def test_standard_schedule_census_on_k32():
    # the standard schedule leaves one critical vertex and 3 critical edges
    # on K(F_3^2), one per sphere of the wedge
    kind = UniversalKind("K", 3, 2)
    K = build_universal(kind)
    M = greedy_matching(K, standard_pivot_ids(kind))
    assert critical_census(M) == {0: 1, 1: 3}



def _oracle_cases():
    rng = random.Random(2017)
    for variant in ("X", "K"):
        for p, n in ((2, 3), (3, 2), (3, 3), (2, 4), (5, 2)):
            kind = UniversalKind(variant, p, n)
            K = build_universal(kind)
            yield f"{variant}({p},{n}) standard", K, standard_pivot_ids(kind)
            for i in range(2):
                perm = list(K.labels)
                rng.shuffle(perm)
                yield f"{variant}({p},{n}) permutation {i}", K, perm
    for kind in (UniversalKind("X", 2, 3), UniversalKind("K", 3, 3)):
        K = build_universal(kind)
        pivots = standard_pivot_ids(kind)
        yield f"link in {kind}", K.link((pivots[0],)), pivots[1:]
    for n, norm in ((2, 6), (3, 3)):
        K = build_truncated_universal_z("K", n, norm)
        yield f"K(Z^{n}) norm {norm}", K, list(range(K.n_vertices))
        perm = list(range(K.n_vertices))
        rng.shuffle(perm)
        yield f"K(Z^{n}) norm {norm} permutation", K, perm
    S = parse_facet_list("a b c\nb c d\nc d e\na e\nf\n")
    yield "string labels", S, [1, 3, 0, 4]
    kind = UniversalKind("K", 2, 3)
    K = build_universal(kind)
    piv = standard_pivot_ids(kind)
    yield "repeated pivot", K, [piv[1], piv[0], piv[1], piv[2], piv[0]]
    # the star pass reads each level only up to the largest pivot
    kind = UniversalKind("K", 3, 3)
    K = build_universal(kind)
    yield "small last pivot", K, [2, 0, 1]
    yield "single pivot", K, [4]
    yield "last vertex alone", K, [K.n_vertices - 1]
    yield "empty schedule", K, []
    L = K.link((5,))
    ids = L.vertices()
    assert ids != list(range(len(ids)))  # the link keeps K's vertex ids
    yield "sparse link, small last pivot", L, [ids[1], ids[0]]
    yield "sparse link, last vertex alone", L, [ids[-1]]
    yield "sparse link, all vertices descending", L, ids[::-1]


def test_greedy_matching_equals_rescan_oracle():
    for name, K, pivots in _oracle_cases():
        M = greedy_matching(K, pivots)
        pairs, critical = rescan_greedy_matching(K, pivots)
        assert M.pairs == pairs, name
        assert M.critical == critical, name


def _position_cases():
    # all-vertex schedules on a Z truncation, and links, whose vertex ids
    # are a subset of the complex's and so are not positions in level 0
    K = build_truncated_universal_z("K", 3, 4)
    yield "K(Z^3) norm 4 all vertices", K, list(range(K.n_vertices))
    L = K.link(K.sorted_simplices(0)[2])
    yield "link of a vertex of K(Z^3) norm 4", L, list(reversed(L.vertices()))
    kind = UniversalKind("K", 2, 4)
    pivots = standard_pivot_ids(kind)
    yield (f"link of an edge in {kind}",
           build_universal(kind).link(sorted(pivots[:2])), pivots[2:])
    kind = UniversalKind("X", 3, 3)
    L = build_universal(kind).link((standard_pivot_ids(kind)[-1],))
    yield f"link of a vertex in {kind}, all vertices", L, L.vertices()


def test_position_matching_equals_rescan_on_z_and_links():
    for name, K, pivots in _position_cases():
        M = greedy_matching(K, pivots)
        pairs, critical = rescan_greedy_matching(K, pivots)
        assert M.pairs == pairs, name
        assert M.critical == critical, name
        assert M.pairs, name


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
        yield f"{kind} standard", K, greedy_matching(K, standard_pivot_ids(kind)).pairs
        yield f"{kind} random", K, _random_covering_matching(K, rng, 1.0)
    K = build_truncated_universal_z("K", 3, 4)
    yield "K(Z^3) norm 4 all vertices", K, greedy_matching(K, list(range(K.n_vertices))).pairs


def test_check_acyclic_against_hasse_band_oracle():
    verdicts = []
    for name, K, pairs in _acyclicity_cases():
        ok, cycle = check_acyclic(K, pairs)
        assert ok == (hasse_band_cycle(K, pairs) is None), name
        if ok:
            assert cycle is None, name
        else:
            _assert_closed_v_path(cycle, pairs)
        verdicts.append(ok)
    assert verdicts.count(True) >= 15 and verdicts.count(False) >= 15


def test_acyclicity_verdicts_and_witnesses_are_frozen():
    # every verdict and every witness cycle of the cases above, pinned:
    # 129 cases, 22 of them cyclic
    report = repr([(name, check_acyclic(K, pairs))
                   for name, K, pairs in _acyclicity_cases()])
    assert hashlib.sha256(report.encode()).hexdigest()[:16] == "1f453869ea91c2dc"
