import random
from itertools import combinations

import pytest

from unicomplex import buchstaber
from unicomplex.errors import InputError, ResourceLimitError
from unicomplex.buchstaber import (
    COLORING_VERTEX_CAP,
    buchstaber_bounds,
    ceil_log,
    chromatic_number,
    is_nondegenerate_map,
    min_rank_search,
    zeta_theta_bounds,
)
from unicomplex.fplin import enumerate_lines_fp
from oracles import brute_chromatic_number
from unicomplex.scomplex import SimplicialComplex
from unicomplex.universal_fp import UniversalKind, build_universal


def graph(edges, n):
    return SimplicialComplex.from_simplices(
        [tuple(e) for e in edges], {i: i for i in range(n)}
    )


def complete(n):
    return graph([(i, j) for i in range(n) for j in range(i + 1, n)], n)


def test_ceil_log_exact_boundaries():
    assert ceil_log(2, 1) == 0
    assert ceil_log(2, 2) == 1
    assert ceil_log(2, 4) == 2
    assert ceil_log(2, 5) == 3
    assert ceil_log(3, 9) == 2
    assert ceil_log(3, 10) == 3
    with pytest.raises(InputError):
        ceil_log(2, 0)


def test_chromatic_complete_and_cycle():
    assert chromatic_number(complete(4))[0] == 4
    assert chromatic_number(complete(3))[0] == 3
    five_cycle = graph([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], 5)
    gamma, coloring = chromatic_number(five_cycle)
    assert gamma == 3
    for a, b in five_cycle.sorted_simplices(1):
        assert coloring[a] != coloring[b]


def test_chromatic_k23_skeleton_complete():
    K = build_universal(UniversalKind("K", 2, 3))
    edges = SimplicialComplex.from_simplices(K.sorted_simplices(1), K.labels)
    assert chromatic_number(edges)[0] == 7


def test_chromatic_cap():
    with pytest.raises(ResourceLimitError):
        chromatic_number(graph([], 30))


def cycle(m):
    return graph([(i, i + 1) for i in range(m - 1)] + [(0, m - 1)], m)


def grotzsch():
    # the Mycielskian of the 5-cycle: triangle-free, chromatic number 4
    ring = [(i, i + 1) for i in range(4)] + [(0, 4)]
    shadows = [(j, 5 + i) for i in range(5) for j in ((i - 1) % 5, (i + 1) % 5)]
    return graph(ring + shadows + [(5 + i, 10) for i in range(5)], 11)


def test_chromatic_number_matches_brute_force():
    rng = random.Random(11)
    graphs = [graph([e for e in combinations(range(m), 2)
                     if rng.random() < density], m)
              for m, density in ((rng.randint(1, 8), rng.random())
                                 for _ in range(200))]
    # odd cycles and the Groetzsch graph have a clique bound below gamma
    graphs += [cycle(5), cycle(7)]
    graphs.append(grotzsch())
    for G in graphs:
        gamma, coloring = chromatic_number(G)
        assert gamma == brute_chromatic_number(G.n_vertices, G.sorted_simplices(1))
        assert sorted(coloring) == G.vertices()
        assert set(coloring.values()) == set(range(gamma))
        assert all(coloring[a] != coloring[b] for a, b in G.sorted_simplices(1))


def test_chromatic_number_above_the_clique_bound():
    # frozen: the Groetzsch graph has no triangle, so its clique bound is 2
    assert chromatic_number(grotzsch())[0] == 4


def test_s_fp_graph_examples():
    def s_fp(G, p):
        rep = buchstaber_bounds(G, [p])[p]
        assert rep["method"] == "formula" and rep["s_fp"] == rep["upper_log"]
        return rep["s_fp"]

    assert s_fp(complete(3), 2) == 1
    assert s_fp(complete(4), 3) == 2
    assert s_fp(graph([], 5), 2) == 4


@pytest.mark.parametrize("call", [
    lambda G: min_rank_search(G, 4),
    lambda G: buchstaber_bounds(G, [4]),
    lambda G: buchstaber_bounds(G, [2, 4]),
    lambda G: zeta_theta_bounds(4, 2, 2),
    lambda G: zeta_theta_bounds(2, 4, 2),
], ids=["min_rank_search", "bounds", "bounds_second_prime", "zeta_p", "zeta_q"])
def test_entry_points_refuse_a_composite(call):
    with pytest.raises(InputError, match="not a prime: 4"):
        call(complete(3))


def test_bounds_check_every_prime_before_coloring():
    # 25 vertices are past the coloring cap, which only a call with good
    # primes reaches
    over_cap = graph([], COLORING_VERTEX_CAP + 1)
    with pytest.raises(InputError, match="not a prime: 4"):
        buchstaber_bounds(over_cap, [2, 4])
    with pytest.raises(ResourceLimitError):
        buchstaber_bounds(over_cap, [2, 3])
    # an empty complex is refused after the first prime's check
    empty = graph([], 0)
    with pytest.raises(InputError, match="at least one vertex"):
        buchstaber_bounds(empty, [2, 4])
    with pytest.raises(InputError, match="not a prime: 4"):
        buchstaber_bounds(empty, [4, 2])
    # the layers below the bounds take an empty complex
    assert chromatic_number(empty) == (0, {})
    assert min_rank_search(empty, 2) == (None, None)


def test_min_rank_search_examples():
    r, witness = min_rank_search(complete(3), 2)
    assert r == 2 and witness is not None
    tetra = SimplicialComplex.from_simplices(
        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)], {i: i for i in range(4)}
    )
    assert min_rank_search(tetra, 2)[0] == 3
    point = graph([], 1)
    assert min_rank_search(point, 2)[0] == 1


def test_min_rank_search_starts_at_dim_plus_one(monkeypatch):
    # a top facet needs dim K + 1 independent lines, so no smaller rank is
    # tried, and each search still ends at the least rank
    ranks = []

    def recording(r, p):
        ranks.append(r)
        return enumerate_lines_fp(r, p)

    monkeypatch.setattr(buchstaber, "enumerate_lines_fp", recording)
    tetra = SimplicialComplex.from_simplices(
        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)], {i: i for i in range(4)})
    for K, p, want in ((tetra, 2, 3), (complete(3), 2, 2), (graph([], 1), 2, 1),
                       (build_universal(UniversalKind("K", 2, 2)), 3, 2),
                       (build_universal(UniversalKind("K", 2, 3)), 2, 3)):
        ranks.clear()
        assert min_rank_search(K, p)[0] == want
        assert ranks == list(range(K.dim + 1, want + 1))
    ranks.clear()
    assert min_rank_search(tetra, 2, r_max=2) == (None, None)
    assert ranks == []


def test_min_rank_search_none_within_cap():
    # K_8 needs 8 lines; F_2^2 has 3 and F_2^3 has 7, so r = 4 is minimal,
    # and capping at 3 must report no map
    k8 = complete(8)
    with pytest.raises(ResourceLimitError):
        min_rank_search(complete(13), 2)
    with pytest.raises(ResourceLimitError, match="r_max 5 exceeds the cap 4"):
        min_rank_search(k8, 2, r_max=5)
    assert min_rank_search(k8, 2, r_max=3) == (None, None)
    assert min_rank_search(k8, 2, r_max=4)[0] == 4


def test_graph_search_matches_formula():
    rng = random.Random(3)
    for _ in range(25):
        m = rng.randint(2, 6)
        edges = [
            (i, j)
            for i in range(m)
            for j in range(i + 1, m)
            if rng.random() < 0.5
        ]
        G = graph(edges, m)
        for p in (2, 3):
            r, _ = min_rank_search(G, p)
            assert r is not None
            assert G.n_vertices - r == buchstaber_bounds(G, [p])[p]["s_fp"]


def test_graph_map_exists_iff_enough_lines():
    # the 1-skeleton of the target is complete, so a graph maps into rank r
    # exactly when its chromatic number is at most the number of lines
    G = complete(4)
    gamma = 4
    for p in (2, 3):
        for r in (1, 2, 3):
            lines = (p**r - 1) // (p - 1)
            found, _ = min_rank_search(G, p, r_max=r)
            assert (found is not None) == (gamma <= lines)


def test_search_witness_nondegenerate_and_injective():
    # a nondegenerate map between universal complexes is injective on vertices
    src = build_universal(UniversalKind("K", 2, 2))
    r, witness = min_rank_search(src, 3, r_max=2)
    assert r == 2
    lines = enumerate_lines_fp(r, 3)
    assert is_nondegenerate_map(src, witness, lines, 3)
    images = [witness[v] for v in src.vertices()]
    assert len(set(images)) == len(images)
    # a facet sent to one line twice is degenerate
    assert not is_nondegenerate_map(src, dict.fromkeys(src.vertices(), 0), lines, 3)


def test_bounds_report_examples():
    rep = buchstaber_bounds(complete(4), [3])[3]
    assert (rep["lower"], rep["upper_log"], rep["upper_dim"]) == (0, 2, 2)
    assert rep["s_fp"] == 2
    rep = buchstaber_bounds(graph([(0, 1), (0, 2), (1, 2)], 3), [2])[2]
    assert (rep["lower"], rep["upper_log"], rep["upper_dim"]) == (0, 1, 1)
    point = buchstaber_bounds(graph([], 1), [2])[2]
    assert (point["lower"], point["s_fp"], point["upper_dim"]) == (0, 0, 0)


def test_bounds_on_a_graph_color_it_once(monkeypatch):
    # one chromatic number serves every prime, and on a graph the formula
    # is the log bound, so it needs no other; the search needs none either
    calls = []

    def counting(K):
        calls.append(K)
        return chromatic_number(K)

    monkeypatch.setattr(buchstaber, "chromatic_number", counting)
    G = graph([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], 5)
    tetra = SimplicialComplex.from_simplices(
        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)], {i: i for i in range(4)})
    for K, method in ((G, "formula"), (tetra, "search")):
        calls.clear()
        reports = buchstaber_bounds(K, [2, 3, 5])
        assert len(calls) == 1
        assert list(reports) == [2, 3, 5]
        for p, rep in reports.items():
            assert rep["method"] == method
            assert rep == buchstaber_bounds(K, [p])[p]


def test_bounds_chain_across_primes():
    # pigeonhole consistency: values across primes stay inside the chain
    G = complete(5)
    values = set()
    for rep in buchstaber_bounds(G, [2, 3, 5, 7]).values():
        assert rep["lower"] <= rep["s_fp"] <= rep["upper_dim"]
        values.add(rep["s_fp"])
    rep = buchstaber_bounds(G, [2])[2]
    assert len(values) <= rep["upper_dim"] - rep["lower"] + 1


def test_bounds_search_method_on_higher_complex():
    tetra = SimplicialComplex.from_simplices(
        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)], {i: i for i in range(4)}
    )
    rep = buchstaber_bounds(tetra, [2])[2]
    assert rep["method"] == "search"
    assert rep["s_fp"] == 4 - 3


def test_bounds_report_has_s_fp_only_when_computed():
    # 13 vertices are past the search cap, so only the bounds are reported
    K = SimplicialComplex.from_simplices([(0, 1, 2)] + [(v,) for v in range(3, 13)],
                                         {i: i for i in range(13)})
    assert buchstaber_bounds(K, [2]) == {2: {"m": 13, "gamma": 3, "lower": 10, "upper_dim": 10,
                                           "upper_log": 11, "method": "bounds-only"}}


def test_zeta_theta_examples():
    b = zeta_theta_bounds(2, 3, 2)
    assert (b.zeta_lower, b.zeta_upper) == (2, 3)
    b = zeta_theta_bounds(3, 2, 2)
    assert (b.theta_lower, b.theta_upper) == (3, 4)
    b = zeta_theta_bounds(3, 2, 3)
    assert (b.zeta_lower, b.zeta_upper) == (4, 13)
    with pytest.raises(InputError, match="n must be >= 1"):
        zeta_theta_bounds(2, 3, 0)


def test_zeta_theta_sanity_and_monotonicity():
    def bounds(b):
        return (b.zeta_lower, b.zeta_upper, b.theta_lower, b.theta_upper)

    for p, q in ((2, 2), (3, 3), (2, 5)):
        for n in (1, 2, 3):
            b = zeta_theta_bounds(p, q, n)
            assert b.zeta_lower <= b.zeta_upper
            assert b.theta_lower <= b.theta_upper
            nxt = zeta_theta_bounds(p, q, n + 1)
            assert all(x <= y for x, y in zip(bounds(b), bounds(nxt)))
