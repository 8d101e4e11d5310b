import random
from collections import Counter
from itertools import combinations, product
from math import comb

import pytest

from unicomplex import shelling, universal_fp
from unicomplex.errors import InputError
from unicomplex.homology import reisner_check
from unicomplex.scomplex import SimplicialComplex
from unicomplex.shelling import (
    construct_shelling_fp,
    h_vector_from_f,
    is_shifted,
    shelling_h_vector,
)
from unicomplex.universal_fp import (
    UniversalKind,
    build_universal,
    formula_f_vector,
    sphere_count,
)
from unicomplex.verify import FP_PAIRS

from oracles import pairwise_first_non_shelling_step, quadratic_shift_labeling

UNIVERSAL_SHELLED = [
    ("K", 2, 2), ("K", 3, 2), ("K", 2, 3), ("K", 3, 3), ("K", 2, 4),
    ("X", 2, 2), ("X", 3, 2), ("X", 2, 3), ("X", 3, 3),
]


def labeled(n):
    return {i: str(i) for i in range(n)}


def triangle_boundary():
    return SimplicialComplex.from_simplices([(0, 1), (0, 2), (1, 2)], labeled(3))


def test_triangle_boundary_any_order():
    K = triangle_boundary()
    from itertools import permutations

    for perm in permutations([(0, 1), (0, 2), (1, 2)]):
        idx, _ = shelling_h_vector(K, perm)
        assert idx is None


def test_disjoint_edges_fail_at_two():
    K = SimplicialComplex.from_simplices([(0, 1), (2, 3)], labeled(4))
    idx, _ = shelling_h_vector(K, ((0, 1), (2, 3)))
    assert idx == 2


def test_order_sensitivity():
    path = SimplicialComplex.from_simplices([(0, 1), (1, 2), (2, 3)], labeled(4))
    good = ((0, 1), (1, 2), (2, 3))
    bad = ((0, 1), (2, 3), (1, 2))
    assert shelling_h_vector(path, good)[0] is None
    idx, _ = shelling_h_vector(path, bad)
    assert idx == 2


def test_verify_requires_pure_and_complete():
    impure = SimplicialComplex.from_simplices([(0, 1, 2), (3, 4)], labeled(5))
    with pytest.raises(InputError):
        shelling_h_vector(impure, ((0, 1, 2), (3, 4)))
    K = triangle_boundary()
    with pytest.raises(InputError):
        shelling_h_vector(K, ((0, 1), (0, 2)))
    with pytest.raises(InputError):
        shelling_h_vector(K, ((0, 1), (0, 1), (0, 2)))


@pytest.mark.parametrize("variant,p,n", UNIVERSAL_SHELLED + [("K", 5, 3)])
def test_constructed_shellings_verify(variant, p, n):
    kind = UniversalKind(variant, p, n)
    K = build_universal(kind)
    order = construct_shelling_fp(kind, K)
    assert len(order) == len(K.facets())
    idx, _ = shelling_h_vector(K, order)
    assert idx is None, f"failed at {idx}"


def test_h_vector_of_small_shellings():
    K = triangle_boundary()
    assert shelling_h_vector(K, ((0, 1), (0, 2), (1, 2))) == (None, (1, 1, 1))
    path = SimplicialComplex.from_simplices([(0, 1), (1, 2), (2, 3)], labeled(4))
    order = ((0, 1), (1, 2), (2, 3))
    assert shelling_h_vector(path, order) == (None, (1, 2, 0))
    assert h_vector_from_f((1, 3, 3)) == (1, 1, 1)
    assert h_vector_from_f((1, 4, 3)) == (1, 2, 0)


def test_construction_asserts_closed_form_h_vector(monkeypatch):
    kind = UniversalKind("K", 3, 2)
    K = build_universal(kind)
    # K(F_3^2): f = (1, 4, 6), h = (1, 2, 3), a wedge of 3 circles
    monkeypatch.setattr(shelling, "formula_f_vector", lambda kind: (1, 5, 6))
    with pytest.raises(AssertionError, match="h-vector"):
        construct_shelling_fp(kind, K)


def test_h_vector_top_entry_is_the_sphere_count():
    # so the h-vector check of a constructed shelling checks the sphere
    # count too
    for (p, n), variant in product(FP_PAIRS, "XK"):
        kind = UniversalKind(variant, p, n)
        for link_dim in (None, *range(n)):
            f = formula_f_vector(kind, link_dim)
            assert h_vector_from_f(f)[-1] == sphere_count(f)


def test_construction_forms_the_closed_form_once(monkeypatch):
    # the recursion is bounded by the built complex's simplex count; only
    # the final h-vector check reads the closed form
    kind = UniversalKind("K", 2, 4)
    K = build_universal(kind)
    real = universal_fp.formula_f_vector
    calls = []

    def counting(kind, link_dim=None):
        calls.append((kind, link_dim))
        return real(kind, link_dim)

    monkeypatch.setattr(universal_fp, "formula_f_vector", counting)
    monkeypatch.setattr(shelling, "formula_f_vector", counting)
    order = shelling._shell_ids("K", 2, 4, 0, K.n_simplices, {})
    assert calls == []
    assert construct_shelling_fp(kind, K) == order
    assert calls == [(kind, None)]


def _agrees_with_oracle(K, facets):
    idx, _ = shelling_h_vector(K, facets)
    want = pairwise_first_non_shelling_step(facets)
    assert idx == want, facets
    return want


@pytest.mark.parametrize("variant,p,n", UNIVERSAL_SHELLED)
def test_verify_matches_pairwise_oracle_on_universal(variant, p, n):
    kind = UniversalKind(variant, p, n)
    K = build_universal(kind)
    rng = random.Random(f"{variant}{p}{n}")
    constructed = list(construct_shelling_fp(kind, K))
    assert _agrees_with_oracle(K, constructed) is None
    for _ in range(4):
        perm = list(constructed)
        rng.shuffle(perm)
        _agrees_with_oracle(K, perm)
    # adjacent swaps of the constructed order, near the front where the
    # oracle is cheap and the swapped facets are most often incompatible
    front = range(min(len(constructed) - 1, 40))
    for i in rng.sample(front, min(len(front), 6)):
        swapped = list(constructed)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        _agrees_with_oracle(K, swapped)


def _random_pure_complex(rng, dim, n_vertices):
    """Random facets of one dimension, labelling only the vertices used, so
    the complex is pure; it is often disconnected."""
    candidates = list(combinations(range(n_vertices), dim + 1))
    facets = rng.sample(candidates, rng.randint(1, min(len(candidates), 16)))
    used = {v for f in facets for v in f}
    return SimplicialComplex.from_simplices(facets, {v: v for v in used})


def test_verify_matches_pairwise_oracle_on_random_complexes():
    rng = random.Random(20171)
    verdicts = set()
    for trial in range(600):
        dim = trial % 4
        K = _random_pure_complex(rng, dim, rng.randint(dim + 1, 8))
        for _ in range(3):
            order = list(K.facets())
            rng.shuffle(order)
            verdicts.add((dim, _agrees_with_oracle(K, order) is None))
        # grow an order greedily, preferring facets the oracle accepts, so
        # long valid prefixes and late failures are covered too
        order, rest = [], list(K.facets())
        while rest:
            rng.shuffle(rest)
            pick = next(
                (F for F in rest
                 if pairwise_first_non_shelling_step(order + [F]) is None),
                rest[0],
            )
            order.append(pick)
            rest.remove(pick)
        verdicts.add((dim, _agrees_with_oracle(K, order) is None))
    # two disjoint copies of a triangle boundary: disconnected, never shellable
    two = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    K = SimplicialComplex.from_simplices(two, labeled(6))
    assert _agrees_with_oracle(K, two) == 4
    assert verdicts == {(d, v) for d in range(4) for v in (True, False)} - {(0, False)}


def test_shelled_complexes_are_cohen_macaulay():
    # shellable implies Cohen-Macaulay; spot-check the hierarchy
    for variant, p, n in (("K", 3, 2), ("X", 2, 3)):
        kind = UniversalKind(variant, p, n)
        K = build_universal(kind)
        construct_shelling_fp(kind, K)
        ok, _ = reisner_check(K, orbit_sample=True)
        assert ok


def test_shifted_x22_true_with_witness():
    K = build_universal(UniversalKind("X", 2, 2))
    ok, labeling = is_shifted(K)
    assert ok
    assert sorted(labeling.values()) == [1, 2, 3]


def test_shifted_x32_false():
    K = build_universal(UniversalKind("X", 3, 2))
    ok, labeling = is_shifted(K)
    assert not ok and labeling is None


def test_shifted_k23_false():
    K = build_universal(UniversalKind("K", 2, 3))
    ok, _ = is_shifted(K)
    assert not ok


def test_shifted_simplex_boundary():
    K = SimplicialComplex.from_simplices(
        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)], labeled(4)
    )
    ok, labeling = is_shifted(K)
    assert ok


def _random_shift_complex(rng):
    """A seeded random complex with isolated vertices and facets of mixed
    sizes; half of them are closed under shifting for a random vertex
    order first, so both verdicts occur."""
    m = rng.randint(1, 9)
    verts = list(range(0, 2 * m, 2))  # ids need not be dense
    sets = [tuple(sorted(rng.sample(verts, rng.randint(1, min(m, 4)))))
            for _ in range(rng.randint(0, 2 * m))]
    if rng.random() < 0.5:
        rank = {v: i for i, v in enumerate(rng.sample(verts, m))}
        sets = [
            t for s in sets for t in combinations(verts, len(s))
            if all(a <= b for a, b in zip(sorted(rank[v] for v in t),
                                          sorted(rank[v] for v in s)))
        ]
    return SimplicialComplex.from_simplices(
        [tuple(sorted(t)) for t in sets], {v: v for v in verts}
    )


def test_shifted_matches_quadratic_oracle_on_random_complexes():
    rng = random.Random(20261018)
    verdicts = set()
    for _ in range(400):
        K = _random_shift_complex(rng)
        got = is_shifted(K)
        assert got == quadratic_shift_labeling(K), K.facets()
        verdicts.add(got[0])
    assert verdicts == {True, False}


@pytest.mark.parametrize("variant,p,n", [
    ("K", 2, 4), ("K", 7, 3), ("X", 3, 3), ("K", 3, 2),
])
def test_shifted_follows_transitive_action(variant, p, n):
    # GL_n(F_p) moves any vertex to any other, so every vertex lies in the
    # same number of faces and the degree-sorted labeling is the identity
    kind = UniversalKind(variant, p, n)
    K = build_universal(kind)
    f = formula_f_vector(kind)
    full_skeleton = f[-1] == comb(f[1], n)
    faces = Counter(v for s in K.all_simplices() for v in s)
    assert len(set(faces.values())) == 1 and len(faces) == K.n_vertices
    ok, labeling = is_shifted(K)
    assert ok == full_skeleton
    if ok:
        assert labeling == {v: i + 1 for i, v in enumerate(K.vertices())}
    else:
        assert labeling is None


def test_shifted_implies_lex_shelling():
    # relabel by the witness, then the label-lexicographic facet order shells
    for K in (
        build_universal(UniversalKind("X", 2, 2)),
        SimplicialComplex.from_simplices(
            [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)], labeled(4)
        ),
    ):
        ok, labeling = is_shifted(K)
        assert ok
        facets = sorted(K.facets(), key=lambda f: sorted(labeling[v] for v in f))
        idx, _ = shelling_h_vector(K, facets)
        assert idx is None, f"lex order failed at {idx}"
