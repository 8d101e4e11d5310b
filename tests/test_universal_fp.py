import random
from itertools import combinations, product
from math import factorial, prod
from operator import mul

import pytest

from unicomplex import universal_fp
from unicomplex.errors import InputError, ResourceLimitError
from unicomplex.fplin import enumerate_vectors_fp, is_unimodular_fp, line_canonical_fp
from unicomplex.universal_fp import (
    UniversalKind,
    build_universal,
    formula_f_vector,
    sphere_count,
    standard_pivot_ids,
    _finish_fp,
)

from oracles import brute_unimodular_complex, coords_of

X22 = UniversalKind("X", 2, 2)
K32 = UniversalKind("K", 3, 2)
K23 = UniversalKind("K", 2, 3)
X32 = UniversalKind("X", 3, 2)


# -- the projection phi and its sections psi --------------------------------


def phi_vertex_map(x_complex, k_complex, p):
    """Vertex map of phi: each nonzero vector to the line it generates."""
    line_id = {coords_of(lab): v for v, lab in k_complex.labels.items()}
    return {
        v: line_id[line_canonical_fp(coords_of(lab), p)]
        for v, lab in x_complex.labels.items()
    }


def project_phi(x_complex, k_complex, p, simplex):
    """Image of an X-simplex under phi, as a simplex of K (equal dimension)."""
    vmap = phi_vertex_map(x_complex, k_complex, p)
    s = tuple(simplex)
    if s not in x_complex:
        raise InputError(f"simplex {s} not in the source complex")
    image = tuple(sorted(vmap[v] for v in s))
    if len(set(image)) != len(s) or image not in k_complex:
        raise AssertionError(f"phi degenerated on {s}")
    return image


def section_psi(k_complex, x_complex, p, choice=None):
    """Vertex map of a section psi of phi: each line to a generator on it.

    `choice` maps lines (canonical generators) to generators; by default
    the canonical (first-nonzero = 1) generator is used.  A generator off
    its line is an input error."""
    vec_id = {coords_of(lab): v for v, lab in x_complex.labels.items()}
    out = {}
    for v, lab in k_complex.labels.items():
        line = coords_of(lab)
        gen = line if choice is None else choice[line]
        if line_canonical_fp(gen, p) != line:
            raise InputError(f"generator {gen} does not lie on line {line}")
        out[v] = vec_id[gen]
    return out


def map_simplex(vmap, simplex):
    return tuple(sorted(vmap[v] for v in simplex))


def test_kind_validation():
    with pytest.raises(InputError):
        UniversalKind("Y", 2, 2)
    with pytest.raises(InputError):
        UniversalKind("X", 4, 2)
    with pytest.raises(InputError):
        UniversalKind("X", 2, 0)


def test_build_examples():
    assert build_universal(X22).f_vector() == (1, 3, 3)
    assert build_universal(K32).f_vector() == (1, 4, 6)
    assert build_universal(K23).f_vector() == (1, 7, 21, 28)


@pytest.mark.parametrize(
    "kind",
    [X22, K32, K23, X32, UniversalKind("X", 2, 3), UniversalKind("K", 3, 3),
     UniversalKind("K", 5, 2), UniversalKind("K", 7, 2),
     UniversalKind("K", 2, 4)],  # a level between the edges and the top
)
def test_build_against_powerset_oracle(kind):
    K = build_universal(kind)
    gens = [coords_of(K.labels[v]) for v in K.vertices()]
    oracle = brute_unimodular_complex(gens, kind.p)
    for size, subsets in oracle.items():
        assert list(K.sorted_simplices(size - 1)) == sorted(subsets)
    assert K.n_simplices == sum(len(s) for s in oracle.values())


@pytest.mark.parametrize("kind", [
    UniversalKind(variant, p, n)
    for n, primes in ((1, (2, 3, 7)), (2, (2, 3, 5)))
    for variant in ("X", "K") for p in primes
] + [UniversalKind("K", 7, 2)], ids=str)
def test_depths_one_and_two_against_powerset_oracle(kind):
    # depth 1 is one plain level of quotient steps; at depth 2 the two-row
    # finish makes both levels from the identity rows
    K = build_universal(kind)
    gens = [coords_of(K.labels[v]) for v in K.vertices()]
    oracle = brute_unimodular_complex(gens, kind.p)
    assert [list(K.sorted_simplices(size - 1)) for size in sorted(oracle)] == \
        [sorted(oracle[size]) for size in sorted(oracle)]
    assert K.n_simplices == sum(len(s) for s in oracle.values())


def test_two_row_finish_is_the_plain_rule():
    # _finish_fp keeps each candidate w with Q w != 0, and the pairs of
    # candidates w < g that make Q w and Q g independent; compare it with a
    # 2 x 2 determinant on random two-row states and candidate sets
    rng = random.Random("two-row finish fp")
    hits = 0
    for p, n in ((2, 4), (3, 3), (5, 3), (7, 2)):
        gens = enumerate_vectors_fp(n, p)
        finish = _finish_fp(gens, p)
        for _ in range(20):
            rows = tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(2))
            cands = rng.getrandbits(len(gens))
            ids = [j for j in range(len(gens)) if cands >> j & 1]
            image = [tuple(sum(map(mul, q, gens[j])) % p for q in rows)
                     for j in range(len(gens))]
            kept = [j for j in ids if any(image[j])]
            pairs = [(j, g) for j, g in combinations(kept, 2)
                     if (image[j][0] * image[g][1] - image[j][1] * image[g][0]) % p]
            got, lazy, n_pairs = finish(rows, ids, len(gens) ** 2)
            assert (got, list(lazy), n_pairs) == (kept, pairs, len(pairs))
            hits += len(pairs)
    assert hits > 1000


def test_build_simplices_unimodular():
    K = build_universal(K32)
    for s in K.all_simplices():
        assert is_unimodular_fp([coords_of(K.labels[v]) for v in s], 3)


def test_budget_error_names_parameters():
    with pytest.raises(ResourceLimitError, match=r"X\(F_3\^9\)"):
        build_universal(UniversalKind("X", 3, 9), budget=100)


def test_formula_examples():
    assert formula_f_vector(X32)[2] == 24
    assert formula_f_vector(UniversalKind("K", 3, 3))[3] == 234
    link = formula_f_vector(K23, link_dim=0)
    assert link == (1, 6, 12)


def test_formula_link_range():
    with pytest.raises(InputError):
        formula_f_vector(K23, link_dim=3)


def test_link_of_facet_formula_is_trivial():
    assert formula_f_vector(K23, link_dim=2) == (1,)


def test_sphere_counts():
    assert sphere_count(formula_f_vector(K23)) == 13
    assert len(formula_f_vector(K23)) - 2 == 2  # the sphere dimension
    assert sphere_count(formula_f_vector(K32)) == 3
    assert sphere_count(formula_f_vector(X32)) == 17
    assert sphere_count(formula_f_vector(UniversalKind("K", 7, 1))) == 0
    # the link of a facet is the (-1)-sphere, the empty complex
    assert sphere_count(formula_f_vector(K23, link_dim=2)) == 1


def test_formula_matches_enumeration_small():
    for kind in (X22, K32, K23, X32):
        assert build_universal(kind).f_vector() == formula_f_vector(kind)


def test_running_products_match_the_product_formula():
    # f_k of the link of an i-simplex written out as one product over one
    # product, i = -1 for the whole complex
    for variant, p, n in product("XK", (2, 3, 5, 7), range(1, 6)):
        kind = UniversalKind(variant, p, n)
        per_line = p - 1 if variant == "K" else 1
        for i in range(-1, n):
            want = (1,) + tuple(
                prod(p**n - p**(i + 1 + j) for j in range(k + 1))
                // (factorial(k + 1) * per_line ** (k + 1))
                for k in range(n - i - 1))
            assert formula_f_vector(kind, None if i < 0 else i) == want


def test_build_forms_the_closed_form_once(monkeypatch):
    # the budget check and the final check share one closed form
    real = universal_fp.formula_f_vector
    calls = []

    def counting(kind, link_dim=None):
        calls.append((kind, link_dim))
        return real(kind, link_dim)

    monkeypatch.setattr(universal_fp, "formula_f_vector", counting)
    for kind in (X22, K32, K23, X32):
        calls.clear()
        build_universal(kind)
        assert calls == [(kind, None)]


def test_link_formula_matches_enumeration():
    K = build_universal(K23)
    for i in range(3):
        want = formula_f_vector(K23, link_dim=i)
        for s in K.sorted_simplices(i)[:3]:
            assert K.link(s).f_vector() == want


def test_phi_trivial_vertex():
    X = build_universal(UniversalKind("X", 2, 3))
    K = build_universal(K23)
    e1 = next(v for v, lab in X.labels.items() if lab == "(1,0,0)")
    img = project_phi(X, K, 2, (e1,))
    assert K.labels[img[0]] == "[1,0,0]"


def test_phi_fiber_size():
    # (p-1)^k to 1 on (k-1)-simplices
    X = build_universal(X32)
    K = build_universal(K32)
    vmap = phi_vertex_map(X, K, 3)
    target = K.sorted_simplices(1)[0]
    fibers = [
        s for s in X.sorted_simplices(1) if map_simplex(vmap, s) == target
    ]
    assert len(fibers) == (3 - 1) ** 2


def test_phi_bijection_for_p2():
    X = build_universal(UniversalKind("X", 2, 3))
    K = build_universal(K23)
    vmap = phi_vertex_map(X, K, 2)
    for d in range(3):
        images = {map_simplex(vmap, s) for s in X.sorted_simplices(d)}
        assert images == set(K.sorted_simplices(d))
        assert len(images) == len(X.sorted_simplices(d))


def test_psi_is_section_and_full_subcomplex():
    for kind in (K32, K23):
        xkind = UniversalKind("X", kind.p, kind.n)
        X = build_universal(xkind)
        K = build_universal(kind)
        psi = section_psi(K, X, kind.p)
        phi = phi_vertex_map(X, K, kind.p)
        for v in K.vertices():
            assert phi[psi[v]] == v
        image_vertices = set(psi.values())
        full = {s for s in X.all_simplices() if image_vertices.issuperset(s)}
        image_simplices = {
            map_simplex(psi, s) for s in K.all_simplices()
        }
        assert image_simplices == full
        if kind == K32:
            assert sorted(map(len, full)) == [1] * 4 + [2] * 6


def test_psi_rejects_bad_generator():
    X = build_universal(X32)
    K = build_universal(K32)
    bad_choice = {coords_of(lab): (1, 0) for lab in K.labels.values()}
    with pytest.raises(InputError):
        section_psi(K, X, 3, choice=bad_choice)


def test_standard_pivots_are_basis_labels():
    K = build_universal(K23)
    labs = [K.labels[v] for v in standard_pivot_ids(K23)]
    assert labs == ["[1,0,0]", "[0,1,0]", "[0,0,1]"]
    for kind in (X22, X32, K32, UniversalKind("X", 2, 4), UniversalKind("K", 3, 3),
                 UniversalKind("K", 5, 1), UniversalKind("X", 5, 1)):
        brackets = "()" if kind.variant == "X" else "[]"
        basis = [brackets[0] + ",".join(str(int(j == i)) for j in range(kind.n))
                 + brackets[1] for i in range(kind.n)]
        K = build_universal(kind)
        assert [K.labels[v] for v in standard_pivot_ids(kind)] == basis, kind

