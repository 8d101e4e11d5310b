import pytest

from unicomplex.errors import InputError, ResourceLimitError
from unicomplex.fplin import FpLine, FpVector, PrimeField, is_unimodular_fp
from unicomplex.universal_fp import (
    UniversalKind,
    build_universal,
    eq_an_basis_count,
    formula_f_vector,
    map_simplex,
    phi_vertex_map,
    project_phi,
    section_psi,
    sphere_count,
    standard_pivot_ids,
)

from oracles import brute_unimodular_complex

X22 = UniversalKind("X", 2, 2)
K32 = UniversalKind("K", 3, 2)
K23 = UniversalKind("K", 2, 3)
X32 = UniversalKind("X", 3, 2)


def test_kind_validation():
    with pytest.raises(InputError):
        UniversalKind("Y", 2, 2)
    with pytest.raises(InputError):
        UniversalKind("X", 4, 2)
    with pytest.raises(InputError):
        UniversalKind("X", 2, 0)


def test_build_examples():
    assert build_universal(X22).f_vector().entries == (1, 3, 3)
    assert build_universal(K32).f_vector().entries == (1, 4, 6)
    assert build_universal(K23).f_vector().entries == (1, 7, 21, 28)


@pytest.mark.parametrize(
    "kind",
    [X22, K32, K23, X32, UniversalKind("X", 2, 3), UniversalKind("K", 3, 3),
     UniversalKind("K", 5, 2), UniversalKind("K", 7, 2)],
)
def test_build_against_powerset_oracle(kind):
    K = build_universal(kind)
    if kind.variant == "X":
        gens = [K.labels[v].coords for v in K.vertices()]
    else:
        gens = [K.labels[v].generator.coords for v in K.vertices()]
    oracle = brute_unimodular_complex(gens, kind.p)
    for size, subsets in oracle.items():
        assert K.simplices_of_dim(size - 1) == frozenset(subsets)
    assert K.n_simplices == sum(len(s) for s in oracle.values())


def test_build_simplices_unimodular():
    K = build_universal(K32)
    field = PrimeField(3)
    for s in K.all_simplices():
        gens = [K.labels[v].generator for v in s]
        assert is_unimodular_fp(gens, field)


def test_budget_error_names_parameters():
    with pytest.raises(ResourceLimitError, match=r"X\(F_3\^9\)"):
        build_universal(UniversalKind("X", 3, 9), budget=100)


def test_formula_examples():
    assert formula_f_vector(X32).entries[2] == 24
    assert formula_f_vector(UniversalKind("K", 3, 3)).entries[3] == 234
    link = formula_f_vector(K23, link_dim=0)
    assert link.entries == (1, 6, 12)


def test_formula_link_range():
    with pytest.raises(InputError):
        formula_f_vector(K23, link_dim=3)


def test_link_of_facet_formula_is_trivial():
    assert formula_f_vector(K23, link_dim=2).entries == (1,)


def test_sphere_counts():
    assert sphere_count(K23) == sphere_count(K23)
    assert sphere_count(K23).count == 13
    assert sphere_count(K23).dimension == 2
    assert sphere_count(K32).count == 3
    assert sphere_count(X32).count == 17
    assert sphere_count(UniversalKind("K", 7, 1)).count == 0


def test_formula_matches_enumeration_small():
    for kind in (X22, K32, K23, X32):
        assert build_universal(kind).f_vector().entries == formula_f_vector(kind).entries


def test_link_formula_matches_enumeration():
    K = build_universal(K23)
    for i in range(3):
        want = formula_f_vector(K23, link_dim=i).entries
        for s in K.sorted_simplices(i)[:3]:
            assert K.link(s).f_vector().entries == want


def test_phi_trivial_vertex():
    X = build_universal(UniversalKind("X", 2, 3))
    K = build_universal(K23)
    e1 = next(v for v, lab in X.labels.items() if lab == FpVector((1, 0, 0)))
    img = project_phi(X, K, (e1,))
    assert K.labels[img[0]] == FpLine(FpVector((1, 0, 0)))


def test_phi_fiber_size():
    # (p-1)^k to 1 on (k-1)-simplices
    X = build_universal(X32)
    K = build_universal(K32)
    vmap = phi_vertex_map(X, K)
    target = K.sorted_simplices(1)[0]
    fibers = [
        s for s in X.sorted_simplices(1) if map_simplex(vmap, s) == target
    ]
    assert len(fibers) == (3 - 1) ** 2


def test_phi_bijection_for_p2():
    X = build_universal(UniversalKind("X", 2, 3))
    K = build_universal(K23)
    vmap = phi_vertex_map(X, K)
    for d in range(3):
        images = {map_simplex(vmap, s) for s in X.simplices_of_dim(d)}
        assert images == K.simplices_of_dim(d)
        assert len(images) == len(X.simplices_of_dim(d))


def test_psi_is_section_and_full_subcomplex():
    for kind in (K32, K23):
        xkind = UniversalKind("X", kind.p, kind.n)
        X = build_universal(xkind)
        K = build_universal(kind)
        psi = section_psi(K, X)
        phi = phi_vertex_map(X, K)
        for v in K.vertices():
            assert phi[psi[v]] == v
        image_vertices = set(psi.values())
        full = X.full_subcomplex(image_vertices)
        image_simplices = {
            map_simplex(psi, s) for s in K.all_simplices()
        }
        assert image_simplices == set(full.all_simplices())
        if kind == K32:
            assert full.f_vector().entries == (1, 4, 6)


def test_psi_rejects_bad_generator():
    X = build_universal(X32)
    K = build_universal(K32)
    lines = list(K.labels.values())
    bad_choice = {l: FpVector((1, 0)) for l in lines}
    with pytest.raises(InputError):
        section_psi(K, X, choice=bad_choice)


def test_standard_pivots_are_basis_labels():
    K = build_universal(K23)
    labs = [K.labels[v] for v in standard_pivot_ids(K)]
    assert labs == [
        FpLine(FpVector((1, 0, 0))),
        FpLine(FpVector((0, 1, 0))),
        FpLine(FpVector((0, 0, 1))),
    ]


def test_eq_an_count_reported_separately():
    # the alternating-sum value and the axis-avoiding facet count differ;
    # both are reported, neither is asserted equal to the other
    K = build_universal(K32)
    assert eq_an_basis_count(K) == 1
    assert sphere_count(K32).count == 3
    K2 = build_universal(K23)
    assert eq_an_basis_count(K2) == 3
    assert sphere_count(K23).count == 13
