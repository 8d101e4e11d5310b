import random
from itertools import combinations
from math import gcd, prod

import pytest

from unicomplex import universal_fp, zlattice
from unicomplex.errors import InputError, ResourceLimitError
from unicomplex.scomplex import (
    SimplicialComplex,
    euler_characteristic,
    format_facet_list,
    grow_by_extension,
    parse_facet_list,
)
from unicomplex.universal_fp import UniversalKind, build_universal


def labeled(n):
    return {i: str(i) for i in range(n)}


def full_subcomplex(K, vertex_set):
    """Restriction K_I to the vertices in I (ids preserved)."""
    I = set(vertex_set)
    unknown = I - set(K.labels)
    if unknown:
        raise InputError(f"unknown vertices: {sorted(unknown)}")
    by_dim = [[s for s in K.sorted_simplices(d) if I.issuperset(s)]
              for d in range(K.dim + 1)]
    return SimplicialComplex(by_dim, {v: K.labels[v] for v in I})


def skeleton(K, r):
    """All simplices of dimension <= r."""
    if r < -1 or r > K.dim:
        raise InputError(f"skeleton dimension {r} out of range [-1, {K.dim}]")
    labels = K.labels if r >= 0 else {}
    return SimplicialComplex([K.sorted_simplices(d) for d in range(r + 1)],
                             labels)


def test_from_facets_two_edges():
    K = SimplicialComplex.from_simplices([(1, 2), (2, 3)], {1: "a", 2: "b", 3: "c"})
    assert K.f_vector() == (1, 3, 2)


def test_from_single_triangle():
    K = SimplicialComplex.from_simplices([(1, 2, 3)], {1: "a", 2: "b", 3: "c"})
    assert K.f_vector() == (1, 3, 3, 1)


def test_empty_complex():
    K = SimplicialComplex([], {})
    assert K.f_vector() == (1,)
    assert K.dim == -1


@pytest.mark.parametrize("K", [
    parse_facet_list("a b c\nc d\nb d e\nf\n"),
    build_universal(UniversalKind("K", 3, 3)),
    SimplicialComplex([], {}),
    SimplicialComplex([[(0,), (1,), (2,)]], labeled(3)),
], ids=["facet file", "K(F_3^3)", "empty", "dimension 0"])
def test_ids_number_the_levels_below_the_top(K):
    ids = K.ids()
    want = {}
    for d in range(K.dim):
        below = sum(len(K.sorted_simplices(e)) for e in range(d))
        for i, s in enumerate(K.sorted_simplices(d)):
            want[s] = below + i
    assert ids == want
    assert list(ids.values()) == list(range(len(ids)))
    assert (ids == {}) == (K.dim < 1)


def test_rejects_unsorted_and_duplicates():
    with pytest.raises(InputError):
        SimplicialComplex.from_simplices([(2, 1)], labeled(3))
    with pytest.raises(InputError):
        SimplicialComplex.from_simplices([(1, 1)], labeled(3))


def test_downward_closure_invariant():
    K = SimplicialComplex.from_simplices([(0, 1, 2), (1, 2, 3)], labeled(4))
    for d in range(1, K.dim + 1):
        for s in K.sorted_simplices(d):
            for i in range(len(s)):
                assert s[:i] + s[i + 1:] in K


def test_boundary_triangle_euler():
    K = SimplicialComplex.from_simplices([(0, 1), (0, 2), (1, 2)], labeled(3))
    assert K.f_vector() == (1, 3, 3)
    assert euler_characteristic(K.f_vector()) == 0


def test_link_of_vertex_in_triangle_boundary():
    K = SimplicialComplex.from_simplices([(0, 1), (0, 2), (1, 2)], labeled(3))
    L = K.link((0,))
    assert L.f_vector() == (1, 2)
    assert L.dim == 0


def test_link_of_facet_is_empty():
    K = SimplicialComplex.from_simplices([(0, 1, 2)], labeled(3))
    L = K.link((0, 1, 2))
    assert L.f_vector() == (1,)


def test_link_requires_membership():
    K = SimplicialComplex.from_simplices([(0, 1)], labeled(2))
    with pytest.raises(InputError):
        K.link((0, 5))


def test_link_recount_from_facets():
    K = SimplicialComplex.from_simplices([(0, 1, 2), (0, 1, 3), (2, 3)], labeled(4))
    L = K.link((0,))
    rebuilt = SimplicialComplex.from_simplices(L.facets(), L.labels)
    assert rebuilt.f_vector() == L.f_vector()


def test_full_subcomplex():
    K = SimplicialComplex.from_simplices([(0, 1, 2)], labeled(3))
    assert full_subcomplex(K, [0, 1, 2]).f_vector() == K.f_vector()
    assert full_subcomplex(K, []).f_vector() == (1,)
    assert full_subcomplex(K, [0, 1]).f_vector() == (1, 2, 1)
    with pytest.raises(InputError):
        full_subcomplex(K, [0, 9])


def test_skeleton():
    K = SimplicialComplex.from_simplices([(0, 1, 2)], labeled(3))
    assert skeleton(K, K.dim).f_vector() == K.f_vector()
    assert skeleton(K, 0).f_vector() == (1, 3)
    assert skeleton(K, 1).f_vector() == (1, 3, 3)
    with pytest.raises(InputError):
        skeleton(K, 5)


def test_facets_and_purity():
    K = SimplicialComplex.from_simplices([(0, 1, 2), (2, 3)], labeled(4))
    assert K.facets() == [(0, 1, 2), (2, 3)]
    assert not K.is_pure()


def test_isolated_vertices_from_labels():
    K = SimplicialComplex.from_simplices([], {0: "a", 1: "b"})
    assert K.f_vector() == (1, 2)


def test_facet_list_round_trip():
    text = """# a comment
    a b c
    c d
    e
    """
    K = parse_facet_list(text)
    assert K.f_vector() == (1, 5, 4, 1)
    out = format_facet_list(K)
    K2 = parse_facet_list(out)
    assert K2.f_vector() == K.f_vector()
    assert sorted(map(str, K2.labels.values())) == sorted(map(str, K.labels.values()))


def test_facet_list_numeric_label_order():
    K = parse_facet_list("10 2\n1 2\n")
    # numeric labels sort numerically: 1 < 2 < 10
    assert [K.labels[v] for v in K.vertices()] == ["1", "2", "10"]


def test_facet_list_rejects_repeats():
    with pytest.raises(InputError):
        parse_facet_list("a a b\n")


def test_closure_budget_counts_distinct_simplices():
    # two triangles on an edge plus an isolated vertex: 5 + 5 + 2 = 12
    # distinct simplices, though each triangle has 7 faces
    text = "a b c\nb c d\ne\n"
    assert parse_facet_list(text, budget=12).n_simplices == 12
    with pytest.raises(ResourceLimitError, match="closure exceeds simplex budget 11"):
        parse_facet_list(text, budget=11)
    with pytest.raises(ResourceLimitError, match="5 vertices exceed"):
        parse_facet_list(text, budget=4)
    # refused from its size alone, before any face is made
    with pytest.raises(ResourceLimitError, match="18 vertices has 262143 faces"):
        SimplicialComplex.from_simplices([tuple(range(18))], labeled(18), budget=1000)


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_grow_by_extension_pairwise_coprime(depth):
    # a flag complex with a non-trivial edge level: the sets of pairwise
    # coprime numbers among 2..16, the state being their product
    gens = list(range(2, 17))

    def extend(state, w):
        return state * w if gcd(state, w) == 1 else None

    finished = []

    def finish(state, cands, room):
        # the candidates w coprime to sigma's product, and the pairs of them
        # that are coprime to each other, in lexicographic order
        finished.append(state)
        ids = [j for j in cands if gcd(state, gens[j]) == 1]
        pairs = [(w, g) for w, g in combinations(ids, 2)
                 if gcd(gens[w], gens[g]) == 1]
        return ids, iter(pairs), len(pairs)

    by_dim = grow_by_extension(gens, depth, 1, extend, finish, 10**6, "toy")
    want = [{s for s in combinations(range(len(gens)), k + 1)
             if all(gcd(gens[a], gens[b]) == 1 for a, b in combinations(s, 2))}
            for k in range(depth)]
    # each level is handed over as a list, already in lexicographic order
    assert by_dim == [sorted(level) for level in want]
    # depth 1 is one plain level; from depth 2 on, finish runs once per
    # simplex two levels below the top, in order
    if depth == 1:
        assert finished == []
    else:
        below = sorted(want[-3]) if depth > 2 else [()]
        assert finished == [prod(gens[j] for j in s) for s in below]
    total = sum(map(len, want))
    with pytest.raises(ResourceLimitError, match="toy exceeds simplex budget"):
        grow_by_extension(gens, depth, 1, extend, finish, total - 1, "toy")


@pytest.mark.parametrize("build", [
    lambda: build_universal(UniversalKind("X", 3, 3)),
    lambda: build_universal(UniversalKind("K", 3, 3)),
    lambda: build_universal(UniversalKind("K", 2, 4)),
    lambda: zlattice.build_truncated_universal_z("K", 3, 4),
    lambda: zlattice.build_truncated_universal_z("X", 2, 3),
], ids=["X-3-3", "K-3-3", "K-2-4", "KZ-3-4", "XZ-2-3"])
def test_builders_hand_over_sorted_levels(monkeypatch, build):
    handed = []

    def recording(by_dim, labels):
        handed.append([list(level) for level in by_dim])
        return SimplicialComplex(by_dim, labels)

    monkeypatch.setattr(universal_fp, "SimplicialComplex", recording)
    monkeypatch.setattr(zlattice, "SimplicialComplex", recording)
    K = build()
    (levels,) = handed
    assert [len(level) for level in levels] == list(K.f_vector()[1:])
    for level in levels:
        assert level == sorted(level)


def _derived_complexes():
    rng = random.Random(7)
    K = build_universal(UniversalKind("K", 3, 3))
    X = build_universal(UniversalKind("X", 2, 3))
    new = list(range(K.n_vertices))
    rng.shuffle(new)
    relabelled = parse_facet_list(
        "".join(" ".join(str(new[v]) for v in f) + "\n" for f in K.facets()))
    mixed = parse_facet_list(
        "".join(" ".join(map(str, rng.sample(range(12), rng.randint(1, 4)))) + "\n"
                for _ in range(25)))
    half = rng.sample(range(X.n_vertices), X.n_vertices // 2)
    return {
        "built K": K,
        "built X": X,
        "facet file": relabelled,
        "non-pure facet file": mixed,
        "link of a vertex": K.link(K.sorted_simplices(0)[3]),
        "link of an edge": X.link(X.sorted_simplices(1)[-1]),
        "link in a facet file": relabelled.link(relabelled.sorted_simplices(0)[5]),
        "link of the empty simplex": mixed.link(()),
        "skeleton": skeleton(K, 1),
        "full subcomplex": full_subcomplex(X, half),
        "full subcomplex of a facet file": full_subcomplex(mixed, range(0, 12, 2)),
    }


def _closure(facets):
    """Every nonempty subset of every facet, as one set per size."""
    levels = []
    for f in facets:
        while len(levels) < len(f):
            levels.append(set())
        for k in range(1, len(f) + 1):
            levels[k - 1].update(combinations(f, k))
    return levels


@pytest.mark.parametrize("name", list(_derived_complexes()))
def test_stored_order_is_the_sorted_order(name):
    K = _derived_complexes()[name]
    want = _closure(K.facets())
    assert K.dim == len(want) - 1
    for d, level in enumerate(want):
        got = K.sorted_simplices(d)
        assert all(a < b for a, b in zip(got, got[1:]))
        assert set(got) == level
    assert K.sorted_simplices(-1) == K.sorted_simplices(K.dim + 1) == ()
    assert list(K.all_simplices()) == [
        s for d in range(K.dim + 1) for s in K.sorted_simplices(d)]
    everything = set(K.all_simplices())
    maximal = [s for s in everything
               if not any(set(s) < set(t) for t in everything if len(t) == len(s) + 1)]
    assert K.facets() == sorted(maximal)


@pytest.mark.parametrize("name", list(_derived_complexes()))
def test_membership_is_the_stored_levels(name):
    K = _derived_complexes()[name]
    everything = set(K.all_simplices())
    ids = sorted(K.labels) + [max(K.labels, default=0) + 1]
    probes = [(), tuple(range(K.dim + 2)), tuple(ids), ("a",)]
    for s in everything:
        probes.append(s)
        probes.append(s[::-1])
        probes.append(s + ("a",))
        probes.append((str(s[0]),) + s[1:])
        for i in range(len(s)):
            probes.extend(s[:i] + (v,) + s[i + 1:] for v in ids)
    for s in probes:
        assert (s in K) == (s in everything), s


# -- closure in chunks and the streamed facet-file passes ---------------------


def closure_one_at_a_time(simplices, labels, budget):
    """The sorted levels of the downward closure, or (error class name,
    message) for the first fault, each simplex checked and closed before
    the next one is looked at."""
    levels = [{(v,) for v in labels}]
    count = len(labels)
    if count > budget:
        return ("ResourceLimitError", f"{count} vertices exceed simplex budget {budget}")
    for s in simplices:
        s = tuple(s)
        bad = [v for v in s if not isinstance(v, int)]
        if bad:
            return ("InputError", f"vertex ids must be ints, got {bad[0]!r}")
        if any(a >= b for a, b in zip(s, s[1:])):
            return ("InputError", f"simplex vertices not strictly increasing: {s}")
        missing = [v for v in s if v not in labels]
        if missing:
            return ("InputError", f"simplex {s} uses unlabeled vertex {missing[0]}")
        if 2 ** len(s) - 1 > budget:
            return ("ResourceLimitError", f"simplex with {len(s)} vertices has "
                    f"{2 ** len(s) - 1} faces, over simplex budget {budget}")
        while len(levels) < len(s):
            levels.append(set())
        for k in range(2, len(s) + 1):
            before = len(levels[k - 1])
            levels[k - 1].update(combinations(s, k))
            count += len(levels[k - 1]) - before
            if count > budget:
                return ("ResourceLimitError", f"closure exceeds simplex budget {budget}")
    while levels and not levels[-1]:
        levels.pop()
    return [sorted(level) for level in levels]


def closure_outcome(simplices, labels, budget):
    try:
        K = SimplicialComplex.from_simplices(simplices, labels, budget=budget)
    except (InputError, ResourceLimitError) as exc:
        return (type(exc).__name__, str(exc))
    return [list(K.sorted_simplices(d)) for d in range(K.dim + 1)]


def overlapping_simplices(rng, n):
    """Mixed-size simplices on n vertices, most of them sharing faces."""
    return [tuple(sorted(rng.sample(range(n), rng.randint(0, min(n, 6)))))
            for _ in range(rng.randint(1, 40))]


def test_chunked_closure_matches_one_simplex_at_a_time():
    rng = random.Random(31)
    faults = [("s",), (3, 1), (2, 2), (0, 99), tuple(range(12)), [1, 4.0]]
    verdicts = set()
    for trial in range(400):
        n = rng.randint(1, 9)
        labels = {v: str(v) for v in range(12 if trial % 3 == 0 else n)}
        simplices = overlapping_simplices(rng, n)
        if trial % 2:  # a fault somewhere, with more simplices after it
            simplices.insert(rng.randrange(len(simplices) + 1), rng.choice(faults))
        full = sum(map(len, closure_one_at_a_time(
            [s for s in simplices if s not in faults], labels, 10**9)))
        for budget in {full, full - 1, rng.randint(len(labels), full + 5), 10**6}:
            want = closure_one_at_a_time(simplices, labels, budget)
            assert closure_outcome(simplices, labels, budget) == want
            verdicts.add(want[0] if isinstance(want, tuple) else "closed")
    assert verdicts == {"closed", "InputError", "ResourceLimitError"}


def test_closure_budget_verdict_at_the_closure_size():
    # heavily overlapping facets of sizes 2..6 on 9 vertices, so chunks of
    # many simplices meet a budget that is one short
    rng = random.Random(8)
    for _ in range(30):
        text = "".join(" ".join(f"v{v}" for v in rng.sample(range(9), rng.randint(2, 6))) + "\n"
                       for _ in range(rng.randint(5, 60)))
        size = parse_facet_list(text).n_simplices
        assert parse_facet_list(text, budget=size).n_simplices == size
        with pytest.raises(ResourceLimitError, match=f"closure exceeds simplex budget {size - 1}$"):
            parse_facet_list(text, budget=size - 1)


def test_facet_file_errors_keep_their_order():
    huge = " ".join(f"x{i}" for i in range(30))
    # every line is checked for a repeated vertex before any facet is closed
    for text in (f"a b\nc c d\n{huge}\ne e\n", f"{huge}\na b\nc c d\ne e\n"):
        with pytest.raises(InputError, match=r"^repeated vertex in facet line: 'c c d'$"):
            parse_facet_list(text, budget=1000)
    with pytest.raises(ResourceLimitError,
                       match=r"^simplex with 30 vertices has 1073741823 faces, "
                             r"over simplex budget 1000$"):
        parse_facet_list(f"a b c d e f g h i\n{huge}\n", budget=1000)
    with pytest.raises(ResourceLimitError, match=r"^32 vertices exceed simplex budget 31$"):
        parse_facet_list(f"a b\n{huge}\n", budget=31)


def test_facet_text_layout_gives_the_same_complex():
    K = build_universal(UniversalKind("X", 2, 3))
    lines = format_facet_list(K).splitlines()
    layouts = [
        "\n".join(lines) + "\n",
        "# header\n\n" + "".join(f"{line}  # facet {i}\n\n" for i, line in enumerate(lines)),
        "".join("\t" + line.replace(" ", " \t ") + "\t\n" for line in lines),
        "\r\n".join(lines) + "\r\n",
        "\r\n".join(lines),
    ]
    parsed = [parse_facet_list(text) for text in layouts]
    for L in parsed:
        assert L.labels == parsed[0].labels
        assert [L.sorted_simplices(d) for d in range(3)] == [
            parsed[0].sorted_simplices(d) for d in range(3)]
    assert parsed[0].f_vector() == K.f_vector()
