import random
import tracemalloc
from itertools import combinations
from math import gcd
from operator import mul

import pytest

from unicomplex.errors import InputError, ResourceLimitError
from unicomplex.homology import reduced_homology
from unicomplex.morse import check_acyclic, critical_census, greedy_matching
from unicomplex import zlattice
from unicomplex.scomplex import SimplicialComplex
from unicomplex.zlattice import (
    QuasitoricPair,
    build_truncated_universal_z,
    critical_family_sigma,
    enumerate_z_lines,
    enumerate_z_vectors,
    is_unimodular_z,
    parse_quasitoric_pair,
    sigma_family,
    validate_quasitoric_pair,
    z_line,
    z_line_key,
    _finish_z,
    _quotient_step,
    _vertex_count,
)

from oracles import (
    box_z_lines,
    box_z_vectors,
    coords_of,
    det_cofactor,
    minor_gcd_unimodular,
)


def test_unimodular_examples():
    assert is_unimodular_z([(2, 1), (1, 1)])
    assert not is_unimodular_z([(1, 0), (0, 2)])
    assert not is_unimodular_z([(2, 0)])
    assert is_unimodular_z([])


def test_unimodular_dimension_mismatch():
    with pytest.raises(InputError):
        is_unimodular_z([(1, 0), (1, 0, 0)])


def test_unimodular_vs_minor_gcd_oracle():
    rng = random.Random(41)
    for _ in range(2000):
        n = rng.randint(1, 5)
        m = rng.randint(1, n)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        got = is_unimodular_z(tuple(r) for r in rows)
        assert got == minor_gcd_unimodular(rows)


def test_z_line_normalization():
    assert z_line((2, -4)) == (1, -2)
    assert z_line((-3, 6)) == (1, -2)
    assert z_line((0, -5)) == (0, 1)
    with pytest.raises(InputError):
        z_line((0, 0))


def test_compare_examples():
    L10, L01 = z_line((1, 0)), z_line((0, 1))
    assert z_line_key(L10) < z_line_key(L01)
    assert z_line_key(z_line((1, -1))) < z_line_key(z_line((1, 1)))
    assert z_line_key(L10) == z_line_key(L10)


def test_order_begins_with_standard_lines():
    for n in (2, 3):
        lines = enumerate_z_lines(n, 3)
        for i in range(n):
            e = tuple(1 if j == i else 0 for j in range(n))
            assert lines[i] == e


def test_enumerate_z_lines_examples():
    two = enumerate_z_lines(2, 2)
    assert list(two) == [(1, 0), (0, 1), (1, -1), (1, 1)]
    three = enumerate_z_lines(2, 3)
    assert len(three) == 8
    assert three[: len(two)] == two


@pytest.mark.parametrize("n,max_norm", [(1, 1), (2, 4), (3, 3)])
def test_vectors_are_the_lines_with_both_signs(n, max_norm):
    vecs = enumerate_z_vectors(n, max_norm)
    lines = enumerate_z_lines(n, max_norm)
    assert set(vecs) == set(lines) | {tuple(-x for x in l) for l in lines}
    assert len(vecs) == 2 * len(lines)
    assert [v for v in vecs if v in set(lines)] == list(lines)
    keys = [(sum(map(abs, v)), v[::-1]) for v in vecs]
    assert keys == sorted(keys)


@pytest.mark.parametrize("n,max_norm", [
    (1, 1), (1, 5), (2, 1), (2, 14), (3, 1), (3, 10), (4, 6), (5, 4)])
def test_shells_are_the_sorted_norm_box(n, max_norm):
    # the enumeration makes the shells in order and sorts nothing; the
    # oracle filters the whole box and sorts it by the line order's key
    assert list(enumerate_z_vectors(n, max_norm)) == box_z_vectors(n, max_norm)
    lines = enumerate_z_lines(n, max_norm)
    assert list(lines) == box_z_lines(n, max_norm)
    # one norm more only appends
    assert enumerate_z_lines(n, max_norm + 1)[:len(lines)] == lines


@pytest.mark.parametrize("n,max_norm", [
    (1, 5), (2, 14), (3, 10), (3, 50), (4, 6), (5, 4), (2, 1), (3, 1)])
def test_vertex_count_is_the_enumeration(n, max_norm):
    vecs, lines = enumerate_z_vectors(n, max_norm), enumerate_z_lines(n, max_norm)
    assert _vertex_count("X", n, max_norm, float("inf")) == len(vecs)
    assert _vertex_count("K", n, max_norm, float("inf")) == len(lines)
    # the count stops at the first shell that takes it past the cap
    cap = len(vecs) // 2
    shells = [_vertex_count("X", n, k, float("inf")) for k in range(1, max_norm + 1)]
    assert _vertex_count("X", n, max_norm, cap) == next(
        (c for c in shells if c > cap), len(vecs))


def test_total_order_laws():
    lines = enumerate_z_lines(2, 6)
    # distinct lines get distinct keys, and the enumeration ascends by key
    assert len(set(map(z_line_key, lines))) == len(lines)
    keys = list(map(z_line_key, lines))
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_truncation_norm2():
    K = build_truncated_universal_z("K", 2, 2)
    assert K.f_vector() == (1, 4, 5)
    # the missing pair is {(1,-1),(1,1)}, determinant 2
    assert abs(det_cofactor([[1, -1], [1, 1]])) == 2


def test_truncation_x_z1():
    X = build_truncated_universal_z("X", 1, 1)
    assert X.f_vector() == (1, 2)


def test_truncation_k_z2_norm1():
    K = build_truncated_universal_z("K", 2, 1)
    assert K.f_vector() == (1, 2, 1)


def test_truncation_simplices_unimodular():
    K = build_truncated_universal_z("K", 2, 4)
    for s in K.all_simplices():
        assert is_unimodular_z([coords_of(K.labels[v]) for v in s])


@pytest.mark.parametrize(
    "variant,n,max_norm",
    [("K", 2, 5), ("K", 3, 3), ("X", 2, 3), ("X", 3, 2), ("X", 3, 3),
     ("K", 4, 2)],  # K(Z^4) has a level between the edges and the top
)
def test_truncation_is_every_unimodular_subset(variant, n, max_norm):
    K = build_truncated_universal_z(variant, n, max_norm)
    gens = [coords_of(K.labels[v]) for v in range(K.n_vertices)]
    assert {K.labels[v][0] for v in K.vertices()} == {"[" if variant == "K" else "("}
    want = {
        s
        for size in range(1, n + 1)
        for s in combinations(range(len(gens)), size)
        if minor_gcd_unimodular([list(gens[v]) for v in s])
    }
    assert set(K.all_simplices()) == want


@pytest.mark.parametrize("variant", ["K", "X"])
@pytest.mark.parametrize("n", [1, 2])
def test_depths_one_and_two_are_every_unimodular_subset(variant, n):
    # depth 1 is one plain level of quotient steps; at depth 2 the two-row
    # finish makes both levels from the identity rows
    for max_norm in range(1, 7):
        K = build_truncated_universal_z(variant, n, max_norm)
        gens = [coords_of(K.labels[v]) for v in range(K.n_vertices)]
        want = [
            [s for s in combinations(range(len(gens)), size)
             if minor_gcd_unimodular([list(gens[v]) for v in s])]
            for size in range(1, n + 1)
        ]
        assert [list(K.sorted_simplices(d)) for d in range(n)] == want, max_norm


def test_two_row_finish_is_the_plain_rule():
    # _finish_z keeps each candidate w with gcd(Q w) = 1, and the pairs of
    # candidates w < g that make Q w and Q g a basis of Z^2; compare it with
    # a 2 x 2 determinant on random two-row states and candidate sets
    rng = random.Random("two-row finish z")
    gens = enumerate_z_vectors(4, 3)
    finish = _finish_z(gens)
    hits = 0
    for _ in range(60):
        rows = tuple(tuple(rng.randint(-4, 4) for _ in range(4)) for _ in range(2))
        if not minor_gcd_unimodular([list(r) for r in rows]):
            continue
        cands = rng.getrandbits(len(gens))
        ids = [j for j in range(len(gens)) if cands >> j & 1]
        image = [tuple(sum(map(mul, q, w)) for q in rows) for w in gens]
        kept = [j for j in ids if gcd(*image[j]) == 1]
        pairs = [(j, g) for j, g in combinations(ids, 2)
                 if abs(image[j][0] * image[g][1] - image[j][1] * image[g][0]) == 1]
        assert finish(rows, ids, len(gens) ** 2) == (kept, pairs, len(pairs))
        hits += len(pairs)
    assert hits > 1000


def test_quotient_step_down_to_one_row():
    # three steps fold four rows down to one; the row must vanish on the
    # set and be primitive (so the map onto Z is surjective)
    rng = random.Random("one row")
    seen = 0
    for _ in range(300):
        sigma = [tuple(rng.randint(-6, 6) for _ in range(4)) for _ in range(3)]
        rows = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        for v in sigma:
            rows = _quotient_step(rows, v) if rows is not None else None
        unimodular = minor_gcd_unimodular([list(v) for v in sigma])
        assert (rows is not None) == unimodular
        if rows is None:
            continue
        seen += 1
        (r,) = rows
        assert all(sum(map(mul, r, v)) == 0 for v in sigma)
        assert gcd(*r) == 1
    assert seen > 30


def slot_bytes(bound):
    """The slot `_finish_z` must use for values of absolute value at most
    `bound`: the fewest of 1, 2, 4 or 8 bytes whose signed range holds
    them, None past 8 bytes."""
    return next((size for size in (1, 2, 4, 8) if bound < 2 ** (8 * size - 1)), None)


def plain_finish(gens, rows, cands):
    """(ids, pairs, n_pairs, value slot bytes, determinant slot bytes) of
    the two-row finish on the candidate ids `cands` by one dot product per
    generator and one 2 x 2 determinant per pair of candidates."""
    image = [tuple(sum(map(mul, q, w)) for q in rows) for w in gens]
    ids = [j for j in cands if gcd(*image[j]) == 1]
    pairs = [(w, g) for w, g in combinations(ids, 2)
             if abs(image[w][0] * image[g][1] - image[w][1] * image[g][0]) == 1]
    wmax = max(abs(c) for w in gens for c in w)
    values = [slot_bytes(sum(map(abs, q)) * wmax) for q in rows]
    dets = slot_bytes(2 * max(abs(image[j][0]) for j in ids)
                      * max(abs(image[j][1]) for j in ids) + 1) if ids else None
    return ids, pairs, len(pairs), values, dets


@pytest.mark.parametrize("m", [1, 2, 13, 100])
def test_packed_finish_is_the_plain_rule(m):
    # _finish_z reads Q g off packed slots, one per generator, and
    # det(Q w, Q g) off packed slots, one per accepted candidate; compare it
    # with the plain rule.  The generators are signed, as on the X side;
    # the first and last are +-e_1, so states with a small first column
    # accept the first and the last generator.  States range from unit rows
    # to entries of 10^5, so one finish sees every slot width: values reach
    # 4 bytes, determinants 8.
    rng = random.Random(f"packed finish:{m}")
    gens = [(1, 0, 0)]
    gens += [tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(m - 2)]
    gens += [(-1, 0, 0)][:m - 1]
    finish = _finish_z(gens)
    widths, edges, first, last = set(), 0, 0, 0
    for trial in range(400):
        big = rng.choice([1, 2, 30, 10**3, 10**5])
        rows = tuple(tuple(rng.randint(-big, big) for _ in range(3)) for _ in range(2))
        if trial % 2:
            rows = ((rng.choice([1, -1]), *rows[0][1:]), rows[1])
        bits = rng.getrandbits(m) | rng.choice([0, 1 | 1 << m - 1])
        cands = [j for j in range(m) if bits >> j & 1]
        ids, pairs, n_pairs, values, dets = plain_finish(gens, rows, cands)
        assert finish(rows, cands, m ** 2) == (ids, pairs, n_pairs), rows
        widths.update(values + [dets])
        edges += {0, m - 1} <= set(ids)
        after = dict(zip(ids, ids[1:]))
        first += any(after[w] == g for w, g in pairs)  # the first slot read
        last += any(g == ids[-1] for _, g in pairs)
    assert {1, 2, 4, 8} <= widths
    assert edges and (m < 3 or first and last)  # +-e_1 make no pair


def test_packed_finish_refuses_a_slot_past_8_bytes():
    # a state whose values or determinants need a slot wider than 8 bytes
    # raises AssertionError; every other state returns the plain rule
    gens = enumerate_z_vectors(3, 2)
    finish = _finish_z(gens)
    cands = range(len(gens))
    raised = 0
    for rows in [((2**59, 1, 0), (0, 0, 1)),  # values in 8 bytes
                 ((2**29, 1, 0), (1, 2**29, 1)),  # determinants in 8 bytes
                 ((2**31, 1, 0), (1, 2**31, 1)),  # determinants past 8 bytes
                 ((2**62, 1, 1), (0, 1, 0))]:  # values past 8 bytes
        ids, pairs, n_pairs, values, dets = plain_finish(gens, rows, cands)
        if None in values or dets is None:
            with pytest.raises(AssertionError, match="wider than 8 bytes"):
                finish(rows, cands, len(gens) ** 2)
            raised += 1
        else:
            assert finish(rows, cands, len(gens) ** 2) == (ids, pairs, n_pairs)
            assert 8 in values or dets == 8
    assert raised == 2


def test_truncation_budget():
    with pytest.raises(ResourceLimitError, match=r"truncated K\(Z\^3\), max_norm=5"):
        build_truncated_universal_z("K", 3, 5, budget=1000)


@pytest.mark.parametrize("variant,n,max_norm", [("K", 3, 4), ("X", 2, 5)])
def test_truncation_budget_edge(variant, n, max_norm):
    # n = 3 finishes its top level in batches under the edges; n = 2 finishes
    # it straight from the vertices
    total = build_truncated_universal_z(variant, n, max_norm).n_simplices
    K = build_truncated_universal_z(variant, n, max_norm, budget=total)
    assert K.n_simplices == total
    what = rf"truncated {variant}\(Z\^{n}\), max_norm={max_norm} exceeds"
    with pytest.raises(ResourceLimitError, match=what):
        build_truncated_universal_z(variant, n, max_norm, budget=total - 1)


def test_finish_stops_at_the_first_pair_past_room():
    # given room for r simplices, the finish returns its whole answer if
    # that fits, and otherwise the accepted ids and the pairs up to the
    # first one that takes the count past r (none if the ids alone are)
    gens = enumerate_z_vectors(3, 3)
    finish = _finish_z(gens)
    rows, cands = ((0, 1, 0), (0, 0, 1)), range(len(gens))
    ids, pairs, n_pairs = finish(rows, cands, len(gens) ** 2)
    total = len(ids) + n_pairs
    assert len(ids) > 10 and n_pairs > 100
    for room in range(total + 2):
        want = pairs if room >= total else pairs[:max(room - len(ids) + 1, 0)]
        assert finish(rows, cands, room) == (ids, want, len(want)), room


@pytest.mark.parametrize("n,max_norm,per_vertex", [(2, 100, 160), (3, 16, 1024)])
def test_refusal_holds_no_batch(monkeypatch, n, max_norm, per_vertex):
    # the vertices fit the budget and the first finish batch does not: the
    # frontier refuses it with no more memory per vertex than its states and
    # the candidates' images need (about 110 and 300 bytes here), where
    # forming the batch first held about 220 and 2600 bytes
    V = _vertex_count("K", n, max_norm, float("inf"))
    held = []
    grow = zlattice.grow_by_extension

    def frontier(*args):  # the peak is measured from here on
        held.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return grow(*args)

    monkeypatch.setattr(zlattice, "grow_by_extension", frontier)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError,
                           match=rf"truncated K\(Z\^{n}\), max_norm={max_norm} exceeds"):
            build_truncated_universal_z("K", n, max_norm, budget=V + 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - held[0] < per_vertex * V


@pytest.mark.parametrize("n,max_norm", [(2, 14), (3, 3), (3, 4), (3, 5), (4, 2)])
def test_greedy_census_is_the_homology(n, max_norm):
    # zcheck's all-vertex schedule is perfect on these truncations: one
    # critical vertex and one critical top cell per top Betti number
    K = build_truncated_universal_z("K", n, max_norm)
    census = critical_census(greedy_matching(K, list(range(K.n_vertices))))
    betti = reduced_homology(K).betti
    assert betti[:-1] == (0,) * (n - 1)
    assert census == {0: 1, n - 1: betti[-1]}


def test_w_matching_acyclic_and_sigma_critical():
    for norm in (2, 3, 4):
        K = build_truncated_universal_z("K", 2, norm)
        M = greedy_matching(K, list(range(K.n_vertices)))
        ok, cycle = check_acyclic(K, M.pairs)
        assert ok, cycle
        line_to_id = {coords_of(lab): v for v, lab in K.labels.items()}
        crit = set(M.critical)
        k = 1
        while True:
            sigma = critical_family_sigma(2, k)
            if not all(l in line_to_id for l in sigma):
                break
            assert tuple(sorted(line_to_id[l] for l in sigma)) in crit
            k += 1



@pytest.mark.parametrize("n,norm", [(2, 4), (2, 9), (3, 3)])
def test_sigma_family_stops_at_the_truncation(n, norm):
    K = build_truncated_universal_z("K", n, norm)
    got = list(sigma_family(K, n))
    assert [k for k, _ in got] == list(range(1, len(got) + 1)) and got
    for k, simp in got:
        assert simp in K
        lines = {coords_of(K.labels[v]) for v in simp}
        assert lines == set(critical_family_sigma(n, k))
    beyond = critical_family_sigma(n, len(got) + 1)
    assert not set(beyond) <= {coords_of(lab) for lab in K.labels.values()}

def test_sigma_family_is_empty_below_rank_two():
    assert list(sigma_family(build_truncated_universal_z("K", 1, 3), 1)) == []


@pytest.mark.parametrize("call,match", [
    (lambda: build_truncated_universal_z("Y", 2, 2), "variant must be 'X' or 'K', got 'Y'"),
    (lambda: critical_family_sigma(1, 1), "need n >= 2 and k >= 1"),
    (lambda: critical_family_sigma(2, 0), "need n >= 2 and k >= 1"),
], ids=["variant", "sigma_n", "sigma_k"])
def test_input_guards(call, match):
    with pytest.raises(InputError, match=match):
        call()


def test_truncations_connected_with_growing_top_betti():
    last = -1
    for norm in (2, 3, 4):
        K = build_truncated_universal_z("K", 2, norm)
        prof = reduced_homology(K)
        assert prof.betti[0] == 0
        assert prof.betti[1] > last
        last = prof.betti[1]


def test_w_matching_weight_decreases_on_descents():
    # w(sigma) = sum of 1-based line indices; strictly decreasing along the
    # lower-dimension nodes of any alternating descent
    K = build_truncated_universal_z("K", 2, 4)
    pivots = list(range(K.n_vertices))
    M = greedy_matching(K, pivots)
    partner = dict(M.pairs)  # lower cell -> upper cell

    def weight(s):
        return sum(v + 1 for v in s)

    for lo, hi in M.pairs:
        for i in range(len(hi)):
            nxt = hi[:i] + hi[i + 1:]
            if nxt == lo:
                continue
            assert weight(nxt) < weight(lo)
            # extend one more alternating step if possible
            nxt_up = partner.get(nxt)
            if nxt_up is not None:
                for j in range(len(nxt_up)):
                    far = nxt_up[:j] + nxt_up[j + 1:]
                    if far != nxt:
                        assert weight(far) < weight(nxt)


def test_sigma_family_examples():
    s1 = critical_family_sigma(2, 1)
    assert s1 == ((1, 1), (2, 1))
    s2 = critical_family_sigma(2, 2)
    assert s2 == ((1, 2), (2, 3))
    assert abs(det_cofactor([[1, 2], [2, 3]])) == 1
    s3 = critical_family_sigma(3, 1)
    assert s3 == ((1, 1, 0), (2, 1, 0), (1, 0, 1))
    assert is_unimodular_z(s3)


def cp2_pair():
    dual = SimplicialComplex.from_simplices(
        [(0, 1), (0, 2), (1, 2)], {0: "1", 1: "2", 2: "3"}
    )
    return QuasitoricPair(dual, ((1, 0, -1), (0, 1, -1)))


def test_quasitoric_pair_valid():
    ok, witness = validate_quasitoric_pair(cp2_pair())
    assert ok and witness is None


def test_quasitoric_pair_mutant_witness():
    pair = cp2_pair()
    mutant = QuasitoricPair(pair.dual_complex, ((2, 0, -1), (0, 1, -1)))
    ok, witness = validate_quasitoric_pair(mutant)
    assert not ok
    assert witness == (0, 1)  # the facet on columns 1 and 2


def test_quasitoric_n1_two_points():
    dual = SimplicialComplex.from_simplices([(0,), (1,)], {0: "1", 1: "2"})
    pair = QuasitoricPair(dual, ((1, -1),))
    ok, _ = validate_quasitoric_pair(pair)
    assert ok


def test_parse_quasitoric_pair_file():
    text = "1 2\n1 3\n2 3\n\n1 0 -1\n0 1 -1\n"
    pair = parse_quasitoric_pair(text)
    assert pair.n == 2 and pair.m == 3
    ok, _ = validate_quasitoric_pair(pair)
    assert ok


def test_parse_quasitoric_pair_skips_comments():
    text = ("# CP^2\r\n1 2\r\n1 3  # an edge\r\n2 3\r\n# matrix\r\n"
            "1 0 -1\r\n\r\n0 1 -1\r\n")
    pair, plain = parse_quasitoric_pair(text), parse_quasitoric_pair(
        "1 2\n1 3\n2 3\n\n1 0 -1\n0 1 -1\n")
    assert pair.lam == plain.lam == ((1, 0, -1), (0, 1, -1))
    assert pair.dual_complex.labels == plain.dual_complex.labels
    assert pair.dual_complex.facets() == plain.dual_complex.facets()
    # a comment line between two facet lines is skipped too: the matrix
    # starts after the blank line
    pair = parse_quasitoric_pair("1 2\n# the third edge closes the triangle\n"
                                 "1 3\n2 3\n\n1 0 -1\n0 1 -1\n")
    assert pair.lam == plain.lam
    assert pair.dual_complex.facets() == plain.dual_complex.facets()
    assert validate_quasitoric_pair(pair) == (True, None)
    with pytest.raises(InputError, match="repeated vertex in facet line: '1 1'"):
        parse_quasitoric_pair("1 1\n1 3\n\n1 0\n")
    with pytest.raises(InputError, match="bad matrix row: '1 x'"):
        parse_quasitoric_pair("1 2\n\n1 x  # not an integer\n")


def test_parse_quasitoric_pair_shape_errors():
    with pytest.raises(InputError):
        parse_quasitoric_pair("1 2\n2 3\n")  # no matrix block
    bad = "1 2\n1 3\n2 3\n\n1 0\n0 1\n"  # too few columns
    with pytest.raises(InputError):
        validate_quasitoric_pair(parse_quasitoric_pair(bad))
