import hashlib
import random
from itertools import combinations
from math import comb

import pytest

from relcell.algebra import BasisLabel, table_to_json
from relcell.annular import (
    _available_pairs,
    admissible_orders,
    algebra_dimension,
    build_annular,
    dimension_lower_bound,
    decomposition_fastpath,
    frobenius_gram,
    multiply_labels,
    projective_dimension,
    weight_list,
)
from relcell.celldata import (
    decomposition_matrix,
    det_int,
    is_semisimple,
    run_pipeline,
    simple_set,
    verify_cell_datum,
)
from relcell.diagrams import (
    ACW,
    CW,
    Arc,
    anticlockwise_weight,
    classify_diagram,
    cup_order_less,
    enumerate_cup_diagrams,
    flip_weight,
    format_basis_label,
    make_cup,
    orients,
)
from relcell.families import SizeLimit, build_family
from relcell.field import QQ
from relcell.algebra import left_ideal_module

from relcell.linalg import Echelon

from reference import dense_gram, frobenius_matrix, peirce_triple, rotate_element


def test_dimensions():
    assert algebra_dimension(1) == 8
    assert algebra_dimension(2) == 108
    assert algebra_dimension(3) == 1664


def test_size_guard():
    with pytest.raises(SizeLimit):
        build_family("annular:n=3", 1000)


def test_size_guard_refuses_large_n_without_counting(monkeypatch):
    def no_count(n):
        raise AssertionError("the size guard enumerated K_n")

    monkeypatch.setattr("relcell.annular.algebra_dimension", no_count)
    with pytest.raises(SizeLimit, match="at least 12745441280 > limit 2000"):
        build_family("annular:n=9")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dimension_lower_bound(n):
    weights, cups = weight_list(n), enumerate_cup_diagrams(n)
    assert len(weights) == len(cups) == comb(2 * n, n)
    assert all(sum(1 for w in weights if orients(S, w)) == 2**n for S in cups)
    bound, dim = dimension_lower_bound(n), algebra_dimension(n)
    assert bound <= dim
    assert (bound == dim) == (n == 1)


@pytest.mark.parametrize(
    "fixture, size, digest",
    [
        ("k1", 1340, "6f0d3116364f0a57bec6033e9a32f565751e1ae2e4a436a50555c753d474b8bd"),
        ("k2", 34999, "0fbe681ae506619f50bdee68fbfdbe7da7b8606d6f29747d3a3f042a559371b2"),
    ],
)
def test_structure_constants_pinned(request, fixture, size, digest):
    # the serialized table of K_1 and K_2, every structure constant included
    alg, _ = request.getfixturevalue(fixture)
    text = table_to_json(alg).encode()
    assert (len(text), hashlib.sha256(text).hexdigest()) == (size, digest)


def test_k3_sampled_products_pinned():
    # 2,000 seeded Peirce-compatible K_3 products under the default order
    # (the whole K_3 table takes seconds, so only a sample is pinned)
    n = 3
    cups = enumerate_cup_diagrams(n)
    labels = [(S, w, T) for w in weight_list(n) for S in cups if orients(S, w) for T in cups if orients(T, w)]
    starting = {}
    for lab in labels:
        starting.setdefault(lab[0], []).append(lab)
    rnd = random.Random(13)
    h = hashlib.sha256()
    for _ in range(2000):
        a = rnd.choice(labels)
        b = rnd.choice(starting[a[2]])
        prod = sorted((format_basis_label(*k), c) for k, c in multiply_labels(n, a, b).items())
        h.update(f"{format_basis_label(*a)} * {format_basis_label(*b)} = {prod}\n".encode())
    assert h.hexdigest() == "e7d31412fceb75783b655ee643becc808063ec4356c59c23fcdbec5b4b472393"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_available_pairs_match_coverage_definition(n):
    # a pair is available iff no other unprocessed pair's coverage strictly
    # contains it, for every middle diagram and every set still to process
    from itertools import combinations

    for T in enumerate_cup_diagrams(n):
        for k in range(1, n + 1):
            for remaining in combinations(T, k):
                want = [a for a in remaining if not any(a.gaps(n) < b.gaps(n) for b in remaining)]
                assert _available_pairs(list(remaining), T, n) == want


def test_cell_module_dims_are_orientation_counts(k2):
    alg, d = k2
    cups = enumerate_cup_diagrams(2)
    for lam in d.X:
        assert len(d.M[lam]) == sum(1 for S in cups if orients(S, lam))


def test_idempotent_structure(k1, k2):
    for alg, d in (k1, k2):
        for a, e in enumerate(d.E):
            assert e * e == e
            assert e.star() == e
            for b, e2 in enumerate(d.E):
                if a != b:
                    assert (e * e2).is_zero()


def test_datum_passes(k1, k2):
    for alg, d in (k1, k2):
        assert verify_cell_datum(d).all_passed


def test_cartan_k1(k1):
    alg, d = k1
    C, D, minors = run_pipeline(d, "C")["C"]
    assert D == [[1, 1], [1, 1]]
    assert C == [[2, 2], [2, 2]]
    assert det_int(C) == 0


def test_cartan_k2_matches_printed_matrix(k2):
    alg, d = k2
    C, D, minors = run_pipeline(d, "C")["C"]
    printed = [
        [4, 2, 2, 4, 2, 4],
        [2, 4, 4, 2, 4, 2],
        [2, 4, 4, 2, 4, 2],
        [4, 2, 2, 4, 2, 4],
        [2, 4, 4, 2, 4, 2],
        [4, 2, 2, 4, 2, 4],
    ]
    assert same_up_to_simultaneous_permutation(C, printed)
    assert det_int(C) == 0


def same_up_to_simultaneous_permutation(A, B):
    from itertools import permutations

    n = len(A)
    if len(B) != n:
        return False
    for perm in permutations(range(n)):
        if all(A[perm[i]][perm[j]] == B[i][j] for i in range(n) for j in range(n)):
            return True
    return False


def test_fastpath_matches_engine(k1, k2):
    for n, (alg, d) in ((1, k1), (2, k2)):
        ss = simple_set(d)
        D = decomposition_matrix(d, ss)
        assert decomposition_fastpath(n, d.X, ss.X0) == D


def test_projective_dims(k1, k2):
    for n, (alg, d) in ((1, k1), (2, k2)):
        for lam, e in d.primitive_idempotents.items():
            P = left_ideal_module(alg, e)
            assert P.dim == projective_dimension(n, lam)
        # row sums of D are cell module dimensions (simples are 1-dim)
        ss = simple_set(d)
        D = decomposition_matrix(d, ss)
        for ri, mu in enumerate(d.X):
            assert sum(D[ri]) == len(d.M[mu])


def test_projective_dims_k3():
    dims = sorted(projective_dimension(3, lam) for lam in weight_list(3))
    assert set(dims) == {80, 88}
    assert sum(dims) == 1664


def test_not_semisimple(k1, k2):
    for alg, d in (k1, k2):
        assert not is_semisimple(d, simple_set(d))


def test_simples_all_one_dimensional(k1, k2):
    for alg, d in (k1, k2):
        ss = simple_set(d)
        assert list(ss.X0) == list(d.X)
        assert all(v == 1 for v in ss.dims.values())


# --- multiplication properties ------------------------------------------------


def test_zero_unless_middle_matches(k1):
    # on the surgery rule itself: through mult_basis the block mask decides
    alg, d = k1
    for a in alg.basis:
        for b in alg.basis:
            if a.T != b.S:
                assert multiply_labels(1, (a.S, a.lam, a.T), (b.S, b.lam, b.T)) == {}


def test_upper_triangularity(k1, k2):
    # every product term is the main C(mu;S,V) with coefficient one or a
    # friend strictly below mu in the order of eps_V, fixed by eps_S / eps_V
    for alg, d in (k1, k2):
        for i, a in enumerate(alg.basis):
            for j, b in enumerate(alg.basis):
                if a.T != b.S:
                    continue
                order = d.orders[d.eps_of(b.lam, b.T)]
                for k, c in alg.mult_basis(i, j).items():
                    t = alg.basis[k]
                    assert t.S == a.S and t.T == b.T
                    if t.lam == b.lam:
                        assert c == alg.field.one
                    else:
                        assert order.less(t.lam, b.lam), (a, b, t)
                        assert d.eps_of(t.lam, t.T) == d.eps_of(b.lam, b.T)
                        assert d.eps_of(t.lam, t.S) == d.eps_of(a.lam, a.S)


def test_order_independence_exhaustive_k1_k2(k1, k2):
    for n, (alg, d) in ((1, k1), (2, k2)):
        checked = 0
        for a in alg.basis:
            for b in alg.basis:
                if a.T != b.S:
                    continue
                orders = admissible_orders(n, a.T)
                base = multiply_labels(n, (a.S, a.lam, a.T), (b.S, b.lam, b.T), order=orders[0])
                for seq in orders[1:]:
                    got = multiply_labels(n, (a.S, a.lam, a.T), (b.S, b.lam, b.T), order=seq)
                    assert got == base
                    checked += 1
        if n == 2:
            assert checked > 0


def test_order_independence_random_k3():
    n = 3
    cups = enumerate_cup_diagrams(n)
    rnd = random.Random(7)
    weights = weight_list(n)
    msets = {w: [S for S in cups if orients(S, w)] for w in weights}
    done = 0
    while done < 1000:
        lam, mu = rnd.choice(weights), rnd.choice(weights)
        T = rnd.choice(msets[lam])
        if not orients(T, mu):
            continue
        S = rnd.choice(msets[lam])
        V = rnd.choice(msets[mu])
        orders = admissible_orders(n, T)
        base = multiply_labels(n, (S, lam, T), (T, mu, V), order=orders[0])
        for seq in orders[1:]:
            assert multiply_labels(n, (S, lam, T), (T, mu, V), order=seq) == base
        done += 1


def test_rotation_is_automorphism(k2):
    alg, d = k2
    rnd = random.Random(3)
    for _ in range(500):
        i, j = rnd.randrange(alg.dim), rnd.randrange(alg.dim)
        x, y = alg.basis_element(i), alg.basis_element(j)
        assert rotate_element(2, x * y) == rotate_element(2, x) * rotate_element(2, y)


def test_reorientation_monotonicity(k2):
    # flipping an anticlockwise circle clockwise (optionally together with the
    # clockwise circles nested inside it) strictly decreases the weight in
    # both <_{eps_S} and <_{eps_T}
    alg, d = k2
    n = 2
    for lab in alg.basis:
        tags = classify_diagram(lab.S, lab.T, lab.lam, n)
        comps = list(tags)
        for comp in comps:
            if tags[comp] != ACW:
                continue
            nested_cw = [
                c
                for c in comps
                if c != comp and tags[c] == CW and _nested_inside(c, comp, lab.S, n)
            ]
            for extra in ([], nested_cw):
                mu = _flip_vertices(lab.lam, set(comp) | {v for c in extra for v in c})
                if not (orients(lab.S, mu) and orients(lab.T, mu)):
                    continue
                assert cup_order_less(lab.S, mu, lab.lam, n), (lab, comp, mu)
                assert cup_order_less(lab.T, mu, lab.lam, n), (lab, comp, mu)


def _flip_vertices(w, verts):
    return "".join(flip_weight(c)[0] if (i + 1) in verts else c for i, c in enumerate(w))


def _nested_inside(inner_comp, outer_comp, S, n):
    # a circle is nested inside a usual circle iff the downward ray from one
    # of its vertices crosses the outer circle's cups an odd number of times
    outer_cups = [a for a in S if a.p in outer_comp]
    v = inner_comp[0]
    crossings = sum(1 for a in outer_cups if _gap_covers_vertex(a, v, n))
    return crossings % 2 == 1


def _gap_covers_vertex(a, v, n):
    gaps = a.gaps(n)
    # the vertex sits between gaps v-1 and v; the shadow covers it iff both
    # adjacent gaps are covered
    return (v - 1) % (2 * n) in gaps and v % (2 * n) in gaps


def test_associativity_random(k2):
    alg, _ = k2
    rnd = random.Random(11)
    nonzero = 0
    for _ in range(10_000):
        x, y, z = (alg.basis_element(t) for t in peirce_triple(alg, rnd))
        lhs = (x * y) * z
        assert lhs == x * (y * z)
        nonzero += bool(lhs.coeffs)
    assert nonzero >= 400  # 557 at seed 11


# --- Frobenius form ------------------------------------------------------------


def sigma_at(G, i, j, field):
    """sigma(x_i, x_j) read from the sparse rows of frobenius_gram."""
    return G.get(i, {}).get(j, field.zero)


def test_frobenius_nondegenerate(k1, k2):
    for alg, d in (k1, k2):
        G = frobenius_gram(alg)
        assert Echelon(alg.field, alg.dim, G.values()).rank == alg.dim


def test_frobenius_zero_cases(k1):
    alg, d = k1
    G = frobenius_gram(alg)
    # sigma(e, e) = 0: the product e*e = e has no all-clockwise term
    for a, e in enumerate(d.E):
        (i,) = e.coeffs
        assert not sigma_at(G, i, i, alg.field)
    # sigma vanishes whenever S != V
    for i, a in enumerate(alg.basis):
        for j, b in enumerate(alg.basis):
            if a.S != b.T:
                assert not sigma_at(G, i, j, alg.field)


def test_frobenius_associative(k2):
    alg, _ = k2
    G = frobenius_gram(alg)
    f = alg.field

    def sigma(x, y):
        total = f.zero
        for i, ci in x.coeffs.items():
            for j, cj in y.coeffs.items():
                total = f.add(total, f.mul(f.mul(ci, cj), sigma_at(G, i, j, f)))
        return total

    rnd = random.Random(5)
    nonzero = 0
    for _ in range(300):
        x, y, z = (alg.basis_element(t) for t in peirce_triple(alg, rnd, closed=True))
        lhs = sigma(x * y, z)
        assert lhs == sigma(x, y * z)
        nonzero += lhs != f.zero
    assert nonzero >= 20  # 29 at seed 5


def test_frobenius_rows_match_the_dense_form(k1, k2):
    for alg, _ in (k1, k2):
        G, dense = frobenius_gram(alg), frobenius_matrix(alg)
        assert all(c for row in G.values() for c in row.values())
        for i in range(alg.dim):
            for j in range(alg.dim):
                assert sigma_at(G, i, j, alg.field) == dense[i, j], (alg.basis[i], alg.basis[j])


@pytest.mark.parametrize("n, dim", [(1, 8), (2, 108), (3, 1664)])
def test_frobenius_stores_one_entry_per_row(n, dim):
    alg, _ = build_annular(n, QQ)
    G = frobenius_gram(alg)
    assert sorted(G) == list(range(dim))
    assert all(len(row) == 1 for row in G.values())
    assert sum(len(row) for row in G.values()) == dim


def test_k3_spot_products():
    # a K_3 product: e * e = e for an idempotent shape with a wrapping arc
    n = 3
    S = make_cup([Arc(1, 2, False), Arc(3, 4, False), Arc(5, 6, True)])
    lam = anticlockwise_weight(S)
    assert multiply_labels(n, (S, lam, S), (S, lam, S)) == {(S, lam, S): 1}


def test_k1_gram_matrices(k1):
    from relcell.celldata import simple_set

    alg, d = k1
    one, zero = QQ.one, QQ.zero
    grams = simple_set(d).grams
    # M(v^) = [staying, wrapping]: only the staying self-pairing survives
    g = dense_gram(d, "v^", grams["v^"])
    assert [list(g.row(i)) for i in range(g.rows)] == [[one, zero], [zero, zero]]
    g = dense_gram(d, "^v", grams["^v"])
    assert [list(g.row(i)) for i in range(g.rows)] == [[zero, zero], [zero, one]]


def test_k1_hom_between_cell_modules(k1):
    from relcell.algebra import hom_space
    from relcell.celldata import simple_set

    alg, d = k1
    ss = simple_set(d)
    assert len(hom_space(ss.cell_modules["v^"], ss.cell_modules["^v"])) == 1
    assert len(hom_space(ss.cell_modules["^v"], ss.cell_modules["v^"])) == 1
