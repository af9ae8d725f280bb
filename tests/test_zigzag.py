import hashlib
import random

import pytest

from relcell.algebra import table_to_json
from relcell.celldata import (
    decomposition_matrix,
    det_int,
    is_semisimple,
    run_pipeline,
    simple_set,
    verify_cell_datum,
)
from relcell import zigzag
from relcell.families import SizeLimit, build_family
from relcell.field import QQ
from relcell.zigzag import (
    InvalidSpec,
    QuiverSpec,
    algebra_dimension,
    alternate_idempotent_datum,
    build_zigzag,
    compose,
    normalize,
    path_basis,
    star_path,
)

TRIDIAG = {
    3: [[2, 1, 0], [1, 2, 1], [0, 1, 2]],
    4: [[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1], [0, 0, 1, 2]],
    5: [[2, 1, 0, 0, 0], [1, 2, 1, 0, 0], [0, 1, 2, 1, 0], [0, 0, 1, 2, 1], [0, 0, 0, 1, 2]],
}
CIRCULANT = {
    3: [[2, 1, 1], [1, 2, 1], [1, 1, 2]],
    4: [[2, 1, 0, 1], [1, 2, 1, 0], [0, 1, 2, 1], [1, 0, 1, 2]],
    5: [
        [2, 1, 0, 0, 1],
        [1, 2, 1, 0, 0],
        [0, 1, 2, 1, 0],
        [0, 0, 1, 2, 1],
        [1, 0, 0, 1, 2],
    ],
}


def test_n2_rejected():
    with pytest.raises(InvalidSpec):
        QuiverSpec("A", 2)
    with pytest.raises(InvalidSpec):
        QuiverSpec("cycS", 2)
    with pytest.raises(InvalidSpec):
        QuiverSpec("cycL", 2)


def test_path_products_examples():
    a3 = QuiverSpec("A", 3)
    c3 = QuiverSpec("cycS", 3)
    # e_i o e_j = delta_ij e_i
    assert compose(a3, (1,), (1,)) == (1,)
    assert compose(a3, (1,), (2,)) is None
    # (1|2) o (2|1) = (1|2|1) = (1|3|1) in the cycle: one loop class
    loop = compose(c3, (1, 2), (2, 1))
    assert loop == normalize(c3, (1, 3, 1))
    # going two steps in one direction is zero
    assert compose(a3, (1, 2), (2, 3)) is None
    assert compose(c3, (1, 2), (2, 3)) is None


def test_loop_squares_to_zero():
    for spec in (QuiverSpec("A", 3), QuiverSpec("cycS", 3)):
        loop = normalize(spec, (2, 1, 2))
        assert compose(spec, loop, loop) is None


def test_star_reverses():
    assert star_path((1, 2, 3)) == (3, 2, 1)


def test_dims():
    assert len(path_basis(QuiverSpec("A", 3))) == 10
    assert len(path_basis(QuiverSpec("cycS", 3))) == 12
    assert len(path_basis(QuiverSpec("cycL", 3))) == 27
    assert len(path_basis(QuiverSpec("cycL", 4))) == 64


def test_cycl_vertex_pair_dimension():
    # dim e_j R' e_i = n for every pair (Cartan all-n)
    for n in (3, 4, 5, 6):
        spec = QuiverSpec("cycL", n)
        basis = path_basis(spec)
        for i in spec.vertices():
            for j in spec.vertices():
                cnt = sum(1 for p in basis if p[0] == i and p[-1] == j)
                assert cnt == n


def test_rewrite_confluence_products_land_in_basis():
    for variant, ns in (("A", (3, 4, 5)), ("cycS", (3, 4, 5)), ("cycL", (3, 4, 5))):
        for n in ns:
            spec = QuiverSpec(variant, n)
            basis = path_basis(spec)
            bset = set(basis)
            for a in basis:
                for b in basis:
                    nf = compose(spec, a, b)
                    assert nf is None or nf in bset


def test_flip_order_does_not_matter():
    # a flip keeps a path's up and down step counts, from which normalize
    # reads the class; spot-check that random flip walks agree with it
    spec = QuiverSpec("cycL", 3)
    rnd = random.Random(1)
    basis = path_basis(spec)
    for _ in range(300):
        a, b = rnd.choice(basis), rnd.choice(basis)
        if a[-1] != b[0]:
            continue
        path = a + b[1:]
        cur = path
        for _ in range(30):
            spots = [
                (i, w)
                for i in range(1, len(cur) - 1)
                if cur[i - 1] == cur[i + 1]
                for w in spec.neighbors(cur[i - 1])
                if w != cur[i]
            ]
            if not spots:
                break
            i, w = rnd.choice(spots)
            cur = cur[:i] + (w,) + cur[i + 1 :]
        assert normalize(spec, cur) == normalize(spec, path)


def flip_class_normal_form(spec, p):
    """Reference from the definition: the flip class of p, searched member
    by member over (a|b|a) -> (a|c|a); None if some member has cap equal
    consecutive steps, else the smallest member.  Returns (class, result)."""
    cap = spec.n if spec.variant == "cycL" else 2
    seen, queue = {p}, [p]
    while queue:
        cur = queue.pop()
        for i in range(1, len(cur) - 1):
            if cur[i - 1] != cur[i + 1]:
                continue
            for w in spec.neighbors(cur[i - 1]):
                alt = cur[:i] + (w,) + cur[i + 1 :]
                if alt not in seen:
                    seen.add(alt)
                    queue.append(alt)

    def forbidden(q):
        steps = [(b - a) % spec.n for a, b in zip(q, q[1:])]
        return any(len(set(steps[i : i + cap])) == 1 for i in range(len(steps) - cap + 1))

    return seen, None if any(forbidden(q) for q in seen) else min(seen)


def test_normal_form_equals_flip_class_reference():
    # every path of length up to 2n + 2, each flip class searched once
    checked = 0
    for variant in ("A", "cycS", "cycL"):
        for n in (3, 4):
            spec = QuiverSpec(variant, n)
            layer = [(v,) for v in spec.vertices()]
            for _ in range(2 * n + 3):
                expected = {}
                for p in layer:
                    if p not in expected:
                        members, nf = flip_class_normal_form(spec, p)
                        expected.update(dict.fromkeys(members, nf))
                    assert normalize(spec, p) == expected[p], (spec, p)
                checked += len(layer)
                layer = [p + (w,) for p in layer for w in spec.neighbors(p[-1])]
    assert checked == 20809


def test_long_cycle_normal_form_is_linear():
    # the flip class of this length-22 path has C(22, 11) members
    spec = QuiverSpec("cycL", 12)
    path = tuple(range(1, 13)) + tuple(range(11, 0, -1))
    assert normalize(spec, path) == (1, 2) * 11 + (1,)


@pytest.mark.parametrize(
    "variant, n, size, digest",
    [
        ("A", 3, 1131, "02a7e48ac4ea29a483042578f3bc915b8cf2acd6f30281226142d44a7366bd81"),
        ("cycS", 3, 1408, "d52aab7a3022e07931a0c6459c2e7c4dc3bc89feb585adf798bb300133afff01"),
        ("cycL", 3, 4638, "c201e132bed679009b5b7a93a718d1172e75a30cfc9aec06ca94e00e7232814e"),
        ("cycL", 5, 42261, "8e912c8fe0dead5317e7df848504a02c2be73ad2c627f34160853a756e310f69"),
    ],
)
def test_structure_constants_pinned(variant, n, size, digest):
    # the serialized table, every structure constant included
    alg, _ = build_zigzag(QuiverSpec(variant, n), QQ)
    text = table_to_json(alg).encode()
    assert (len(text), hashlib.sha256(text).hexdigest()) == (size, digest)


@pytest.mark.parametrize("variant", ["A", "cycS", "cycL"])
def test_products_match_path_reference(variant):
    # the key-arithmetic kernel against compose, the path product, on every pair
    spec = QuiverSpec(variant, 6)
    alg, _ = build_zigzag(spec, QQ)
    paths = [compose(spec, lab.S, star_path(lab.T)) for lab in alg.basis]
    index = {p: i for i, p in enumerate(paths)}
    for i in range(alg.dim):
        for j in range(alg.dim):
            nf = compose(spec, paths[i], paths[j])
            assert alg.mult_basis(i, j) == ({} if nf is None else {index[nf]: QQ.one})


def test_products_read_no_paths_after_build(monkeypatch):
    alg, d = build_zigzag(QuiverSpec("cycL", 5), QQ)

    def no_paths(*args):
        raise AssertionError("a product rewrote a path")

    monkeypatch.setattr(zigzag, "normalize", no_paths)
    monkeypatch.setattr(zigzag, "compose", no_paths)
    alg.materialize()
    assert len(alg._memo) == 5**5
    assert verify_cell_datum(d).all_passed


def test_faulty_labels_fail_the_bijection_check(monkeypatch):
    msets = zigzag._msets

    def one_label_short(spec):
        X, M = msets(spec)
        return X, {**M, X[0]: M[X[0]][:-1]}

    monkeypatch.setattr(zigzag, "_msets", one_label_short)
    with pytest.raises(InvalidSpec, match="biject"):
        build_zigzag(QuiverSpec("cycL", 3), QQ)


def test_faulty_keys_fail_the_star_check(monkeypatch):
    # keyed by the end vertex instead of the start: still one key per class,
    # but reversal no longer maps (s, u, d) ending at e to (e, d, u)
    key = zigzag.class_key
    monkeypatch.setattr(zigzag, "class_key", lambda spec, p: (p[-1],) + key(spec, p)[1:])
    with pytest.raises(InvalidSpec, match="star"):
        build_zigzag(QuiverSpec("cycS", 4), QQ)


@pytest.mark.parametrize("variant", ["A", "cycS", "cycL"])
def test_algebra_dimension_closed_form(variant):
    for n in range(3, 9):
        spec = QuiverSpec(variant, n)
        assert algebra_dimension(spec) == len(path_basis(spec))


def test_size_guard_builds_no_msets(monkeypatch):
    def no_msets(spec):
        raise AssertionError("the size guard built the M-sets")

    monkeypatch.setattr(zigzag, "_msets", no_msets)
    with pytest.raises(SizeLimit, match="1000000000000000"):
        build_family("zigzag:cycL:100000")


@pytest.mark.parametrize("n", [3, 4, 5])
def test_cartan_line(n):
    alg, d = build_zigzag(QuiverSpec("A", n), QQ)
    C, D, minors = run_pipeline(d, "C")["C"]
    assert C == TRIDIAG[n]
    assert det_int(C) > 0


@pytest.mark.parametrize("n", [3, 4, 5])
def test_cartan_cycle_short(n):
    alg, d = build_zigzag(QuiverSpec("cycS", n), QQ)
    C, D, minors = run_pipeline(d, "C")["C"]
    assert C == CIRCULANT[n]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_cartan_cycle_long(n):
    alg, d = build_zigzag(QuiverSpec("cycL", n), QQ)
    C, D, minors = run_pipeline(d, "C")["C"]
    assert C == [[n] * n for _ in range(n)]
    assert det_int(C) == 0


def test_decomposition_matrices_n3(zigzag_a3, zigzag_cycs3, zigzag_cycl3):
    alg, d = zigzag_a3
    assert run_pipeline(d, "D")["D"] == [[1, 0, 0], [1, 1, 0], [0, 1, 1], [0, 0, 1]]
    alg, d = zigzag_cycs3
    D = run_pipeline(d, "D")["D"]
    # the expected D up to row order
    assert sorted(D) == sorted([[1, 0, 1], [1, 1, 0], [0, 1, 1]])
    alg, d = zigzag_cycl3
    assert run_pipeline(d, "D")["D"] == [[1, 1, 1]] * 3


def test_verify_all_data(zigzag_a3, zigzag_cycs3, zigzag_cycl3):
    for alg, d in (zigzag_a3, zigzag_cycs3, zigzag_cycl3):
        assert verify_cell_datum(d).all_passed, d.name


def test_x0_of_line(zigzag_a3):
    alg, d = zigzag_a3
    ss = simple_set(d)
    assert ss.X0 == [1, 2, 3]
    assert not is_semisimple(d, ss)


def test_alternate_datum():
    alg, d = alternate_idempotent_datum(QQ)
    assert verify_cell_datum(d).all_passed
    # order under e1 is 3 < 1 < 2
    o = d.orders[0]
    assert o.less(3, 1) and o.less(1, 2) and o.less(3, 2)
    assert not o.less(2, 1)
    # Cartan is datum independent
    C, _, _ = run_pipeline(d, "C")["C"]
    assert C == CIRCULANT[3]


def test_multiply_paths_cycle_example():
    c3 = QuiverSpec("cycS", 3)
    # all 2-cycles at a vertex are equal
    assert normalize(c3, (1, 2, 1)) == normalize(c3, (1, 3, 1))


def test_projective_cell_filtration_dims(zigzag_a3, zigzag_cycs3, zigzag_cycl3):
    # dim R e(lam) equals the filtration total sum_mu d_{mu,lam} dim Delta(mu),
    # supported on mu <=_{lam} lam
    from relcell.algebra import left_ideal_module

    for alg, d in (zigzag_a3, zigzag_cycs3, zigzag_cycl3):
        ss = simple_set(d)
        D = decomposition_matrix(d, ss)
        for lam, e in d.primitive_idempotents.items():
            if lam not in ss.X0:
                continue
            ci = ss.X0.index(lam)
            P = left_ideal_module(alg, e)
            total = sum(D[ri][ci] * len(d.M[mu]) for ri, mu in enumerate(d.X))
            assert P.dim == total
            eps_candidates = {d.eps_of(lam, S) for S in d.M[lam]}
            for ri, mu in enumerate(d.X):
                if D[ri][ci] and mu != lam:
                    assert any(d.orders[a].less(mu, lam) for a in eps_candidates)
