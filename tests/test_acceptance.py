"""Acceptance suite: every criterion asserts its exact expected values and
prints one PASS line (run with -s to see them; any failure fails the test).

Criteria, in order: Cartan tables, decomposition tables + reciprocity,
dimensions, the restricted-sl2 Gram table, the axiom suite with a fault
injection, surgery well-definedness + associativity, Frobenius forms +
non-semisimplicity, the annular fastpath + projective dimensions, and
End(Delta) with the Cartan determinant signs.
"""

import random
import time

import pytest

from relcell.algebra import hom_space, left_ideal_module
from relcell.annular import (
    admissible_orders,
    algebra_dimension,
    build_annular,
    decomposition_fastpath,
    frobenius_gram,
    multiply_labels,
    projective_dimension,
    weight_list,
)
from relcell.celldata import (
    cartan_matrix,
    decomposition_matrix,
    det_int,
    is_semisimple,
    run_pipeline,
    simple_set,
    verify_cell_datum,
)
from relcell.diagrams import enumerate_cup_diagrams, orients
from relcell.field import QQ
from relcell.linalg import Echelon
from relcell.usl2 import build_usl2, gram_diagonal_formula
from relcell.zigzag import (
    QuiverSpec,
    alternate_idempotent_datum,
    build_zigzag,
)

from reference import dense_gram, int_matmul, int_transpose, peirce_triple, reversed_order_datum

EXPECTED_CARTAN = {
    "zigzag:A:3": [[2, 1, 0], [1, 2, 1], [0, 1, 2]],
    "zigzag:cycS:3": [[2, 1, 1], [1, 2, 1], [1, 1, 2]],
    "zigzag:cycL:3": [[3, 3, 3], [3, 3, 3], [3, 3, 3]],
    "usl2:p=3": [[2, 2, 0], [2, 2, 0], [0, 0, 1]],
    "annular:n=1": [[2, 2], [2, 2]],
    "annular:n=2": [
        [4, 2, 2, 4, 2, 4],
        [2, 4, 4, 2, 4, 2],
        [2, 4, 4, 2, 4, 2],
        [4, 2, 2, 4, 2, 4],
        [2, 4, 4, 2, 4, 2],
        [4, 2, 2, 4, 2, 4],
    ],
}

EXPECTED_D = {
    "zigzag:A:3": [[1, 0, 0], [1, 1, 0], [0, 1, 1], [0, 0, 1]],
    "zigzag:cycS:3": [[1, 0, 1], [1, 1, 0], [0, 1, 1]],
    "zigzag:cycL:3": [[1, 1, 1], [1, 1, 1], [1, 1, 1]],
    "usl2:p=3": [[1, 1, 0], [1, 1, 0], [0, 0, 1]],
}


def _builders():
    return {
        "zigzag:A:3": lambda: build_zigzag(QuiverSpec("A", 3), QQ),
        "zigzag:cycS:3": lambda: build_zigzag(QuiverSpec("cycS", 3), QQ),
        "zigzag:cycL:3": lambda: build_zigzag(QuiverSpec("cycL", 3), QQ),
        "usl2:p=3": lambda: build_usl2(3),
        "annular:n=1": lambda: build_annular(1, QQ),
        "annular:n=2": lambda: build_annular(2, QQ),
    }


def canonical_sym(matrix):
    """Minimal simultaneous row/column permutation of a square matrix."""
    from itertools import permutations

    n = len(matrix)
    best = None
    for perm in permutations(range(n)):
        cand = tuple(tuple(matrix[perm[i]][perm[j]] for j in range(n)) for i in range(n))
        if best is None or cand < best:
            best = cand
    return best


def canonical_rect(matrix):
    """Row order free, column order canonicalized by brute force."""
    from itertools import permutations

    cols = len(matrix[0])
    best = None
    for perm in permutations(range(cols)):
        cand = tuple(sorted(tuple(row[j] for j in perm) for row in matrix))
        if best is None or cand < best:
            best = cand
    return best


@pytest.fixture(scope="module")
def pipelines():
    """Fresh builds with their simple sets, D and C, timed for criterion 1."""
    out = {}
    t0 = time.monotonic()
    for name, make in _builders().items():
        alg, datum = make()
        ss = simple_set(datum)
        D = decomposition_matrix(datum, ss)
        C, _, minors = cartan_matrix(datum, ss, D)
        out[name] = (alg, datum, ss, D, C, minors)
    out["elapsed"] = time.monotonic() - t0
    return out


def test_criterion_1_cartan_tables(pipelines):
    for name, expected in EXPECTED_CARTAN.items():
        C = pipelines[name][4]
        assert canonical_sym(C) == canonical_sym(expected), name
    assert pipelines["elapsed"] < 60.0, f"took {pipelines['elapsed']:.1f}s"
    print(f"ACCEPTANCE 1: PASS  Cartan tables exact ({pipelines['elapsed']:.1f}s)")


def test_criterion_2_decomposition_and_reciprocity(pipelines):
    for name, expected in EXPECTED_D.items():
        D = pipelines[name][3]
        assert canonical_rect(D) == canonical_rect(expected), name
    # usl2 p=3 factorization appears with the exact printed row order
    assert pipelines["usl2:p=3"][3] == EXPECTED_D["usl2:p=3"]
    for name, entry in pipelines.items():
        if name == "elapsed":
            continue
        D, C = entry[3], entry[4]
        assert C == int_matmul(int_transpose(D), D), name
    print("ACCEPTANCE 2: PASS  decomposition tables and C = D^T D exact")


def test_criterion_3_dimensions():
    for p in (3, 5, 7):
        alg, _ = build_usl2(p)
        assert alg.dim == p**3
    assert algebra_dimension(2) == 108
    assert algebra_dimension(3) == 1664
    pdims = [projective_dimension(3, lam) for lam in weight_list(3)]
    assert set(pdims) == {80, 88}
    assert sum(pdims) == 1664
    print("ACCEPTANCE 3: PASS  dimensions p^3 / 108 / 1664, dim P in {80, 88}")


def test_criterion_4_gram_tables():
    printed_p3 = {0: [1, 0, 0], 1: [1, 1, 0], 2: [1, 2, 1]}
    for p in (3, 5, 7):
        alg, datum = build_usl2(p)
        expected = gram_diagonal_formula(p)
        from relcell.celldata import simple_set

        grams = simple_set(datum).grams
        for lam in range(p):
            g = dense_gram(datum, lam, grams[lam])
            assert [g[i, i] for i in range(p)] == expected[lam], (p, lam)
            assert all(not g[i, j] for i in range(p) for j in range(p) if i != j)
            if p == 3:
                assert [g[i, i] for i in range(p)] == printed_p3[lam]
    print("ACCEPTANCE 4: PASS  Gram = diag((S!)^2 binom(lam,S)) for p in {3,5,7}")


def test_criterion_5_axiom_suite(pipelines):
    data = [pipelines[k][1] for k in (
        "zigzag:A:3", "zigzag:cycS:3", "zigzag:cycL:3", "usl2:p=3", "annular:n=1", "annular:n=2",
    )]
    _, alt = alternate_idempotent_datum(QQ)
    _, u5 = build_usl2(5)
    data.extend([alt, u5])
    for d in data:
        report = verify_cell_datum(d)
        assert report.all_passed, f"{d.name}: {report}"
    _, bad = reversed_order_datum(QQ)
    report = verify_cell_datum(bad)
    failed = [r for r in report.results if not r.passed]
    assert failed and all(r.witness for r in failed)
    print(f"ACCEPTANCE 5: PASS  axioms hold on 8 data, fault witnessed: {failed[0].witness[:60]}...")


def test_criterion_6_well_definedness_and_associativity(pipelines):
    t0 = time.monotonic()
    # exhaustive order independence on K_1 and K_2
    for n in (1, 2):
        alg = pipelines[f"annular:n={n}"][0]
        for a in alg.basis:
            for b in alg.basis:
                if a.T != b.S:
                    continue
                seqs = admissible_orders(n, a.T)
                results = {
                    _freeze(multiply_labels(n, (a.S, a.lam, a.T), (b.S, b.lam, b.T), order=s))
                    for s in seqs
                }
                assert len(results) == 1, (a, b)
    # >= 10^3 random K_3 products, all admissible orders each
    rnd = random.Random(2024)
    cups3 = enumerate_cup_diagrams(3)
    weights3 = weight_list(3)
    msets = {w: [S for S in cups3 if orients(S, w)] for w in weights3}
    done = 0
    while done < 1000:
        lam, mu = rnd.choice(weights3), rnd.choice(weights3)
        T = rnd.choice(msets[lam])
        if not orients(T, mu):
            continue
        S, V = rnd.choice(msets[lam]), rnd.choice(msets[mu])
        results = {
            _freeze(multiply_labels(3, (S, lam, T), (T, mu, V), order=s))
            for s in admissible_orders(3, T)
        }
        assert len(results) == 1
        done += 1
    # >= 10^4 random associativity triples per family, each with b_i b_j and
    # b_j b_k unmasked, and at least the floor of them with (b_i b_j) b_k != 0
    # (measured at seed 99: 3167, 2555, 1336, 3011, 2447, 546, 2557, 2542, 147)
    k3 = build_annular(3, QQ)[0]
    families = [pipelines[k][0] for k in _builders()] + [build_usl2(5)[0], build_usl2(7)[0], k3]
    floors = [2500, 2000, 1000, 2500, 2000, 400, 2000, 2000, 100]
    for alg, floor in zip(families, floors, strict=True):
        rnd = random.Random(99)
        nonzero = 0
        for _ in range(10_000):
            i, j, k = peirce_triple(alg, rnd)
            x, y, z = (alg.basis_element(t) for t in (i, j, k))
            lhs = (x * y) * z
            assert lhs == x * (y * z), (alg.name, i, j, k)
            nonzero += bool(lhs.coeffs)
        assert nonzero >= floor, (alg.name, nonzero)
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0, f"took {elapsed:.1f}s"
    print(f"ACCEPTANCE 6: PASS  surgery well-defined, associativity sampled ({elapsed:.0f}s)")


def _freeze(d):
    return frozenset(d.items())


def test_criterion_7_frobenius_and_nonsemisimplicity(pipelines):
    for n in (1, 2):
        alg = pipelines[f"annular:n={n}"][0]
        G = frobenius_gram(alg)
        assert Echelon(alg.field, alg.dim, G.values()).rank == alg.dim, f"sigma degenerate for K_{n}"
    for name, entry in pipelines.items():
        if name == "elapsed":
            continue
        alg, datum, ss = entry[0], entry[1], entry[2]
        assert is_semisimple(datum, ss) is False, name
    print("ACCEPTANCE 7: PASS  sigma nondegenerate (K_1, K_2), nothing semisimple")


def test_criterion_8_fastpath_and_projective_filtration(pipelines):
    for n in (1, 2):
        alg, datum, ss, D, _, _ = pipelines[f"annular:n={n}"]
        assert decomposition_fastpath(n, datum.X, ss.X0) == D, f"fastpath mismatch K_{n}"
        for lam, e in datum.primitive_idempotents.items():
            P = left_ideal_module(alg, e)
            assert P.dim == projective_dimension(n, lam)
            # the filtration dimensions: sum over mu of d_{mu,lam} dim Delta(mu)
            ci = ss.X0.index(lam)
            total = sum(D[ri][ci] * len(datum.M[mu]) for ri, mu in enumerate(datum.X))
            assert P.dim == total
    print("ACCEPTANCE 8: PASS  fastpath D = engine D; dim P = sum of 2^n cell modules")


def test_criterion_9_end_delta_and_determinants(pipelines):
    for name, entry in pipelines.items():
        if name == "elapsed":
            continue
        alg, datum, ss = entry[0], entry[1], entry[2]
        for lam in ss.X0:
            assert len(hom_space(ss.cell_modules[lam], ss.cell_modules[lam])) == 1, (name, lam)
    for name in ("zigzag:cycL:3", "usl2:p=3", "annular:n=1", "annular:n=2"):
        assert det_int(pipelines[name][4]) == 0, name
    _, d4 = build_zigzag(QuiverSpec("cycL", 4), QQ)
    C4, _, _ = run_pipeline(d4, "C")["C"]
    assert det_int(C4) == 0
    for name in ("zigzag:A:3",):
        assert det_int(pipelines[name][4]) > 0, name
    _, a4 = build_zigzag(QuiverSpec("A", 4), QQ)
    CA4, _, _ = run_pipeline(a4, "C")["C"]
    assert det_int(CA4) > 0
    print("ACCEPTANCE 9: PASS  End(Delta) = K everywhere; det C zero/positive as stated")
