"""Reciprocity C = D^T D: the Peirce-rank check in cartan_matrix and its faults.

cartan_matrix checks C against dim eAf, for the registered primitive
idempotents where every simple has one and for E otherwise.  The tests below
check C against the radical series of P(lam) = A e_lam, run the E form on
families that also register primitives, and hand cartan_matrix wrong
idempotents and wrong D to see the check raise.
"""

from itertools import combinations, permutations

import pytest

from relcell import algebra
from relcell.algebra import composition_multiplicities, left_ideal_module, peirce_dims, unit_element
from relcell.celldata import ReciprocityFailure, cartan_matrix, decomposition_matrix, simple_set
from relcell.families import build_family

from reference import peirce_dims_dense


@pytest.fixture(scope="module")
def pipeline():
    cache = {}

    def get(spec):
        if spec not in cache:
            alg, d = build_family(spec)
            ss = simple_set(d)
            cache[spec] = (alg, d, ss, decomposition_matrix(d, ss))
        return cache[spec]

    return get


@pytest.mark.parametrize("spec", ["zigzag:A:3", "zigzag:cycS:3", "annular:n=1"])
def test_cartan_rows_equal_radical_series_of_projectives(pipeline, spec):
    alg, d, ss, D = pipeline(spec)
    C, _, _ = cartan_matrix(d, ss, D)
    simples = [ss.modules[lam] for lam in ss.X0]
    for a, lam in enumerate(ss.X0):
        P = left_ideal_module(alg, d.primitive_idempotents[lam])
        assert composition_multiplicities(P, simples) == C[a], lam


@pytest.mark.parametrize("spec", ["zigzag:cycL:3", "usl2:p=3", "annular:n=1"])
def test_peirce_dims_of_unit_is_dim_a(pipeline, spec):
    alg, d, _, _ = pipeline(spec)
    assert peirce_dims(alg, [unit_element(alg, d.E)]) == [[alg.dim]]
    assert sum(map(sum, peirce_dims(alg, d.E))) == alg.dim


@pytest.mark.parametrize("spec", ["zigzag:A:5", "zigzag:cycS:4", "zigzag:cycL:4", "usl2:p=5", "annular:n=2"])
def test_sparse_peirce_dims_equal_the_dense_sweep(spec):
    alg, d = build_family(spec)
    for idems in (d.E, list(d.primitive_idempotents.values()), [unit_element(alg, d.E)]):
        assert peirce_dims(alg, idems) == peirce_dims_dense(alg, idems)


def test_peirce_dims_eliminate_only_joined_pairs(monkeypatch):
    # zigzag:A:40 has 40 primitives and 1,600 (e, f) pairs; an elimination
    # runs only where some x f is nonzero, and then its rank is positive
    alg, d = build_family("zigzag:A:40")
    prims = list(d.primitive_idempotents.values())
    made = []
    echelon = algebra.Echelon

    def counted(*args):
        made.append(args)
        return echelon(*args)

    monkeypatch.setattr(algebra, "Echelon", counted)
    P = peirce_dims(alg, prims)
    monkeypatch.undo()
    assert len(prims) == 40
    nonzero = sum(1 for row in P for x in row if x)
    assert len(made) == nonzero < 40 * 40
    assert P == peirce_dims_dense(alg, prims)


def _with_idempotents(d, prims):
    return d._replace(primitive_idempotents=prims)


@pytest.mark.parametrize("spec", ["zigzag:A:3", "zigzag:cycL:3", "annular:n=1", "annular:n=2"])
def test_peirce_ranks_of_e_agree_without_primitives(pipeline, spec):
    _, d, ss, D = pipeline(spec)
    assert cartan_matrix(_with_idempotents(d, {}), ss, D)[0] == cartan_matrix(d, ss, D)[0]


@pytest.mark.parametrize("spec", ["zigzag:A:3", "annular:n=2"])
def test_swapped_idempotents_raise(pipeline, spec):
    _, d, ss, D = pipeline(spec)
    C = cartan_matrix(d, ss, D)[0]
    X0 = ss.X0
    n = len(X0)
    seen = 0
    for a, b in combinations(range(n), 2):
        sigma = list(range(n))
        sigma[a], sigma[b] = b, a
        if all(C[sigma[x]][sigma[y]] == C[x][y] for x in range(n) for y in range(n)):
            continue  # C cannot tell these two apart
        seen += 1
        prims = dict(d.primitive_idempotents)
        prims[X0[a]], prims[X0[b]] = prims[X0[b]], prims[X0[a]]
        with pytest.raises(ReciprocityFailure, match="C gives"):
            cartan_matrix(_with_idempotents(d, prims), ss, D)
    assert seen


@pytest.mark.parametrize("spec", ["zigzag:A:3", "annular:n=2"])
def test_non_primitive_idempotent_raises(pipeline, spec):
    _, d, ss, D = pipeline(spec)
    for lam, mu in permutations(ss.X0, 2):
        prims = dict(d.primitive_idempotents)
        prims[lam] = prims[lam] + prims[mu]
        with pytest.raises(ReciprocityFailure, match="C gives"):
            cartan_matrix(_with_idempotents(d, prims), ss, D)


@pytest.mark.parametrize("spec", ["usl2:p=3", "usl2:p=5", "zigzag:A:3"])
def test_wrong_decomposition_entry_raises(pipeline, spec):
    _, d, ss, D = pipeline(spec)
    for r in range(len(D)):
        for c in range(len(D[r])):
            for delta in (1, -1):
                bad = [list(row) for row in D]
                bad[r][c] += delta
                with pytest.raises(ReciprocityFailure, match="C gives"):
                    cartan_matrix(d, ss, bad)


@pytest.mark.parametrize("spec", ["usl2:p=3", "usl2:p=5"])
def test_misidentified_composition_factor_raises(pipeline, spec):
    # One L(lam) read as dim L(lam) copies of the one-dimensional simple: the
    # row still adds up to dim Delta, but the weight spaces e L do not.
    _, d, ss, D = pipeline(spec)
    one = next(i for i, lam in enumerate(ss.X0) if ss.dims[lam] == 1)
    seen = 0
    for r, row in enumerate(D):
        for c, lam in enumerate(ss.X0):
            if c == one or row[c] == 0:
                continue
            seen += 1
            bad = [list(x) for x in D]
            bad[r][c] -= 1
            bad[r][one] += ss.dims[lam]
            with pytest.raises(ReciprocityFailure, match="C gives"):
                cartan_matrix(d, ss, bad)
    assert seen
