import json
import random

import pytest

from relcell.algebra import (
    ZERO_PRODUCT,
    AlgebraMismatch,
    AlgebraTable,
    NonIntegralMultiplicity,
    NotUnital,
    RepModule,
    composition_multiplicities,
    hom_space,
    left_ideal_module,
    quotient_module,
    radical_of_module,
    submodule,
    table_to_json,
    unit_element,
)
from relcell.celldata import (
    cartan_matrix,
    cell_module,
    decomposition_matrix,
    int_gram,
    report_dict,
    simple_set,
    verify_cell_datum,
)
from relcell.families import build_family
from relcell.field import QQ
from relcell.linalg import Echelon, Matrix

from reference import as_matrix, check_action, dense_gram, scale_matrix, table_from_json, usl2_generators


def check_associativity(alg, limit=30, samples=10_000, seed=0):
    n = alg.dim
    if n <= limit:
        triples = ((i, j, k) for i in range(n) for j in range(n) for k in range(n))
    else:
        rnd = random.Random(seed)
        triples = ((rnd.randrange(n), rnd.randrange(n), rnd.randrange(n)) for _ in range(samples))
    for i, j, k in triples:
        x, y, z = alg.basis_element(i), alg.basis_element(j), alg.basis_element(k)
        assert (x * y) * z == x * (y * z), (alg.basis[i], alg.basis[j], alg.basis[k])


def check_star_antihom(alg, samples=None, seed=0):
    n = alg.dim
    pairs = (
        ((i, j) for i in range(n) for j in range(n))
        if samples is None
        else ((random.Random(seed).randrange(n), random.Random(seed + t).randrange(n)) for t in range(samples))
    )
    for i, j in pairs:
        x, y = alg.basis_element(i), alg.basis_element(j)
        assert (x * y).star() == y.star() * x.star()


def test_zero_times_anything(zigzag_a3):
    alg, _ = zigzag_a3
    zero = alg.zero_element()
    assert (zero * alg.basis_element(0)).is_zero()


def test_idempotent_squares(zigzag_a3):
    alg, d = zigzag_a3
    for e in d.E:
        assert e * e == e


def test_unit_element_families(zigzag_a3, zigzag_cycs3, u3, k1):
    for alg, d in (zigzag_a3, zigzag_cycs3, u3, k1):
        u = unit_element(alg, d.E)
        x = alg.basis_element(alg.dim // 2)
        assert u * x == x and x * u == x


@pytest.mark.parametrize("spec", ["zigzag:A:3", "zigzag:cycS:4", "zigzag:cycL:3", "usl2:p=3", "annular:n=1"])
def test_basis_products_are_the_element_products(spec):
    # both sides, on each idempotent of E, their sum and a random element
    alg, d = build_family(spec)
    rng = random.Random(0)
    f = alg.field
    samples = [*d.E, sum(d.E[1:], d.E[0])]
    samples.append(alg.element({rng.randrange(alg.dim): f.from_int(rng.randrange(1, 4)) for _ in range(5)}))
    for x in samples:
        left, right = alg.basis_products(x), alg.basis_products(x, right=True)
        for j in range(alg.dim):
            b = alg.basis_element(j)
            assert left.get(j, {}) == (x * b).coeffs
            assert right.get(j, {}) == (b * x).coeffs
        assert all(left.values()) and all(right.values())


def test_unit_element_rejects_partial(zigzag_cycs3):
    alg, d = zigzag_cycs3
    with pytest.raises(NotUnital):
        unit_element(alg, d.E[:1])


def test_associativity_small(zigzag_a3, zigzag_cycs3, zigzag_cycl3, u3, k1):
    for alg, _ in (zigzag_a3, zigzag_cycs3, zigzag_cycl3, u3, k1):
        check_associativity(alg)


def test_star_antihom_small(zigzag_a3, zigzag_cycl3, u3, k1):
    for alg, _ in (zigzag_a3, zigzag_cycl3, u3, k1):
        check_star_antihom(alg)


def test_hom_space_contains_identity(u3):
    alg, d = u3
    delta = cell_module(d, 1)
    f = alg.field
    n = delta.dim
    homs = [as_matrix(f, n, n, X) for X in hom_space(delta, delta)]
    ident = as_matrix(f, n, n, {i: {i: f.one} for i in range(n)})
    # identity must be in the span: End contains it; here End is 1-dimensional
    assert len(homs) == 1
    scale = None
    for i in range(delta.dim):
        if homs[0][i, i]:
            scale = homs[0][i, i]
            break
    assert scale_matrix(homs[0], f.inv(scale)) == ident


def test_radical_of_simple_is_zero(u3):
    alg, d = u3
    ss = simple_set(d)
    simples = [ss.modules[lam] for lam in ss.X0]
    for L in simples:
        vecs, rad = radical_of_module(L, simples)
        assert rad.dim == 0


def test_radical_matches_gram_nullity(u3, k1):
    # dual route: radical via homs equals the Gram-radical dimension
    for alg, d in (u3, k1):
        ss = simple_set(d)
        simples = [ss.modules[lam] for lam in ss.X0]
        for lam in d.X:
            delta = ss.cell_modules[lam]
            gram_nullity = delta.dim - dense_gram(d, lam, ss.grams[lam]).rank()
            _, rad = radical_of_module(delta, simples)
            assert rad.dim == gram_nullity, lam


def test_composition_multiplicities_examples(u3, k1):
    alg, d = u3
    ss = simple_set(d)
    simples = [ss.modules[lam] for lam in ss.X0]
    # Delta(0) for p=3 has factors L(0) and L(1)
    assert composition_multiplicities(ss.cell_modules[0], simples) == [1, 1, 0]
    # indicator on a simple
    assert composition_multiplicities(simples[2], simples) == [0, 0, 1]
    # P(v^) in K_1 has factors {L(v^): 2, L(^v): 2}
    alg1, d1 = k1
    ss1 = simple_set(d1)
    simples1 = [ss1.modules[lam] for lam in ss1.X0]
    P = left_ideal_module(alg1, d1.E[0])
    assert composition_multiplicities(P, simples1) == [2, 2]


def test_composition_multiplicities_refuses_a_missing_or_repeated_simple(u3):
    alg, d = u3
    ss = simple_set(d)
    simples = [ss.modules[lam] for lam in ss.X0]
    delta = ss.cell_modules[0]  # factors L(0) and L(1)
    with pytest.raises(NonIntegralMultiplicity, match="no map"):
        composition_multiplicities(delta, simples[1:])
    with pytest.raises(NonIntegralMultiplicity, match="full dimension"):
        composition_multiplicities(delta, simples + simples[:1])


SPARSE_FAMILIES = ("zigzag_a3", "zigzag_cycl3", "u3", "k1")


def cell_and_simple_modules(d):
    ss = simple_set(d)
    return [ss.cell_modules[lam] for lam in d.X] + [ss.modules[lam] for lam in ss.X0]


def dense_hom_space(M, N, acts_M=None, acts_N=None):
    """Reference: X act_M(b_i) = act_N(b_i) X imposed for every i < dim A."""
    alg = M.alg
    f = alg.field
    basis = [alg.basis_element(i) for i in range(alg.dim)]
    nm, nn = M.dim, N.dim
    acts_M = acts_M or [as_matrix(f, nm, nm, M.act(x)) for x in basis]
    acts_N = acts_N or [as_matrix(f, nn, nn, N.act(x)) for x in basis]
    rows = []
    for A, B in zip(acts_M, acts_N):
        for r in range(nn):
            for c in range(nm):
                row = [f.zero] * (nn * nm)
                for k in range(nm):
                    row[r * nm + k] = f.add(row[r * nm + k], A[k, c])
                for k in range(nn):
                    row[k * nm + c] = f.sub(row[k * nm + c], B[r, k])
                rows.append(row)
    return [Matrix(f, nn, nm, v) for v in Matrix.from_rows(f, rows).nullspace_basis()]


def dense_homs(M, N):
    """hom_space(M, N) as dense Matrices."""
    return [as_matrix(M.alg.field, N.dim, M.dim, X) for X in hom_space(M, N)]


@pytest.mark.parametrize("family", SPARSE_FAMILIES)
def test_modules_store_only_nonzero_actions(family, request):
    alg, d = request.getfixturevalue(family)
    for M in cell_and_simple_modules(d):
        assert all(not as_matrix(alg.field, M.dim, M.dim, A).is_zero() for A in M.action.values())
        assert check_action(M)


def sparse_map_ok(A):
    """A sparse column map holds no empty column and no zero scalar."""
    return all(col and all(col.values()) for col in A.values())


@pytest.mark.parametrize("family", SPARSE_FAMILIES)
def test_actions_hold_no_zero_scalar_and_no_empty_column(family, request):
    # every builder: cell modules, quotients (the simples), radicals and left ideals
    alg, d = request.getfixturevalue(family)
    ss = simple_set(d)
    simples = [ss.modules[lam] for lam in ss.X0]
    cells = [ss.cell_modules[lam] for lam in d.X]
    modules = cells + simples + [radical_of_module(M, simples)[1] for M in cells]
    modules += [left_ideal_module(alg, e) for e in d.E]
    elements = d.E + [alg.basis_element(i) for i in range(alg.dim)]
    for M in modules:
        assert all(A and sparse_map_ok(A) for A in M.action.values())
        assert all(sparse_map_ok(M.act(x)) for x in elements)
    for M in cells:
        for L in simples:
            assert all(X and sparse_map_ok(X) for X in hom_space(M, L))


def test_act_drops_a_column_that_cancels(zigzag_a3):
    alg, _ = zigzag_a3
    f = alg.field
    one, minus_one = f.one, f.neg(f.one)
    M = RepModule(alg, 2, {0: {0: {1: one}}, 1: {0: {1: minus_one}, 1: {0: one}}, 2: {}})
    assert set(M.action) == {0, 1}
    assert M.act(alg.element({0: one, 1: one})) == {1: {0: one}}
    assert M.act(alg.element({0: one, 2: one})) == {0: {1: one}}


@pytest.mark.parametrize("spec", ["zigzag:cycL:4", "usl2:p=5", "annular:n=2"])
def test_module_layer_reads_no_dense_matrix(spec, monkeypatch):
    # nothing multiplies or indexes a Matrix (none is made: see test_celldata)
    alg, d = build_family(spec)

    def refuse(*args):
        raise AssertionError("dense Matrix arithmetic in the module layer")

    for name in ("matmul", "__matmul__", "__getitem__"):
        monkeypatch.setattr(Matrix, name, refuse, raising=False)
    ss = simple_set(d)
    D = decomposition_matrix(d, ss)
    C, _, _ = cartan_matrix(d, ss, D)
    assert C == int_gram(D, len(ss.X0))


@pytest.mark.parametrize("family", SPARSE_FAMILIES)
def test_hom_space_matches_dense_reference(family, request):
    alg, d = request.getfixturevalue(family)
    modules = cell_and_simple_modules(d)
    for M in modules:
        for N in modules:
            assert dense_homs(M, N) == dense_hom_space(M, N)


@pytest.mark.parametrize("family", ["u3", "u5"])
def test_hom_space_matches_the_generator_equations(family, request):
    # E, F, H and the 1_lam generate u(sl2): a map commutes with every basis
    # element exactly when it commutes with each of them
    alg, d = request.getfixturevalue(family)
    gens = [g for _, g in usl2_generators(alg)]
    modules = cell_and_simple_modules(d)
    acts = [[as_matrix(alg.field, M.dim, M.dim, M.act(g)) for g in gens] for M in modules]
    for M, acts_M in zip(modules, acts):
        for N, acts_N in zip(modules, acts):
            assert dense_homs(M, N) == dense_hom_space(M, N, acts_M, acts_N)


def test_dropped_action_is_caught(zigzag_a3):
    alg, d = zigzag_a3
    # Delta(1) has basis (1), (2,1): e_1, the arrow (2,1) and e_2 act; drop e_1
    delta = cell_module(d, 1)
    k = next(i for e in d.E for i in e.coeffs if i in delta.action)
    mutant = RepModule(alg, delta.dim, {i: A for i, A in delta.action.items() if i != k})
    assert check_action(delta) and not check_action(mutant)
    # the identity Delta -> Delta stops intertwining once b_k acts by zero
    honest = [as_matrix(alg.field, delta.dim, delta.dim, delta.act(alg.basis_element(i))) for i in range(alg.dim)]
    assert dense_homs(mutant, delta) != dense_hom_space(mutant, delta, honest, honest)


def test_quotient_module_dims(u3):
    alg, d = u3
    ss = simple_set(d)
    delta = ss.cell_modules[0]
    rad = Echelon(alg.field, delta.dim, ss.grams[0].values()).nullspace_basis()
    Q = quotient_module(delta, rad)
    assert isinstance(Q, RepModule)
    assert Q.dim == delta.dim - len(rad)
    assert check_action(Q)


def test_regular_module_action(zigzag_a3):
    alg, d = zigzag_a3
    reg = left_ideal_module(alg, unit_element(alg, d.E))
    assert reg.dim == alg.dim
    assert check_action(reg)


def test_restrict_to_unstable_subspace_raises(zigzag_a3):
    # span{e_0} in the regular module: arrows out of vertex 0 leave it
    alg, d = zigzag_a3
    reg = left_ideal_module(alg, unit_element(alg, d.E))
    e0 = dict(d.E[0].coeffs)
    with pytest.raises(AlgebraMismatch):
        submodule(reg, [e0])


def test_serialization_roundtrip(zigzag_cycs3):
    alg, _ = zigzag_cycs3
    text = table_to_json(alg)
    back = table_from_json(text)
    assert back.dim == alg.dim
    assert back.star_perm == alg.star_perm
    for i in range(alg.dim):
        for j in range(alg.dim):
            assert back.mult_basis(i, j) == alg.mult_basis(i, j)
    # byte-for-byte determinism and round-trip stability
    assert table_to_json(alg) == text
    assert table_to_json(back) == text


def check_associativity_table(alg):
    """Exhaustive triple check through the materialized table."""
    alg.materialize()
    tbl = alg.mult_basis
    n = alg.dim
    for i in range(n):
        for j in range(n):
            ij = tbl(i, j)
            for k in range(n):
                left = {}
                for t, c in ij.items():
                    for r, c2 in tbl(t, k).items():
                        left[r] = left.get(r, 0) + c * c2
                right = {}
                for t, c in tbl(j, k).items():
                    for r, c2 in tbl(i, t).items():
                        right[r] = right.get(r, 0) + c * c2
                assert {a: b for a, b in left.items() if b} == {
                    a: b for a, b in right.items() if b
                }, (alg.basis[i], alg.basis[j], alg.basis[k])


def test_associativity_exhaustive_k2(k2):
    # dim 108 <= 120: the exhaustive sweep over all basis triples
    alg, _ = k2
    check_associativity_table(alg)


def test_associativity_sampled_u5(u5):
    # dim 125 > 120: randomized sample of >= 10^4 triples
    alg, _ = u5
    check_associativity(alg, limit=0, samples=10_000, seed=5)


def test_star_antihom_all_pairs_k2(k2):
    alg, _ = k2
    alg.materialize()
    star = alg.star_perm
    n = alg.dim
    for i in range(n):
        for j in range(n):
            prod = alg.mult_basis(i, j)
            flipped = alg.mult_basis(star[j], star[i])
            assert {star[k]: c for k, c in prod.items()} == flipped


# --- a JSON table's memo: no zero coefficient, ZERO_PRODUCT for empty products --

# F_3[x]/(x^2) on the basis 1, x, with every product spelled with an explicit 0
DUAL_F3 = {
    (0, 0): {0: 1, 1: 0},
    (0, 1): {1: 1, 0: 0},
    (1, 0): {1: 1},
    (1, 1): {0: 0},
}


def dual_f3_from_json():
    doc = {
        "field": "F3",
        "basis": ["1", "x"],
        "mult": {f"{i},{j}": {str(k): str(c) for k, c in sc.items()} for (i, j), sc in DUAL_F3.items()},
        "star": [0, 1],
        "name": "dual-f3",
    }
    return table_from_json(json.dumps(doc))


# a kernel keeps the contract itself (test_product_contract.py); a table read
# from JSON, whose input comes from outside the program, drops the zeros
@pytest.mark.parametrize("make", [dual_f3_from_json])
def test_memo_holds_no_zero_coefficient(make):
    alg = make()
    want = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {}}
    for (i, j), sc in want.items():
        assert alg.mult_basis(i, j) == sc
    alg.materialize()
    memo = alg._memo
    assert memo == want
    assert all(all(sc.values()) for sc in memo.values())
    assert memo[(1, 1)] is ZERO_PRODUCT
    one, x = alg.basis_element(0), alg.basis_element(1)
    assert (x * x).is_zero()
    assert (one + x) * (one + x) == alg.element({0: 1, 1: 2})
    assert (x * (one - x)).coeffs == {1: 1}


# --- the shared memo: the kernels hand out one dict per distinct product ---

FILL_SPECS = ["usl2:p=5", "annular:n=2", "zigzag:cycL:4"]


def test_materialize_shares_equal_products():
    alg, _ = build_family("usl2:p=7")
    alg.materialize()
    nonzero = [sc for sc in alg._memo.values() if sc]
    assert len(nonzero) == 9387
    assert len({id(sc) for sc in nonzero}) == 2419


@pytest.mark.parametrize("spec", FILL_SPECS)
def test_materialize_equals_a_fill_through_mult_basis(spec):
    alg, _ = build_family(spec)
    lazy, _ = build_family(spec)
    for i in range(lazy.dim):
        for j in lazy.partners(i):
            lazy.mult_basis(i, j)
    filled = lazy._memo
    alg.materialize()
    memo = alg._memo
    assert memo == filled
    # materializing a memo that mult_basis filled shares its values the same way
    lazy.materialize()
    assert lazy._memo == filled
    distinct = {id(sc) for sc in memo.values()}
    assert len({id(sc) for sc in lazy._memo.values()}) == len(distinct) < len(memo)


@pytest.mark.parametrize("spec", FILL_SPECS)
def test_no_caller_mutates_a_shared_product(spec):
    alg, d = build_family(spec)
    # a second build has its own kernel, which hands out its own products
    fresh, _ = build_family(spec)
    report_dict(d)
    assert alg._memo
    for (i, j), sc in alg._memo.items():
        assert sc == {k: c for k, c in fresh._mult_fn(i, j).items() if c}, (i, j)


@pytest.mark.parametrize("spec", FILL_SPECS)
def test_each_product_is_computed_once(spec, monkeypatch):
    alg, d = build_family(spec)
    before = set(alg._memo)
    pairs = []
    kernel = alg._mult_fn

    def counted(i, j):
        pairs.append((i, j))
        return kernel(i, j)

    alg._mult_fn = counted
    rows = alg.materialize()
    assert len(pairs) == len(set(pairs))
    assert set(pairs) == set(alg._memo) - before
    pairs.clear()
    # the table is complete: a second fill returns the rows without visiting one
    with monkeypatch.context() as m:
        m.setattr(alg, "partners", lambda i: pytest.fail("a second fill visited a row"))
        assert alg.materialize() is rows
    assert verify_cell_datum(d).all_passed
    assert pairs == []


def test_lazy_products_allocate_only_the_touched_row():
    built, _ = build_family("zigzag:A:4")
    alg = AlgebraTable(
        built.field,
        built.basis,
        built._mult_fn,
        built.star_perm,
        blocks=(built.left_block, built.right_block),
    )
    i = 0
    partners = alg.partners(i)
    masked = next(j for j in range(alg.dim) if j not in partners)
    assert alg.mult_basis(i, masked) is ZERO_PRODUCT
    assert alg._rows == [None] * alg.dim
    j = partners[-1]
    assert alg.mult_basis(i, j) == built.mult_basis(i, j)
    assert [t for t, row in enumerate(alg._rows) if row is not None] == [i]
    assert len(alg._rows[i]) == len(partners)
    assert list(alg._memo) == [(i, j)]


def test_table_from_json_shares_every_repeat_of_one_support():
    # 7 x 7 products in row-major order: the first 40 are c * b_0 for c = 1..40,
    # then a repeat of the first and a repeat of the fortieth; the reloaded
    # table's kernel hands out each repeat as its first occurrence
    n = 7
    pairs = [(i, j) for i in range(n) for j in range(n)]
    coeff = {pair: t + 1 for t, pair in enumerate(pairs[:40])}
    coeff[pairs[40]], coeff[pairs[41]] = 1, 40
    doc = {
        "field": "Q",
        "basis": [f"b{i}" for i in range(n)],
        "mult": {f"{i},{j}": {"0": str(c)} for (i, j), c in coeff.items()},
        "star": list(range(n)),
        "name": "one-support",
    }
    alg = table_from_json(json.dumps(doc))
    alg.materialize()
    memo = alg._memo
    assert memo == {pair: ({0: coeff[pair]} if pair in coeff else {}) for pair in pairs}
    assert memo[pairs[40]] is memo[pairs[0]]  # shared: its equal is in the list
    assert memo[pairs[41]] == memo[pairs[39]]
    assert memo[pairs[41]] is memo[pairs[39]]  # every repeat is shared
    assert len({id(sc) for sc in memo.values() if sc}) == 40


def straddling(alg, keys, blocks, rnd):
    """An element with up to three terms in each of the given blocks of keys."""
    f = alg.field
    members = {}
    for i, key in enumerate(keys):
        members.setdefault(key, []).append(i)
    support = [i for key in blocks for i in rnd.sample(members[key], min(3, len(members[key])))]
    return alg.element({i: f.from_int(rnd.randrange(1, 4)) for i in support})


@pytest.mark.parametrize("spec", ["zigzag:cycS:4", "usl2:p=5", "annular:n=2"])
def test_element_products_equal_the_naive_double_sum(spec):
    # x has terms in several right blocks and y in several left blocks, so
    # x * y meets masked and unmasked pairs; the reference sums every pair
    # through the kernel itself, with no mask, and filters zeros at the end
    alg, _ = build_family(spec)
    f = alg.field
    rnd = random.Random(spec)
    left = set(alg.left_block)
    shared = [key for key in dict.fromkeys(alg.right_block) if key in left]
    checked = 0
    for _ in range(20):
        x = straddling(alg, alg.right_block, rnd.sample(shared, 3), rnd)
        y = straddling(alg, alg.left_block, rnd.sample(shared, 3), rnd)
        assert len({alg.right_block[i] for i in x.coeffs}) > 1 < len({alg.left_block[j] for j in y.coeffs})
        for a, b in ((x, y), (y, x), (x, x)):
            naive = {}
            for i, s in a.coeffs.items():
                for j, t in b.coeffs.items():
                    for k, c in alg._mult_fn(i, j).items():
                        naive[k] = f.add(naive.get(k, f.zero), f.mul(f.mul(s, t), c))
            want = {k: v for k, v in naive.items() if v}
            assert (a * b).coeffs == want
            checked += bool(want)
    assert checked > 10
