import hashlib

import pytest

from relcell import celldata
from relcell.algebra import ZERO_PRODUCT, BasisLabel, Element, table_to_json
from relcell.celldata import (
    cartan_matrix,
    core_subalgebra,
    decomposition_matrix,
    det_int,
    run_pipeline,
    is_semisimple,
    simple_set,
    verify_cell_datum,
)
from relcell.field import PrimeField, binomial_mod, factorial_mod
from relcell.usl2 import UnsupportedCharacteristic, build_usl2, gram_diagonal_formula, structure_constants

from reference import (
    as_matrix,
    dense_gram,
    generator_element,
    normal_order,
    scale_element,
    verify_pbw_change_of_basis,
    weight_idempotent_h_poly,
)


def test_p2_rejected():
    with pytest.raises(UnsupportedCharacteristic):
        build_usl2(2)


def test_dimensions():
    for p in (3, 5, 7):
        alg, _ = build_usl2(p)
        assert alg.dim == p**3


def test_defining_relations(u3, u5):
    for alg, _ in (u3, u5):
        E = generator_element("E", alg)
        F = generator_element("F", alg)
        H = generator_element("H", alg)
        two = alg.field.from_int(2)
        assert H * E - E * H == scale_element(E, two)
        assert H * F - F * H == scale_element(F, alg.field.neg(two))
        assert E * F - F * E == H


def test_ep_fp_vanish(u3):
    alg, _ = u3
    E = generator_element("E", alg)
    F = generator_element("F", alg)
    assert (E * E * E).is_zero()
    assert (F * F * F).is_zero()


def test_weight_idempotents(u3):
    alg, d = u3
    ones = [alg.element_from_label(BasisLabel(lam, 0, 0)) for lam in range(3)]
    for a, e in enumerate(ones):
        assert e * e == e
        for b, e2 in enumerate(ones):
            if a != b:
                assert (e * e2).is_zero()
    total = ones[0] + ones[1] + ones[2]
    x = alg.basis_element(13)
    assert total * x == x and x * total == x
    # H 1_lam = lam 1_lam
    H = generator_element("H", alg)
    for lam, e in enumerate(ones):
        assert H * e == scale_element(e, alg.field.from_int(lam))


def test_h_poly_example_p3():
    # 1_0 = -(H-1)(H-2) = -(H^2 - 3H + 2) = -H^2 + 2 over F_3 equivalently 2H^2+1
    coeffs = weight_idempotent_h_poly(0, 3)
    f = PrimeField(3)
    # evaluate at H = 0,1,2: indicator of 0
    for h in range(3):
        val = f.zero
        for k, c in enumerate(coeffs):
            val = f.add(val, f.mul(c, pow(h, k, 3)))
        assert val == (1 if h == 0 else 0)


def test_cell_action_formulas(u5):
    alg, _ = u5
    p = 5
    f = alg.field
    E = generator_element("E", alg)
    F = generator_element("F", alg)
    H = generator_element("H", alg)
    for lam in range(p):
        for S in range(p):
            for T in range(p):
                c = alg.element_from_label(BasisLabel(lam, S, T))
                # F C = C_{S+1,T} (zero at the boundary)
                expect = (
                    alg.element_from_label(BasisLabel(lam, S + 1, T))
                    if S + 1 < p
                    else alg.zero_element()
                )
                assert F * c == expect
                # H C = (lam - 2S) C
                assert H * c == scale_element(c, f.from_int(lam - 2 * S))
                # E C = S(1-S+lam) C_{S-1,T} + C^{lam+2}_{S,T+1}
                expect = alg.zero_element()
                if S >= 1:
                    expect = expect + scale_element(
                        alg.element_from_label(BasisLabel(lam, S - 1, T)), f.from_int(S * (1 - S + lam))
                    )
                if T + 1 < p:
                    expect = expect + alg.element_from_label(BasisLabel((lam + 2) % p, S, T + 1))
                assert E * c == expect


def test_normal_order_words(u3):
    alg, _ = u3
    E = generator_element("E", alg)
    F = generator_element("F", alg)
    assert normal_order([("E", 1), ("F", 1)], alg) - normal_order([("F", 1), ("E", 1)], alg) == generator_element("H", alg)
    assert normal_order([("E", 3)], alg).is_zero()
    assert normal_order([], alg) * E == E


def test_pbw_change_of_basis():
    for p in (3, 5):
        assert verify_pbw_change_of_basis(p)


def test_gram_matches_formula(u3, u5):
    for p, (alg, d) in ((3, u3), (5, u5)):
        ss = simple_set(d)
        expected = gram_diagonal_formula(p)
        for lam in range(p):
            g = dense_gram(d, lam, ss.grams[lam])
            diag = [g[i, i] for i in range(p)]
            assert diag == expected[lam]
            for i in range(p):
                for j in range(p):
                    if i != j:
                        assert not g[i, j]


def test_baby_verma_weight_spaces(u3):
    # each weight idempotent has rank one on every cell module
    alg, d = u3
    ss = simple_set(d)
    for lam in d.X:
        delta = ss.cell_modules[lam]
        for e in d.E:
            assert as_matrix(alg.field, delta.dim, delta.dim, delta.act(e)).rank() == 1


def test_simple_dims_are_rank(u3, u5):
    # the Gram rank route gives dim L(lam) = lam + 1 (the printed tables);
    # the prose's "dimension lam" does not fit the p=3 Gram columns
    for p, (alg, d) in ((3, u3), (5, u5)):
        ss = simple_set(d)
        assert [ss.dims[lam] for lam in ss.X0] == [lam + 1 for lam in range(p)]


def test_composition_pattern(u3, u5):
    for p, (alg, d) in ((3, u3), (5, u5)):
        ss = simple_set(d)
        D = decomposition_matrix(d, ss)
        for mu in range(p):
            row = D[mu]
            if mu == p - 1:
                assert row == [1 if lam == p - 1 else 0 for lam in range(p)]
            else:
                expect = [0] * p
                expect[mu] = 1
                expect[p - mu - 2] += 1
                assert row == expect


def test_cartan_p3(u3):
    alg, d = u3
    C, D, minors = run_pipeline(d, "C")["C"]
    assert D == [[1, 1, 0], [1, 1, 0], [0, 0, 1]]
    assert C == [[2, 2, 0], [2, 2, 0], [0, 0, 1]]
    assert det_int(C) == 0
    assert not is_semisimple(d, simple_set(d))


def test_projective_top_is_verma(u3):
    # P(p-1) = Delta(p-1): the Cartan row of the top label is (0,...,0,1)
    alg, d = u3
    C, _, _ = run_pipeline(d, "C")["C"]
    assert C[-1] == [0, 0, 1]


def test_axioms(u3, u5):
    for alg, d in (u3, u5):
        assert verify_cell_datum(d).all_passed


def test_core_is_cellular(u3):
    alg, d = u3
    for k in range(3):
        core, cd = core_subalgebra(d, k)
        assert len(cd.E) == 1
        assert verify_cell_datum(cd).all_passed
        assert core.dim == 3
    # 1_0 u 1_0 has basis F^S 1_{2S} E^S: the labels with lam - 2S = 0
    core, cd = core_subalgebra(d, 0)
    assert sorted(core.basis) == sorted(
        BasisLabel((2 * S) % 3, S, S) for S in range(3)
    )
    # the core is commutative here
    for i in range(core.dim):
        for j in range(core.dim):
            x, y = core.basis_element(i), core.basis_element(j)
            assert x * y == y * x


def test_composition_pattern_p7():
    alg, d = build_usl2(7)
    ss = simple_set(d)
    D = decomposition_matrix(d, ss)
    p = 7
    for mu in range(p):
        expect = [0] * p
        expect[mu] = 1
        if mu != p - 1:
            expect[p - mu - 2] += 1
        assert D[mu] == expect
    # P(p-1) = Delta(p-1) shows as Cartan row (0,...,0,1)
    C, _, _ = cartan_matrix(d, ss, D)
    assert C[-1] == [0] * (p - 1) + [1]


def test_cell_basis_product_example(u3):
    # normal ordering of C^1_{0,2} C^1_{2,0} = 1_1 E^2 F^2 1_1 worked by hand:
    # E^2 F^2 1_1 = F^2 E^2 1_1 + 4 F E 1_1 (mod 3), i.e. C^2_{2,2} + C^0_{1,1}
    alg, _ = u3
    x = alg.element_from_label(BasisLabel(1, 0, 2))
    y = alg.element_from_label(BasisLabel(1, 2, 0))
    expect = alg.element_from_label(BasisLabel(0, 1, 1)) + alg.element_from_label(
        BasisLabel(2, 2, 2)
    )
    assert x * y == expect


def reference_rule(p, field):
    """The commutation rule summed term by term over j, zeros filtered at
    the end: the per-j loop the coefficient tables replace."""
    fact = [factorial_mod(k, field) for k in range(p)]
    falling = [[field.div(fact[t], fact[t - j]) for j in range(t + 1)] for t in range(p)]
    binom = [[binomial_mod(t, j, field) for j in range(p)] for t in range(p)]

    def mult_labels(a, b):
        lam, S, T = a
        mu, U, V = b
        if (lam - 2 * T) % p != (mu - 2 * U) % p:
            return {}
        out = {}
        fall_T, fall_U, binom_top = falling[T], falling[U], binom[(T - U + mu) % p]
        for j in range(min(T, U) + 1):
            x = S + U - j
            z = T - j + V
            if x >= p or z >= p:
                continue
            coeff = field.mul(field.mul(fall_T[j], fall_U[j]), binom_top[j])
            if coeff == field.zero:
                continue
            nu = (mu + 2 * (T - j)) % p
            key = (nu, x, z)
            out[key] = field.add(out.get(key, field.zero), coeff)
        return {k: c for k, c in out.items() if c != field.zero}

    return mult_labels


@pytest.mark.parametrize("p", [3, 5, 7])
def test_rule_matches_the_per_j_reference(p):
    field = PrimeField(p)
    rule, ref = structure_constants(p, field), reference_rule(p, field)
    labels = [(lam, S, T) for lam in range(p) for S in range(p) for T in range(p)]
    index = {lab: i for i, lab in enumerate(labels)}
    zeros = 0
    for a in labels:
        for b in labels:
            # the rule works on basis indices; compare on labels
            got = {labels[k]: c for k, c in rule(index[a], index[b]).items()}
            assert got == ref(a, b), (a, b)
            assert all(got.values()), (a, b)
            zeros += not got
    assert 0 < zeros < len(labels) ** 2


@pytest.mark.parametrize("p", [3, 5, 7])
def test_empty_products_are_the_shared_zero(p):
    # a product whose window of j is empty, or whose weights do not match,
    # is ZERO_PRODUCT itself: the kernel builds no dict for it
    rule = structure_constants(p, PrimeField(p))
    n = p**3
    products = [rule(a, b) for a in range(n) for b in range(n)]
    assert all(prod or prod is ZERO_PRODUCT for prod in products)
    assert 0 < sum(1 for prod in products if prod is ZERO_PRODUCT) < n * n


@pytest.mark.parametrize(
    "p, size, digest",
    [
        (3, 5768, "8be34bfb4a9a3a545d9ec8bedc3b8ecebf9717ef211d84337f5c152e36937d0f"),
        (5, 71370, "e8fb5fc06e53ddcdcd656e8c710dd4095ac57e478299fb2eaf7c2d600231ff2e"),
        (7, 425052, "53bbaf57e1f0a782e13ccfbe6bf20f362143ccc42466ddb5e4d5d362fac4d5e6"),
    ],
)
def test_structure_constants_pinned(p, size, digest):
    # the serialized table, every structure constant included
    alg, _ = build_usl2(p)
    text = table_to_json(alg).encode()
    assert (len(text), hashlib.sha256(text).hexdigest()) == (size, digest)


def test_idem_props_2_and_unit_read_the_rows(monkeypatch):
    # both axioms read e b_i, b_i u and u b_i out of the materialized rows
    _, d = build_usl2(5)
    d.alg.materialize()
    monkeypatch.setattr(Element, "__mul__", lambda x, y: pytest.fail("an Element product was formed"))
    assert celldata._axiom_idem_props_2(d) is None
    assert celldata._axiom_unit(d) is None
