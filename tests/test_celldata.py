import random

import pytest

from relcell import celldata

from relcell.algebra import AlgebraTable, BasisLabel, hom_space
from relcell.celldata import (
    AXIOMS,
    CellDatum,
    RouteMismatch,
    StrictOrder,
    cartan_matrix,
    cell_module,
    chain_order,
    core_subalgebra,
    decomposition_matrix,
    decomposition_support_ok,
    int_gram,
    is_semisimple,
    report_dict,
    run_pipeline,
    simple_set,
    verify_cell_datum,
)
from relcell.annular import build_annular
from relcell.families import build_family
from relcell.field import QQ, PrimeField
from relcell.zigzag import QuiverSpec, alternate_idempotent_datum, build_zigzag

from reference import (
    as_matrix,
    check_action,
    dense_gram,
    int_matmul,
    int_transpose,
    matmul,
    reversed_order_datum,
    transpose,
)


def matrix_unit_datum(size):
    """Cell datum of the size x size matrix algebra: X = {0}, C(S,T) = E_ST."""
    labels = [BasisLabel(0, s, t) for s in range(size) for t in range(size)]
    index = {lab: i for i, lab in enumerate(labels)}

    def mult(i, j):
        a, b = labels[i], labels[j]
        if a.T != b.S:
            return {}
        return {index[BasisLabel(0, a.S, b.T)]: QQ.one}

    star = tuple(index[BasisLabel(0, lab.T, lab.S)] for lab in labels)
    alg = AlgebraTable(QQ, labels, mult, star, name=f"mat{size}")
    one = alg.zero_element()
    for s in range(size):
        one = one + alg.element_from_label(BasisLabel(0, s, s))
    datum = CellDatum(
        alg=alg,
        X=[0],
        M={0: list(range(size))},
        E=[one],
        orders=[chain_order([0], [0])],
        eps_index={(0, s): 0 for s in range(size)},
        name=f"mat{size}",
    )
    return alg, datum


def test_each_datum_gets_its_own_primitive_dict():
    alg, d = matrix_unit_datum(2)
    e = CellDatum(alg, d.X, d.M, d.E, d.orders, d.eps_index)
    assert d.primitive_idempotents == e.primitive_idempotents == {}
    assert d.primitive_idempotents is not e.primitive_idempotents
    assert (d.name, e.name) == ("mat2", "")


def test_matrix_algebra_is_semisimple():
    alg, d = matrix_unit_datum(2)
    assert verify_cell_datum(d).all_passed
    ss = simple_set(d)
    assert ss.X0 == [0] and ss.dims[0] == 2
    assert is_semisimple(d, ss)
    C, D, minors = cartan_matrix(d, ss, decomposition_matrix(d, ss))
    assert C == [[1]] and D == [[1]]


def test_trivial_algebra_semisimple():
    alg, d = matrix_unit_datum(1)
    assert verify_cell_datum(d).all_passed
    assert is_semisimple(d, simple_set(d))


SEMISIMPLE_DATA = {f"mat{size}": (lambda size=size: matrix_unit_datum(size)[1]) for size in (1, 2, 3)}
TABLE_SPECS = [
    "zigzag:A:3", "zigzag:A:4", "zigzag:A:5",
    "zigzag:cycS:3", "zigzag:cycS:4", "zigzag:cycS:5",
    "zigzag:cycL:3", "zigzag:cycL:4",
    "usl2:p=3", "usl2:p=5", "usl2:p=7",
    "annular:n=1", "annular:n=2",
]


@pytest.mark.parametrize("name", [*SEMISIMPLE_DATA, *TABLE_SPECS])
def test_is_semisimple_is_full_rank_of_every_gram_form(name):
    d = SEMISIMPLE_DATA[name]() if name in SEMISIMPLE_DATA else build_family(name)[1]
    ss = simple_set(d)
    ranks = {lam: dense_gram(d, lam, ss.grams[lam]).rank() for lam in d.X}
    # dim L(lam) = rank Phi_lam, and lam is in X0 exactly when the rank is positive
    assert {lam: ss.dims.get(lam, 0) for lam in d.X} == ranks
    assert is_semisimple(d, ss) == all(ranks[lam] == len(d.M[lam]) for lam in d.X)
    assert is_semisimple(d, ss) == (name in SEMISIMPLE_DATA)


END_DATA = [
    *TABLE_SPECS, "zigzag:cycL:12", "usl2:p=11", "annular:n=3", "alternate",
    *(f"{spec} cores" for spec in ("usl2:p=5", "annular:n=2", "zigzag:cycS:4")),
]


@pytest.mark.parametrize("name", END_DATA)
def test_every_simple_has_endomorphisms_the_field(name):
    # D counts homs into L(lam) and C reads dim eps L(lam) as a multiplicity:
    # both rest on End L(lam) = k
    if name == "alternate":
        data = [alternate_idempotent_datum(QQ)[1]]
    elif name.endswith(" cores"):
        d = build_family(name.removesuffix(" cores"))[1]
        data = [core_subalgebra(d, a)[1] for a in range(len(d.E))]
    else:
        data = [build_family(name)[1]]
    for d in data:
        ss = simple_set(d)
        assert ss.X0 and all(len(hom_space(L, L)) == 1 for L in ss.modules.values()), d.name


@pytest.mark.parametrize("spec", TABLE_SPECS)
def test_pipeline_and_gram_make_no_dense_matrix(spec, monkeypatch, capsys):
    # sparse rows are the one matrix format: no stage and no gram print makes a Matrix
    from relcell import linalg
    from relcell.cli import main

    def refuse(*args, **kwargs):
        raise AssertionError("a dense Matrix was made")

    monkeypatch.setattr(linalg.Matrix, "__init__", refuse)
    res = run_pipeline(build_family(spec)[1])
    assert res["axioms"].all_passed and "semisimple" in res
    for fmt in ("pretty", "csv", "json"):
        assert main(["gram", spec, "--format", fmt]) == 0
    capsys.readouterr()


def shape_mutants():
    """zigzag:A:3 with one eps_index entry dropped, one sent outside E, and
    one order missing: (mutant, the start of (a)'s witness)."""
    d = build_family("zigzag:A:3")[1]
    key = next(iter(d.eps_index))
    dropped = {k: a for k, a in d.eps_index.items() if k != key}
    outside = {**d.eps_index, key: len(d.E)}
    return [
        (d._replace(eps_index=dropped), f"eps_index[{key}] = None is not an index into E"),
        (d._replace(eps_index=outside), f"eps_index[{key}] = {len(d.E)} is not an index into E"),
        (d._replace(orders=d.orders[:-1]), f"{len(d.E) - 1} orders for {len(d.E)} idempotents"),
    ]


@pytest.mark.parametrize("k", range(3))
def test_malformed_shape_fails_axiom_a(k, capsys, monkeypatch):
    # a datum of the wrong shape is a failed axiom with a witness, not a crash
    mutant, witness = shape_mutants()[k]
    first, *rest = verify_cell_datum(mutant).results
    assert first.axiom == "a:basis-bijection" and not first.passed
    assert first.witness.startswith(witness)
    skipped = {r.axiom for r in rest if r.witness == "not checked: a:basis-bijection fails"}
    assert skipped == celldata.SHAPE_READERS
    doc = report_dict(mutant)
    assert doc["D"] is None and not doc["axioms"][0]["passed"]
    from relcell import cli

    monkeypatch.setattr(cli, "build_family", lambda *args: (mutant.alg, mutant))
    assert cli.main(["verify", "zigzag:A:3", "--format", "json"]) == 1
    capsys.readouterr()


def test_strict_order_validation():
    good = chain_order([1, 2, 3], [1, 2, 3])
    assert good.check_valid() is None
    reflexive = StrictOrder([1, 2], lambda a, b: True)
    assert reflexive.check_valid() is not None
    cyclic = StrictOrder([1, 2, 3], lambda a, b: (a, b) in {(1, 2), (2, 3), (3, 1)})
    assert cyclic.check_valid() is not None


@pytest.mark.parametrize(
    "pairs",
    [
        {(1, 2), (2, 3), (3, 1)},
        {(1, 2), (2, 3), (3, 4), (1, 3)},
        {(1, 2), (1, 3), (1, 4), (2, 3), (3, 4), (2, 4), (4, 5), (1, 5), (2, 5)},
    ],
)
def test_transitivity_witness(pairs):
    # irreflexive and antisymmetric, but not transitive
    xs = sorted({x for pair in pairs for x in pair})
    order = StrictOrder(xs, lambda a, b: (a, b) in pairs)
    bad = order.check_valid()
    assert bad.startswith("not transitive on (")
    x, y, z = (int(v) for v in bad[len("not transitive on (") : -1].split(","))
    assert (x, y) in pairs and (y, z) in pairs and (x, z) not in pairs


def test_below_is_the_set_under_b_asked_for_lazily():
    asked = []

    def divides(a, b):
        asked.append((a, b))
        return a != b and b % a == 0

    order = StrictOrder([1, 2, 3, 4, 6, 12], divides)
    assert asked == []  # building an order asks the oracle nothing
    assert order.below(12) == {1, 2, 3, 4, 6} and order.below(1) == set()
    assert len(asked) == 36  # once per ordered pair, then never again
    assert order.less(4, 12) and not order.less(4, 6) and order.check_valid() is None
    assert len(asked) == 36


def test_reversed_order_fails_with_witness():
    alg, bad = reversed_order_datum(QQ)
    report = verify_cell_datum(bad)
    assert not report.all_passed
    failed = [r for r in report.results if not r.passed]
    assert any(r.axiom == "d:mult-left" for r in failed)
    assert all(r.witness for r in failed)


def test_gram_and_cell_module_consistency(u3):
    alg, d = u3
    grams = simple_set(d).grams
    for lam in d.X:
        delta = cell_module(d, lam)
        assert delta.dim == len(d.M[lam])
        assert check_action(delta)
        g = dense_gram(d, lam, grams[lam])
        assert g == transpose(g)


@pytest.mark.parametrize("spec", ["usl2:p=5", "zigzag:cycS:4", "annular:n=2"])
def test_gram_form_does_not_depend_on_the_pair_it_is_read_at(spec):
    # Phi(S,T) is the C(lam;U,V)-coefficient of C(lam;U,S) * C(lam;T,V) for
    # every U, V in M(lam), as the paper defines it; simple_set reads one pair
    alg, d = build_family(spec)
    f = alg.field
    ss = simple_set(d)
    for lam in d.X:
        Ms = d.M[lam]
        phi = ss.grams[lam]
        for U in Ms:
            for V in Ms:
                k = d.label_index(lam, U, V)
                for s, S in enumerate(Ms):
                    i = d.label_index(lam, U, S)
                    for t, T in enumerate(Ms):
                        got = alg.mult_basis(i, d.label_index(lam, T, V)).get(k, f.zero)
                        assert phi.get(s, {}).get(t, f.zero) == got, (lam, U, V, S, T)


def test_unit_check_fails_only_on_a_missing_unit(zigzag_cycs3, monkeypatch):
    # NotUnital is a failed axiom with a witness; any other error is a fault
    # of the check and leaves verify_cell_datum
    alg, d = zigzag_cycs3

    def broken(*args):
        raise RuntimeError("a fault inside the unit check")

    monkeypatch.setattr(celldata, "unit_element", broken)
    with pytest.raises(RuntimeError, match="a fault inside the unit check"):
        verify_cell_datum(d)
    monkeypatch.undo()
    assert "not a unit" in celldata._axiom_unit(d._replace(E=d.E[:1]))


def test_gram_invariance_form_property(u3, k1):
    # Phi(a.x, y) == Phi(x, a*.y) on a generator sample
    for alg, d in (u3, k1):
        ss = simple_set(d)
        for lam in d.X:
            G = dense_gram(d, lam, ss.grams[lam])
            delta = ss.cell_modules[lam]
            gens = alg.generators or [(str(lab), alg.basis_element(i)) for i, lab in enumerate(alg.basis)]
            for name, g in gens[:8]:
                A = as_matrix(alg.field, delta.dim, delta.dim, delta.act(g))
                B = as_matrix(alg.field, delta.dim, delta.dim, delta.act(g.star()))
                assert matmul(transpose(A), G) == matmul(G, B), (lam, name)


def test_decomposition_support(u3, k1):
    for alg, d in (u3, k1):
        ss = simple_set(d)
        D = decomposition_matrix(d, ss)
        assert decomposition_support_ok(d, ss, D)


def test_decomposition_matrix_checks_the_support(zigzag_a3, monkeypatch):
    alg, d = zigzag_a3
    ss = simple_set(d)
    D = decomposition_matrix(d, ss)
    assert (d.X, ss.X0) == ([0, 1, 2, 3], [1, 2, 3])
    assert D == [[1, 0, 0], [1, 1, 0], [0, 1, 1], [0, 0, 1]]
    # d[1,2] = 1 moved to d[2,1], across the diagonal; the diagonal stays 1
    mutant = [row[:] for row in D]
    mutant[1][1], mutant[2][0] = 0, 1
    rows = iter(mutant)
    monkeypatch.setattr(celldata, "composition_multiplicities", lambda *args: next(rows))
    # without primitives the rank(e*) route is skipped: only the support check sees it
    bare = d._replace(primitive_idempotents={})
    with pytest.raises(RouteMismatch, match="below it in lam's order"):
        decomposition_matrix(bare, ss)


def test_report_schema(k1):
    alg, d = k1
    doc = report_dict(d)
    assert set(doc) == {"axioms", "X0", "simple_dims", "D", "C", "reciprocity_ok", "semisimple"}
    assert doc["semisimple"] is False
    assert all(a["passed"] for a in doc["axioms"])


def test_pipeline_runs_each_stage_in_order_through_its_hook(zigzag_a3):
    alg, d = zigzag_a3
    seen = []

    def run(name, fn, *args):
        seen.append(name)
        return fn(*args)

    res = run_pipeline(d, run=run)
    assert seen == [f"axiom {axiom}" for axiom, _ in AXIOMS] + ["simples", "D", "C", "semisimple"]
    assert set(res) == {"axioms", "simples", "D", "C", "semisimple"}
    assert res["C"][1] == res["D"] and res["semisimple"] is False


def test_pipeline_stops_at_upto(zigzag_a3, monkeypatch):
    alg, d = zigzag_a3

    def never(*args):
        raise AssertionError("a stage after upto ran")

    monkeypatch.setattr(celldata, "cartan_matrix", never)
    res = run_pipeline(d, "D")
    assert set(res) == {"axioms", "simples", "D"}
    assert set(run_pipeline(d, "axioms")) == {"axioms"}


def test_pipeline_stops_after_a_failed_axiom():
    alg, bad = reversed_order_datum(QQ)
    res = run_pipeline(bad)
    assert set(res) == {"axioms"} and not res["axioms"].all_passed


def test_report_computes_each_stage_once(zigzag_a3, monkeypatch):
    # a counting wrapper bound over the module attribute, as the benchmark's tracer binds it
    alg, d = zigzag_a3
    calls = []
    decomposition = celldata.decomposition_matrix

    def counted(*args):
        calls.append(args)
        return decomposition(*args)

    monkeypatch.setattr(celldata, "decomposition_matrix", counted)
    assert report_dict(d)["D"] == [[1, 0, 0], [1, 1, 0], [0, 1, 1], [0, 0, 1]]
    assert len(calls) == 1


def test_right_multiplication_same_scalars(u3, k1, zigzag_cycs3):
    # star flip of the left rule: C(lam;S,T) a = sum r_{a*}(T',T) C(lam;S,T')
    # + friends in eps_S R(<_{eps_S} lam), with the same scalars r
    for alg, d in (u3, k1, zigzag_cycs3):
        left = {}  # (a_index, lam) -> {(S', S): coeff}
        for i in range(alg.dim):
            for lam in d.X:
                T0 = d.M[lam][0]
                row = {}
                for S in d.M[lam]:
                    j = d.label_index(lam, S, T0)
                    for k, c in alg.mult_basis(i, j).items():
                        klab = alg.basis[k]
                        if klab.lam == lam and klab.T == T0:
                            row[(klab.S, S)] = c
                left[(i, lam)] = row
        star = alg.star_perm
        for i in range(alg.dim):
            for lam in d.X:
                expected = left[(star[i], lam)]
                for T in d.M[lam]:
                    for S in d.M[lam]:
                        j = d.label_index(lam, S, T)
                        order_S = d.orders[d.eps_of(lam, S)]
                        row = {}
                        for k, c in alg.mult_basis(j, i).items():
                            klab = alg.basis[k]
                            if klab.lam == lam and klab.S == S:
                                row[(klab.T, T)] = c
                            else:
                                assert order_S.less(klab.lam, lam)
                                assert d.eps_of(klab.lam, klab.S) == d.eps_of(lam, S)
                        for (Tp, _), c in row.items():
                            assert expected.get((Tp, T), alg.field.zero) == c


def test_core_of_unit_is_whole_algebra(zigzag_a3):
    from relcell.celldata import core_subalgebra

    alg, d = zigzag_a3
    core, cd = core_subalgebra(d, 0)
    assert core.dim == alg.dim
    assert verify_cell_datum(cd).all_passed


@pytest.mark.parametrize("spec, eps", [("zigzag:A:4", 0), ("zigzag:cycS:4", 1), ("zigzag:cycS:40", 1)])
def test_core_keeps_the_parent_mask(spec, eps):
    # a core stores a product only where the parent pair is unmasked
    d = build_family(spec)[1]
    alg = d.alg
    core, cd = core_subalgebra(d, eps)
    core.materialize()
    keep = [alg.index[lab] for lab in core.basis]
    unmasked = sum(alg.right_block[i] == alg.left_block[j] for i in keep for j in keep)
    assert len(core._memo) == unmasked < core.dim**2
    assert verify_cell_datum(cd).all_passed


def test_support_with_parent_idempotents(zigzag_cycs3, k1, k2):
    for alg, d in (zigzag_cycs3, k1, k2):
        ss = simple_set(d)
        D = decomposition_matrix(d, ss)
        assert decomposition_support_ok(d, ss, D)


@pytest.mark.parametrize(
    "spec", ["usl2:p=3", "usl2:p=5", "usl2:p=7", "zigzag:A:4", "zigzag:cycS:4", "zigzag:cycL:4", "annular:n=2"]
)
def test_each_core_holds_the_simples_its_idempotent_meets(spec):
    # M -> eps M sends Delta(mu) and L(lam) to the cell modules and simples of the core
    # eps A eps: its X0 is {lam : eps L(lam) != 0}, with dim eps L(lam), and its D is the
    # block of D on those columns and the core's rows
    _, d = build_family(spec)
    res = run_pipeline(d, "D")
    ss, D = res["simples"], res["D"]
    for a in range(len(d.E)):
        cd = core_subalgebra(d, a)[1]
        core = run_pipeline(cd, "D")
        assert core["axioms"].all_passed, (spec, a)
        cs = core["simples"]
        assert cs.X0 == [lam for lam in ss.X0 if ss.eps_dims[lam][a]], (spec, a)
        assert cs.dims == {lam: ss.eps_dims[lam][a] for lam in cs.X0}, (spec, a)
        block = [[D[d.X.index(mu)][ss.X0.index(lam)] for lam in cs.X0] for mu in cd.X]
        assert core["D"] == block, (spec, a)


@pytest.mark.parametrize(
    "spec, caught, zeros",
    [("usl2:p=5", 10, 16), ("usl2:p=7", 21, 36), ("zigzag:cycS:4", 3, 8), ("annular:n=2", 2, 12)],
)
def test_support_rule_rejects_one_entry_mutants(spec, caught, zeros):
    # each mutant sets one zero entry of D to 1; on usl2 every M(lam) meets every eps,
    # so only the eps that meet L(lam) can tell these apart from D
    _, d = build_family(spec)
    res = run_pipeline(d, "D")
    ss, D = res["simples"], res["D"]
    cells = [(r, c) for r, row in enumerate(D) for c, x in enumerate(row) if not x]
    rejected = 0
    for r, c in cells:
        mutant = [row[:] for row in D]
        mutant[r][c] = 1
        rejected += not decomposition_support_ok(d, ss, mutant)
    assert (rejected, len(cells)) == (caught, zeros)


def test_int_gram_is_dense_transpose_product():
    # sparse rows, negative entries, zero rows and columns included
    rnd = random.Random(4)
    for rows, cols in ((1, 1), (3, 2), (7, 5), (12, 9)):
        D = [[rnd.choice((0, 0, 0, 1, 2, -1)) for _ in range(cols)] for _ in range(rows)]
        assert int_gram(D, cols) == int_matmul(int_transpose(D), D)


@pytest.mark.parametrize("spec", ["zigzag:A:4", "zigzag:cycS:4", "zigzag:cycL:4", "annular:n=1", "annular:n=2"])
def test_results_do_not_depend_on_the_field(spec):
    # zigzag and annular have the same X0, simple dims, D and C over Q and over a large F_p
    kind, _, rest = spec.partition(":")
    if kind == "zigzag":
        variant, n = rest.split(":")
        build = lambda field: build_zigzag(QuiverSpec(variant, int(n)), field)
    else:
        build = lambda field: build_annular(int(rest[2:]), field)
    keys = ("X0", "simple_dims", "D", "C")
    over_q, over_p = (report_dict(build(field)[1]) for field in (QQ, PrimeField(10007)))
    assert over_q["D"] is not None
    assert {k: over_q[k] for k in keys} == {k: over_p[k] for k in keys}
