"""The Peirce-block mask: declared blocks agree with the kernels, and every
sweep that skips masked pairs gives what the unmasked table gives.

Each builder declares left/right block keys from which the table answers
"structurally zero" without calling its kernel.  The soundness sweep asks
the raw kernels themselves; the differential tests rebuild each table with
the same kernel and star but blocks=None and compare products, axiom
reports (witnesses included) and cell modules, on the data and on mutants.
"""

import pytest

from relcell import annular, usl2, zigzag
from relcell.algebra import ZERO_PRODUCT, AlgebraTable
from relcell.celldata import StrictOrder, cell_module, verify_cell_datum
from relcell.families import build_family
from relcell.field import QQ

from reference import reversed_order_datum

SPECS = [
    "zigzag:A:3",
    "zigzag:cycS:3",
    "zigzag:cycL:3",
    "usl2:p=3",
    "usl2:p=5",
    "annular:n=1",
    "annular:n=2",
]


@pytest.fixture(scope="module", params=SPECS)
def family(request):
    return request.param, build_family(request.param)


def raw_kernel(spec, alg):
    """(i, j) -> the family's own product rule on the two labels, bypassing
    the table and its mask; falsy iff the product is zero."""
    kind, _, rest = spec.partition(":")
    if kind == "zigzag":
        variant, n = rest.split(":")
        qs = zigzag.QuiverSpec(variant, int(n))
        paths = [zigzag.compose(qs, lab.S, zigzag.star_path(lab.T)) for lab in alg.basis]
        return lambda i, j: zigzag.compose(qs, paths[i], paths[j])
    if kind == "usl2":
        p = int(rest[2:])
        rule = usl2.structure_constants(p, alg.field)
        # the rule's own index of (lam, S, T), whatever order the table uses
        idx = [(lab.lam * p + lab.S) * p + lab.T for lab in alg.basis]
        return lambda i, j: rule(idx[i], idx[j])
    n = int(rest[2:])
    labs = [(lab.S, lab.lam, lab.T) for lab in alg.basis]
    return lambda i, j: annular.multiply_labels(n, labs[i], labs[j])


def test_kernel_is_zero_on_masked_pairs(family):
    spec, (alg, _) = family
    kernel = raw_kernel(spec, alg)
    masked = 0
    for i in range(alg.dim):
        for j in range(alg.dim):
            if alg.right_block[i] != alg.left_block[j]:
                masked += 1
                assert not kernel(i, j), (spec, alg.basis[i], alg.basis[j])
    assert masked > 0


def test_materialize_stores_only_unmasked_pairs(k2):
    alg, _ = k2
    alg.materialize()
    unmasked = sum(1 for a in alg.basis for b in alg.basis if a.T == b.S)
    assert len(alg._memo) == unmasked < alg.dim**2
    # a zero product is stored as the one shared read-only empty product
    assert all(v is ZERO_PRODUCT for v in alg._memo.values() if not v)


# --- differential: the same kernel and star with blocks=None ------------------


def twins(alg, star=None, mult_fn=None):
    """(blocked, unmasked) tables on alg's basis; star and kernel default to alg's."""
    star = alg.star_perm if star is None else star
    mult_fn = alg._mult_fn if mult_fn is None else mult_fn
    blocks = (alg.left_block, alg.right_block)
    return tuple(
        AlgebraTable(alg.field, alg.basis, mult_fn, star, name=alg.name, blocks=b)
        for b in (blocks, None)
    )


def on_table(d, alg, **changes):
    """d moved onto the table alg (same labels), with CellDatum fields replaced."""
    E = [alg.element(e.coeffs) for e in changes.pop("E", d.E)]
    return d._replace(alg=alg, E=E, primitive_idempotents={}, **changes)


def reports(d, star=None, mult_fn=None, **changes):
    return [
        str(verify_cell_datum(on_table(d, t, **changes)))
        for t in twins(d.alg, star, mult_fn)
    ]


def test_blocked_and_unmasked_tables_agree(family):
    spec, (alg, d) = family
    blocked, flat = twins(alg)
    for i in range(alg.dim):
        for j in range(alg.dim):
            assert blocked.mult_basis(i, j) == flat.mult_basis(i, j)
    db, df = on_table(d, blocked), on_table(d, flat)
    report = verify_cell_datum(db)
    assert report.all_passed
    assert str(report) == str(verify_cell_datum(df))
    for lam in d.X:
        assert cell_module(db, lam).action == cell_module(df, lam).action


def reversed_order(order):
    return StrictOrder(order.elements, lambda a, b: order.less(b, a), f"{order.name}-reversed")


def swapped_star(alg):
    """star with the images of two non-self-dual elements exchanged."""
    star = list(alg.star_perm)
    i, k = [i for i in range(alg.dim) if star[i] != i][:2]
    star[i], star[k] = star[k], star[i]
    return tuple(star)


def flipped_kernel(alg):
    """alg's kernel with one coefficient negated on an unmasked pair whose
    star-mirror pair is a different pair."""
    f, star = alg.field, alg.star_perm
    pair = next(
        (i, j)
        for i in range(alg.dim)
        for j in alg.partners(i)
        if alg.mult_basis(i, j) and (star[j], star[i]) != (i, j)
    )

    def mult(i, j):
        out = dict(alg._mult_fn(i, j))
        if (i, j) == pair:
            k = min(out)
            out[k] = f.neg(out[k])
        return out

    return mult


MUTANTS = [("reversed-datum", "zigzag:A:3")]
MUTANTS += [(kind, spec) for kind in ("orders-reversed", "one-order-reversed")
            for spec in ("usl2:p=5", "zigzag:cycL:4")]
MUTANTS += [("one-order-reversed", "annular:n=2")]
MUTANTS += [(kind, spec) for kind in ("swapped-star", "flipped-coefficient")
            for spec in ("zigzag:A:3", "zigzag:cycL:4", "usl2:p=5", "annular:n=2")]
MUTANTS += [("dropped-idempotent", spec) for spec in ("zigzag:cycL:4", "usl2:p=5", "annular:n=2")]
MUTANTS += [("merged-idempotent", spec) for spec in ("annular:n=2", "zigzag:cycL:4")]


def mutant(kind, spec):
    """(datum, keyword changes for `reports`) injecting one fault."""
    if kind == "reversed-datum":
        return reversed_order_datum(QQ)[1], {}
    alg, d = build_family(spec)
    return d, {
        "orders-reversed": lambda: {"orders": list(reversed(d.orders))},
        "one-order-reversed": lambda: {"orders": [reversed_order(d.orders[0])] + d.orders[1:]},
        "swapped-star": lambda: {"star": swapped_star(alg)},
        "flipped-coefficient": lambda: {"mult_fn": flipped_kernel(alg)},
        "dropped-idempotent": lambda: {"E": d.E[1:]},
        "merged-idempotent": lambda: {"E": [d.E[0] + d.E[1]] + d.E[2:]},
    }[kind]()


@pytest.mark.parametrize("kind, spec", MUTANTS, ids=[f"{k}-{s}" for k, s in MUTANTS])
def test_mutant_fails_alike_on_both_tables(kind, spec):
    d, changes = mutant(kind, spec)
    blocked, flat = reports(d, **changes)
    assert blocked == flat
    failed = [line for line in blocked.splitlines() if "FAIL" in line]
    assert failed and all(line.endswith("]") for line in failed), blocked


# the c:idem-props-2 and unit lines, witnesses included, of the reports on
# the idempotent mutants; the two axioms read e b_i, u b_i and b_i u from the rows
IDEMPOTENT_WITNESSES = {
    ("dropped-idempotent", "zigzag:cycL:4"): [
        "c:idem-props-2: FAIL  [E[0]*BasisLabel(lam=1, S=(1,), T=(1,)) = 0, "
        "expected 1*BasisLabel(lam=1, S=(1,), T=(1,))]",
        "unit: FAIL  [sum of idempotents is not a unit on basis element BasisLabel(lam=1, "
        "S=(1,), T=(1,))]",
    ],
    ("dropped-idempotent", "usl2:p=5"): [
        "c:idem-props-2: FAIL  [E[0]*BasisLabel(lam=0, S=0, T=0) = 0, "
        "expected 1*BasisLabel(lam=0, S=0, T=0)]",
        "unit: FAIL  [sum of idempotents is not a unit on basis element BasisLabel(lam=0, S=0, "
        "T=0)]",
    ],
    ("dropped-idempotent", "annular:n=2"): [
        "c:idem-props-2: FAIL  [E[0]*BasisLabel(lam='v^v^', S=(Arc(p=1, q=2, wrap=False), "
        "Arc(p=3, q=4, wrap=False)), T=(Arc(p=1, q=2, wrap=False), Arc(p=3, q=4, "
        "wrap=False))) = 0, expected 1*BasisLabel(lam='v^v^', S=(Arc(p=1, q=2, wrap=False), "
        "Arc(p=3, q=4, wrap=False)), T=(Arc(p=1, q=2, wrap=False), Arc(p=3, q=4, wrap=False)))]",
        "unit: FAIL  [sum of idempotents is not a unit on basis element BasisLabel(lam='v^v^', "
        "S=(Arc(p=1, q=2, wrap=False), Arc(p=3, q=4, wrap=False)), T=(Arc(p=1, q=2, "
        "wrap=False), Arc(p=3, q=4, wrap=False)))]",
    ],
    ("merged-idempotent", "annular:n=2"): [
        "c:idem-props-2: FAIL  [E[0]*BasisLabel(lam='v^v^', S=(Arc(p=1, q=2, wrap=False), "
        "Arc(p=3, q=4, wrap=True)), T=(Arc(p=1, q=2, wrap=False), Arc(p=3, q=4, "
        "wrap=False))) = 1*BasisLabel(lam='v^v^', S=(Arc(p=1, q=2, wrap=False), Arc(p=3, q=4, "
        "wrap=True)), T=(Arc(p=1, q=2, wrap=False), Arc(p=3, q=4, wrap=False))), expected 0]",
        "unit: PASS",
    ],
    ("merged-idempotent", "zigzag:cycL:4"): [
        "c:idem-props-2: FAIL  [E[0]*BasisLabel(lam=1, S=(2, 3, 4, 1), "
        "T=(1,)) = 1*BasisLabel(lam=1, S=(2, 3, 4, 1), T=(1,)), expected 0]",
        "unit: PASS",
    ],
}


@pytest.mark.parametrize("kind, spec", IDEMPOTENT_WITNESSES, ids=[f"{k}-{s}" for k, s in IDEMPOTENT_WITNESSES])
def test_idempotent_mutant_witnesses_pinned(kind, spec):
    d, changes = mutant(kind, spec)
    for report in reports(d, **changes):
        lines = [line for line in report.splitlines() if line.startswith(("c:idem-props-2", "unit"))]
        assert lines == IDEMPOTENT_WITNESSES[kind, spec]
