"""The work the axiom sweeps skip is work that cannot find a witness.

Axiom (b) checks each star-mirror pair once, at its lexicographically first
member.  Axiom (d) reads each column T of each lambda once, through the
column reader that cell_module also uses, and visits only the left partners
of the column's entries.  Each mutant here fails with the witness string
that the full sweeps (every pair, every (element, lambda, T) triple) report
for it, and the (d) witnesses of the two failing data are pinned exactly.
"""

import pytest

from relcell import celldata
from relcell.algebra import AlgebraTable, BasisLabel
from relcell.celldata import verify_cell_datum
from relcell.celldata import core_subalgebra
from relcell.families import build_family
from relcell.field import QQ
from relcell.zigzag import alternate_idempotent_datum

from reference import reversed_order_datum, uv_mutant

TABLES = [
    "zigzag:A:3", "zigzag:A:4", "zigzag:A:5", "zigzag:cycS:3", "zigzag:cycS:4", "zigzag:cycS:5",
    "zigzag:cycL:3", "zigzag:cycL:4", "usl2:p=3", "usl2:p=5", "usl2:p=7", "annular:n=1", "annular:n=2",
]


def retabled(d, mult_fn=None, blocks=None):
    """d on a fresh table with alg's basis and star, kernel and blocks replaced."""
    alg = d.alg
    table = AlgebraTable(
        alg.field,
        alg.basis,
        alg._mult_fn if mult_fn is None else mult_fn,
        alg.star_perm,
        name=alg.name,
        blocks=(alg.left_block, alg.right_block) if blocks is None else blocks,
    )
    E = [table.element(e.coeffs) for e in d.E]
    return d._replace(alg=table, E=E, primitive_idempotents={})


def failures(d):
    return [line for line in str(verify_cell_datum(d)).splitlines() if "FAIL" in line]


def test_flip_at_the_later_mirror_member_fails_b():
    alg, d = build_family("usl2:p=5")
    f, star = alg.field, alg.star_perm
    first = next(
        (i, j)
        for i in range(alg.dim)
        for j in alg.partners(i)
        if alg.mult_basis(i, j) and (star[j], star[i]) != (i, j)
    )
    later = max(first, (star[first[1]], star[first[0]]))
    assert later != first

    def mult(i, j):
        out = dict(alg._mult_fn(i, j))
        if (i, j) == later:
            k = min(out)
            out[k] = f.neg(out[k])
        return out

    # the witness names the first member, (1_0, E 1_0) against its mirror (F 1_0, 1_0)
    assert (first, later) == ((0, 1), (5, 0))
    assert failures(retabled(d, mult_fn=mult)) == [
        "b:anti-involution: FAIL  [star(BasisLabel(lam=0, S=0, T=0)*BasisLabel(lam=0, S=0, T=1))"
        " != star*star]",
        "d:mult-left: FAIL  [r_a(S',S) depends on T for a=BasisLabel(lam=0, S=1, T=0), lambda=0]",
        "unit: FAIL  [sum of idempotents is not a unit on basis element BasisLabel(lam=0, S=1, T=0)]",
    ]


def test_column_missing_under_one_T_fails_d():
    # C(1;(1,),(2,1)) moved out of left block 1: for lambda = 1, block 1 then
    # has a column under T = (1,) and none under T = (2,1)
    alg, d = build_family("zigzag:A:3")
    left = list(alg.left_block)
    moved = alg.index[BasisLabel(1, (1,), (2, 1))]
    left[moved] = 3
    mutant = retabled(d, blocks=(left, alg.right_block))
    cols = {(left[mutant.label_index(1, S, T)], T) for S in mutant.M[1] for T in mutant.M[1]}
    assert (1, (1,)) in cols and (1, (2, 1)) not in cols
    d_lines = [line for line in failures(mutant) if line.startswith("d:")]
    assert d_lines == [
        "d:mult-left: FAIL  [r_a(S',S) depends on T for a=BasisLabel(lam=1, S=(1,), T=(1,)),"
        " lambda=1]"
    ]
    # the moved column breaks the mask's star symmetry at its mirror, which (b) reports
    assert celldata._axiom_b(mutant) == (
        "star does not map the Peirce mask onto itself at BasisLabel(lam=1, S=(2, 1), T=(1,))"
    )


def test_mult_left_reads_only_column_entries(monkeypatch):
    alg, d = build_family("zigzag:A:40")
    left, right = alg.left_block, alg.right_block
    cols = {}  # (lambda, left block, T) -> the indices of the C(lambda;S,T) under it
    for lam in d.X:
        for T in d.M[lam]:
            for S in d.M[lam]:
                j = d.label_index(lam, S, T)
                cols.setdefault((lam, left[j], T), []).append(j)
    column_pairs = [
        (i, j) for i in range(alg.dim) for (_, key, _), js in cols.items() if key == right[i] for j in js
    ]
    entries = len(column_pairs)
    # cell_module reads only the columns T = M(lambda)[0]
    first_pairs = {(i, j) for i, j in column_pairs if alg.basis[j].T == d.M[alg.basis[j].lam][0]}
    reads = []

    class CountedRow(list):
        """A row of products that records each entry read from it."""

        def __init__(self, i, products):
            super().__init__(products)
            self.i = i

        def __getitem__(self, p):
            reads.append((self.i, alg.partners(self.i)[p]))
            return super().__getitem__(p)

        def __iter__(self):
            raise AssertionError(f"row {self.i} read whole")

    counted = [CountedRow(i, row) for i, row in enumerate(alg.materialize())]
    monkeypatch.setattr(alg, "materialize", lambda: counted)
    assert celldata._axiom_d(d) is None
    assert 0 < len(reads) <= entries
    assert set(reads) <= set(column_pairs)
    reads.clear()
    for lam in d.X:
        celldata.cell_module(d, lam)
    assert 0 < len(reads) <= entries
    assert set(reads) <= first_pairs


D_WITNESSES = {
    "reversed-order": (
        lambda: reversed_order_datum(QQ),
        "BasisLabel(lam=0, S=(1, 2), T=(1, 2)) * C(1;(1,),(1,)) has term"
        " BasisLabel(lam=0, S=(1, 2), T=(1, 2)) outside sum + R(<_epsT 1)epsT",
    ),
    "uv-mutant": (uv_mutant, "r_a(S',S) depends on T for a=BasisLabel(lam=0, S=0, T=1), lambda=0"),
}


@pytest.mark.parametrize("datum", sorted(D_WITNESSES))
def test_d_witness_of_a_failing_datum_is_pinned(datum):
    build, witness = D_WITNESSES[datum]
    d = build()[1]
    assert celldata._axiom_d(d) == witness
    assert f"d:mult-left: FAIL  [{witness}]" in failures(d)


@pytest.mark.parametrize("change", ["drop", "extra", "move"])
def test_b_compares_every_term_with_the_mirror(change):
    # the term-by-term comparison catches a product whose mirror lost a
    # term, gained one, or holds a coefficient under another key
    alg, d = build_family("usl2:p=5")
    later = (5, 0)  # the later member of the pair ((0, 1), (5, 0)), as above
    product = dict(alg._mult_fn(*later))
    k = min(product)
    other = next(m for m in range(alg.dim) if m not in product)
    if change == "drop":
        del product[k]
    elif change == "extra":
        product[other] = alg.field.one
    else:
        product[other] = product.pop(k)

    def mult(i, j):
        return product if (i, j) == later else alg._mult_fn(i, j)

    assert celldata._axiom_b(retabled(d, mult_fn=mult)) == (
        "star(BasisLabel(lam=0, S=0, T=0)*BasisLabel(lam=0, S=0, T=1)) != star*star"
    )


def shipped_data():
    """Every datum the package ships: the table families, each of their
    cores, and the alternate and reversed-order zigzag data."""
    for spec in TABLES:
        _, d = build_family(spec)
        yield spec, d
        for a in range(len(d.E)):
            yield f"{spec} core {a}", core_subalgebra(d, a)[1]
    yield "zigzag:cycS:3-alt", alternate_idempotent_datum(QQ)[1]
    yield "zigzag:A:3-reversed-order", reversed_order_datum(QQ)[1]


def test_every_shipped_mask_is_star_symmetric():
    # (b) sweeps only unmasked pairs, which is sound only for such a mask
    for name, d in shipped_data():
        alg = d.alg
        star, left, right = alg.star_perm, alg.left_block, alg.right_block
        assert all(left[star[i]] == right[i] for i in range(alg.dim)), name
        assert celldata._axiom_b(d) is None, name
