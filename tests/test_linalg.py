from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcell.field import PrimeField, QQ
from relcell.linalg import Echelon, Matrix, ShapeMismatch, axpy, det

from reference import matmul, rows_matrix


def diag(field, values):
    n = len(values)
    rows = [[field.from_int(values[i]) if i == j else field.zero for j in range(n)] for i in range(n)]
    return Matrix.from_rows(field, rows)


def test_rank_examples():
    assert diag(QQ, [1, 1, 0]).rank() == 2
    f3 = PrimeField(3)
    # Gram values of the p=3 example: Delta(2) has full rank, Delta(0) rank 1
    assert diag(f3, [1, 2, 1]).nullspace_basis() == []
    assert diag(f3, [1, 0, 0]).rank() == 1


@st.composite
def small_matrix(draw):
    p = draw(st.sampled_from([2, 3, 5, 0]))
    field = QQ if p == 0 else PrimeField(p)
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    ints = draw(st.lists(st.integers(-4, 4), min_size=rows * cols, max_size=rows * cols))
    return Matrix(field, rows, cols, [field.from_int(x) for x in ints])


@given(small_matrix())
@settings(max_examples=150, deadline=None)
def test_rref_idempotent(m):
    red, piv = m.rref()
    red2, piv2 = red.rref()
    assert red == red2 and piv == piv2


@given(small_matrix())
@settings(max_examples=150, deadline=None)
def test_nullspace_vectors_kill(m):
    f = m.field
    for v in m.nullspace_basis():
        col = Matrix(f, m.cols, 1, v)
        assert matmul(m, col).is_zero()
    assert m.rank() + len(m.nullspace_basis()) == m.cols


@given(small_matrix(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_echelon_insertion_matches_rref(m, rnd):
    # the stored form is the canonical RREF of the rows so far, whatever
    # their order
    order = list(range(m.rows))
    rnd.shuffle(order)
    ech = Echelon(m.field, m.cols)
    for t, i in enumerate(order):
        ech.insert({j: x for j, x in enumerate(m.row(i)) if x})
        prefix = Matrix.from_rows(m.field, [m.row(k) for k in sorted(order[: t + 1])])
        red, piv = prefix.rref()
        assert ech.pivots() == piv
        assert rows_matrix(m.field, len(piv), m.cols, ech.rows()) == Matrix(m.field, len(piv), m.cols, red.entries[: len(piv) * m.cols])
    # the RREF spans the rows: each row is its pivot entries times the RREF
    red = rows_matrix(m.field, ech.rank, m.cols, ech.rows())
    pick = Matrix.from_rows(m.field, [[m[i, c] for c in ech.pivots()] for i in range(m.rows)])
    assert matmul(pick, red) == m


def square_matrix(field, n):
    ints = st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n)
    return ints.map(lambda xs: Matrix(field, n, n, [field.from_int(x) for x in xs]))


det_fields = st.sampled_from([QQ, PrimeField(3), PrimeField(5)])


def leibniz_det(m):
    f = m.field
    total = f.zero
    for perm in permutations(range(m.rows)):
        term = f.one
        for i, j in enumerate(perm):
            term = f.mul(term, m[i, j])
        inversions = sum(a > b for k, a in enumerate(perm) for b in perm[k + 1:])
        total = f.add(total, f.neg(term) if inversions % 2 else term)
    return total


@given(st.data(), det_fields, st.integers(0, 4))
@settings(max_examples=200, deadline=None)
def test_det_matches_leibniz_and_is_multiplicative(data, field, n):
    a = data.draw(square_matrix(field, n))
    b = data.draw(square_matrix(field, n))
    assert a.det() == leibniz_det(a)
    assert det(field, [{j: x for j, x in enumerate(a.row(i)) if x} for i in range(n)]) == leibniz_det(a)
    assert matmul(a, b).det() == field.mul(a.det(), b.det())


def test_det_rejects_non_square():
    with pytest.raises(ShapeMismatch):
        Matrix.from_int_rows(QQ, [[1, 2]]).det()


def test_nullspace_canonical_form():
    # one vector per free column with -1 in the free slot
    f = QQ
    m = Matrix.from_int_rows(f, [[1, 2, 3], [0, 0, 0]])
    basis = m.nullspace_basis()
    assert len(basis) == 2
    assert basis[0][1] == f.neg(f.one) and basis[1][2] == f.neg(f.one)


@given(small_matrix())
@settings(max_examples=150, deadline=None)
def test_echelon_nullspace_is_sparse(m):
    # sparse vectors holding no zero, each killing every row
    f = m.field
    rows = [{j: x for j, x in enumerate(m.row(i)) if x} for i in range(m.rows)]
    ech = Echelon(f, m.cols, rows)
    basis = ech.nullspace_basis()
    assert len(basis) == m.cols - ech.rank
    for v in basis:
        assert isinstance(v, dict) and v and all(v.values())
        for row in rows:
            total = f.zero
            for j, x in row.items():
                total = f.add(total, f.mul(x, v.get(j, f.zero)))
            assert not total


def test_shape_mismatch():
    f = QQ
    with pytest.raises(ShapeMismatch):
        Matrix(f, 2, 2, [f.one] * 3)
    with pytest.raises(ShapeMismatch):
        Matrix.from_int_rows(f, [[1, 2], [3]])


@pytest.mark.parametrize("field", [PrimeField(5), QQ])
def test_axpy_in_place_drops_the_keys_that_reach_zero(field):
    one, two = field.one, field.from_int(2)
    half = field.inv(two)
    out = {0: one, 1: two, 3: one}
    x = {1: one, 2: one, 3: two}
    same = out
    assert axpy(field, out, field.neg(two), x) is None
    # key 1 reached zero and is gone; key 2 is new; x is untouched
    assert out is same and out == {0: one, 2: field.neg(two), 3: field.sub(one, field.from_int(4))}
    assert x == {1: one, 2: one, 3: two}
    axpy(field, out, field.neg(half), {3: field.mul(two, out[3])})
    assert out == {0: one, 2: field.neg(two)}
    axpy(field, out, half, {})
    assert out == {0: one, 2: field.neg(two)}
    assert all(out.values())


def test_axpy_over_q_keeps_fractions_exact():
    out = {0: Fraction(1, 3)}
    axpy(QQ, out, Fraction(1, 2), {0: Fraction(-2, 3), 1: 1})
    assert out == {1: Fraction(1, 2)}
