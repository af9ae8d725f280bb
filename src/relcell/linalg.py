"""Exact linear algebra on sparse rows: the one elimination kernel, the
determinant and the one sparse accumulation behind them.

Vectors are sparse {column: scalar} dicts holding no zero, and a matrix is
its rows.  `Echelon` keeps an incrementally built reduced row echelon form
over any field; ranks, nullspaces, quotients and `det` are all read off it.
`axpy`, out += a * x on sparse dicts, reduces its rows, sums algebra
elements and products, and applies linear maps stored as sparse column
maps {column: {row: scalar}} (`apply`, `transpose`).  `Matrix` is the dense
reference type, kept for the tests; its methods convert its rows once and
run the same code.  Exactness is the only requirement, so there are no
fraction-free tricks.
"""

from __future__ import annotations

from .field import Field


class ShapeMismatch(Exception):
    pass


class Matrix:
    """Immutable row-major matrix of field scalars."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, rows: int, cols: int, entries):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ShapeMismatch(f"{rows}x{cols} needs {rows*cols} entries, got {len(entries)}")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, field: Field, rows) -> "Matrix":
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise ShapeMismatch("ragged rows")
        return cls(field, n, m, [x for r in rows for x in r])

    @classmethod
    def from_int_rows(cls, field: Field, rows) -> "Matrix":
        return cls.from_rows(field, [[field.from_int(x) for x in r] for r in rows])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def is_zero(self) -> bool:
        return not any(self.entries)

    def _sparse_rows(self) -> list[dict]:
        """The rows as sparse {column: scalar} dicts."""
        return [{j: x for j, x in enumerate(self.row(i)) if x} for i in range(self.rows)]

    def rref(self):
        """Reduced row echelon form; returns (Matrix, pivot column tuple).

        The form keeps this matrix's shape: zero rows follow the pivot rows.
        """
        f = self.field
        ech = Echelon(f, self.cols, self._sparse_rows())
        rows = ech.rows() + [{}] * (self.rows - ech.rank)
        entries = [row.get(j, f.zero) for row in rows for j in range(self.cols)]
        return Matrix(f, self.rows, self.cols, entries), ech.pivots()

    def rank(self) -> int:
        return Echelon(self.field, self.cols, self._sparse_rows()).rank

    def nullspace_basis(self):
        """Canonical basis, dense: one vector per free column, -1 in its free slot."""
        f = self.field
        basis = Echelon(f, self.cols, self._sparse_rows()).nullspace_basis()
        return [[v.get(j, f.zero) for j in range(self.cols)] for v in basis]

    def det(self):
        if self.rows != self.cols:
            raise ShapeMismatch(f"determinant of a {self.rows}x{self.cols} matrix")
        return det(self.field, self._sparse_rows())


class Echelon:
    """Incremental reduced row echelon form; the one elimination in relcell.

    Rows are stored as sparse {column: scalar} dicts.  Every stored row is 1
    at its pivot column and 0 at every other pivot column, so the canonical
    RREF of all rows inserted so far can be read off at any time.
    """

    def __init__(self, field: Field, width: int, rows=()):
        self.field = field
        self.width = width
        self._rows: dict[int, dict] = {}  # pivot column -> row
        for row in rows:
            self.insert(row)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def pivots(self) -> tuple:
        return tuple(sorted(self._rows))

    def rows(self) -> list[dict]:
        """The stored rows, sparse, in pivot order: the nonzero rows of the RREF."""
        return [self._rows[c] for c in self.pivots()]

    def reduce(self, row: dict) -> dict:
        """A new sparse dict: the sparse row minus its combination of the
        stored rows; empty exactly when row lies in their span."""
        f = self.field
        rows = self._rows
        row = {j: x for j, x in row.items() if x}
        # stored rows vanish at every other pivot, so the pivot entries of
        # `row` are not changed by eliminating the ones before them
        for c in [c for c in row if c in rows]:
            axpy(f, row, f.neg(row[c]), rows[c])
        return row

    def insert(self, row: dict):
        """Add a sparse row.

        Returns None if the row depends on the rows already inserted, else
        (pivot column, entry at the pivot column after reduction and before
        scaling to 1).
        """
        f = self.field
        rows = self._rows
        row = self.reduce(row)
        if not row:
            return None
        c = min(row)
        x = row[c]
        inv = f.inv(x)
        if inv != f.one:
            row = {j: f.mul(inv, y) for j, y in row.items()}
        for other in rows.values():
            y = other.get(c)
            if y:
                axpy(f, other, f.neg(y), row)
        rows[c] = row
        return c, x

    def nullspace_basis(self) -> list[dict]:
        """Canonical basis, sparse: one vector per free column, -1 in its
        free slot and, at each pivot, the stored row's entry at that column."""
        f = self.field
        minus_one = f.neg(f.one)
        basis = {free: {free: minus_one} for free in range(self.width) if free not in self._rows}
        for pc, row in self._rows.items():
            for j, x in row.items():
                if j != pc:
                    basis[j][pc] = x
        return list(basis.values())


def det(f: Field, rows: list[dict]):
    """The determinant of the square matrix with these sparse rows: the
    product of the pivot values met while inserting the rows in order,
    times the sign of the order of their pivot columns.

    Inserting row i subtracts multiples of earlier rows only, and the
    reduced row is zero at every earlier pivot, so the reduced rows form a
    triangular matrix once their columns are put in pivot order.
    """
    ech = Echelon(f, len(rows))
    value = f.one
    order = []
    for row in rows:
        got = ech.insert(row)
        if got is None:
            return f.zero
        order.append(got[0])
        value = f.mul(value, got[1])
    inversions = sum(a > b for k, a in enumerate(order) for b in order[k + 1:])
    return f.neg(value) if inversions % 2 else value


def axpy(f: Field, out: dict, a, x: dict) -> None:
    """out += a * x on sparse {key: scalar} dicts, in place; a key whose
    sum reaches zero is dropped, so out gains no zero entry."""
    for k, y in x.items():
        v = f.add(out.get(k, f.zero), f.mul(a, y))
        if v:
            out[k] = v
        else:
            out.pop(k, None)


def apply(f: Field, A: dict, v: dict) -> dict:
    """A v for a sparse column map A = {column: {row: scalar}} and a sparse
    vector v: one axpy per term of v whose column A holds."""
    out: dict = {}
    for c, x in v.items():
        col = A.get(c)
        if col:
            axpy(f, out, x, col)
    return out


def transpose(A: dict) -> dict:
    """The rows {row: {column: scalar}} of a sparse column map."""
    out: dict = {}
    for c, col in A.items():
        for r, x in col.items():
            out.setdefault(r, {})[c] = x
    return out
