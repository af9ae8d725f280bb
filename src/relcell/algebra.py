"""Finite-dimensional algebras by structure constants, with anti-involution.

An AlgebraTable stores an ordered basis of (lambda, S, T) labels, a
multiplication rule on basis pairs (a memoized callback, the kernel),
the star permutation and a Peirce-block mask: a left and a right block key
per basis element, with b_i * b_j = 0 by declaration unless the right key
of i equals the left key of j.  The mask must be star-symmetric: the left
key of star(i) is the right key of i, so a pair is masked exactly when its
star-mirror is, and axiom (b) sweeps only unmasked pairs.  The memo is one
row per basis element i, aligned with the unmasked partners j of i.  Masked
products never reach the rule or the rows, and products, sweeps and
materialization visit only unmasked pairs; basis_products is the one
reader of an element against every basis element.

The kernel contract: a product is a read-only {index: scalar} dict that
holds no zero coefficient, an empty product is ZERO_PRODUCT, and a kernel
hands out one object per distinct product, so equal products are one dict
wherever they are stored.  A kernel shares its products through
intern_product, by content, unless it can name each product up front:
zigzag's products are single basis paths, one prebuilt dict each, and
usl2's kernel looks its products up by shape.  The table stores what the
kernel returns as it is.

A module stores the actions of the basis elements that act by nonzero, as
sparse column maps {col: {row: scalar}}, and nothing for the rest.  Hom
spaces, radicals, submodules, quotients, composition multiplicities and
Peirce dimensions dim eAf are computed on sparse vectors by exact linear
algebra over the table's field: linalg.Echelon for elimination and
linalg.axpy for every sum, with no dense matrix.  Every submodule and
quotient is one transport of the action through a lift and a projection.
"""

from __future__ import annotations

import json
from collections import namedtuple
from collections.abc import Callable
from types import MappingProxyType

from .field import Field, field_to_str
from .linalg import Echelon, apply, axpy, transpose


class AlgebraMismatch(Exception):
    pass


class NotUnital(Exception):
    pass


class NonIntegralMultiplicity(Exception):
    pass


BasisLabel = namedtuple("BasisLabel", "lam S T")


# the product of a masked pair; shared, so it must stay read-only
ZERO_PRODUCT = MappingProxyType({})


def intern_product(shared: dict, product: dict[int, object]) -> dict[int, object]:
    """The one dict equal to product that shared holds, product itself the
    first time it is seen; ZERO_PRODUCT when product is empty.  product
    holds no zero coefficient, and shared maps a product's content to it."""
    if not product:
        return ZERO_PRODUCT
    return shared.setdefault(frozenset(product.items()), product)


class AlgebraTable:
    """Basis-indexed multiplication table with a star anti-involution.

    mult_fn(i, j) returns the structure constants of basis_i * basis_j as a
    sparse {index: scalar} dict.  Products are memoized, so families with a
    large basis (K_3 has dimension 1664) never materialize the full table
    unless asked to.  mult_fn keeps the kernel contract of the module
    docstring; the table neither compares products nor reads their
    coefficients.

    blocks = (left, right) gives one left and one right block key per basis
    element (the Peirce idempotents e, f with b = e b f).  A pair (i, j) with
    right[i] != left[j] is masked: its product is zero without a call to
    mult_fn.  The mask must be star-symmetric, left[star[i]] == right[i]
    (axiom (b) checks it).  blocks=None puts every element in one block, so
    nothing is masked.

    The memo is a list of rows.  Row i is aligned with partners(i), the j
    with b_i * b_j unmasked, and pos[j] is j's place in its left block, so
    b_i * b_j is rows[i][pos[j]].  A row is allocated when one of its
    products is first asked for, and holds None where a product is not yet
    computed.  A stored product is the dict mult_fn returned, read-only
    for the table and for mult_fn.  `_memo` reads the rows out as a flat
    {(i, j): product} dict, for inspection only.
    """

    def __init__(
        self,
        field: Field,
        basis: list[BasisLabel],
        mult_fn: Callable[[int, int], dict[int, object]],
        star: tuple[int, ...],
        name: str = "",
        blocks: tuple[list, list] | None = None,
    ):
        self.field = field
        self.basis = list(basis)
        self.index = {lab: i for i, lab in enumerate(self.basis)}
        if len(self.index) != len(self.basis):
            raise ValueError("duplicate basis labels")
        self._mult_fn = mult_fn
        self.star_perm = tuple(star)
        # builders that know a generating set assign it after construction
        self.generators: list[tuple[str, Element]] | None = None
        self.name = name
        if blocks is None:
            blocks = ((None,) * self.dim, (None,) * self.dim)
        self.left_block, self.right_block = (tuple(keys) for keys in blocks)
        if not len(self.left_block) == len(self.right_block) == self.dim:
            raise ValueError("need one left and one right block key per basis element")
        self._by_left: dict[object, list[int]] = {}
        self._by_right: dict[object, list[int]] = {}
        pos = []
        for j, key in enumerate(self.left_block):
            block = self._by_left.setdefault(key, [])
            pos.append(len(block))
            block.append(j)
            self._by_right.setdefault(self.right_block[j], []).append(j)
        self.pos = tuple(pos)
        self._rows: list[list | None] = [None] * self.dim
        self._complete = False  # every row filled

    @property
    def dim(self) -> int:
        return len(self.basis)

    def partners(self, i: int) -> list[int]:
        """The j (ascending) for which b_i * b_j is not masked; a shared list."""
        return self._by_left.get(self.right_block[i], [])

    def mult_basis(self, i: int, j: int) -> dict[int, object]:
        """b_i * b_j, read-only: from the rows, else from mult_fn once and
        stored."""
        if self.right_block[i] != self.left_block[j]:
            return ZERO_PRODUCT
        row = self._rows[i]
        if row is None:
            row = self._rows[i] = [None] * len(self.partners(i))
        p = self.pos[j]
        got = row[p]
        if got is None:
            got = row[p] = self._mult_fn(i, j)
        return got

    def materialize(self) -> list[list[dict[int, object]]]:
        """Compute every unmasked product; the rows (read-only), with
        rows[i][pos[j]] = b_i * b_j.

        A row is filled in one comprehension over partners(i), calling
        mult_fn once for each product not yet stored.  Equal products are
        already one object, since the kernel hands them out shared.  The
        first call fills the table; later calls return the rows at once.
        """
        rows = self._rows
        if self._complete:
            return rows
        mult_fn = self._mult_fn
        for i in range(self.dim):
            js = self.partners(i)
            row = rows[i]
            if row is None:
                row = rows[i] = [None] * len(js)
            # filled through a slice, so the row keeps its exact length
            row[:] = [mult_fn(i, j) if got is None else got for j, got in zip(js, row)]
        self._complete = True
        return rows

    def basis_products(self, x: "Element", right: bool = False) -> dict[int, dict[int, object]]:
        """{j: x b_j} for every j with x b_j != 0; with right, {j: b_j x}.

        The one reader of x against every basis element: read from the
        materialized rows, one term per unmasked pair.  x b_j sums x_k
        rows[k][pos[j]] over the partners j of each k in supp(x), and b_j x
        sums x_k rows[j][pos[k]] over the j whose right block is the left
        block of k.
        """
        f, rows, pos = self.field, self.materialize(), self.pos
        out: dict[int, dict] = {}
        for k, c in x.coeffs.items():
            if right:
                pk = pos[k]
                for j in self._by_right.get(self.left_block[k], ()):
                    axpy(f, out.setdefault(j, {}), c, rows[j][pk])
            else:
                for j, p in zip(self.partners(k), rows[k]):
                    axpy(f, out.setdefault(j, {}), c, p)
        return {j: v for j, v in out.items() if v}

    @property
    def _memo(self) -> dict[tuple[int, int], dict[int, object]]:
        """{(i, j): b_i * b_j} for every product computed so far.

        A new dict read out of the rows on each access, for inspection; the
        product path never builds it.
        """
        return {
            (i, j): got
            for i, row in enumerate(self._rows)
            if row is not None
            for j, got in zip(self.partners(i), row)
            if got is not None
        }

    def element(self, coeffs: dict[int, object]) -> "Element":
        return Element(self, coeffs)

    def basis_element(self, i: int) -> "Element":
        return Element(self, {i: self.field.one})

    def element_from_label(self, label: BasisLabel) -> "Element":
        return self.basis_element(self.index[label])

    def zero_element(self) -> "Element":
        return Element(self, {})

    def star_element(self, x: "Element") -> "Element":
        return Element(self, {self.star_perm[i]: c for i, c in x.coeffs.items()})


class Element:
    """Sparse algebra element {basis index: nonzero scalar}.  Sums and
    products accumulate with linalg.axpy; a product reads each b_i b_j from
    mult_basis, whose Peirce mask is the one Peirce test on this path."""

    __slots__ = ("alg", "coeffs")

    def __init__(self, alg: AlgebraTable, coeffs: dict[int, object]):
        self.alg = alg
        self.coeffs = {i: c for i, c in coeffs.items() if c}

    def _check(self, other: "Element"):
        if self.alg is not other.alg:
            raise AlgebraMismatch("elements of different algebras")

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        f = self.alg.field
        return Element(self.alg, combine(f, ((f.one, self.coeffs), (f.one, other.coeffs))))

    def __neg__(self) -> "Element":
        f = self.alg.field
        return Element(self.alg, {i: f.neg(c) for i, c in self.coeffs.items()})

    def __sub__(self, other: "Element") -> "Element":
        self._check(other)
        f = self.alg.field
        return Element(self.alg, combine(f, ((f.one, self.coeffs), (f.neg(f.one), other.coeffs))))

    def __mul__(self, other: "Element") -> "Element":
        self._check(other)
        alg = self.alg
        f, mult = alg.field, alg.mult_basis
        out: dict[int, object] = {}
        for i, a in self.coeffs.items():
            for j, b in other.coeffs.items():
                axpy(f, out, f.mul(a, b), mult(i, j))
        return Element(alg, out)

    def star(self) -> "Element":
        return self.alg.star_element(self)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, Element) and self.alg is other.alg and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = [f"{c}*{self.alg.basis[i]}" for i, c in sorted(self.coeffs.items())]
        return " + ".join(bits)


def combine(field: Field, terms) -> dict[int, object]:
    """The sum of c * x over the (c, x) in terms, x a sparse {index:
    scalar} dict (a product, or an element's coefficients), as {index:
    nonzero scalar}: one linalg.axpy per term."""
    out: dict[int, object] = {}
    for c, x in terms:
        axpy(field, out, c, x)
    return out


def unit_element(alg: AlgebraTable, idempotents: list[Element]) -> Element:
    """Sum u of the given idempotents, verified to be a two-sided unit: u b_i
    and b_i u are read with basis_products, and no Element product is
    formed.  The witness is the least i where either side is not b_i."""
    f = alg.field
    u = alg.element(combine(f, ((f.one, e.coeffs) for e in idempotents)))
    miss = alg.dim
    for right in (False, True):
        got = alg.basis_products(u, right)
        miss = next((i for i in range(miss) if got.get(i) != {i: f.one}), miss)
        del got  # so that one side at a time is held
    if miss < alg.dim:
        raise NotUnital(f"sum of idempotents is not a unit on basis element {alg.basis[miss]}")
    return u


class RepModule:
    """Left module: its dimension and action[i] = rho(b_i) for each basis index
    i that acts by nonzero, as a sparse column map {col: {row: scalar}} that
    holds no zero entry and no empty column.  An index with no entry acts by
    zero; the builders keep their maps sparse, and an empty map is dropped
    here, which is the only zero test an action gets."""

    def __init__(self, alg: AlgebraTable, dim: int, action: dict[int, dict]):
        self.alg = alg
        self.dim = dim
        self.action = {i: A for i, A in action.items() if A}

    def act(self, x: Element) -> dict:
        """rho(x) as a sparse column map: one axpy per column of each term."""
        f = self.alg.field
        out: dict[int, dict] = {}
        for i, c in x.coeffs.items():
            for col, v in self.action.get(i, {}).items():
                axpy(f, out.setdefault(col, {}), c, v)
        return {col: v for col, v in out.items() if v}

    def rank(self, x: Element) -> int:
        """The rank of rho(x), eliminated over its columns."""
        return Echelon(self.alg.field, self.dim, self.act(x).values()).rank


def _transport(M: RepModule, lift: list[dict], project: Callable[[dict], dict]) -> RepModule:
    """The module in which b_i sends basis vector k to project(rho_M(b_i)
    lift[k]): lift[k] is vector k in M, project maps M to the new coordinates."""
    f = M.alg.field
    action = {}
    for i, A in M.action.items():
        cols = {}
        for k, u in enumerate(lift):
            v = project(apply(f, A, u))
            if v:
                cols[k] = v
        action[i] = cols
    return RepModule(M.alg, len(lift), action)


def submodule(M: RepModule, vectors: list[dict]) -> RepModule:
    """The submodule of M spanned by the sparse vectors, on the RREF basis
    of their span; AlgebraMismatch when the span is not action-stable.

    Basis vector k is 1 at pivot column p_k and every other basis vector is
    0 there, so the coordinates of an image in the span are its entries at
    the pivot columns, and the image lies in the span exactly when the
    elimination reduces it to zero.
    """
    ech = Echelon(M.alg.field, M.dim, vectors)
    where = {p: k for k, p in enumerate(ech.pivots())}

    def project(v):
        if ech.reduce(v):
            raise AlgebraMismatch("subspace is not action-stable")
        return {where[p]: x for p, x in v.items() if p in where}

    return _transport(M, ech.rows(), project)


def quotient_module(M: RepModule, sub_vectors: list[dict]) -> RepModule:
    """Quotient of M by the span of the sparse sub_vectors.

    Quotient coordinates are the non-pivot coordinates of the relation RREF,
    quotient basis vector k lifting to e_free[k]: each pivot coordinate pc
    satisfies e_pc == -sum_f red[pc][f] e_f mod N, which the projection P
    (a sparse column map from M to the quotient) reads.
    """
    f = M.alg.field
    ech = Echelon(f, M.dim, sub_vectors)
    pivots = ech.pivots()
    pivset = set(pivots)
    where = {j: k for k, j in enumerate(j for j in range(M.dim) if j not in pivset)}
    P = {j: {k: f.one} for j, k in where.items()}
    for pc, row in zip(pivots, ech.rows()):
        col = {where[j]: f.neg(x) for j, x in row.items() if j != pc}
        if col:
            P[pc] = col
    return _transport(M, [{j: f.one} for j in where], lambda v: apply(f, P, v))


def hom_space(M: RepModule, N: RepModule) -> list[dict]:
    """Basis of {X : X rho_M(g) = rho_N(g) X for all generators g}, each X a
    sparse column map from M to N.

    Without registered generators, g runs over the basis elements that act
    by nonzero on M or on N: the rest impose 0 = 0.  The unknowns are the
    X[r][c], flattened r*nm+c; the constraint at (r, c) is built from the
    nonzeros of column c of rho_M(g) and of row r of rho_N(g), and a place
    where both are empty imposes nothing.
    """
    alg = M.alg
    if M.alg is not N.alg:
        raise AlgebraMismatch("modules over different algebras")
    f = alg.field
    nm, nn = M.dim, N.dim
    if nm == 0 or nn == 0:
        return []
    if alg.generators is None:
        pairs = [(M.action.get(i, {}), N.action.get(i, {})) for i in sorted(M.action.keys() | N.action.keys())]
    else:
        pairs = [(A, B) for A, B in ((M.act(g), N.act(g)) for _, g in alg.generators) if A or B]
    nunk = nn * nm
    ech = Echelon(f, nunk)
    for A, B in pairs:
        b_rows = transpose(B)
        for r in range(nn):
            # X A - B X at (r, c): X[r][k] A[k][c] less B[r][k] X[k][c]
            base = r * nm
            minus_b = [(k * nm, f.neg(b)) for k, b in b_rows.get(r, {}).items()]
            for c in range(nm) if minus_b else A:
                row = {base + k: a for k, a in A.get(c, {}).items()}
                for kb, b in minus_b:
                    j = kb + c
                    row[j] = f.add(row.get(j, f.zero), b)
                ech.insert(row)
        if ech.rank == nunk:
            return []
    homs = []
    for v in ech.nullspace_basis():
        X: dict[int, dict] = {}
        for j, x in v.items():
            r, c = divmod(j, nm)
            X.setdefault(c, {})[r] = x
        homs.append(X)
    return homs


def radical_of_module(M: RepModule, simples: list[RepModule]) -> tuple[list[list[dict]], RepModule]:
    """rad M, the intersection of the kernels of all maps to the given
    (complete) simples, eliminated over the rows of the maps; returns (the
    basis of Hom(M, L) for each simple L, rad M)."""
    homs = [hom_space(M, L) for L in simples]
    rows = [row for hs in homs for X in hs for row in transpose(X).values()]
    if not rows:
        return homs, M
    return homs, submodule(M, Echelon(M.alg.field, M.dim, rows).nullspace_basis())


def composition_multiplicities(M: RepModule, simples: list[RepModule]) -> list[int]:
    """Jordan-Hoelder multiplicities of each simple in M (radical series),
    [layer : L] = dim Hom(layer, L) since End L = k: restriction to a core
    embeds End L(lam) into End of the simple eps L(lam) of eps A eps, which
    is absolutely irreducible (Graham-Lehrer 1996, Prop. 3.2).  A missing,
    reducible or repeated simple fails one of the two checks."""
    mults = [0] * len(simples)
    current = M
    while current.dim > 0:
        homs, rad = radical_of_module(current, simples)
        if not any(homs):
            raise NonIntegralMultiplicity("module has no map to any given simple; simples incomplete?")
        for k, hs in enumerate(homs):
            mults[k] += len(hs)
        current = rad
    if sum(m * L.dim for m, L in zip(mults, simples)) != M.dim:
        raise NonIntegralMultiplicity("multiplicities do not account for the full dimension")
    return mults


def peirce_dims(alg: AlgebraTable, idems: list[Element]) -> list[list[int]]:
    """[[dim eAf for f in idems] for e in idems]: the rank of {x f} over the
    nonzero x = e b_j, each eA and each {b_m f} read once with
    basis_products.

    x f sums x_m b_m f over the m in supp(x) with b_m f != 0, so e is paired
    only with the f that some such m meets; every other pair has dim eAf = 0
    and runs no elimination.
    """
    field = alg.field
    Afs = [alg.basis_products(f, right=True) for f in idems]  # per f: m -> b_m f
    meets: dict[int, list[int]] = {}  # m -> the b with b_m idems[b] != 0
    for b, Af in enumerate(Afs):
        for m in Af:
            meets.setdefault(m, []).append(b)
    out = []
    for e in idems:
        eA = list(alg.basis_products(e).values())
        row = [0] * len(idems)
        for b in {b for x in eA for m in x for b in meets.get(m, ())}:
            Af = Afs[b]
            xf = [v for x in eA if (v := combine(field, ((a, Af[m]) for m, a in x.items() if m in Af)))]
            if xf:
                row[b] = Echelon(field, alg.dim, xf).rank
        out.append(row)
    return out


def left_ideal_module(alg: AlgebraTable, e: Element) -> RepModule:
    """A e in the regular module (read from the materialized rows), spanned
    by the b_i e; the tests' reference for P(lambda) = A e_lambda."""
    rows = alg.materialize()
    cols = ({j: p for j, p in zip(alg.partners(i), row) if p} for i, row in enumerate(rows))
    regular = RepModule(alg, alg.dim, dict(enumerate(cols)))
    return submodule(regular, [apply(alg.field, A, e.coeffs) for A in regular.action.values()])


# --- serialization ----------------------------------------------------------


def table_to_json(alg: AlgebraTable) -> str:
    rows = alg.materialize()
    f = alg.field
    entries = {}
    for i, row in enumerate(rows):
        for j, sc in zip(alg.partners(i), row):
            if sc:
                entries[f"{i},{j}"] = {str(k): f.scalar_to_str(c) for k, c in sorted(sc.items())}
    doc = {
        "field": field_to_str(f),
        "basis": [str(lab) for lab in alg.basis],
        "mult": entries,
        "star": list(alg.star_perm),
        "name": alg.name,
    }
    return json.dumps(doc, indent=1, sort_keys=True)
