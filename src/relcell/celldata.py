"""Cell datum container and the axioms-to-Cartan pipeline.

Everything here is generic over an AlgebraTable whose basis labels are
(lambda, S, T) triples: axiom verification with witnesses, cell modules,
Gram forms and radicals, the simple labels X0, decomposition and Cartan
matrices with reciprocity C = D^T D checked against the Peirce ranks dim
eAf of primitive idempotents or of E (see cartan_matrix), semisimplicity,
idempotent cores.  A Gram form Phi_lam is not multiplied out on its own:
it is read off the action of Delta(lam), sparse rows as every matrix here
(see cell_module).  End L(lam) = k for every simple, so D counts homs and
C reads dim e L(lam) as a multiplicity.

`verify_cell_datum` is the one place where the conditions of a cell datum
are checked.  Every stage after it (cell modules, Gram forms, simples, D,
C, cores) assumes a datum that passes it, and does not check again what
the axioms certify; it checks only its own computed results.
`run_pipeline` alone orders the stages and hands each one its inputs.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable
from functools import cached_property
from fractions import Fraction

from .algebra import (
    AlgebraTable,
    BasisLabel,
    NotUnital,
    RepModule,
    composition_multiplicities,
    intern_product,
    peirce_dims,
    quotient_module,
    unit_element,
)
from .field import QQ
from .linalg import Echelon, det


class AxiomFailure(Exception):
    """The datum fails verify_cell_datum; the message lists each failing
    axiom with its witness."""

    def __init__(self, report: "VerificationReport"):
        failed = [str(r) for r in report.results if not r.passed]
        super().__init__("\n".join(["the datum fails its axioms"] + failed))


class RouteMismatch(Exception):
    pass


class ReciprocityFailure(Exception):
    pass


class StrictOrder:
    """Strict partial order on X given by a comparison oracle.

    The oracle is asked once per ordered pair, the first time the relation
    is needed; from then on every comparison is a set lookup.
    """

    def __init__(self, elements: list, less: Callable[[object, object], bool], name: str = ""):
        self.elements = list(elements)
        self._oracle = less
        self.name = name

    @cached_property
    def _below(self) -> dict:
        """b -> {a : a < b}, for every b in X."""
        return {b: {a for a in self.elements if self._oracle(a, b)} for b in self.elements}

    def below(self, b) -> set:
        """The set {a : a < b}; read-only."""
        return self._below[b]

    def less(self, a, b) -> bool:
        return a in self.below(b)

    def leq(self, a, b) -> bool:
        return a == b or self.less(a, b)

    def check_valid(self) -> str | None:
        """None if a strict partial order; else a short witness string."""
        xs, below = self.elements, self.below
        for a in xs:
            if a in below(a):
                return f"not irreflexive at {a}"
        for a in xs:
            below_a = below(a)
            for b in xs:
                if a != b and b in below_a and a in below(b):
                    return f"not antisymmetric on ({a},{b})"
        # transitive iff below(y) <= below(z) for every y < z
        for z in xs:
            below_z = below(z)
            for y in xs:
                if y in below_z and not below(y) <= below_z:
                    x = next(x for x in xs if x in below(y) and x not in below_z)
                    return f"not transitive on ({x},{y},{z})"
        return None


def chain_order(elements: list, chain: list, name: str = "") -> StrictOrder:
    """Total order with chain[0] smallest."""
    pos = {x: i for i, x in enumerate(chain)}
    return StrictOrder(elements, lambda a, b: pos[a] < pos[b], name)


class CellDatum(namedtuple("CellDatum", "alg X M E orders eps_index name primitive_idempotents")):
    """alg, the labels X, M: lam -> list of S, E: list of Elements, one
    StrictOrder per idempotent, eps_index: (lam, S) -> index into E, and
    the optional per-family registrations primitive_idempotents:
    lam -> Element (a fresh dict per datum when not given)."""

    __slots__ = ()

    def __new__(cls, alg, X, M, E, orders, eps_index, name="", primitive_idempotents=None):
        if primitive_idempotents is None:
            primitive_idempotents = {}
        return super().__new__(cls, alg, X, M, E, orders, eps_index, name, primitive_idempotents)

    def label_index(self, lam, S, T) -> int:
        return self.alg.index[BasisLabel(lam, S, T)]

    def eps_of(self, lam, S) -> int:
        return self.eps_index[(lam, S)]


class AxiomResult(namedtuple("AxiomResult", "axiom passed witness", defaults=(None,))):
    __slots__ = ()

    def __str__(self):
        tag = "PASS" if self.passed else "FAIL"
        extra = "" if self.passed else f"  [{self.witness}]"
        return f"{self.axiom}: {tag}{extra}"


class VerificationReport(namedtuple("VerificationReport", "results")):
    __slots__ = ()

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def __str__(self):
        return "\n".join(str(r) for r in self.results)


def _axiom_a(d: CellDatum) -> str | None:
    """(a) the labels enumerate the basis, M-sets nonempty; and the shape
    every later check reads: eps_index sends each (lam, S in M(lam)) to an
    index into E, and there is one order on X per idempotent."""
    want = set()
    for lam in d.X:
        if not d.M[lam]:
            return f"M({lam}) is empty"
        for S in d.M[lam]:
            for T in d.M[lam]:
                want.add(BasisLabel(lam, S, T))
    if want != set(d.alg.basis):
        missing = want.symmetric_difference(set(d.alg.basis))
        return f"label/basis mismatch, e.g. {next(iter(missing))}"
    for key in ((lam, S) for lam in d.X for S in d.M[lam]):
        if d.eps_index.get(key) not in range(len(d.E)):
            return f"eps_index[{key}] = {d.eps_index.get(key)} is not an index into E"
    if len(d.orders) != len(d.E):
        return f"{len(d.orders)} orders for {len(d.E)} idempotents"
    for a, order in enumerate(d.orders):
        if set(order.elements) != set(d.X):
            return f"order[{a}] is not on X"
    return None


def _axiom_b(d: CellDatum) -> str | None:
    """(b) star flips (S,T) and is an anti-automorphism.

    The Peirce mask must be star-symmetric: star sends left blocks to right
    blocks, left[star i] == right[i].  Then the mirror (star j, star i) of
    an unmasked pair (i, j) is unmasked, and a masked pair has a masked
    mirror, so both sides of its equation are zero by the table's
    definition.  So only unmasked pairs are swept, each once: a pair is
    skipped when its mirror comes first, since with star an involution
    (checked first) the mirror's equation is this one with star applied to
    both sides.  The products are read from the rows of the materialized
    table, and a product is compared with its mirror term by term, with no
    star-mapped copy.
    """
    alg = d.alg
    star = alg.star_perm
    left, right = alg.left_block, alg.right_block
    for i, lab in enumerate(alg.basis):
        j = star[i]
        if alg.basis[j] != BasisLabel(lab.lam, lab.T, lab.S):
            return f"star({lab}) != C({lab.lam};{lab.T},{lab.S})"
        if star[j] != i:
            return f"star not involutive at {lab}"
        if left[j] != right[i]:
            return f"star does not map the Peirce mask onto itself at {lab}"
    prods, pos = alg.materialize(), alg.pos
    for i in range(alg.dim):
        si = star[i]
        psi = pos[si]
        for j, prod in zip(alg.partners(i), prods[i]):
            sj = star[j]
            if sj < i or (sj == i and si < j):
                continue
            # star(b_i b_j) == star(b_j) star(b_i), on structure constants
            mirror = prods[sj][psi]
            if not (prod or mirror):
                continue
            if len(prod) == len(mirror):
                get = mirror.get
                for k, c in prod.items():
                    if get(star[k]) != c:
                        break
                else:
                    continue
            return f"star({alg.basis[i]}*{alg.basis[j]}) != star*star"
    return None


def _axiom_idempotents(d: CellDatum) -> str | None:
    """(c) idempotent set: idempotent, orthogonal, star-fixed."""
    for a, e in enumerate(d.E):
        if e * e != e:
            return f"E[{a}] not idempotent"
        if e.star() != e:
            return f"E[{a}] not star-fixed"
        for b, e2 in enumerate(d.E):
            if a != b and not (e * e2).is_zero():
                return f"E[{a}]*E[{b}] != 0"
    return None


def _axiom_orders(d: CellDatum) -> str | None:
    """The orders are strict partial orders on X."""
    for a, order in enumerate(d.orders):
        bad = order.check_valid()
        if bad is not None:
            return f"order[{a}]: {bad}"
    return None


def _axiom_idem_props_2(d: CellDatum) -> str | None:
    """(c) eps * C = C if eps_S matches, else 0; eps * b_i is read with
    basis_products, and no Element product is formed."""
    alg = d.alg
    f = alg.field
    # no index of E when (a) fails on eps_index: then E[a] C must be 0
    eps = [d.eps_index.get((lab.lam, lab.S)) for lab in alg.basis]
    for a, e in enumerate(d.E):
        eb = alg.basis_products(e)
        for i, lab in enumerate(alg.basis):
            got = eb.get(i, {})
            want = {i: f.one} if eps[i] == a else {}
            if got != want:
                return f"E[{a}]*{lab} = {alg.element(got)}, expected {alg.element(want)}"
    return None


def _axiom_idem_props_1(d: CellDatum) -> str | None:
    """(c) eps R eps * C(lam) lies in R(<=_eps lam); masked pairs add no term."""
    alg = d.alg
    prods = alg.materialize()
    for a in range(len(d.E)):
        order = d.orders[a]
        core_idx = [
            i
            for i, lab in enumerate(alg.basis)
            if d.eps_of(lab.lam, lab.S) == a and d.eps_of(lab.lam, lab.T) == a
        ]
        for i in core_idx:
            for j, prod in zip(alg.partners(i), prods[i]):
                lab = alg.basis[j]
                for k in prod:
                    mu = alg.basis[k].lam
                    if not order.leq(mu, lab.lam):
                        return (
                            f"{alg.basis[i]} * {lab} has term {alg.basis[k]} "
                            f"with {mu} not <=_E[{a}] {lab.lam}"
                        )
    return None


def _columns(d: CellDatum, lam) -> dict:
    """(left block, T) -> the (S, index of C(lam;S,T)) in M(lam) order.

    A basis element whose right block is `key` multiplies C(lam;S,T)
    without a mask exactly for the entries under (key, T).
    """
    left = d.alg.left_block
    cols = {}
    for T in d.M[lam]:
        for S in d.M[lam]:
            j = d.label_index(lam, S, T)
            cols.setdefault((left[j], T), []).append((S, j))
    return cols


def _axiom_d(d: CellDatum) -> str | None:
    """(d) left multiplication rule, with T-independence of the coefficients.

    Per lambda the column entries are indexed by left block, in T order and
    then M(lambda) order.  An element whose right block meets no column of
    lambda has the empty row under every T, so it is skipped; one that
    meets a column fills one row per T, the T without a column giving the
    empty row.  Terms are classified through per-index lists, the cell id
    of (lambda, T) and the id of S of each basis label, so a row is keyed
    by one int per (S', S).
    """
    alg = d.alg
    basis = alg.basis
    prods, pos = alg.materialize(), alg.pos
    cells, s_ids = {}, {}
    cell = [cells.setdefault((lab.lam, lab.T), len(cells)) for lab in basis]
    sid = [s_ids.setdefault(lab.S, len(s_ids)) for lab in basis]
    lam_k = [lab.lam for lab in basis]
    eps_k = [d.eps_index.get((lab.lam, lab.T)) for lab in basis]
    width = len(s_ids)  # the row key of (S', S) is sid[S'] + width * sid[S]
    by_lam = []
    for lam in d.X:
        # per T: its place t, and at t: T, its cell id, eps_T and {mu : mu <_epsT lam}
        place, per_T = {}, []
        for T in d.M[lam]:
            if T not in place:
                eps_T = d.eps_of(lam, T)
                place[T] = len(per_T)
                per_T.append((T, cells.get((lam, T)), eps_T, d.orders[eps_T].below(lam)))
        entries = {}  # left block -> its column entries (t, S, j, S key), T-major as _columns lists them
        for (key, T), column in _columns(d, lam).items():
            t = place[T]
            entries.setdefault(key, []).extend((t, S, j, width * s_ids[S]) for S, j in column)
        by_lam.append((lam, per_T, entries))
    for i in range(alg.dim):
        key, prods_i = alg.right_block[i], prods[i]
        for lam, per_T, entries in by_lam:
            flat = entries.get(key)
            if flat is None:
                continue
            rows = [{} for _ in per_T]
            for t, S, j, skey in flat:  # left[j] == key: j is a partner of i
                prod = prods_i[pos[j]]
                if not prod:
                    continue
                row = rows[t]
                T, cid, eps_T, below = per_T[t]
                for k, c in prod.items():
                    if cell[k] == cid:
                        row[sid[k] + skey] = c
                    elif not (lam_k[k] in below and eps_k[k] == eps_T):
                        return (
                            f"{basis[i]} * C({lam};{S},{T}) has term {basis[k]} "
                            f"outside sum + R(<_epsT {lam})epsT"
                        )
            if rows.count(rows[0]) != len(rows):
                return f"r_a(S',S) depends on T for a={basis[i]}, lambda={lam}"
    return None


def _axiom_unit(d: CellDatum) -> str | None:
    """The sum of E is a two-sided identity, read from the rows (see
    unit_element)."""
    try:
        unit_element(d.alg, d.E)
    except NotUnital as exc:
        return str(exc)
    return None


AXIOMS = (
    ("a:basis-bijection", _axiom_a),
    ("b:anti-involution", _axiom_b),
    ("c:idempotents", _axiom_idempotents),
    ("c:orders-valid", _axiom_orders),
    ("c:idem-props-2", _axiom_idem_props_2),
    ("c:idem-props-1", _axiom_idem_props_1),
    ("d:mult-left", _axiom_d),
    ("unit", _axiom_unit),
)
# the checks that need the labels, eps_index and orders of the shape (a) checks
SHAPE_READERS = frozenset({"c:idem-props-1", "d:mult-left"})


def _call(name: str, fn, *args):
    """The default `run` hook of run_pipeline: call fn on args."""
    return fn(*args)


def verify_cell_datum(d: CellDatum, run=_call) -> VerificationReport:
    """Run the full axiom suite; failures come with a concrete witness.
    Each check runs as run(f"axiom {name}", check, d) (see run_pipeline);
    when (a) fails, the SHAPE_READERS fail as not checked."""
    results = []
    for axiom, check in AXIOMS:
        if axiom in SHAPE_READERS and not results[0].passed:
            witness = f"not checked: {results[0].axiom} fails"
        else:
            witness = run(f"axiom {axiom}", check, d)
        results.append(AxiomResult(axiom, witness is None, witness))
    return VerificationReport(results)


def cell_module(d: CellDatum, lam) -> RepModule:
    """Delta(lambda) with the action read off from left multiplication, its
    coordinates indexed by M(lambda).

    The action of a is read in the one column T = M(lambda)[0]: by axiom (d)
    the coefficients r_a(S',S) of a C(lam;S,T) do not depend on T, so every
    column gives the same matrix.

    The Gram form is an entry of this action.  Phi_lam(S,T) is the
    C(lam;U,V)-coefficient of C(lam;U,S) * C(lam;T,V), which is r_a(U,T)
    for a = C(lam;U,S) by axiom (d), so it does not depend on V.  Axiom (b)
    maps the product to C(lam;V,T) * C(lam;S,U), so Phi read at (U,V) is
    the transpose of Phi read at (V,U); with V-independence this makes Phi
    symmetric and independent of U as well.
    """
    alg = d.alg
    Ms = d.M[lam]
    pos = {S: i for i, S in enumerate(Ms)}
    T = Ms[0]
    cols = _columns(d, lam)
    basis = alg.basis
    action = {}
    for i in range(alg.dim):
        column = cols.get((alg.right_block[i], T))
        if column is None:  # masked against the column, so a acts as zero
            continue
        A = action[i] = {}
        for S, j in column:
            col = {
                pos[klab.S]: c
                for k, c in alg.mult_basis(i, j).items()
                if (klab := basis[k]).lam == lam and klab.T == T
            }
            if col:
                A[pos[S]] = col
    return RepModule(alg, len(Ms), action)


# X0, and per lam in X0: modules (L(lam), a quotient of Delta(lam),
# absolutely irreducible, so End L(lam) = k), dims and eps_dims (dim eps
# L(lam) for each eps in E, in E order); per lam in X: cell_modules
# (Delta(lam)) and grams (Phi_lam as sparse rows {s: {t: phi}} over the
# positions s, t of S, T in M(lam), zero rows left out)
SimpleSet = namedtuple("SimpleSet", "X0 modules dims eps_dims cell_modules grams")


def simple_set(d: CellDatum) -> SimpleSet:
    """L(lam) = Delta(lam) / rad Phi_lam for each lam with Phi_lam != 0, the
    radical being the nullspace of Phi_lam's rows; row S of Phi_lam is row
    U = M(lam)[0] of the action of C(lam;U,S) on Delta(lam) (see cell_module)."""
    f = d.alg.field
    cells = {lam: cell_module(d, lam) for lam in d.X}
    grams = {}
    for lam, cell in cells.items():
        U = d.M[lam][0]
        acts = (cell.action.get(d.label_index(lam, U, S), {}) for S in d.M[lam])
        rows = ({t: v[0] for t, v in A.items() if 0 in v} for A in acts)
        grams[lam] = {s: row for s, row in enumerate(rows) if row}
    X0 = [lam for lam in d.X if grams[lam]]
    modules = {
        lam: quotient_module(cells[lam], Echelon(f, cells[lam].dim, grams[lam].values()).nullspace_basis())
        for lam in X0
    }
    dims = {lam: L.dim for lam, L in modules.items()}
    eps_dims = {lam: tuple(L.rank(e) for e in d.E) for lam, L in modules.items()}
    return SimpleSet(X0, modules, dims, eps_dims, cells, grams)


def decomposition_matrix(d: CellDatum, ss: SimpleSet) -> list[list[int]]:
    """d[mu][lam] = [Delta(mu) : L(lam)], rows over X, columns over X0.

    Checked: d[lam][lam] = 1, d against rank(e*) on Delta(mu) for each
    registered primitive e, and the support rule of decomposition_support_ok;
    RouteMismatch if any check fails.
    """
    simples = [ss.modules[lam] for lam in ss.X0]
    D = [composition_multiplicities(ss.cell_modules[mu], simples) for mu in d.X]
    for ci, lam in enumerate(ss.X0):
        ri = d.X.index(lam)
        if D[ri][ci] != 1:
            raise RouteMismatch(f"d[{lam},{lam}] = {D[ri][ci]} != 1")
    # second route via registered primitive idempotents
    if d.primitive_idempotents:
        for ci, lam in enumerate(ss.X0):
            e = d.primitive_idempotents.get(lam)
            if e is None:
                continue
            estar = e.star()
            for ri, mu in enumerate(d.X):
                rk = ss.cell_modules[mu].rank(estar)
                if rk != D[ri][ci]:
                    raise RouteMismatch(
                        f"[Delta({mu}):L({lam})] = {D[ri][ci]} but rank(e*|Delta) = {rk}"
                    )
    if not decomposition_support_ok(d, ss, D):
        raise RouteMismatch("some d[mu,lam] != 0 with mu neither lam nor below it in lam's order")
    return D


def decomposition_support_ok(d: CellDatum, ss: SimpleSet, D: list[list[int]]) -> bool:
    """d[mu][lam] = 0 unless mu = lam or mu <_eps lam for every eps in E
    with eps L(lam) != 0 (ss.eps_dims).

    M -> eps M is exact and sends Delta(mu) and L(lam) to the cell module and
    the simple of the cellular core eps A eps, whose order is <_eps.
    """
    for ci, lam in enumerate(ss.X0):
        orders = [d.orders[a] for a, n in enumerate(ss.eps_dims[lam]) if n]
        for ri, mu in enumerate(d.X):
            if D[ri][ci] and mu != lam and not all(o.less(mu, lam) for o in orders):
                return False
    return True


def int_gram(D: list[list[int]], width: int) -> list[list[int]]:
    """D^T D for a D with `width` columns, summing each row's outer product
    over its nonzero entries only (D is sparse: decomposition numbers)."""
    C = [[0] * width for _ in range(width)]
    for row in D:
        nz = [(i, x) for i, x in enumerate(row) if x]
        for i, x in nz:
            Ci = C[i]
            for j, y in nz:
                Ci[j] += x * y
    return C


def det_int(C: list[list[int]]) -> Fraction:
    return det(QQ, [{j: QQ.from_int(x) for j, x in enumerate(row) if x} for row in C])


def cartan_matrix(d: CellDatum, ss: SimpleSet, D: list[list[int]]):
    """C = D^T D, C[lam][mu] = [P(lam):L(mu)]; returns (C, D, P), P the
    Peirce ranks dim eAf that C was checked against.

    C is checked against Peirce ranks: for idempotents e, f with A e = sum
    m_e(lam) P(lam), dim eAf = sum m_e(lam) m_f(mu) [P(mu):L(lam)], since
    End L(lam) = k.  The idempotents are the registered primitive e_lam if
    every lam in X0 has one (m = delta: every entry of C is checked), else
    E, with m_e(lam) = dim e L(lam) read from ss.eps_dims.  A mismatch
    raises ReciprocityFailure.
    """
    X0, prims = ss.X0, d.primitive_idempotents
    C = int_gram(D, len(X0))
    if all(lam in prims for lam in X0):
        idems, names = [prims[lam] for lam in X0], [f"e({lam})" for lam in X0]
        mults = [{a: 1} for a in range(len(X0))]
    else:
        idems, names = d.E, [f"E[{a}]" for a in range(len(d.E))]
        mults = [{i: m for i, lam in enumerate(X0) if (m := ss.eps_dims[lam][a])} for a in range(len(idems))]
    P = peirce_dims(d.alg, idems)
    for a, row in enumerate(P):
        for b, got in enumerate(row):
            want = sum(x * y * C[j][i] for i, x in mults[a].items() for j, y in mults[b].items())
            if want != got:
                raise ReciprocityFailure(f"dim {names[a]} A {names[b]} = {got}, but C gives {want}")
    return C, D, P


def is_semisimple(d: CellDatum, ss: SimpleSet) -> bool:
    """Every Gram form has full rank, read off the simples: dim L(lam) =
    rank Phi_lam, and lam is outside X0 exactly when Phi_lam = 0."""
    return all(ss.dims.get(lam) == len(d.M[lam]) for lam in d.X)


def core_subalgebra(d: CellDatum, eps_idx: int) -> tuple[AlgebraTable, CellDatum]:
    """The cellular core eps R eps with its single-order cell datum.

    The core basis is the C(lam;S,T) with eps_S = eps_T = eps: by
    c:idem-props-2 eps C = C exactly for eps_S = eps, and by (b) C eps = C
    exactly for eps_T = eps.  The product of two core elements is
    eps (x y) eps, so it lies in the core, and eps = eps eps eps
    (c:idempotents) is supported on it.
    """
    alg = d.alg
    f = alg.field
    keep = [
        i
        for i, lab in enumerate(alg.basis)
        if d.eps_of(lab.lam, lab.S) == eps_idx and d.eps_of(lab.lam, lab.T) == eps_idx
    ]
    old_to_new = {i: k for k, i in enumerate(keep)}
    basis = [alg.basis[i] for i in keep]
    shared: dict = {}  # the renumbered products handed out, by content

    def mult(i2, j2):
        got = alg.mult_basis(keep[i2], keep[j2])
        return intern_product(shared, {old_to_new[k]: c for k, c in got.items()})

    star = tuple(old_to_new[alg.star_perm[i]] for i in keep)
    blocks = ([alg.left_block[i] for i in keep], [alg.right_block[i] for i in keep])
    core = AlgebraTable(f, basis, mult, star, name=f"{alg.name}-core-eps{eps_idx}", blocks=blocks)

    eps_core = core.element({old_to_new[i]: c for i, c in d.E[eps_idx].coeffs.items()})

    Xc = [lam for lam in d.X if any(d.eps_of(lam, S) == eps_idx for S in d.M[lam])]
    Mc = {
        lam: [S for S in d.M[lam] if d.eps_of(lam, S) == eps_idx]
        for lam in Xc
    }
    order = d.orders[eps_idx]
    datum = CellDatum(
        alg=core,
        X=Xc,
        M=Mc,
        E=[eps_core],
        orders=[StrictOrder(Xc, order.less, order.name)],
        eps_index={(lam, S): 0 for lam in Xc for S in Mc[lam]},
        name=f"{d.name}-core-eps{eps_idx}",
    )
    return core, datum


# The stages after the axioms: (name, its function's name in this module, the
# earlier results it takes after d); a function rebound here is the one run.
STAGES = (
    ("simples", "simple_set", ()),
    ("D", "decomposition_matrix", ("simples",)),
    ("C", "cartan_matrix", ("simples", "D")),
    ("semisimple", "is_semisimple", ("simples",)),
)


def run_pipeline(d: CellDatum, upto: str = "semisimple", run=_call) -> dict:
    """The results on d by stage name, through the stage `upto`: "axioms"
    (the VerificationReport), "simples" (the SimpleSet), "D", "C"
    (cartan_matrix's (C, D, P)) and "semisimple".  Nothing after the axioms
    runs when one fails.  Each stage runs as run(name, fn, *args), and each
    axiom as run("axiom <name>", check, d) inside verify_cell_datum.
    """
    out = {"axioms": verify_cell_datum(d, run)}
    if out["axioms"].all_passed:
        for name, fn, needs in STAGES:
            if upto in out:
                break
            out[name] = run(name, globals()[fn], d, *(out[k] for k in needs))
    return out


def report_dict(d: CellDatum) -> dict:
    """The JSON report: axioms, X0, simple dims, D, C, reciprocity, ss.

    When an axiom fails, nothing after the axioms is computed and every
    later field is null: D and C of a datum that is not cellular would
    certify nothing.
    """
    res = run_pipeline(d)
    doc = dict.fromkeys(("X0", "simple_dims", "D", "C", "reciprocity_ok", "semisimple"))
    doc["axioms"] = [r._asdict() for r in res["axioms"].results]
    if not res["axioms"].all_passed:
        return doc
    ss = res["simples"]
    doc.update(
        X0=[str(lam) for lam in ss.X0],
        simple_dims={str(lam): ss.dims[lam] for lam in ss.X0},
        D=res["D"],
        C=res["C"][0],
        reciprocity_ok=True,  # cartan_matrix raises on a failed check
        semisimple=res["semisimple"],
    )
    return doc
