"""Reference code that only the tests call.

Slow or roundabout routes to what the package computes directly, and test
data the package never reads, kept here so that `src` holds only what the
pipeline uses.
"""

import json
from fractions import Fraction

from relcell.algebra import ZERO_PRODUCT, AlgebraTable, BasisLabel, Element, RepModule, intern_product
from relcell.celldata import CellDatum, chain_order
from relcell.diagrams import ACW, CW, DOWN, LEFT, RIGHT, UP, Arc, _arc_displacement, clockwise_weight, make_cup
from relcell.families import build_family
from relcell.field import QQ, Field, PrimeField
from relcell.linalg import Echelon, Matrix, ShapeMismatch
from relcell.zigzag import LINE, QuiverSpec, build_zigzag


# --- scalars times elements and matrices ----------------------------------------


def scale_element(x: Element, c) -> Element:
    f = x.alg.field
    return Element(x.alg, {i: f.mul(c, a) for i, a in x.coeffs.items()})


def scale_matrix(A: Matrix, c) -> Matrix:
    f = A.field
    return Matrix(f, A.rows, A.cols, [f.mul(c, a) for a in A.entries])


# --- random triples that can multiply -------------------------------------------


def peirce_triple(alg: AlgebraTable, rnd, closed: bool = False) -> tuple[int, int, int]:
    """Random basis indices (i, j, k) with b_i b_j and b_j b_k unmasked: i
    uniform, j among partners(i), k among partners(j).  closed also asks for
    b_k's right block to be b_i's left block, where sigma(b_i b_j, b_k) can be
    nonzero; a draw with no such k is redrawn."""
    while True:
        i = rnd.randrange(alg.dim)
        j = rnd.choice(alg.partners(i))
        ks = [k for k in alg.partners(j) if not closed or alg.right_block[k] == alg.left_block[i]]
        if ks:
            return i, j, rnd.choice(ks)


# --- dense matrices: the reference for the sparse module layer --------------------


def as_matrix(f, nrows: int, ncols: int, A: dict) -> Matrix:
    """The dense Matrix of a sparse column map {col: {row: scalar}}: a module
    action, an `act` result or a hom."""
    entries = [f.zero] * (nrows * ncols)
    for c, col in A.items():
        for r, x in col.items():
            entries[r * ncols + c] = x
    return Matrix(f, nrows, ncols, entries)


def rows_matrix(f, nrows: int, ncols: int, rows) -> Matrix:
    """The dense Matrix of sparse rows: a dict {row: {col: scalar}} (a Gram
    form, which leaves out its zero rows) or a list of rows (Echelon.rows())."""
    entries = [f.zero] * (nrows * ncols)
    for r, row in (rows.items() if isinstance(rows, dict) else enumerate(rows)):
        for c, x in row.items():
            entries[r * ncols + c] = x
    return Matrix(f, nrows, ncols, entries)


def dense_gram(d, lam, G: dict) -> Matrix:
    """A dense copy of the Gram form G = Phi_lam of datum d, rows and
    columns over M(lam)."""
    n = len(d.M[lam])
    return rows_matrix(d.alg.field, n, n, G)


def matmul(A: Matrix, B: Matrix) -> Matrix:
    """The dense product A B, entry by entry."""
    if A.cols != B.rows:
        raise ShapeMismatch(f"cannot multiply {A.rows}x{A.cols} by {B.rows}x{B.cols}")
    f = A.field
    out = []
    for i in range(A.rows):
        for j in range(B.cols):
            total = f.zero
            for k in range(A.cols):
                total = f.add(total, f.mul(A[i, k], B[k, j]))
            out.append(total)
    return Matrix(f, A.rows, B.cols, out)


def transpose(A: Matrix) -> Matrix:
    return Matrix(A.field, A.cols, A.rows, [A[i, j] for j in range(A.cols) for i in range(A.rows)])


def int_matmul(A: list[list[int]], B: list[list[int]]) -> list[list[int]]:
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def int_transpose(A: list[list[int]]) -> list[list[int]]:
    return [list(r) for r in zip(*A)]


# --- modules ---------------------------------------------------------------------


def check_action(M: RepModule, pairs=None) -> bool:
    """rho(x) rho(y) == rho(xy) on the given (default: all) basis pairs."""
    alg = M.alg
    f, n, m = alg.field, alg.dim, M.dim
    if pairs is None:
        pairs = [(i, j) for i in range(n) for j in range(n)]
    rho = {i: as_matrix(f, m, m, A) for i, A in M.action.items()}
    zero = as_matrix(f, m, m, {})
    for i, j in pairs:
        A, B = rho.get(i), rho.get(j)
        lhs = zero if A is None or B is None else matmul(A, B)
        if lhs != as_matrix(f, m, m, M.act(alg.element(alg.mult_basis(i, j)))):
            return False
    return True


# --- annular diagrams --------------------------------------------------------------


def circles_of(cups, caps) -> list[tuple]:
    """Connected components of the circle diagram, found by walking cup and
    cap arcs alternately: sorted vertex tuples, by least vertex."""
    cup_at = {v: a for a in cups for v in (a.p, a.q)}
    cap_at = {v: a for a in caps for v in (a.p, a.q)}
    seen = set()
    out = []
    for v0 in sorted(cup_at):
        if v0 in seen:
            continue
        comp = []
        v, on_cup = v0, True
        while v not in seen:
            seen.add(v)
            comp.append(v)
            v = (cup_at if on_cup else cap_at)[v].other(v)
            on_cup = not on_cup
        out.append(tuple(sorted(comp)))
    return out


def rotate_weight(w: str) -> str:
    """rho on a weight: the last symbol moves to the front."""
    return w[-1] + w[:-1]


def rotate_arc(a: Arc, n: int) -> Arc:
    """rho on an arc: every endpoint and every covered gap moves up by one."""
    m = 2 * n
    gaps = {(g + 1) % m for g in a.gaps(n)}
    p = (a.p % m) + 1
    q = (a.q % m) + 1
    p, q = min(p, q), max(p, q)
    return Arc(p, q, 0 in gaps)


def rotate_cup(S, n: int):
    return make_cup(rotate_arc(a, n) for a in S)


def circle_wrapping_parity(cups, caps, comp_vertices) -> int:
    """The parity of the seam-wrapping arcs on one circle: 1 exactly for an
    essential circle (leftwards or rightwards)."""
    verts = set(comp_vertices)
    return sum(1 for a in (*cups, *caps) if a.p in verts and a.wrap) % 2


def arc_depths(diagram, n: int) -> dict:
    """1 + number of arcs strictly contained in each arc's coverage, so
    outer arcs bulge deeper and nested arcs stay inside them."""
    gaps = {a: a.gaps(n) for a in diagram}
    return {a: 1 + sum(1 for gb in gaps.values() if gb < ga) for a, ga in gaps.items()}


def area_trace_circle(cups, caps, n, start_vertex, start_dir):
    """diagrams.trace_circle by the area of an embedding: (symbols, tag).

    The circle is drawn as a polyline on the cut-open strip, each cup a box
    of its arc_depths below the vertex line and each cap one above it.  A
    circle of winding zero is anticlockwise when its shoelace area is
    positive; one that winds is rightwards or leftwards by the winding.
    """
    cup_at = {v: a for a in cups for v in (a.p, a.q)}
    cap_at = {v: a for a in caps for v in (a.p, a.q)}
    cup_depth, cap_depth = arc_depths(cups, n), arc_depths(caps, n)
    symbols, pts = {}, []
    x, v, direction = start_vertex, start_vertex, start_dir
    while True:
        symbols[v] = direction
        arc = (cup_at if direction == DOWN else cap_at)[v]
        d = -cup_depth[arc] if direction == DOWN else cap_depth[arc]
        delta = _arc_displacement(arc, v, n)
        pts += [(x, 0), (x, d), (x + delta, d)]
        x += delta
        v = arc.other(v)
        direction = UP if direction == DOWN else DOWN
        if v == start_vertex and direction == start_dir:
            break
    winding, rem = divmod(x - start_vertex, 2 * n)
    assert rem == 0, "trace did not close up modulo a full revolution"
    if winding:
        return symbols, RIGHT if winding > 0 else LEFT
    closed = pts + pts[:1]
    area2 = sum(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in zip(closed, closed[1:]))
    return symbols, ACW if area2 > 0 else CW


def classify_circle(cups, caps, n, weight_symbols: dict) -> str:
    """Tag of one circle given the strand direction at each of its vertices,
    by area_trace_circle."""
    start = min(weight_symbols)
    sym, tag = area_trace_circle(cups, caps, n, start, weight_symbols[start])
    if sym != dict(weight_symbols):
        raise AssertionError("weight does not orient this circle consistently")
    return tag


def orient_circle_with_tag(cups, caps, n, tag: str) -> dict:
    """Vertex symbols giving this circle the requested tag, by area_trace_circle."""
    start = min(min(a.p for a in cups), min(a.p for a in caps))
    for d0 in (DOWN, UP):
        sym, got = area_trace_circle(cups, caps, n, start, d0)
        if got == tag:
            return sym
    raise ValueError(f"circle cannot be oriented {tag}")


def rotate_label(n: int, lab: BasisLabel) -> BasisLabel:
    return BasisLabel(rotate_weight(lab.lam), rotate_cup(lab.S, n), rotate_cup(lab.T, n))


def rotate_element(n: int, x: Element) -> Element:
    alg = x.alg
    return alg.element(
        {alg.index[rotate_label(n, alg.basis[i])]: c for i, c in x.coeffs.items()}
    )

# --- restricted sl2 ------------------------------------------------------------


def weight_idempotent_h_poly(lam: int, p: int) -> list:
    """Coefficients of 1_lam = -prod_{mu != lam}(H - mu) in powers of H."""
    field = PrimeField(p)
    poly = [field.one]  # constant 1
    for mu in range(p):
        if mu == lam:
            continue
        # multiply by (H - mu)
        new = [field.zero] * (len(poly) + 1)
        for k, c in enumerate(poly):
            new[k + 1] = field.add(new[k + 1], c)
            new[k] = field.add(new[k], field.mul(field.neg(field.from_int(mu)), c))
        poly = new
    return [field.neg(c) for c in poly]


def usl2_generators(alg: AlgebraTable) -> list[tuple[str, Element]]:
    """E, F, H and the weight idempotents 1_lam of u(sl2) over F_p, by name,
    built from cell-basis labels: E = sum_lam C(lam;0,1), F = sum_lam
    C(lam;1,0), H = sum_lam lam C(lam;0,0) and 1_lam = C(lam;0,0)."""
    f = alg.field
    p = f.p
    one = {lam: alg.index[BasisLabel(lam, 0, 0)] for lam in range(p)}
    E = alg.element({alg.index[BasisLabel(lam, 0, 1)]: f.one for lam in range(p)})
    F = alg.element({alg.index[BasisLabel(lam, 1, 0)]: f.one for lam in range(p)})
    H = alg.element({i: f.from_int(lam) for lam, i in one.items()})
    return [("E", E), ("F", F), ("H", H)] + [(f"1_{lam}", alg.basis_element(i)) for lam, i in one.items()]


def generator_element(name: str, alg: AlgebraTable) -> Element:
    return dict(usl2_generators(alg))[name]


def normal_order(word, alg: AlgebraTable) -> Element:
    """Product of a word of generator powers, expressed in the cell basis.

    word is a sequence of (name, exponent) with name in {"E","F","H"} or
    "1_k" for a weight idempotent.
    """
    out = None
    for name, exp in word:
        g = generator_element(name, alg)
        for _ in range(exp):
            out = g if out is None else out * g
    if out is None:
        # empty word = 1 = sum of the weight idempotents
        p = len({lab.lam for lab in alg.basis})
        out = alg.zero_element()
        for lam in range(p):
            out = out + alg.element_from_label(BasisLabel(lam, 0, 0))
    return out


def cell_to_pbw_matrix(p: int) -> Matrix:
    """Change of basis C(lam;S,T) -> F^x H^y E^z, block diagonal in (S,T).

    Row index: PBW monomial (x, y, z) flattened; column: label (lam, S, T)
    flattened the same way the algebra orders its basis.
    """
    field = PrimeField(p)
    h_polys = [weight_idempotent_h_poly(lam, p) for lam in range(p)]
    n = p * p * p
    rows = [[field.zero] * n for _ in range(n)]

    def pbw_idx(x, y, z):
        return (x * p + y) * p + z

    def lab_idx(lam, S, T):
        return (lam * p + S) * p + T

    for lam in range(p):
        for S in range(p):
            for T in range(p):
                col = lab_idx(lam, S, T)
                for y, c in enumerate(h_polys[lam]):
                    if c != field.zero and y < p:
                        rows[pbw_idx(S, y, T)][col] = c
    return Matrix.from_rows(field, rows)


def verify_pbw_change_of_basis(p: int) -> bool:
    """The cell basis spans the PBW basis (the conversion is invertible)."""
    M = cell_to_pbw_matrix(p)
    return M.rank() == p * p * p


# --- Peirce ranks ----------------------------------------------------------------


def peirce_dims_dense(alg: AlgebraTable, idems: list[Element]) -> list[list[int]]:
    """[[dim eAf for f in idems] for e in idems] by Element products over the
    whole basis and one elimination per pair: the dense reference for
    `algebra.peirce_dims`."""
    eAs = [[x for i in range(alg.dim) if not (x := e * alg.basis_element(i)).is_zero()] for e in idems]
    return [[Echelon(alg.field, alg.dim, ((x * f).coeffs for x in eA)).rank for f in idems] for eA in eAs]


# --- the trace form sigma, dense: the reference for annular.frobenius_gram ------


def frobenius_form(alg: AlgebraTable, i: int, j: int):
    """sigma(x_i, x_j): the all-clockwise coefficient of the product, read
    for any pair, masked or not."""
    field = alg.field
    a = alg.basis[i]
    b = alg.basis[j]
    if a.S != b.T:
        return field.zero
    target = BasisLabel(clockwise_weight(a.S), a.S, a.S)
    if target not in alg.index:
        return field.zero
    return alg.mult_basis(i, j).get(alg.index[target], field.zero)


def frobenius_matrix(alg: AlgebraTable) -> Matrix:
    """The dense dim x dim matrix of sigma, one frobenius_form per entry."""
    n = alg.dim
    return Matrix.from_rows(alg.field, [[frobenius_form(alg, i, j) for j in range(n)] for i in range(n)])


# --- serialization ----------------------------------------------------------------


def field_from_str(s: str) -> Field:
    """Inverse of field.field_to_str."""
    if s == "Q":
        return QQ
    if s.startswith("F"):
        return PrimeField(int(s[1:]))
    raise ValueError(f"unknown field spec {s!r}")


def scalar_from_str(field: Field, s: str):
    """Inverse of field.scalar_to_str: over Q an integral string reads back
    as an int and any other as a Fraction, over F_p as a residue in [0, p)."""
    if isinstance(field, PrimeField):
        return int(s) % field.p
    q = Fraction(s)
    return q.numerator if q.denominator == 1 else q


def table_from_json(text: str) -> AlgebraTable:
    """Inverse of algebra.table_to_json; basis labels come back as their
    strings, so a reloaded table re-serializes to the identical document.
    The products are read once, without zero coefficients, and equal ones
    are one dict."""
    doc = json.loads(text)
    field = field_from_str(doc["field"])
    basis = list(doc["basis"])
    table, shared = {}, {}
    for key, sc in doc["mult"].items():
        i, j = (int(x) for x in key.split(","))
        got = intern_product(shared, {int(k): x for k, v in sc.items() if (x := scalar_from_str(field, v))})
        if got:
            table[(i, j)] = got
    return AlgebraTable(
        field, basis, lambda i, j: table.get((i, j), ZERO_PRODUCT), tuple(doc["star"]), name=doc.get("name", "")
    )


# --- faulty data -----------------------------------------------------------------


def reversed_order_datum(field: Field) -> tuple[AlgebraTable, CellDatum]:
    """Deliberately faulty C(A_3) datum: the chain order turned around."""
    alg, std = build_zigzag(QuiverSpec(LINE, 3), field)
    bad = CellDatum(
        alg=alg,
        X=std.X,
        M=std.M,
        E=std.E,
        orders=[chain_order(std.X, list(reversed(std.X)))],
        eps_index=std.eps_index,
        name="zigzag:A:3-reversed-order",
    )
    return alg, bad


def uv_mutant():
    """usl2:p=3 with the C(0;U,V)-coefficient of C(0;U,S) * C(0;S,V) changed
    for U = 0, S = V = 1 only, and its star mirror changed alike, so that
    only axiom (d) sees it: the Gram form read at U = V = M(0)[0] is unchanged."""
    alg, d = build_family("usl2:p=3")
    i, j, k = (d.label_index(0, S, T) for S, T in ((0, 1), (1, 1), (0, 1)))
    star = alg.star_perm
    flips = {(i, j): k, (star[j], star[i]): star[k]}

    def mult(a, b):
        out = dict(alg._mult_fn(a, b))
        t = flips.get((a, b))
        if t is not None and out.pop(t, None) is None:
            out[t] = alg.field.one
        return out

    table = AlgebraTable(alg.field, alg.basis, mult, star, blocks=(alg.left_block, alg.right_block))
    return table, d._replace(alg=table, E=[table.element(e.coeffs) for e in d.E])
