"""Zigzag quiver algebras: the line C(A_n) and the two cycle quotients.

Paths are vertex tuples.  The relation "all 2-cycles at a vertex are
equal" makes two paths equal when one turns into the other by flips
(a|b|a) -> (a|c|a).  A flip swaps an adjacent up step and down step, so a
path's class is fixed by its key (start, ups, downs), and it is zero when
one count reaches the cap (two steps for the short relation, a full cycle
for the long one).  Products read class keys only: two meeting paths add
their counts, and the product is the one prebuilt {index: 1} of the basis
path with the summed key.  A basis path from u to v is e_u . path . e_v,
so u and v are its Peirce block keys.  Normal forms (the smallest member
of a nonzero class, built step by step) only spell the cell labels and
serve the tests as the reference product.
"""

from __future__ import annotations

from collections import namedtuple

from .algebra import ZERO_PRODUCT, AlgebraTable, BasisLabel
from .celldata import CellDatum, chain_order
from .field import Field

LINE = "A"
CYCLE_SHORT = "cycS"
CYCLE_LONG = "cycL"
VARIANTS = (LINE, CYCLE_SHORT, CYCLE_LONG)


class InvalidSpec(ValueError):
    pass


class QuiverSpec(namedtuple("QuiverSpec", "variant n")):
    __slots__ = ()

    def __new__(cls, variant: str, n: int):
        if variant not in VARIANTS:
            raise InvalidSpec(f"unknown variant {variant!r}")
        # n = 2 is excluded outright; n = 1 has no edge so the standard
        # labels (the 2-cycle cell) do not exist either
        if n < 3:
            raise InvalidSpec(f"{variant} quiver needs n >= 3 (got {n})")
        return super().__new__(cls, variant, n)

    def vertices(self):
        return list(range(1, self.n + 1))

    def neighbors(self, v: int) -> list[int]:
        if self.variant == LINE:
            out = []
            if v > 1:
                out.append(v - 1)
            if v < self.n:
                out.append(v + 1)
            return out
        return [((v - 2) % self.n) + 1, (v % self.n) + 1]


Path = tuple  # vertex sequence (v0, ..., vk); length k path


def _is_path(spec: QuiverSpec, p: Path) -> bool:
    return all(b in spec.neighbors(a) for a, b in zip(p, p[1:]))


def class_key(spec: QuiverSpec, p: Path) -> tuple[int, int, int]:
    """(start, ups, downs) of a path: the flip class it lies in."""
    ups = sum(b == a % spec.n + 1 for a, b in zip(p, p[1:]))
    return p[0], ups, len(p) - 1 - ups


def _cap(spec: QuiverSpec) -> int:
    """Steps of one kind that make a path zero: n for the long relation, else 2."""
    return spec.n if spec.variant == CYCLE_LONG else 2


def normalize(spec: QuiverSpec, p: Path):
    """Normal form of a path, or None if it is zero in the algebra.

    A flip (a|b|a) -> (a|c|a) swaps an adjacent up step and down step, so
    the flip class of p is every arrangement of p's up and down steps that
    starts at p[0] and stays on the quiver.  Some arrangement has a
    forbidden run exactly when one step kind occurs cap times; otherwise
    the smallest member is built greedily, taking the smaller next vertex
    among the steps left.
    """
    if not _is_path(spec, p):
        raise InvalidSpec(f"{p} is not a path in {spec}")
    n = spec.n
    _, ups, downs = class_key(spec, p)
    if max(ups, downs) >= _cap(spec):
        return None
    left = {1: ups, -1: downs}  # up and down steps still to take
    out = [p[0]]
    for _ in p[1:]:
        v = out[-1]
        steps = [((v - 1 + d) % n + 1, d) for d in (1, -1) if left[d]]
        w, d = min(s for s in steps if s[0] in spec.neighbors(v))
        left[d] -= 1
        out.append(w)
    return tuple(out)


def compose(spec: QuiverSpec, a: Path, b: Path):
    """a followed by b ((i|j) o (j|k) = (i|j|k)); None for 0."""
    if a[-1] != b[0]:
        return None
    return normalize(spec, a + b[1:])


def star_path(p: Path) -> Path:
    return tuple(reversed(p))


def path_basis(spec: QuiverSpec) -> list[Path]:
    """All nonzero normal forms, by closure from the vertex idempotents."""
    basis = {(v,) for v in spec.vertices()}
    frontier = set(basis)
    while frontier:
        new = set()
        for p in frontier:
            for w in spec.neighbors(p[-1]):
                nf = normalize(spec, p + (w,))
                if nf is not None and nf not in basis:
                    basis.add(nf)
                    new.add(nf)
        frontier = new
    return sorted(basis, key=lambda p: (len(p), p))


def _msets(spec: QuiverSpec):
    """(X, M) for the standard datum of each variant."""
    n = spec.n
    if spec.variant == LINE:
        X = list(range(0, n + 1))
        M = {0: [(1, 2)]}
        for i in range(1, n):
            M[i] = [(i,), (i + 1, i)]
        M[n] = [(n,)]
        return X, M
    if spec.variant == CYCLE_SHORT:
        X = list(range(1, n + 1))
        M = {i: [(i,), ((i % n) + 1, i)] for i in X}
        return X, M
    # cycle-long: increasing runs into i of length 0..n-1
    X = list(range(1, n + 1))
    M = {}
    for i in X:
        runs = []
        for length in range(n):
            start = ((i - 1 - length) % n) + 1
            run = tuple(((start - 1 + t) % n) + 1 for t in range(length + 1))
            runs.append(run)
        M[i] = runs
    return X, M


def algebra_dimension(spec: QuiverSpec) -> int:
    """sum |M(lam)|^2 over the standard datum, in closed form: the line loses
    two of its 4n classes (vertex n has no up step, vertex 1 no down step)."""
    return {LINE: 4 * spec.n - 2, CYCLE_SHORT: 4 * spec.n, CYCLE_LONG: spec.n**3}[spec.variant]


def _datum_orders_and_eps(spec: QuiverSpec, X, M, alg, vertex_idem):
    """E, orders, eps_index for the standard datum of each variant."""
    n = spec.n
    if spec.variant == LINE:
        one = alg.zero_element()
        for v in spec.vertices():
            one = one + vertex_idem[v]
        E = [one]
        orders = [chain_order(X, X)]
        eps_index = {(lam, S): 0 for lam in X for S in M[lam]}
        return E, orders, eps_index
    if spec.variant == CYCLE_SHORT:
        eps = alg.zero_element()
        for v in range(2, n + 1):
            eps = eps + vertex_idem[v]
        E = [vertex_idem[1], eps]
        # 2 < 3 < ... < n < 1 under e_1;  1 < 2 < ... < n under eps
        orders = [
            chain_order(X, list(range(2, n + 1)) + [1]),
            chain_order(X, list(range(1, n + 1))),
        ]
        eps_index = {}
        for lam in X:
            for S in M[lam]:
                eps_index[(lam, S)] = 0 if S[0] == 1 else 1
        return E, orders, eps_index
    # cycle-long: E = all vertex idempotents; under e_i the top is i, below it
    # i+1, then i+2, ... (n=3: 3 < 2 < 1 under e_1)
    E = [vertex_idem[i] for i in X]
    orders = []
    for i in X:
        chain = [((i - 1 + k) % n) + 1 for k in range(n - 1, -1, -1)]
        orders.append(chain_order(X, chain))
    eps_index = {(lam, S): S[0] - 1 for lam in X for S in M[lam]}
    return E, orders, eps_index


def build_zigzag(spec: QuiverSpec, field: Field) -> tuple[AlgebraTable, CellDatum]:
    """The algebra with its standard relative cell datum."""
    X, M = _msets(spec)
    labels, keys, ends = [], [], []
    for lam in X:
        for S in M[lam]:
            for T in M[lam]:
                nf = compose(spec, S, star_path(T))
                if nf is None:
                    raise InvalidSpec(f"cell label ({lam},{S},{T}) gives the zero path")
                labels.append(BasisLabel(lam, S, T))
                keys.append(class_key(spec, nf))
                ends.append(nf[-1])
    if sorted(keys) != sorted(class_key(spec, p) for p in path_basis(spec)):
        raise InvalidSpec("cell labels do not biject onto the path basis")
    key_index = {k: i for i, k in enumerate(keys)}

    cap = _cap(spec)
    # a product is one basis path or zero: one shared dict per basis index
    units = [{k: field.one} for k in range(len(keys))]

    def mult(i, j):
        s, u, d = keys[i]
        t, u2, d2 = keys[j]
        if ends[i] != t or u + u2 >= cap or d + d2 >= cap:
            return ZERO_PRODUCT
        return units[key_index[(s, u + u2, d + d2)]]

    index = {lab: i for i, lab in enumerate(labels)}
    star = tuple(index[BasisLabel(lab.lam, lab.T, lab.S)] for lab in labels)
    # a path runs from its start to its end vertex; a product is zero unless they meet
    blocks = ([k[0] for k in keys], ends)
    alg = AlgebraTable(
        field, labels, mult, star, name=f"zigzag:{spec.variant}:{spec.n}", blocks=blocks
    )

    # star on labels must agree with path reversal: (s, u, d) ending at e -> (e, d, u)
    for i, (_, u, d) in enumerate(keys):
        if key_index.get((ends[i], d, u)) != star[i]:
            raise InvalidSpec("star permutation disagrees with path reversal")

    vertex_idem = {v: alg.basis_element(key_index[(v, 0, 0)]) for v in spec.vertices()}
    E, orders, eps_index = _datum_orders_and_eps(spec, X, M, alg, vertex_idem)
    datum = CellDatum(
        alg=alg,
        X=X,
        M=M,
        E=E,
        orders=orders,
        eps_index=eps_index,
        name=alg.name,
        primitive_idempotents=vertex_idem,
    )
    return alg, datum


def alternate_idempotent_datum(field: Field) -> tuple[AlgebraTable, CellDatum]:
    """The cycle-short n=3 algebra with the finer three-idempotent datum."""
    alg, std = build_zigzag(QuiverSpec(CYCLE_SHORT, 3), field)
    X, M = std.X, std.M
    E = [std.primitive_idempotents[i] for i in X]
    # the three rotated orders: 3 < 1 < 2 under e1, 1 < 2 < 3 under e2, 2 < 3 < 1 under e3
    orders = [
        chain_order(X, [3, 1, 2]),
        chain_order(X, [1, 2, 3]),
        chain_order(X, [2, 3, 1]),
    ]
    eps_index = {(lam, S): S[0] - 1 for lam in X for S in M[lam]}
    datum = CellDatum(
        alg=alg,
        X=X,
        M=M,
        E=E,
        orders=orders,
        eps_index=eps_index,
        name="zigzag:cycS:3-alt",
        primitive_idempotents=dict(std.primitive_idempotents),
    )
    return alg, datum
