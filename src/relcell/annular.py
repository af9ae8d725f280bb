"""The annular arc algebra K_n: surgery multiplication and cell datum.

A product C(lam;S,T) * C(mu;U,V) is zero unless T = U; otherwise the two
circle diagrams are stacked and every mirror cap-cup pair in the middle is
replaced by vertical strands, one pair at a time.  A pair is available
once no other unprocessed pair's coverage strictly contains it (then the
cap and cup can be joined without crossing the remaining middle arcs).
The circles are those of S T* and T V* as the geometric classifier tags
them.  Every summand has the same circles at every step, so a product keeps
one list of circles and each summand is a tuple of tags aligned with it.
Each replacement merges two circles or splits one: the tag tuples are
rewritten by the merge rules (a)-(d) and split rules (a)-(e); merges may
kill a summand, splits may double it.  Finally the strands are collapsed
and each surviving tag tuple is read off as a weight on S V* through the
circle table of S V*, so no circle is traced during a product.  The table's
kernel interns products by content, so equal products are one dict.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .algebra import AlgebraTable, BasisLabel, intern_product
from .celldata import CellDatum, StrictOrder
from .field import Field
from .diagrams import (
    ACW,
    CW,
    LEFT,
    RIGHT,
    Arc,
    CupDiagram,
    anticlockwise_weight,
    circle_table,
    classify_diagram,
    clockwise_weight,
    cup_order_less,
    enumerate_cup_diagrams,
    orientations_of,
    orients,
    weight_sort_key,
)


# --- stacked-diagram surgery -------------------------------------------------
#
# Edges: ("S", arc) bottom cups, ("V", arc) top caps, ("mb", arc) middle caps,
# ("mt", arc) middle cups, ("st", vertex) strands.  Bottom nodes (0, v), top
# nodes (1, v); middle caps attach to the bottom line, middle cups to the top.


def _edge_nodes(edge):
    kind, obj = edge
    if kind == "S" or kind == "mb":
        return ((0, obj.p), (0, obj.q))
    if kind == "V" or kind == "mt":
        return ((1, obj.p), (1, obj.q))
    return ((0, obj), (1, obj))


def _components(edges):
    """Partition of the edge set into circles (each node has degree 2)."""
    adj = {}
    for e in edges:
        for node in _edge_nodes(e):
            adj.setdefault(node, []).append(e)
    seen = set()
    comps = []
    for e0 in edges:
        if e0 in seen:
            continue
        stack = [e0]
        comp = set()
        while stack:
            e = stack.pop()
            if e in comp:
                continue
            comp.add(e)
            seen.add(e)
            for node in _edge_nodes(e):
                for e2 in adj[node]:
                    if e2 not in comp:
                        stack.append(e2)
        comps.append(frozenset(comp))
    return comps


def _is_essential(comp) -> bool:
    wraps = sum(1 for kind, obj in comp if kind != "st" and obj.wrap)
    return wraps % 2 == 1


def _merge_tag(t1: str, t2: str) -> str | None:
    if t1 == ACW:
        return t2
    if t2 == ACW:
        return t1
    if {t1, t2} == {LEFT, RIGHT}:
        return CW
    return None  # covers CW with anything but ACW, and L+L / R+R


def _split_tags(tag: str, ess_a: bool, ess_b: bool):
    """List of (tag_a, tag_b) summands for a circle with `tag` splitting."""
    if not ess_a and not ess_b:
        if tag == ACW:
            return [(CW, ACW), (ACW, CW)]
        if tag == CW:
            return [(CW, CW)]
        raise AssertionError("essential circle split into two usual circles")
    if ess_a and ess_b:
        if tag == ACW:
            return [(LEFT, RIGHT), (RIGHT, LEFT)]
        if tag == CW:
            return []
        raise AssertionError("essential circle split into two essential circles")
    if tag not in (LEFT, RIGHT):
        raise AssertionError("usual circle split into usual + essential")
    return [(tag, CW) if ess_a else (CW, tag)]


@lru_cache(maxsize=None)
def _enclosing_arcs(T: CupDiagram, n: int) -> tuple:
    """(arc, arcs of T whose coverage strictly contains it) per arc of T,
    in T's order.  Cached per cup diagram, so its size is bounded by
    len(enumerate_cup_diagrams(n)) whatever the number of products."""
    gaps = {a: a.gaps(n) for a in T}
    return tuple((a, tuple(b for b in T if gaps[a] < gaps[b])) for a in T)


def _available_pairs(remaining: list[Arc], T: CupDiagram, n: int) -> list[Arc]:
    """The pairs of T still to process that no other such pair encloses."""
    return [
        a for a, outer in _enclosing_arcs(T, n)
        if a in remaining and not any(b in remaining for b in outer)
    ]


def multiply_labels(n: int, a, b, order: list[Arc] | None = None) -> dict:
    """Structure constants of C(lam;S,T) * C(mu;U,V); integer coefficients.

    All summands share one list of circles (edge sets) at every step and
    differ only in their tags, so each summand is a tuple of tags aligned
    with that list.  order, if given, fixes the full surgery sequence (it
    must be admissible); by default the leftmost available pair is chosen
    at every step.  The final circles are those of S V*: each surviving tag
    tuple is spelled out as a weight from circle_table(S, V, n), which
    finds a circle by the vertices of its S cups.
    """
    S, lam, T = a
    U, mu, V = b
    if T != U:
        return {}
    circles, first = [], []
    for (kc, cups), (kk, caps), w in ((("S", S), ("mb", T), lam), (("mt", T), ("V", V), mu)):
        for verts, tag in classify_diagram(cups, caps, w, n).items():
            arcs = [(kc, arc) for arc in cups if arc.p in verts] + [(kk, arc) for arc in caps if arc.p in verts]
            circles.append(frozenset(arcs))
            first.append(tag)
    summands = [tuple(first)]

    remaining = list(T)
    chosen = list(order) if order is not None else None
    while remaining:
        avail = _available_pairs(remaining, T, n)
        if chosen is not None:
            pair = chosen.pop(0)
            if pair not in avail:
                raise ValueError(f"surgery order picks unavailable pair {pair}")
        else:
            pair = min(avail)
        remaining.remove(pair)
        cap_e, cup_e = ("mb", pair), ("mt", pair)
        i = next(k for k, c in enumerate(circles) if cap_e in c)
        j = next(k for k, c in enumerate(circles) if cup_e in c)
        rest = [k for k in range(len(circles)) if k not in (i, j)]
        joined = (circles[i] | circles[j]) - {cap_e, cup_e} | {("st", pair.p), ("st", pair.q)}
        circles = [circles[k] for k in rest]
        if i != j:
            circles.append(joined)
            merged = ((t, _merge_tag(t[i], t[j])) for t in summands)
            summands = [tuple(t[k] for k in rest) + (m,) for t, m in merged if m is not None]
        else:
            parts = _components(joined)
            if len(parts) != 2:
                raise AssertionError("split did not produce two circles")
            circles += parts
            ess = [_is_essential(p) for p in parts]
            summands = [tuple(t[k] for k in rest) + ab for t in summands for ab in _split_tags(t[i], *ess)]
        if not summands:
            return {}

    # per final circle: its vertices and its symbols for each tag
    table = {comp: dict(orientations) for comp, *orientations in circle_table(S, V, n)}
    shapes = []
    for c in circles:
        verts = tuple(sorted(v for k, o in c if k == "S" for v in (o.p, o.q)))
        shapes.append((verts, table[verts]))
    out: dict = {}
    for tags in summands:
        symbols = [""] * (2 * n)
        for (verts, spell), tag in zip(shapes, tags):
            for v, c in zip(verts, spell[tag]):
                symbols[v - 1] = c
        key = (S, "".join(symbols), V)
        out[key] = out.get(key, 0) + 1
    return out


def admissible_orders(n: int, T: CupDiagram) -> list[list[Arc]]:
    """Every admissible surgery sequence for middle diagram T."""
    out = []

    def rec(remaining, prefix):
        if not remaining:
            out.append(prefix)
            return
        for pair in _available_pairs(remaining, T, n):
            rec([x for x in remaining if x != pair], prefix + [pair])

    rec(list(T), [])
    return out


# --- the algebra and its datum ----------------------------------------------

def dimension_lower_bound(n: int) -> int:
    """C(2n, n) * 4^n <= dim K_n, without enumerating.

    K_n has C(2n, n) weights and C(2n, n) cup diagrams, and each diagram is
    oriented by 2^n weights, so the m_w = #{S : S oriented by w} sum to
    C(2n, n) * 2^n; dim K_n = sum_w m_w^2 is at least that sum squared over
    the number of weights (Cauchy-Schwarz).
    """
    return comb(2 * n, n) * 4**n


@lru_cache(maxsize=None)
def algebra_dimension(n: int) -> int:
    weights = weight_list(n)
    cups = enumerate_cup_diagrams(n)
    return sum(sum(1 for S in cups if orients(S, w)) ** 2 for w in weights)


@lru_cache(maxsize=None)
def weight_list(n: int) -> tuple:
    seen = set()
    for S in enumerate_cup_diagrams(n):
        seen.update(orientations_of(S))
    return tuple(sorted(seen, key=weight_sort_key))


def build_annular(n: int, field: Field) -> tuple[AlgebraTable, CellDatum]:
    if n < 1:
        raise ValueError("n must be positive")
    cups = enumerate_cup_diagrams(n)
    X = list(weight_list(n))
    M = {w: [S for S in cups if orients(S, w)] for w in X}
    labels = [
        BasisLabel(w, S, T) for w in X for S in M[w] for T in M[w]
    ]
    index = {lab: i for i, lab in enumerate(labels)}

    shared: dict = {}  # the products handed out, by content

    def mult(i, j):
        la, lb = labels[i], labels[j]
        raw = multiply_labels(n, (la.S, la.lam, la.T), (lb.S, lb.lam, lb.T))
        got = {index[BasisLabel(w, S, T)]: x for (S, w, T), c in raw.items() if (x := field.from_int(c))}
        return intern_product(shared, got)

    star = tuple(index[BasisLabel(lab.lam, lab.T, lab.S)] for lab in labels)
    # C(w;S,T) = e_S C(w;S,T) e_T: multiply_labels is zero unless T = U
    blocks = ([lab.S for lab in labels], [lab.T for lab in labels])
    alg = AlgebraTable(field, labels, mult, star, name=f"annular:n={n}", blocks=blocks)

    cup_index = {S: k for k, S in enumerate(cups)}
    E = []
    for S in cups:
        aw = anticlockwise_weight(S)
        if not orients(S, aw):
            raise AssertionError("anticlockwise weight fails to orient its own diagram")
        E.append(alg.element_from_label(BasisLabel(aw, S, S)))
    orders = [
        StrictOrder(X, (lambda S: (lambda a, b: cup_order_less(S, a, b, n)))(S), f"<_{S}")
        for S in cups
    ]
    eps_index = {(w, S): cup_index[S] for w in X for S in M[w]}
    datum = CellDatum(
        alg=alg,
        X=X,
        M=M,
        E=E,
        orders=orders,
        eps_index=eps_index,
        name=alg.name,
        primitive_idempotents={anticlockwise_weight(S): E[cup_index[S]] for S in cups},
    )
    # lambda <-> cup diagram bijection via the all-anticlockwise weight
    if sorted(anticlockwise_weight(S) for S in cups) != sorted(X):
        raise AssertionError("weights and cup diagrams are not in bijection")
    return alg, datum


def cup_of_weight(n: int, lam: str) -> CupDiagram:
    """The unique cup diagram whose all-anticlockwise weight is lam."""
    for S in enumerate_cup_diagrams(n):
        if anticlockwise_weight(S) == lam:
            return S
    raise ValueError(f"no cup diagram for weight {lam}")


def decomposition_fastpath(n: int, X: list[str], X0: list[str]) -> list[list[int]]:
    """d[mu][lam] = 1 iff the cup diagram of lam is oriented by mu."""
    cups = {lam: cup_of_weight(n, lam) for lam in X0}
    return [[1 if orients(cups[lam], mu) else 0 for lam in X0] for mu in X]


def projective_dimension(n: int, lam: str) -> int:
    """dim P(lam) as the sum over the 2^n orientations nu of its cup
    diagram of dim Delta(nu)."""
    S = cup_of_weight(n, lam)
    cups = enumerate_cup_diagrams(n)
    total = 0
    for nu in orientations_of(S):
        total += sum(1 for T in cups if orients(T, nu))
    return total


def frobenius_gram(alg: AlgebraTable) -> dict[int, dict[int, object]]:
    """The trace form sigma as sparse rows {i: {j: sigma(x_i, x_j) != 0}}.

    sigma(x_i, x_j) is the all-clockwise coefficient of x_i x_j, at
    C(cw(S); S, S) for S = S_i, so it is read only where it can be nonzero:
    at the unmasked pairs, j in partners(i), with T_j = S_i."""
    basis, index, mult = alg.basis, alg.index, alg.mult_basis
    rows = {}
    for i, a in enumerate(basis):
        target = index[BasisLabel(clockwise_weight(a.S), a.S, a.S)]  # cw(S) orients S
        row = {j: c for j in alg.partners(i) if basis[j].T == a.S and (c := mult(i, j).get(target))}
        if row:
            rows[i] = row
    return rows
