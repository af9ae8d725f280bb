"""Annular cup/cap diagram combinatorics.

Vertices 1..2n sit on a circle with a seam (the dashed lines) between
vertex 2n and vertex 1.  An arc is an endpoint pair p < q that either
stays inside the vertex segment or wraps once around the seam; its
"coverage" is the set of inter-vertex gaps its shadow crosses (gap g lies
between vertex g and g+1, and gap 0 is the seam).  Arcs are non-crossing
iff their coverages are nested or disjoint.

Weights are strings over "v" (strand oriented downward at the vertex) and
"^" (upward).  A circle in a stacked cup/cap diagram is classified on its
lift to the cut-open strip: winding +-1 circles are essential and
rightwards/leftwards by the sign of the winding; winding zero circles are
usual, and anticlockwise exactly when the strand runs down at the leftmost
lifted vertex (as for planar arc algebras, Brundan and Stroppel 2011).  The
tabulated cup/cap orientation rules are recovered as tested properties of
this classifier rather than hardcoded.

The classifier is traced once per circle: circle_table(S, T, n) walks each
circle of S T* downward from its least vertex and mirrors that trace for the
upward orientation, so it holds both orientations of every circle with their
tags, and classify_diagram only matches a weight against them.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import combinations, product

DOWN = "v"
UP = "^"

ACW = "anticlockwise"
CW = "clockwise"
LEFT = "leftwards"
RIGHT = "rightwards"


class Arc(namedtuple("Arc", "p q wrap")):
    """Endpoints p < q, and whether the arc wraps around the seam."""

    __slots__ = ()

    def gaps(self, n: int) -> frozenset:
        m = 2 * n
        if not self.wrap:
            return frozenset(range(self.p, self.q))
        return frozenset(g % m for g in range(self.q, self.p + m))

    def other(self, v: int) -> int:
        return self.q if v == self.p else self.p

    def __str__(self):
        sep = "~" if self.wrap else "-"
        return f"{self.p}{sep}{self.q}"


CupDiagram = tuple  # sorted tuple of Arcs forming a noncrossing perfect matching


def arcs_cross(a: Arc, b: Arc, n: int) -> bool:
    ga, gb = a.gaps(n), b.gaps(n)
    inter = ga & gb
    return not (not inter or inter == ga or inter == gb)


def is_valid_cup_diagram(arcs, n: int) -> bool:
    verts = sorted(v for a in arcs for v in (a.p, a.q))
    if verts != list(range(1, 2 * n + 1)):
        return False
    return all(not arcs_cross(a, b, n) for a, b in combinations(arcs, 2))


def make_cup(arcs) -> CupDiagram:
    return tuple(sorted(arcs))


@lru_cache(maxsize=None)
def enumerate_cup_diagrams(n: int) -> tuple:
    """All annular cup diagrams on 2n vertices."""
    out = []

    def extend(remaining, chosen):
        if not remaining:
            out.append(make_cup(chosen))
            return
        p = remaining[0]
        for q in remaining[1:]:
            for wrap in (False, True):
                arc = Arc(p, q, wrap)
                if all(not arcs_cross(arc, c, n) for c in chosen):
                    rest = tuple(v for v in remaining if v not in (p, q))
                    extend(rest, chosen + (arc,))

    extend(tuple(range(1, 2 * n + 1)), ())
    return tuple(sorted(set(out)))


def orients(S: CupDiagram, w: str) -> bool:
    """Each arc carries one v and one ^."""
    return all({w[a.p - 1], w[a.q - 1]} == {DOWN, UP} for a in S)


def orientations_of(S: CupDiagram) -> list[str]:
    """The 2^n weights orienting S."""
    out = []
    for ends in product((DOWN + UP, UP + DOWN), repeat=len(S)):
        sym = {}
        for a, (sp, sq) in zip(S, ends):
            sym[a.p], sym[a.q] = sp, sq
        out.append("".join(sym[v] for v in sorted(sym)))
    return sorted(out, key=weight_sort_key)


def weight_sort_key(w: str):
    return tuple(0 if c == DOWN else 1 for c in w)


def anticlockwise_weight(S: CupDiagram) -> str:
    """The unique weight orienting every circle of S S* anticlockwise."""
    n = len(S)
    sym = {}
    for a in S:
        if a.wrap:
            sym[a.p], sym[a.q] = UP, DOWN
        else:
            sym[a.p], sym[a.q] = DOWN, UP
    return "".join(sym[v] for v in range(1, 2 * n + 1))


def clockwise_weight(S: CupDiagram) -> str:
    return flip_weight(anticlockwise_weight(S))


def flip_weight(w: str) -> str:
    return "".join(UP if c == DOWN else DOWN for c in w)


# --- rotation ---------------------------------------------------------------


@lru_cache(maxsize=None)
def staying_rotation_exponent(S: CupDiagram, n: int) -> int:
    """Minimal k >= 0 with rho^k(S) of staying type.  rho shifts every gap
    by one, so an arc of rho^k(S) wraps exactly when S covers gap -k."""
    m = 2 * n
    covered = set().union(*(a.gaps(n) for a in S))
    return next(k for k in range(m) if -k % m not in covered)


# --- partial orders ---------------------------------------------------------


def dominance_less(mu: str, lam: str) -> bool:
    """mu strictly smaller: pointwise >= on prefix counts of ^."""
    if mu == lam:
        return False
    cm = cl = 0
    ge = True
    for a, b in zip(mu, lam):
        cm += a == UP
        cl += b == UP
        if cm < cl:
            ge = False
            break
    return ge and cm == cl


def cup_order_less(S: CupDiagram, mu: str, lam: str, n: int) -> bool:
    """mu <_{eps_S} lam via the minimal staying rotation of S."""
    k = staying_rotation_exponent(S, n)
    return dominance_less(mu[-k:] + mu[:-k], lam[-k:] + lam[:-k])


# --- circle decomposition and the orientation classifier --------------------


def _arc_displacement(a: Arc, start: int, n: int) -> int:
    if not a.wrap:
        return a.other(start) - start
    around = 2 * n - (a.q - a.p)
    return -around if start == a.p else around


def trace_circle(cups, caps, n, start_vertex, start_dir):
    """Traverse the component through start_vertex; start_dir 'v' goes into
    the cup first.  Returns (symbols dict, tag).

    The walk lifts the circle to the cut-open strip, where each arc moves x
    by its displacement.  A circle that winds around the annulus is
    rightwards or leftwards by the sign of its winding; a contractible one
    is anticlockwise exactly when it runs down at its leftmost vertex.
    """
    cup_at = {v: a for a in cups for v in (a.p, a.q)}
    cap_at = {v: a for a in caps for v in (a.p, a.q)}
    symbols = {}
    x, v, direction = start_vertex, start_vertex, start_dir
    leftmost = (x, direction)  # no two vertices of a circle share a lifted x
    while True:
        symbols[v] = direction
        leftmost = min(leftmost, (x, direction))
        arc = (cup_at if direction == DOWN else cap_at)[v]
        x += _arc_displacement(arc, v, n)
        v = arc.other(v)
        direction = UP if direction == DOWN else DOWN
        if v == start_vertex and direction == start_dir:
            break
    winding, rem = divmod(x - start_vertex, 2 * n)
    if rem != 0:
        raise AssertionError("trace did not close up modulo a full revolution")
    if winding:
        return symbols, RIGHT if winding > 0 else LEFT
    return symbols, ACW if leftmost[1] == DOWN else CW


_MIRROR = {ACW: CW, CW: ACW, LEFT: RIGHT, RIGHT: LEFT}


@lru_cache(maxsize=None)
def circle_table(S: CupDiagram, T: CupDiagram, n: int) -> tuple:
    """Both orientations of every circle of S T*, one trace per circle.

    One entry per circle, by least vertex: (vertex tuple, (tag, symbols),
    (tag, symbols)), where symbols spells the strand directions on the
    circle's vertices in vertex order.  The first entry is trace_circle
    started downward at the least vertex; the second is its mirror, since
    the circle run backwards flips every symbol (the one at the leftmost
    vertex too) and negates the winding (anticlockwise <-> clockwise,
    leftwards <-> rightwards).
    The key is a pair of cup diagrams rather than a basis label or an
    algebra: multiply_labels is a free function that runs without a built
    algebra, and the key domain stays len(enumerate_cup_diagrams(n))**2
    whatever the number of products asked for.  The value is shared by every
    caller, so it holds only tuples and strings.
    """
    out = []
    seen = set()
    for v in range(1, 2 * n + 1):
        if v in seen:
            continue
        sym, tag = trace_circle(S, T, n, v, DOWN)
        comp = tuple(sorted(sym))
        seen.update(comp)
        down = "".join(sym[u] for u in comp)
        out.append((comp, (tag, down), (_MIRROR[tag], flip_weight(down))))
    return tuple(out)


def classify_diagram(S: CupDiagram, T: CupDiagram, w: str, n: int) -> dict:
    """Tag per circle of S T* under the weight w: {vertex tuple: tag}."""
    out = {}
    for comp, *orientations in circle_table(S, T, n):
        syms = "".join(w[v - 1] for v in comp)
        tag = next((tag for tag, sym in orientations if sym == syms), None)
        if tag is None:
            raise AssertionError("weight does not orient this circle consistently")
        out[comp] = tag
    return out


# --- text notation ----------------------------------------------------------


def parse_weight(s: str, n: int) -> str:
    s = s.strip()
    if len(s) != 2 * n or any(c not in (DOWN, UP) for c in s):
        raise ValueError(f"bad weight {s!r} for n={n}")
    if s.count(DOWN) != n:
        raise ValueError(f"weight {s!r} is not balanced")
    return s


def format_cup(S: CupDiagram) -> str:
    return ",".join(str(a) for a in S)


def parse_cup(s: str, n: int) -> CupDiagram:
    arcs = []
    for part in s.strip().split(","):
        part = part.strip()
        sep = "~" if "~" in part else "-"
        wrap = sep == "~"
        p, q = (int(x) for x in part.split(sep))
        p, q = min(p, q), max(p, q)
        arcs.append(Arc(p, q, wrap))
    cup = make_cup(arcs)
    if not is_valid_cup_diagram(cup, n):
        raise ValueError(f"{s!r} is not a valid cup diagram for n={n}")
    return cup


def format_basis_label(S: CupDiagram, w: str, T: CupDiagram) -> str:
    return f"{format_cup(S)}|{w}|{format_cup(T)}"


def parse_basis_label(s: str, n: int):
    parts = s.split("|")
    if len(parts) != 3:
        raise ValueError(f"expected 'S|weight|T', got {s!r}")
    S = parse_cup(parts[0], n)
    w = parse_weight(parts[1], n)
    T = parse_cup(parts[2], n)
    if not orients(S, w) or not orients(T, w):
        raise ValueError(f"{s!r}: the weight does not orient both diagrams")
    return S, w, T


def circle_decomposition_dict(S: CupDiagram, T: CupDiagram, w: str, n: int) -> dict:
    """JSON-friendly circle decomposition of an oriented circle diagram."""
    comps = []
    tags = classify_diagram(S, T, w, n)
    for comp, tag in sorted(tags.items()):
        arcs_c = [a for a in S if a.p in comp]
        arcs_k = [a for a in T if a.p in comp]
        comps.append(
            {
                "vertices": sorted(comp),
                "cups": [str(a) for a in sorted(arcs_c)],
                "caps": [str(a) for a in sorted(arcs_k)],
                "essential": tag in (LEFT, RIGHT),
                "orientation": tag,
            }
        )
    return {"weight": w, "circles": comps}
