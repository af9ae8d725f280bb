import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from relcell.diagrams import (
    ACW,
    CW,
    DOWN,
    LEFT,
    RIGHT,
    UP,
    Arc,
    anticlockwise_weight,
    arcs_cross,
    circle_decomposition_dict,
    circle_table,
    classify_diagram,
    clockwise_weight,
    cup_order_less,
    dominance_less,
    enumerate_cup_diagrams,
    flip_weight,
    format_basis_label,
    format_cup,
    make_cup,
    orientations_of,
    orients,
    parse_basis_label,
    parse_cup,
    parse_weight,
    staying_rotation_exponent,
    trace_circle,
)

from reference import (
    arc_depths,
    area_trace_circle,
    circle_wrapping_parity,
    circles_of,
    classify_circle,
    orient_circle_with_tag,
    rotate_cup,
    rotate_weight,
)

P1 = make_cup([Arc(1, 2, False)])
W1 = make_cup([Arc(1, 2, True)])


def test_enumeration_counts():
    assert len(enumerate_cup_diagrams(1)) == 2
    assert len(enumerate_cup_diagrams(2)) == 6
    assert len(enumerate_cup_diagrams(3)) == 20


def test_crossing_rules():
    # nested wraps allowed, interleaved wraps forbidden
    assert not arcs_cross(Arc(1, 4, True), Arc(2, 3, True), 2)
    assert arcs_cross(Arc(1, 3, True), Arc(2, 4, True), 2)
    assert not arcs_cross(Arc(1, 2, False), Arc(3, 4, False), 2)
    assert arcs_cross(Arc(1, 3, False), Arc(2, 4, False), 2)


def test_orientations_count():
    for n in (1, 2, 3):
        for S in enumerate_cup_diagrams(n):
            assert len(orientations_of(S)) == 2 ** n


def test_anticlockwise_weight_unique_and_orienting():
    for n in (1, 2, 3):
        for S in enumerate_cup_diagrams(n):
            aw = anticlockwise_weight(S)
            assert aw in orientations_of(S)
            tags = classify_diagram(S, S, aw, n)
            assert set(tags.values()) == {ACW}
            # and it is the only such weight
            others = [
                w
                for w in orientations_of(S)
                if set(classify_diagram(S, S, w, n).values()) == {ACW}
            ]
            assert others == [aw]


def test_small_circle_orientation_table_n1():
    assert classify_diagram(P1, P1, "v^", 1) == {(1, 2): ACW}
    assert classify_diagram(W1, W1, "^v", 1) == {(1, 2): ACW}
    assert classify_diagram(P1, P1, "^v", 1) == {(1, 2): CW}
    assert classify_diagram(W1, W1, "v^", 1) == {(1, 2): CW}
    assert classify_diagram(P1, W1, "^v", 1) == {(1, 2): LEFT}
    assert classify_diagram(W1, P1, "v^", 1) == {(1, 2): LEFT}
    assert classify_diagram(P1, W1, "v^", 1) == {(1, 2): RIGHT}
    assert classify_diagram(W1, P1, "^v", 1) == {(1, 2): RIGHT}


def test_two_parallel_wraps_give_nested_usual_circles():
    # n=2: wrap(1,4)+wrap(2,3) cups with mirrored caps: each circle carries
    # two wrapping arcs, so both are contractible lenses around the seam --
    # consistent with this diagram being one of the idempotent shapes
    S = make_cup([Arc(1, 4, True), Arc(2, 3, True)])
    comps = circles_of(S, S)
    assert len(comps) == 2
    for comp in comps:
        assert circle_wrapping_parity(S, S, comp) == 0
    assert set(classify_diagram(S, S, anticlockwise_weight(S), 2).values()) == {ACW}
    assert anticlockwise_weight(S) == "^^vv"


def test_essential_iff_odd_wrapping():
    # parity invariant cross-checked against the winding classifier
    for n in (1, 2, 3):
        for S in enumerate_cup_diagrams(n):
            for T in enumerate_cup_diagrams(n):
                for comp in circles_of(S, T):
                    cups = [a for a in S if a.p in comp]
                    caps = [a for a in T if a.p in comp]
                    parity = circle_wrapping_parity(S, T, comp)
                    # orient arbitrarily and inspect the winding
                    sym = orient_circle_with_tag(cups, caps, n, _any_tag(cups, caps, n))
                    tag = classify_circle(cups, caps, n, sym)
                    essential = tag in (LEFT, RIGHT)
                    assert essential == bool(parity)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_classify_diagram_equals_classify_circle(n):
    # the tabulated classifier against one trace per circle and weight
    cups_all = enumerate_cup_diagrams(n)
    weights = {w for S in cups_all for w in orientations_of(S)}
    checked = 0
    for S in cups_all:
        for T in cups_all:
            for w in weights:
                if not (orients(S, w) and orients(T, w)):
                    continue
                want = {}
                for comp in circles_of(S, T):
                    cups = [a for a in S if a.p in comp]
                    caps = [a for a in T if a.p in comp]
                    want[comp] = classify_circle(cups, caps, n, {v: w[v - 1] for v in comp})
                assert classify_diagram(S, T, w, n) == want
                checked += 1
    assert checked == {1: 8, 2: 108, 3: 1664}[n]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_circle_table_orientations_equal_orient_circle_with_tag(n):
    for S in enumerate_cup_diagrams(n):
        for T in enumerate_cup_diagrams(n):
            table = circle_table(S, T, n)
            assert [entry[0] for entry in table] == circles_of(S, T)
            for comp, *orientations in table:
                cups = [a for a in S if a.p in comp]
                caps = [a for a in T if a.p in comp]
                assert len({tag for tag, _ in orientations}) == 2
                for tag, sym in orientations:
                    want = orient_circle_with_tag(cups, caps, n, tag)
                    assert sym == "".join(want[v] for v in comp)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_upward_trace_is_the_mirrored_downward_trace(n):
    # circle_table traces each circle downward once and mirrors it; both
    # traces from the least vertex, on the circle's own arcs, give its entries
    mirror = {ACW: CW, CW: ACW, LEFT: RIGHT, RIGHT: LEFT}
    for S in enumerate_cup_diagrams(n):
        for T in enumerate_cup_diagrams(n):
            table = circle_table(S, T, n)
            assert [entry[0] for entry in table] == circles_of(S, T)
            for comp, down, up in table:
                cups = [a for a in S if a.p in comp]
                caps = [a for a in T if a.p in comp]
                traced = []
                for d0 in (DOWN, UP):
                    sym, tag = trace_circle(cups, caps, n, comp[0], d0)
                    traced.append((tag, "".join(sym[v] for v in comp)))
                assert [down, up] == traced
                assert up == (mirror[down[0]], flip_weight(down[1]))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_circle_table_tags_equal_the_area_classifier(n):
    # the leftmost-vertex rule against the signed area of an embedding, on
    # every circle of every S T* in both orientations
    traces = 0
    for S in enumerate_cup_diagrams(n):
        for T in enumerate_cup_diagrams(n):
            for comp, *orientations in circle_table(S, T, n):
                for tag, sym in orientations:
                    got, want = area_trace_circle(S, T, n, comp[0], sym[0])
                    assert "".join(got[v] for v in comp) == sym
                    assert tag == want
                    traces += 1
    assert traces == {1: 8, 2: 108, 3: 1504, 4: 21700}[n]


CIRCLE_DECOMPOSITION_SHA256 = {
    2: "aac2df32ab6dde1731ecb009ed6216db5f8493bfdc8f200052f27c9512360b05",
    3: "116ab511f1eb0f787838bc7727e40a580a73c1be82ce40c94c013c3eb480e314",
}


@pytest.mark.parametrize("n", [2, 3])
def test_circle_decomposition_pinned(n):
    # every oriented circle diagram S w T* of K_n, as mult --circles prints it
    cups = enumerate_cup_diagrams(n)
    docs = [
        circle_decomposition_dict(S, T, w, n)
        for S in cups
        for T in cups
        for w in orientations_of(S)
        if orients(T, w)
    ]
    assert len(docs) == {2: 108, 3: 1664}[n]
    digest = hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()
    assert digest == CIRCLE_DECOMPOSITION_SHA256[n]


def test_classify_diagram_rejects_inconsistent_weight():
    # "vv" puts two downward strands on the one circle of P1 P1*
    with pytest.raises(AssertionError, match="consistently"):
        classify_diagram(P1, P1, "vv", 1)


def _any_tag(cups, caps, n):
    start = min(min(a.p for a in cups), min(a.p for a in caps))
    return trace_circle(cups, caps, n, start, DOWN)[1]


# --- independent validation of the cup/cap orientation tables ----------------
#
# Arc orientation per the tables: staying (v,^) anticlockwise, (^,v) clockwise;
# wrapping the other way around.  Shape classes e/i (usual circles) and l/u
# (essential ones) are recomputed here by ray-crossing parity, not by the
# classifier's embedding.


def arc_orientation(a: Arc, w: str) -> str:
    down_at_p = w[a.p - 1] == DOWN
    if not a.wrap:
        return ACW if down_at_p else CW
    return CW if down_at_p else ACW


def _inside_point_of(a: Arc, n: int) -> Fraction:
    if not a.wrap:
        return Fraction(2 * a.p + 1, 2)
    return Fraction(2 * a.q + 1, 2) if a.q < 2 * n else Fraction(1, 2)


def _covers(a: Arc, x: Fraction, n: int) -> bool:
    gap = int(x)  # x = gap + 1/2
    return gap % (2 * n) in a.gaps(n)


def deeper_cover_parity(arc: Arc, same_half: list, n: int) -> int:
    """Number of strictly deeper arcs of the same half over the probe point."""
    depths = arc_depths(same_half, n)
    x = _inside_point_of(arc, n)
    d = depths[arc]
    return sum(1 for b in same_half if depths[b] > d and _covers(b, x, n)) % 2


def _circle_orientations(cups, caps, n):
    start = min(min(a.p for a in cups), min(a.p for a in caps))
    out = []
    for d0 in (DOWN, UP):
        sym, _ = trace_circle(cups, caps, n, start, d0)
        out.append(sym)
    return out


@pytest.mark.parametrize("n", [1, 2])
def test_orientation_classification_consistency(n):
    for S in enumerate_cup_diagrams(n):
        for T in enumerate_cup_diagrams(n):
            for comp in circles_of(S, T):
                cups = [a for a in S if a.p in comp]
                caps = [a for a in T if a.p in comp]
                for sym in _circle_orientations(cups, caps, n):
                    tag = classify_circle(cups, caps, n, sym)
                    for a in cups:
                        ext_parity = deeper_cover_parity(a, cups, n)
                        _check_lemma(tag, _arc_tag(a, sym), ext_parity, is_cup=True)
                    for a in caps:
                        ext_parity = deeper_cover_parity(a, caps, n)
                        _check_lemma(tag, _arc_tag(a, sym), ext_parity, is_cup=False)


def _arc_tag(a, sym):
    down_at_p = sym[a.p] == DOWN
    if not a.wrap:
        return ACW if down_at_p else CW
    return CW if down_at_p else ACW


def _check_lemma(tag, arc_tag, parity, is_cup):
    # probing the far side of the arc: even crossing parity reaches the
    # cylinder boundary, i.e. the exterior for usual circles, the lower half
    # below a cup and the upper half above a cap for essential ones
    if tag in (ACW, CW):
        if parity == 0:  # e-type agrees with the circle
            assert arc_tag == tag
        else:  # i-type is opposite
            assert arc_tag != tag
        return
    lower_side = (parity == 0) if is_cup else (parity == 1)
    if tag == LEFT:  # l-cups and l-caps are clockwise
        assert arc_tag == (CW if lower_side else ACW)
    else:  # rightwards: l-cups and l-caps are anticlockwise
        assert arc_tag == (ACW if lower_side else CW)


# --- rotation and orders ------------------------------------------------------


def test_rotation_examples():
    assert rotate_weight("^v^v") == "v^v^"
    assert rotate_weight("^vv^") == "^^vv"
    S = make_cup([Arc(1, 2, False), Arc(3, 4, True)])
    assert rotate_cup(S, 2) == make_cup([Arc(2, 3, False), Arc(1, 4, False)])
    assert rotate_cup(P1, 1) == W1 and rotate_cup(W1, 1) == P1


def test_rotation_period():
    for n in (1, 2, 3):
        for S in enumerate_cup_diagrams(n):
            cur = S
            for _ in range(2 * n):
                cur = rotate_cup(cur, n)
            assert cur == S


def _least_staying_rotation(S, n):
    """The least k with rho^k(S) of staying type, by one-step rotations."""
    cur = S
    for k in range(2 * n):
        if not any(a.wrap for a in cur):
            return k
        cur = rotate_cup(cur, n)
    raise AssertionError(f"no rotation of {S} is of staying type")


def test_staying_rotation_exists():
    for n in (1, 2, 3, 4):
        for S in enumerate_cup_diagrams(n):
            assert staying_rotation_exponent(S, n) == _least_staying_rotation(S, n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cup_order_less_equals_iterated_rotation(n):
    from relcell.annular import weight_list

    weights = weight_list(n)
    for S in enumerate_cup_diagrams(n):
        k = _least_staying_rotation(S, n)
        rotated = {}
        for w in weights:
            r = w
            for _ in range(k):
                r = rotate_weight(r)
            rotated[w] = r
        for mu in weights:
            for lam in weights:
                assert cup_order_less(S, mu, lam, n) == dominance_less(rotated[mu], rotated[lam])


def test_order_example_from_rotation():
    S = make_cup([Arc(1, 2, False), Arc(3, 4, True)])
    assert cup_order_less(S, "^vv^", "^v^v", 2)
    assert cup_order_less(rotate_cup(S, 2), "^v^v", "^vv^", 2)


def test_single_swap_decreases():
    # swapping one v...^ pair (dominance generator) gives a smaller weight
    rnd = random.Random(0)
    weights = set()
    for S in enumerate_cup_diagrams(2):
        weights.update(orientations_of(S))
    for w in weights:
        for i in range(len(w)):
            for j in range(i + 1, len(w)):
                if w[i] == DOWN and w[j] == UP:
                    lst = list(w)
                    lst[i], lst[j] = UP, DOWN
                    assert dominance_less("".join(lst), w)


def test_dominance_is_partial_order():
    weights = ["vv^^", "v^v^", "v^^v", "^vv^", "^v^v", "^^vv"]
    for a in weights:
        assert not dominance_less(a, a)
        for b in weights:
            if dominance_less(a, b):
                assert not dominance_less(b, a)
                for c in weights:
                    if dominance_less(b, c):
                        assert dominance_less(a, c)


def test_k2_order_hasse():
    S = make_cup([Arc(1, 2, False), Arc(3, 4, True)])  # the e_2 shape
    X = ["vv^^", "v^v^", "v^^v", "^vv^", "^v^v", "^^vv"]
    less = {(a, b) for a in X for b in X if cup_order_less(S, a, b, 2)}
    covers = {
        (a, b)
        for (a, b) in less
        if not any((a, c) in less and (c, b) in less for c in X)
    }
    assert covers == {
        ("^vv^", "v^v^"),
        ("v^v^", "vv^^"),
        ("v^v^", "^^vv"),
        ("vv^^", "^v^v"),
        ("^^vv", "^v^v"),
        ("^v^v", "v^^v"),
    }


# --- notation ----------------------------------------------------------------


def test_notation_roundtrip():
    for n in (1, 2, 3):
        for S in enumerate_cup_diagrams(n):
            assert parse_cup(format_cup(S), n) == S
    S = make_cup([Arc(1, 2, False), Arc(3, 4, True)])
    s = format_basis_label(S, "v^^v", S)
    assert s == "1-2,3~4|v^^v|1-2,3~4"
    assert parse_basis_label(s, 2) == (S, "v^^v", S)


def test_parse_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_weight("vv", 2)
    with pytest.raises(ValueError):
        parse_weight("vvv^", 2)
    with pytest.raises(ValueError):
        parse_cup("1-3,2-4", 2)
    with pytest.raises(ValueError):
        parse_basis_label("1-2|vv|1-2", 1)


@pytest.mark.parametrize("n", [2, 3])
def test_dominance_equals_swap_closure(n):
    # mu < lam in dominance iff mu is reachable from lam by v..^ -> ^..v swaps
    from relcell.annular import weight_list

    weights = weight_list(n)

    def swap_downset(lam):
        seen = {lam}
        frontier = [lam]
        while frontier:
            w = frontier.pop()
            for i in range(len(w)):
                if w[i] != DOWN:
                    continue
                for j in range(i + 1, len(w)):
                    if w[j] != UP:
                        continue
                    lst = list(w)
                    lst[i], lst[j] = UP, DOWN
                    nw = "".join(lst)
                    if nw not in seen:
                        seen.add(nw)
                        frontier.append(nw)
        seen.discard(lam)
        return seen

    for lam in weights:
        reachable = swap_downset(lam)
        dominated = {mu for mu in weights if dominance_less(mu, lam)}
        assert reachable == dominated, lam
