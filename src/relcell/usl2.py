"""The restricted enveloping algebra of sl2 over F_p, p an odd prime.

Basis labels are (lam, S, T) for the elements F^S 1_lam E^T with all three
in [0, p).  Products are normal-ordered through the commutation rule

    E^T F^U 1_mu = sum_j  U!T!/((U-j)!(T-j)!) * binom(T-U+mu, j)
                          * F^{U-j} E^{T-j} 1_mu

(factorials and binomials mod p), where terms with an exponent >= p vanish
because E^p = F^p = 0.  The kernel works on basis indices, (lam*p + S)*p + T
for (lam, S, T), the order of the table's basis.  The terms are tabulated
once per p as coeffs[T][U][mu], one (offset, c, shape) per j with c != 0
(those j run from 0 without a gap); the term j of F^S 1_lam E^T *
F^U 1_mu E^V has index offset + S*p + V.  A product reads one list and
keeps the j at which both exponents stay below p.  Its first kept term's
index and the shape id of the kept coefficients determine it exactly, so
the rule hands out one dict per distinct product, built on the first
lookup that misses (21,973 dicts for the 89,133 nonzero products at
p = 11), with keys from a shared list of the indices.  A product whose
window of j is empty is the shared ZERO_PRODUCT and builds no dict (71,918
of the 161,051 unmasked pairs at p = 11).  The left H-weight of
F^S 1_lam E^T is lam - 2S, so the weight idempotent fixing it on the left
is 1_{lam-2S}.
"""

from __future__ import annotations

from .algebra import ZERO_PRODUCT, AlgebraTable, BasisLabel
from .celldata import CellDatum, chain_order
from .field import PrimeField, binomial_mod, factorial_mod


class UnsupportedCharacteristic(Exception):
    pass


def _check_p(p: int):
    field = PrimeField(p)
    if p == 2:
        raise UnsupportedCharacteristic("p = 2 is excluded (the algebra is already cellular)")
    return field


def structure_constants(p: int, field: PrimeField):
    """Multiplication rule on basis indices: a * b -> {index: scalar}.

    The basis index of (lam, S, T) is (lam*p + S)*p + T.  The list for
    (T, U, mu) holds the terms j = 0, 1, ..., m with nonzero coefficient:
    T!/(T-j)! and U!/(U-j)! are units for j <= min(T, U) < p, and
    binom(top, j) with 0 <= top < p is nonzero exactly for j <= top, so
    those j run from 0 without a gap and the term j sits at position j.
    The product keeps the terms from low = max(S+U, T+V) - p + 1 on (all
    of them when low <= 0); distinct j give distinct exponents S+U-j, so
    every term has its own index and every kept coefficient is nonzero.
    When low is past the list's end the product is ZERO_PRODUCT, with no
    dict built.  A pair whose weights do not match (a masked pair of the
    table) is ZERO_PRODUCT too.

    Equal products are one dict.  A product is fixed by its first kept
    term, at j0 = max(low, 0), whose index (nu0, s0, t0) it carries, and by
    its shape, the coefficients of its kept terms in order of j: the term
    at r = j - j0 has index ((nu0 - 2r) mod p, s0 - r, t0 - r).  Conversely
    the first kept term is the product's term of largest S exponent, so
    equal products have equal first index and shape.  Each list entry
    carries the shape id of the suffix it starts (interned from the end of
    the list, one pair per entry), and the rule looks the product up by
    (first index, shape id), building its dict only on a miss.
    """
    fact = [factorial_mod(k, field) for k in range(p)]
    # falling[t][j] = t!/(t-j)!, and binomial_mod(top, j) depends on top mod p only
    falling = [[field.div(fact[t], fact[t - j]) for j in range(t + 1)] for t in range(p)]
    binom = [[binomial_mod(t, j, field) for j in range(p)] for t in range(p)]
    shape_ids: dict[tuple, int] = {}  # (c, shape id of the rest) -> shape id

    def terms(T, U, mu):
        """The (offset, c, shape) for j = 0, 1, ... while c = T!/(T-j)! *
        U!/(U-j)! * binom(T-U+mu, j) != 0; offset + S*p + V is the index of
        the term's F^{S+U-j} 1_nu E^{T+V-j}, nu = mu + 2(T-j), and shape is
        the id of the coefficients from this term on."""
        top = (T - U + mu) % p
        out = []
        for j in range(min(T, U) + 1):
            c = field.mul(field.mul(falling[T][j], falling[U][j]), binom[top][j])
            if c == field.zero:
                break
            nu = (mu + 2 * (T - j)) % p
            out.append(((nu * p + U - j) * p + T - j, c))
        rest = -1  # the empty suffix
        for k in range(len(out) - 1, -1, -1):
            off, c = out[k]
            rest = shape_ids.setdefault((c, rest), len(shape_ids))
            out[k] = (off, c, rest)
        return out

    coeffs = [[[terms(T, U, mu) for mu in range(p)] for U in range(p)] for T in range(p)]
    labels = [(lam, S, T) for lam in range(p) for S in range(p) for T in range(p)]
    # the weights 1_{lam-2T} on the right of a and 1_{mu-2U} on the left of b
    right_weight = [(lam - 2 * T) % p for lam, S, T in labels]
    left_weight = [(mu - 2 * U) % p for mu, U, V in labels]
    ids = list(range(p**3))  # one shared int object per index
    shared = [{} for _ in ids]  # per first index: {shape id: product}
    q = p - 1

    def rule(a, b):
        if right_weight[a] != left_weight[b]:
            return ZERO_PRODUCT
        _, S, T = labels[a]
        mu, U, V = labels[b]
        x, z = S + U, T + V
        low = (x if x > z else z) - q
        listed = coeffs[T][U][mu]
        if low < 0:
            low = 0
        if low >= len(listed):  # the window starts past the last term
            return ZERO_PRODUCT
        base = S * p + V
        off0, _, shape = listed[low]
        slot = shared[off0 + base]
        got = slot.get(shape)
        if got is None:
            got = slot[shape] = {ids[off + base]: c for off, c, _ in listed[low:]}
        return got

    return rule


def build_usl2(p: int) -> tuple[AlgebraTable, CellDatum]:
    field = _check_p(p)
    labels = [BasisLabel(lam, S, T) for lam in range(p) for S in range(p) for T in range(p)]
    index = {lab: i for i, lab in enumerate(labels)}
    star = tuple(index[BasisLabel(lab.lam, lab.T, lab.S)] for lab in labels)
    # the weights 1_{lam-2S} and 1_{lam-2T} on either side; the rule's zero test
    blocks = (
        [(lab.lam - 2 * lab.S) % p for lab in labels],
        [(lab.lam - 2 * lab.T) % p for lab in labels],
    )
    alg = AlgebraTable(field, labels, structure_constants(p, field), star, name=f"usl2:p={p}", blocks=blocks)

    X = list(range(p))
    M = {lam: list(range(p)) for lam in X}
    E = [alg.basis_element(index[BasisLabel(nu, 0, 0)]) for nu in range(p)]

    # under 1_nu the maximum is nu, then nu+2, nu+4, ... (2 generates F_p)
    assert p > 2
    orders = [chain_order(X, [(nu + 2 * k) % p for k in range(p - 1, -1, -1)]) for nu in range(p)]
    eps_index = {(lam, S): (lam - 2 * S) % p for lam in X for S in M[lam]}
    datum = CellDatum(alg=alg, X=X, M=M, E=E, orders=orders, eps_index=eps_index, name=alg.name)
    return alg, datum


def gram_diagonal_formula(p: int):
    """Predicted Gram diagonal (S!)^2 * binom(lam, S) per lam."""
    field = PrimeField(p)
    out = {}
    for lam in range(p):
        out[lam] = [
            field.mul(
                field.mul(factorial_mod(S, field), factorial_mod(S, field)),
                binomial_mod(lam, S, field),
            )
            for S in range(p)
        ]
    return out
