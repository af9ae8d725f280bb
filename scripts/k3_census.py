#!/usr/bin/env python3
"""Census of the rank-3 annular algebra, which is too large for full tables.

Reports the combinatorial data (20 cup diagrams, dimension 1664, the
projective dimension split 80/88), then samples random products for
surgery order-independence and random triples b_i, b_j, b_k with
b_i b_j != 0 and b_j b_k != 0 for associativity.

    PYTHONPATH=src python3 scripts/k3_census.py [--seed S] [--products N] [--triples N]

Exits 1 when a sampled product depends on the surgery order, a sampled
triple is not associative or no sampled triple has (b_i b_j) b_k != 0, and
0 otherwise.
"""

import argparse
import sys
import random
from collections import Counter

from relcell.annular import (
    admissible_orders,
    algebra_dimension,
    build_annular,
    multiply_labels,
    projective_dimension,
    weight_list,
)
from relcell.diagrams import enumerate_cup_diagrams, orients
from relcell.field import QQ


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--products", type=int, default=1000)
    ap.add_argument("--triples", type=int, default=2000)
    args = ap.parse_args()

    n = 3
    cups = enumerate_cup_diagrams(n)
    weights = weight_list(n)
    print(f"cup diagrams: {len(cups)}")
    print(f"weights: {len(weights)}")
    print(f"dim K_3 = {algebra_dimension(n)}")
    cell_dims = Counter(sum(1 for S in cups if orients(S, w)) for w in weights)
    print(f"cell module dimension census: {dict(sorted(cell_dims.items()))}")
    pdims = Counter(projective_dimension(n, lam) for lam in weights)
    print(f"projective dimension census: {dict(sorted(pdims.items()))}")

    rnd = random.Random(args.seed)
    msets = {w: [S for S in cups if orients(S, w)] for w in weights}

    done = ambiguous = 0
    while done < args.products:
        lam, mu = rnd.choice(weights), rnd.choice(weights)
        T = rnd.choice(msets[lam])
        if not orients(T, mu):
            continue
        S, V = rnd.choice(msets[lam]), rnd.choice(msets[mu])
        seqs = admissible_orders(n, T)
        results = {
            frozenset(multiply_labels(n, (S, lam, T), (T, mu, V), order=s).items())
            for s in seqs
        }
        if len(results) != 1:
            ambiguous += 1
        done += 1
    print(f"order-independence: {done} products, {ambiguous} ambiguous")

    # triples with b_i b_j != 0 and b_j b_k != 0, redrawn otherwise: a
    # uniform triple is almost never Peirce-compatible, and then compares 0 with 0
    alg, _ = build_annular(n, QQ)
    done = nonzero = bad = 0
    while done < args.triples:
        i = rnd.randrange(alg.dim)
        j = rnd.choice(alg.partners(i))
        k = rnd.choice(alg.partners(j))
        if not (alg.mult_basis(i, j) and alg.mult_basis(j, k)):
            continue
        x, y, z = (alg.basis_element(t) for t in (i, j, k))
        lhs = (x * y) * z
        nonzero += bool(lhs.coeffs)
        bad += lhs != x * (y * z)
        done += 1
    print(
        f"associativity: {done} triples with b_i b_j, b_j b_k != 0, "
        f"{nonzero} with (b_i b_j) b_k != 0, {bad} violations"
    )
    return 1 if ambiguous or bad or not nonzero else 0


if __name__ == "__main__":
    sys.exit(main())
