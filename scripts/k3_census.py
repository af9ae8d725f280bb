#!/usr/bin/env python3
"""Census of the rank-3 annular algebra, which is too large for full tables.

Reports the combinatorial data (20 cup diagrams, dimension 1664, the
projective dimension split 80/88), then samples random products for
surgery order-independence and random triples for associativity.

    PYTHONPATH=src python3 scripts/k3_census.py [--seed S] [--products N] [--triples N]

Exits 1 when a sampled product depends on the surgery order or a sampled
triple is not associative, and 0 otherwise.
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

    alg, _ = build_annular(n, QQ)
    bad = 0
    for _ in range(args.triples):
        i, j, k = (rnd.randrange(alg.dim) for _ in range(3))
        x, y, z = (alg.basis_element(t) for t in (i, j, k))
        if (x * y) * z != x * (y * z):
            bad += 1
    print(f"associativity: {args.triples} random triples, {bad} violations")
    return 1 if ambiguous or bad else 0


if __name__ == "__main__":
    sys.exit(main())
