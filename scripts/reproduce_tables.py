#!/usr/bin/env python3
"""Desk reproduction of the small-rank tables for every built family.

Prints, per family: dimension, the simple labels with their dimensions,
the decomposition matrix, the Cartan matrix with its determinant, and the
semisimplicity verdict.  Everything is computed twice over where a second
route exists (reciprocity, annular orientation fastpath, Gram formulas).

    PYTHONPATH=src python3 scripts/reproduce_tables.py

Exits 1 when a datum fails its axioms, a Gram diagonal differs from its
formula or the orientation fastpath differs from the engine's D, and 0
otherwise.
"""

import sys
import time

from relcell.annular import build_annular, decomposition_fastpath
from relcell.celldata import det_int, run_pipeline
from relcell.field import QQ
from relcell.usl2 import build_usl2, gram_diagonal_formula
from relcell.zigzag import QuiverSpec, alternate_idempotent_datum, build_zigzag


def show(name, datum):
    """Print the tables of datum; (ss, D), or None when an axiom fails, since
    X0, D and C of a datum that fails its axioms would certify nothing."""
    t0 = time.perf_counter()
    res = run_pipeline(datum)
    print(f"== {name}  (dim {datum.alg.dim}, {time.perf_counter() - t0:.1f}s)")
    if not res["axioms"].all_passed:
        print("   axioms: FAILURES; X0, D and C skipped")
        for r in res["axioms"].results:
            if not r.passed:
                print(f"   {r}")
        return None
    ss, D, (C, _, _) = res["simples"], res["D"], res["C"]
    print("   axioms: all pass")
    print(f"   X0: {ss.X0}")
    print(f"   simple dims: {[ss.dims[lam] for lam in ss.X0]}")
    print(f"   D = {D}")
    print(f"   C = {C}   det C = {det_int(C)}")
    print(f"   semisimple: {res['semisimple']}")
    return ss, D


def main() -> int:
    failed = 0
    for variant, ns in (("A", (3, 4, 5)), ("cycS", (3, 4, 5)), ("cycL", (3, 4))):
        for n in ns:
            _, datum = build_zigzag(QuiverSpec(variant, n), QQ)
            failed += show(f"zigzag:{variant}:{n}", datum) is None

    _, alt = alternate_idempotent_datum(QQ)
    failed += show("zigzag:cycS:3 (three-idempotent datum)", alt) is None

    for p in (3, 5, 7):
        _, datum = build_usl2(p)
        shown = show(f"usl2:p={p}", datum)
        if shown is None:
            failed += 1
            continue
        ss, _ = shown
        formula = gram_diagonal_formula(p)
        zero = datum.alg.field.zero
        agree = all(
            [ss.grams[lam].get(i, {}).get(i, zero) for i in range(p)] == formula[lam] for lam in range(p)
        )
        print(f"   Gram diagonal matches (S!)^2 * binom(lam, S): {agree}")
        failed += not agree

    for n in (1, 2):
        _, datum = build_annular(n, QQ)
        shown = show(f"annular:n={n}", datum)
        if shown is None:
            failed += 1
            continue
        ss, D = shown
        fast = decomposition_fastpath(n, datum.X, ss.X0)
        print(f"   orientation fastpath equals engine D: {fast == D}")
        failed += fast != D

    if failed:
        print(f"{failed} check(s) failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
