"""Command line front end.

    relcell cartan usl2:p=3 --format csv
    relcell verify zigzag:cycS:3
    relcell mult annular:n=1 "1-2|v^|1-2" "1-2|v^|1-2"

Exit codes: 0 success / all checks pass, 1 check failure or other error, 2 usage error.
main is the one dispatch: usage errors, a bad --out and mult or frobenius on a
family that is not annular exit 2 before anything is built; then the family
is built once and handed to the command.  cartan, decomp, simples, gram and
core verify the datum's axioms in celldata.run_pipeline before computing
anything from it; a failed axiom exits 1 with each failing axiom and its
witness on stderr and nothing on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# Every family module is imported eagerly, because the benchmark's layer
# tracer (perfbench/layers.py) looks them up in sys.modules right after
# `import relcell.cli`.  That import costs every run, so beyond argparse,
# json and fractions the package loads no stdlib module the interpreter
# does not already hold: no dataclasses or typing, and random only in
# cmd_frobenius.
from .algebra import BasisLabel, table_to_json
from .annular import frobenius_gram
from .celldata import (
    AxiomFailure,
    core_subalgebra,
    report_dict,
    run_pipeline,
    verify_cell_datum,
)
from .diagrams import circle_decomposition_dict, format_basis_label, parse_basis_label
from .families import UsageError, build_family, parse_family
from .linalg import Echelon

# the commands that read annular diagrams, with their refusal for any other family
ANNULAR_ONLY = {
    "mult": "mult takes diagram notation and needs an annular family",
    "frobenius": "the Frobenius form is defined for annular families",
}


def _emit(text: str, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _report(args, doc, text: str):
    """doc as indented, key-sorted JSON under --format json, else text."""
    _emit(json.dumps(doc, indent=1, sort_keys=True) if args.format == "json" else text, args.out)


def _matrix_text(rows, fmt: str, title: str = "") -> str:
    if fmt == "json":
        return json.dumps(rows)
    if fmt == "csv":
        return "\n".join(",".join(str(x) for x in row) for row in rows)
    head = [title] if title else []
    width = max((len(str(x)) for row in rows for x in row), default=1)
    body = [" ".join(str(x).rjust(width) for x in row) for row in rows]
    return "\n".join(head + body)


def _pipeline(datum, upto: str) -> dict:
    """run_pipeline through `upto`; AxiomFailure when an axiom fails."""
    res = run_pipeline(datum, upto)
    if not res["axioms"].all_passed:
        raise AxiomFailure(res["axioms"])
    return res


def cmd_build(args, alg, datum) -> int:
    if args.format == "json":
        _emit(table_to_json(alg), args.out)
    else:
        lines = [
            f"family: {args.family}",
            f"field: {alg.field!r}",
            f"dimension: {alg.dim}",
            f"labels |X|: {len(datum.X)}",
            f"idempotents |E|: {len(datum.E)}",
        ]
        _emit("\n".join(lines), args.out)
    return 0


def cmd_verify(args, alg, datum) -> int:
    if args.format == "json":
        doc = report_dict(datum)
        _report(args, doc, "")
        return 0 if all(a["passed"] for a in doc["axioms"]) else 1
    report = verify_cell_datum(datum)
    _emit(str(report), args.out)
    return 0 if report.all_passed else 1


def cmd_cartan(args, alg, datum) -> int:
    C, _, _ = _pipeline(datum, "C")["C"]
    _emit(_matrix_text(C, args.format, f"Cartan matrix of {args.family}"), args.out)
    return 0


def cmd_decomp(args, alg, datum) -> int:
    D = _pipeline(datum, "D")["D"]
    _emit(_matrix_text(D, args.format, f"decomposition matrix of {args.family}"), args.out)
    return 0


def cmd_gram(args, alg, datum) -> int:
    grams = _pipeline(datum, "simples")["simples"].grams
    f = alg.field
    blocks = []
    doc = {}
    for lam in datum.X:
        phi, n = grams[lam], len(datum.M[lam])
        # the sparse rows, made dense only to print
        rows = [[f.scalar_to_str(phi.get(i, {}).get(j, f.zero)) for j in range(n)] for i in range(n)]
        doc[str(lam)] = rows
        blocks.append(f"# {lam}\n" + _matrix_text(rows, "csv" if args.format == "csv" else "pretty"))
    _report(args, doc, "\n".join(blocks))
    return 0


def cmd_simples(args, alg, datum) -> int:
    ss = _pipeline(datum, "simples")["simples"]
    doc = {"X0": [str(l) for l in ss.X0], "dims": {str(l): ss.dims[l] for l in ss.X0}}
    _report(args, doc, "\n".join(f"L({lam}): dim {ss.dims[lam]}" for lam in ss.X0))
    return 0


def cmd_mult(args, alg, datum) -> int:
    n = parse_family(args.family)[1]
    try:
        Sa, wa, Ta = parse_basis_label(args.x, n)
        Sb, wb, Tb = parse_basis_label(args.y, n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    a = alg.element_from_label(BasisLabel(wa, Sa, Ta))
    b = alg.element_from_label(BasisLabel(wb, Sb, Tb))
    prod = a * b
    terms = sorted((alg.basis[i], alg.field.scalar_to_str(c)) for i, c in prod.coeffs.items())
    doc, bits = [], []
    for lab, c in terms:
        s = format_basis_label(lab.S, lab.lam, lab.T)
        entry = {"coeff": c, "term": s}
        if args.circles:
            entry["circles"] = circle_decomposition_dict(lab.S, lab.T, lab.lam, n)
        doc.append(entry)
        bits.append(s if c == "1" else f"{c}*{s}")
    _report(args, doc, " + ".join(bits) or "0")
    return 0


def cmd_core(args, alg, datum) -> int:
    if not 0 <= args.eps < len(datum.E):
        print(f"--eps must be in [0, {len(datum.E)})", file=sys.stderr)
        return 2
    _pipeline(datum, "axioms")
    core, cd = core_subalgebra(datum, args.eps)
    report = verify_cell_datum(cd)
    doc = {"dimension": core.dim, "X": [str(l) for l in cd.X], "cellular": report.all_passed}
    _report(args, doc, f"core eps[{args.eps}]: dimension {core.dim}, |X| = {len(cd.X)}\n{report}")
    return 0 if report.all_passed else 1


def cmd_frobenius(args, alg, datum) -> int:
    import random

    G = frobenius_gram(alg)
    rank = Echelon(alg.field, alg.dim, G.values()).rank
    rng = random.Random(args.seed)
    trials, done = 200, 0
    assoc_ok = True
    # x uniform, y among its partners, z among y's partners that close the
    # Peirce cycle (z's right block is x's left block): the only triples on
    # which sigma(x y, z) can be nonzero.  A draw with no such z is redrawn.
    while assoc_ok and done < trials:
        i = rng.randrange(alg.dim)
        j = rng.choice(alg.partners(i))
        ks = [k for k in alg.partners(j) if alg.right_block[k] == alg.left_block[i]]
        if ks:
            x, y, z = (alg.basis_element(t) for t in (i, j, rng.choice(ks)))
            assoc_ok = _sigma_of(alg, x * y, z, G) == _sigma_of(alg, x, y * z, G)
            done += 1
    nondeg = rank == alg.dim
    doc = {"dimension": alg.dim, "rank": rank, "nondegenerate": nondeg, "associative_sample": assoc_ok}
    text = (
        f"sigma-Gram rank {rank} of {alg.dim}; nondegenerate: {nondeg}; "
        f"associativity sample ({trials} triples): {'ok' if assoc_ok else 'FAILED'}"
    )
    _report(args, doc, text)
    return 0 if (nondeg and assoc_ok) else 1


def _sigma_of(alg, x, y, G):
    f = alg.field
    total = f.zero
    for i, a in x.coeffs.items():
        for j, b in y.coeffs.items():
            total = f.add(total, f.mul(f.mul(a, b), G.get(i, {}).get(j, f.zero)))
    return total


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relcell", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("family", help="family spec, e.g. zigzag:A:3, usl2:p=5, annular:n=2")
        p.add_argument("--format", choices=("pretty", "csv", "json"), default="pretty")
        p.add_argument("--out", default=None, help="write output to a file instead of stdout")
        p.add_argument("--max-dim", type=int, default=None, help="size guard (env RELCELL_MAX_DIM)")

    for name, fn in [
        ("build", cmd_build),
        ("verify", cmd_verify),
        ("cartan", cmd_cartan),
        ("decomp", cmd_decomp),
        ("gram", cmd_gram),
        ("simples", cmd_simples),
        ("core", cmd_core),
        ("frobenius", cmd_frobenius),
    ]:
        p = sub.add_parser(name)
        common(p)
        p.set_defaults(fn=fn)
        if name == "core":
            p.add_argument("--eps", type=int, default=0, help="index into the idempotent set E")
        if name == "frobenius":
            p.add_argument("--seed", type=int, default=0, help="seed for the associativity sample")

    p = sub.add_parser("mult")
    common(p)
    p.add_argument("x", help="basis element, e.g. 1-2|v^|1-2")
    p.add_argument("y")
    p.add_argument("--circles", action="store_true", help="include circle decompositions in JSON output")
    p.set_defaults(fn=cmd_mult)

    return parser


def _check_out(out):
    """A missing --out directory, or an --out that names a directory, is a
    usage error, found before any work."""
    if not out:
        return
    if not os.path.isdir(os.path.dirname(out) or "."):
        raise UsageError(f"--out {out}: no such directory")
    if os.path.isdir(out):
        raise UsageError(f"--out {out}: is a directory")


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _check_out(args.out)
        if args.command in ANNULAR_ONLY and parse_family(args.family)[0] != "annular":
            print(ANNULAR_ONLY[args.command], file=sys.stderr)
            return 2
        alg, datum = build_family(args.family, args.max_dim)
        return args.fn(args, alg, datum)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
