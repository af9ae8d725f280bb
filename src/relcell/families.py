"""Registry mapping family spec strings to built algebras with cell data.

Spec strings: "zigzag:A:3", "zigzag:cycS:4", "zigzag:cycL:5",
"usl2:p=5", "annular:n=2".  Zigzag and annular families are built over Q;
the restricted enveloping algebra lives over its own prime field.
"""

from __future__ import annotations

import os

from . import annular, usl2, zigzag
from .algebra import AlgebraTable
from .celldata import CellDatum
from .field import QQ


class UnknownFamily(ValueError):
    pass


def max_dim_limit(cli_value=None) -> int:
    if cli_value is not None:
        return cli_value
    env = os.environ.get("RELCELL_MAX_DIM")
    if env:
        return int(env)
    return annular.DEFAULT_MAX_DIM


def parse_family(spec: str):
    parts = spec.split(":")
    kind = parts[0]
    if kind == "zigzag" and len(parts) == 3:
        variant, n = parts[1], int(parts[2])
        if variant not in zigzag.VARIANTS:
            raise UnknownFamily(f"unknown zigzag variant {variant!r}")
        return ("zigzag", variant, n)
    if kind == "usl2" and len(parts) == 2 and parts[1].startswith("p="):
        return ("usl2", int(parts[1][2:]))
    if kind == "annular" and len(parts) == 2 and parts[1].startswith("n="):
        return ("annular", int(parts[1][2:]))
    raise UnknownFamily(f"cannot parse family spec {spec!r}")


def build_family(spec: str, max_dim=None) -> tuple[AlgebraTable, CellDatum]:
    parsed = parse_family(spec)
    limit = max_dim_limit(max_dim)
    if parsed[0] == "zigzag":
        _, variant, n = parsed
        alg, datum = zigzag.build_zigzag(zigzag.QuiverSpec(variant, n), QQ)
    elif parsed[0] == "usl2":
        p = parsed[1]
        if p**3 > limit:
            raise annular.SizeLimit(f"usl2 p={p} has dimension {p**3} > limit {limit}")
        alg, datum = usl2.build_usl2(p)
    else:
        n = parsed[1]
        alg, datum = annular.build_annular(n, QQ, max_dim=limit)
    if alg.dim > limit:
        raise annular.SizeLimit(f"{spec} has dimension {alg.dim} > limit {limit}")
    return alg, datum
