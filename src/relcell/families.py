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
from .field import QQ, is_prime


class UsageError(ValueError):
    """Bad input from the user rather than a failed check."""


class UnknownFamily(UsageError):
    pass


class SizeLimit(Exception):
    pass


DEFAULT_MAX_DIM = 2000


def max_dim_limit(cli_value=None) -> int:
    """The size guard: --max-dim, else RELCELL_MAX_DIM, else the default.
    Either source must be a positive integer; anything else is a UsageError."""
    source, value = "--max-dim", cli_value
    if value is None:
        source, value = "RELCELL_MAX_DIM", os.environ.get("RELCELL_MAX_DIM")
        if not value:
            return DEFAULT_MAX_DIM
    if not str(value).isdecimal() or int(value) < 1:
        raise UsageError(f"{source} must be a positive integer, not {value!r}")
    return int(value)


def _cut(text: str) -> str:
    """text cut to 60 characters, so no message repeats a huge input."""
    return text if len(text) <= 60 else f"{text[:57]}..."


def parse_family(spec: str):
    """(kind, *parameters) of a valid spec, else UnknownFamily, naming the
    spec cut to 60 chars.  A usl2 P is only checked to be an odd integer
    >= 3 here: build_family tests its primality once P^3 has passed the
    size guard."""
    kind, _, rest = spec.partition(":")
    try:
        if kind == "zigzag":
            variant, n = rest.split(":")
            return ("zigzag", variant, zigzag.QuiverSpec(variant, int(n)).n)
        if kind == "usl2" and rest.startswith("p=") and (p := int(rest[2:])) >= 3 and p % 2:
            return ("usl2", p)
        if kind == "annular" and rest.startswith("n=") and (n := int(rest[2:])) >= 1:
            return ("annular", n)
    except ValueError as exc:  # not a number, or QuiverSpec: unknown variant, n < 3
        raise UnknownFamily(f"bad family spec {_cut(spec)!r}: {_cut(str(exc))}") from exc
    raise UnknownFamily(
        f"bad family spec {_cut(spec)!r}: expected zigzag:A|cycS|cycL:n (n >= 3), "
        "usl2:p=P (P an odd prime) or annular:n=N (N >= 1)"
    )


def _dimension(x: int, exact: bool = True) -> str:
    """A dimension x, or a lower bound x on it, in full up to 30 digits, else
    as the power of two at or below x: no huge integer becomes a string."""
    if x >= 10**30:
        return f"at least 2^{x.bit_length() - 1}"
    return str(x) if exact else f"at least {x}"


def build_family(spec: str, max_dim=None) -> tuple[AlgebraTable, CellDatum]:
    """The family's algebra and datum; SizeLimit, before anything is built,
    if its dimension exceeds the size guard (naming the spec cut to 60 chars)."""
    kind, *params = parse_family(spec)
    limit = max_dim_limit(max_dim)
    name = _cut(spec)
    if kind == "zigzag":
        quiver = zigzag.QuiverSpec(*params)
        dim, build = zigzag.algebra_dimension(quiver), lambda: zigzag.build_zigzag(quiver, QQ)
    elif kind == "usl2":
        dim, build = params[0] ** 3, lambda: usl2.build_usl2(params[0])
    else:
        n = params[0]
        # counting grows about tenfold per n; from n = 5 on, the bound refuses first, read at the
        # first m <= n where it passes the limit and 30 digits (it grows with n), so none is huge
        m = min(n, 5)
        while m < n and annular.dimension_lower_bound(m) <= max(limit, 10**30):
            m += 1
        if n >= 5 and (bound := annular.dimension_lower_bound(m)) > limit:
            raise SizeLimit(f"{name} has dimension {_dimension(bound, exact=False)} > limit {limit}")
        dim, build = annular.algebra_dimension(n), lambda: annular.build_annular(n, QQ)
    if dim > limit:
        raise SizeLimit(f"{name} has dimension {_dimension(dim)} > limit {limit}")
    if kind == "usl2" and not is_prime(params[0]):
        raise UnknownFamily(f"bad family spec {name!r}: {params[0]} is not prime")
    return build()
