"""The kernel contract: each distinct product is one read-only dict that
holds no zero coefficient, and an empty product is ZERO_PRODUCT.

The table stores what a kernel returns, without reading it, so these tests
hold each kernel to the contract: its raw products on every unmasked pair,
and the materialized table, which holds no two distinct dicts that are
equal.
"""

import pytest

from relcell.algebra import ZERO_PRODUCT, table_to_json
from relcell.celldata import core_subalgebra
from relcell.families import build_family
from relcell.usl2 import structure_constants

from reference import table_from_json


def from_json(spec):
    alg, _ = build_family(spec)
    return table_from_json(table_to_json(alg))


def core(spec, eps):
    return core_subalgebra(build_family(spec)[1], eps)[0]


TABLES = {
    "usl2:p=3": lambda: build_family("usl2:p=3")[0],
    "usl2:p=5": lambda: build_family("usl2:p=5")[0],
    "usl2:p=7": lambda: build_family("usl2:p=7")[0],
    "zigzag:A:4": lambda: build_family("zigzag:A:4")[0],
    "zigzag:cycS:4": lambda: build_family("zigzag:cycS:4")[0],
    "zigzag:cycL:4": lambda: build_family("zigzag:cycL:4")[0],
    "annular:n=1": lambda: build_family("annular:n=1")[0],
    "annular:n=2": lambda: build_family("annular:n=2")[0],
    "json:annular:n=2": lambda: from_json("annular:n=2"),
    "json:usl2:p=5": lambda: from_json("usl2:p=5"),
    "core:usl2:p=5:eps0": lambda: core("usl2:p=5", 0),
    "core:zigzag:cycS:4:eps1": lambda: core("zigzag:cycS:4", 1),
}


@pytest.mark.parametrize("name", TABLES)
def test_kernel_products_keep_the_contract(name):
    alg = TABLES[name]()
    for i in range(alg.dim):
        for j in alg.partners(i):
            got = alg._mult_fn(i, j)
            assert all(got.values()), (name, i, j)
            assert got or got is ZERO_PRODUCT, (name, i, j)


def stored_products(alg):
    return [sc for row in alg.materialize() for sc in row]


@pytest.mark.parametrize("name", TABLES)
def test_materialized_products_keep_the_contract(name):
    alg = TABLES[name]()
    stored = stored_products(alg)
    distinct = list({id(sc): sc for sc in stored if sc}.values())
    assert distinct, name
    # no two distinct stored objects are equal
    assert len({frozenset(sc.items()) for sc in distinct}) == len(distinct)
    assert all(all(sc.values()) for sc in distinct)
    assert all(sc is ZERO_PRODUCT for sc in stored if not sc)


def test_usl2_p11_products_are_built_once():
    alg, _ = build_family("usl2:p=11")
    nonzero = [sc for sc in stored_products(alg) if sc]
    assert len(nonzero) == 89133
    assert len({id(sc) for sc in nonzero}) == 21973


@pytest.mark.parametrize("p", [5, 7])
def test_usl2_rule_returns_one_object_per_product(p):
    alg, _ = build_family(f"usl2:p={p}")
    rule = structure_constants(p, alg.field)
    for i in range(alg.dim):
        for j in alg.partners(i):
            got = rule(i, j)
            assert rule(i, j) is got
            assert got == alg.mult_basis(i, j)
