"""The names perfbench/layers.py wraps by lookup must exist in relcell.

The benchmark finds relcell's stages and layers by (module, attribute); a
rename or deletion there would otherwise only show as failed benchmark jobs.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

from relcell.algebra import ZERO_PRODUCT, AlgebraTable, Element
from relcell.families import build_family

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = load_layers()


@pytest.mark.parametrize("mod, attr", sorted({**layers.STAGES, **layers.LAYER_SPANS}))
def test_wrapped_name_resolves(mod, attr):
    assert callable(getattr(importlib.import_module(f"relcell.{mod}"), attr))


def test_patched_methods_resolve():
    assert callable(importlib.import_module("relcell.linalg").Matrix.rref)
    assert callable(importlib.import_module("relcell.usl2").structure_constants)
    assert callable(Element.__mul__)
    params = list(inspect.signature(AlgebraTable.__init__).parameters)
    assert params[:4] == ["self", "field", "basis", "mult_fn"]
    # the block mask is a keyword after name, outside the wrapped prefix
    assert params.index("blocks") > params.index("name")
    usl2 = importlib.import_module("relcell.usl2")
    assert list(inspect.signature(usl2.structure_constants).parameters) == ["p", "field"]
    rule = usl2.structure_constants(3, usl2.PrimeField(3))
    assert list(inspect.signature(rule).parameters) == ["a", "b"]
    for spec in ("zigzag:A:3", "usl2:p=3", "annular:n=1"):
        alg, _ = build_family(spec)
        alg.materialize()
        assert type(alg._memo) is dict


@pytest.mark.parametrize("spec", ["zigzag:A:3", "usl2:p=3", "annular:n=1"])
def test_memo_reads_out_every_unmasked_pair(spec):
    # layers.py counts memo entries and zero products off `_memo`
    alg, _ = build_family(spec)
    alg.materialize()
    memo = alg._memo
    left, right = alg.left_block, alg.right_block
    unmasked = sum(1 for i in range(alg.dim) for j in range(alg.dim) if right[i] == left[j])
    assert len(memo) == unmasked
    assert all(v is ZERO_PRODUCT for v in memo.values() if not v)
