"""The names perfbench/layers.py wraps by lookup must exist in relcell.

The benchmark finds relcell's stages and layers by (module, attribute); a
rename or deletion there would otherwise only show as failed benchmark jobs.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

from relcell.algebra import AlgebraTable, Element
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
