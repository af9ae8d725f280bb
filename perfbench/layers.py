"""Outside-in timing of relcell's layers.

Nothing here edits relcell's source: every measurement comes from replacing a
public function (or method) of a relcell module with a wrapper, in every
relcell module namespace that holds the same function object, so calls made
through ``from .x import f`` copies are caught too.

Two levels exist:

* stage markers (always on): the few calls per job that mark a pipeline
  stage.  Entering one writes ``stage <name>`` to stderr, so a job killed at
  its wall-clock cap still says where it was, and the return of the first
  ``build_family`` call stamps the end of set-up.
* the tracer (``--trace 1`` only): spans with self and inclusive time on the
  stage and layer functions, plus counters on the hot calls
  (``Element.__mul__``, each table's product kernel) where a timed wrapper
  would cost more than the work.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

STAGES = {
    # (module, attribute): span name
    ("families", "build_family"): "families.build",
    ("celldata", "verify_cell_datum"): "celldata.verify",
    ("celldata", "simple_set"): "celldata.simples",
    ("celldata", "decomposition_matrix"): "celldata.decomp",
    ("celldata", "cartan_matrix"): "celldata.cartan",
    ("celldata", "is_semisimple"): "celldata.semisimple",
}

LAYER_SPANS = {
    ("cli", "main"): "cli.main",
    ("algebra", "left_ideal_module"): "algebra.left_ideal",
    ("algebra", "hom_space"): "algebra.hom_space",
    ("algebra", "composition_multiplicities"): "algebra.composition",
    ("zigzag", "compose"): "zigzag.compose",
    ("annular", "multiply_labels"): "annular.surgery",
    ("diagrams", "classify_diagram"): "diagrams.classify",
}


def _modules():
    return {name[len("relcell."):]: mod for name, mod in sys.modules.items()
            if name.startswith("relcell.") and mod is not None}


def _replace_everywhere(orig, wrapped):
    """Rebind every relcell module attribute that is `orig` to `wrapped`."""
    for mod in _modules().values():
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapped)


class StageMarks:
    """Stage markers on stderr and the set-up end stamp (time.monotonic)."""

    def __init__(self):
        self.setup_end = None
        self.stage = "import"
        self.on_setup_end = None

    def mark(self, stage: str):
        self.stage = stage
        sys.stderr.write(f"stage {stage}\n")
        sys.stderr.flush()

    def install(self):
        mods = _modules()
        for (mod, attr), name in STAGES.items():
            orig = getattr(mods[mod], attr)
            _replace_everywhere(orig, self._wrap(name, orig))

    def _wrap(self, name, fn):
        def marked(*args, **kwargs):
            self.mark(name)
            out = fn(*args, **kwargs)
            if name == "families.build" and self.setup_end is None:
                self.setup_end = time.monotonic()
                if self.on_setup_end is not None:
                    self.on_setup_end()
            return out

        return marked


class Tracer:
    """Spans (self and inclusive seconds, call counts) and counters."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)  # outermost calls only
        self.count = defaultdict(int)
        self._stack = []  # one [child seconds] cell per open span
        self._depth = defaultdict(int)
        self._classify_args = set()
        self._tables = []

    # -- wrappers ----------------------------------------------------------

    def span(self, name, fn, on_call=None, on_result=None):
        calls, self_s, incl_s = self.calls, self.self_s, self.incl_s
        stack, depth = self._stack, self._depth
        clock = time.perf_counter

        def traced(*args, **kwargs):
            calls[name] += 1
            if on_call is not None:
                on_call(args)
            cell = [0.0]
            stack.append(cell)
            depth[name] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[name] -= 1
                self_s[name] += dt - cell[0]
                if depth[name] == 0:
                    incl_s[name] += dt
                if stack:
                    stack[-1][0] += dt
            if on_result is not None:
                on_result(out)
            return out

        return traced

    def install(self):
        mods = _modules()
        for (mod, attr), name in {**STAGES, **LAYER_SPANS}.items():
            orig = getattr(mods[mod], attr)
            hooks = {}
            if name == "diagrams.classify":
                hooks["on_call"] = lambda args: self._classify_args.add(tuple(args))
            if name == "annular.surgery":
                hooks["on_result"] = self._count_nonzero("annular.surgery_nonzero")
            _replace_everywhere(orig, self.span(name, orig, **hooks))

        Matrix = mods["linalg"].Matrix
        Matrix.rref = self.span("linalg.rref", Matrix.rref, on_call=self._rref_cells)

        usl2 = mods["usl2"]
        rule_factory = usl2.structure_constants

        def structure_constants(*args, **kwargs):
            return self.span("usl2.rule", rule_factory(*args, **kwargs))

        _replace_everywhere(rule_factory, structure_constants)

        algebra = mods["algebra"]
        Element, AlgebraTable = algebra.Element, algebra.AlgebraTable
        Element.__mul__ = self._counted("algebra.element_muls", Element.__mul__)
        table_init = AlgebraTable.__init__
        tables = self._tables
        counted = self._counted

        def __init__(alg, field, basis, mult_fn, *args, **kwargs):
            table_init(alg, field, basis, counted("algebra.products", mult_fn), *args, **kwargs)
            tables.append(alg)

        AlgebraTable.__init__ = __init__

    def _counted(self, name, fn):
        count = self.count

        def counted(*args, **kwargs):
            count[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _count_nonzero(self, name):
        count = self.count

        def on_result(out):
            if out:
                count[name] += 1

        return on_result

    def _rref_cells(self, args):
        m = args[0]
        self.count["linalg.rref_cells"] += m.rows * m.cols

    # -- read-out ----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer figures for this process (sums over its calls)."""
        memo = [getattr(t, "_memo", {}) for t in self._tables]
        entries = sum(len(m) for m in memo)
        zeros = sum(1 for m in memo for v in m.values() if not v)
        return {
            "celldata.verify_s": self.self_s["celldata.verify"],
            "celldata.simples_s": self.self_s["celldata.simples"],
            "celldata.decomp_s": self.self_s["celldata.decomp"],
            "celldata.cartan_s": self.self_s["celldata.cartan"],
            "celldata.verify_total_s": self.incl_s["celldata.verify"],
            "celldata.simples_total_s": self.incl_s["celldata.simples"],
            "celldata.decomp_total_s": self.incl_s["celldata.decomp"],
            "celldata.cartan_total_s": self.incl_s["celldata.cartan"],
            "algebra.left_ideal_calls": self.calls["algebra.left_ideal"],
            "algebra.left_ideal_s": self.incl_s["algebra.left_ideal"],
            "algebra.hom_space_s": self.incl_s["algebra.hom_space"],
            "algebra.composition_s": self.incl_s["algebra.composition"],
            "linalg.rref_calls": self.calls["linalg.rref"],
            "linalg.rref_s": self.incl_s["linalg.rref"],
            "linalg.rref_cells": self.count["linalg.rref_cells"],
            "algebra.products": self.count["algebra.products"],
            "algebra.memo_entries": entries,
            "algebra.memo_zeros": zeros,
            "algebra.element_muls": self.count["algebra.element_muls"],
            "usl2.rule_calls": self.calls["usl2.rule"],
            "usl2.rule_s": self.incl_s["usl2.rule"],
            "zigzag.compose_calls": self.calls["zigzag.compose"],
            "zigzag.compose_s": self.incl_s["zigzag.compose"],
            "annular.surgery_calls": self.calls["annular.surgery"],
            "annular.surgery_nonzero": self.count["annular.surgery_nonzero"],
            "annular.surgery_s": self.incl_s["annular.surgery"],
            "diagrams.classify_calls": self.calls["diagrams.classify"],
            "diagrams.classify_distinct": len(self._classify_args),
            "families.build_s": self.incl_s["families.build"],
            "cli.main_s": self.self_s["cli.main"],
        }
