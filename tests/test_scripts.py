"""The desk scripts exit 1 when a check they print fails, and 0 otherwise."""

import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

from relcell import celldata
from relcell.algebra import AlgebraTable
from relcell.celldata import AXIOMS

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tables():
    return load("reproduce_tables")


@pytest.fixture
def census(monkeypatch):
    monkeypatch.setattr(sys, "argv", ["k3_census.py", "--products", "20", "--triples", "100"])
    return load("k3_census")


def test_reproduce_tables_passes(tables, capsys):
    assert tables.main() == 0
    assert "failed" not in capsys.readouterr().out


def test_reproduce_tables_fails_on_a_gram_diagonal(tables, monkeypatch, capsys):
    formula = tables.gram_diagonal_formula
    monkeypatch.setattr(tables, "gram_diagonal_formula", lambda p: {**formula(p), 0: [None] * p})
    assert tables.main() == 1
    out = capsys.readouterr().out
    assert out.count("Gram diagonal matches (S!)^2 * binom(lam, S): False") == 3
    assert out.endswith("3 check(s) failed\n")


def test_reproduce_tables_fails_on_the_fastpath(tables, monkeypatch):
    monkeypatch.setattr(tables, "decomposition_fastpath", lambda n, X, X0: None)
    assert tables.main() == 1


def test_reproduce_tables_fails_on_an_axiom(tables, monkeypatch, capsys):
    verify = celldata.verify_cell_datum

    def failing(datum, *args):
        report = verify(datum, *args)
        if datum.name == "usl2:p=3":
            report = report._replace(results=[r._replace(passed=False, witness="x") for r in report.results])
        return report

    monkeypatch.setattr(celldata, "verify_cell_datum", failing)
    assert tables.main() == 1
    assert "1 check(s) failed" in capsys.readouterr().out


def test_k3_census_passes(census, capsys):
    assert census.main() == 0
    # the associativity check rests on the triples whose product is nonzero
    nonzero = re.search(r"(\d+) with \(b_i b_j\) b_k != 0", capsys.readouterr().out)
    assert int(nonzero.group(1)) >= 10


def test_k3_census_fails_on_an_ambiguous_order(census, monkeypatch):
    calls = iter(range(10**6))
    monkeypatch.setattr(census, "multiply_labels", lambda *args, **kwargs: {next(calls): 1})
    assert census.main() == 1


def test_k3_census_fails_on_an_associativity_violation(census, monkeypatch):
    build = census.build_annular

    def subtraction(n, field):
        # b_i b_j = b_{i-j} on the whole basis: (b_i b_j) b_k != b_i (b_j b_k) unless k = 0
        alg, d = build(n, field)
        table = AlgebraTable(field, alg.basis, lambda i, j: {(i - j) % alg.dim: field.one}, alg.star_perm)
        return table, d

    monkeypatch.setattr(census, "build_annular", subtraction)
    assert census.main() == 1


def test_stage_times_on_zigzag_a3(tmp_path, capsys):
    stages = load("stage_times")
    out = tmp_path / "stages.json"
    assert stages.main(["zigzag:A:3", "--json", str(out), "--label", "after"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("zigzag:A:3")
    rec = json.loads(out.read_text())["after"]["specs"]["zigzag:A:3"]
    assert rec["dim"] == 10 and rec["failed_axioms"] == []
    assert set(rec["stages"]) == {"build", "products", "simples", "D", "C"} | {
        f"axiom {axiom}" for axiom, _ in AXIOMS
    }
    assert rec["hom_space_calls"]["D"] > 0


def test_stage_times_restores_the_hom_space_counter():
    from relcell import algebra

    hom_space = algebra.hom_space
    rec = load("stage_times").run_stages("zigzag:A:3")
    assert rec["hom_space_calls"] == {"D": 3}
    assert algebra.hom_space is hom_space


def test_stage_times_reports_the_median_of_its_samples(monkeypatch):
    stages = load("stage_times")
    samples = iter([(0.3, 20.0), (0.1, 22.0), (0.2, 21.0)])

    def child(spec):
        t, hwm = next(samples)
        return {"dim": 10, "failed_axioms": [], "stages": {"build": t, "D": 2 * t},
                "hom_space_calls": {"D": 4}, "vm_hwm_mib": hwm}

    monkeypatch.setattr(stages, "child", child)
    rec = stages.sampled("zigzag:A:3")
    assert rec["samples"] == stages.SAMPLES == 3
    assert rec["stages"] == {"build": 0.2, "D": 0.4}
    assert rec["vm_hwm_mib"] == 21.0 and rec["hom_space_calls"] == {"D": 4}


def test_stage_times_compiles_relcell_once_before_its_children(monkeypatch, capsys):
    stages = load("stage_times")
    events = []
    monkeypatch.setattr(stages.compileall, "compile_dir", lambda path, **kw: events.append(("compile", path)) or True)
    monkeypatch.setattr(stages, "child", lambda spec: events.append(("child", spec)) or {"error": "stub"})
    assert stages.main(["zigzag:A:3", "usl2:p=3"]) == 1
    assert events[0] == ("compile", stages.relcell_dir())
    assert [e for e in events if e[0] == "compile"] == events[:1]
    assert [e[1] for e in events[1:]] == ["zigzag:A:3"] * stages.SAMPLES + ["usl2:p=3"] * stages.SAMPLES


def test_stage_times_collects_once_before_each_stage(monkeypatch):
    stages = load("stage_times")
    events = []
    monkeypatch.setattr(stages.gc, "collect", lambda *args: events.append("collect") or 0)
    clock = stages.time.perf_counter
    monkeypatch.setattr(stages.time, "perf_counter", lambda: events.append("clock") or clock())
    rec = stages.run_stages("zigzag:A:3")
    # each stage: one collection, then its clock starts and stops
    assert events == ["collect", "clock", "clock"] * len(rec["stages"])
