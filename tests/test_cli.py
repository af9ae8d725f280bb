import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from relcell.algebra import AlgebraTable
from relcell.cli import main
from relcell.families import SizeLimit, build_family
from relcell.field import QQ

from reference import reversed_order_datum


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cartan_csv_usl2(capsys):
    code, out, _ = run(capsys, "cartan", "usl2:p=3", "--format", "csv")
    assert code == 0
    assert out == "2,2,0\n2,2,0\n0,0,1\n"


def test_verify_cycs3(capsys):
    code, out, _ = run(capsys, "verify", "zigzag:cycS:3")
    assert code == 0
    assert "FAIL" not in out and "PASS" in out


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "annular:n=1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"axioms", "X0", "simple_dims", "D", "C", "reciprocity_ok", "semisimple"}
    assert doc["C"] == [[2, 2], [2, 2]]
    assert doc["semisimple"] is False
    assert doc["reciprocity_ok"] is True


def test_verify_json_failed_axioms_certify_nothing(capsys, monkeypatch):
    import relcell.celldata as celldata
    import relcell.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("a stage after the axioms ran on failed data")

    monkeypatch.setattr(cli, "build_family", lambda *args: reversed_order_datum(QQ))
    for stage in ("simple_set", "decomposition_matrix", "cartan_matrix", "is_semisimple"):
        monkeypatch.setattr(celldata, stage, never)
    code, out, _ = run(capsys, "verify", "zigzag:A:3", "--format", "json")
    assert code == 1
    doc = json.loads(out)
    failed = {a["axiom"] for a in doc["axioms"] if not a["passed"]}
    assert failed == {"c:idem-props-1", "d:mult-left"}
    for key in ("X0", "simple_dims", "D", "C", "reciprocity_ok", "semisimple"):
        assert doc[key] is None, key


def uv_mutant():
    """usl2:p=3 with the C(0;U,V)-coefficient of C(0;U,S) * C(0;S,V) changed
    for U = 0, S = V = 1 only, and its star mirror changed alike, so that
    only axiom (d) sees it: the Gram form read at U = V = M(0)[0] is unchanged."""
    alg, d = build_family("usl2:p=3")
    i, j, k = (d.label_index(0, S, T) for S, T in ((0, 1), (1, 1), (0, 1)))
    star = alg.star_perm
    flips = {(i, j): k, (star[j], star[i]): star[k]}

    def mult(a, b):
        out = dict(alg._mult_fn(a, b))
        t = flips.get((a, b))
        if t is not None and out.pop(t, None) is None:
            out[t] = alg.field.one
        return out

    table = AlgebraTable(alg.field, alg.basis, mult, star, blocks=(alg.left_block, alg.right_block))
    return table, d._replace(alg=table, E=[table.element(e.coeffs) for e in d.E])


FAILING = {
    "reversed-order": (lambda: reversed_order_datum(QQ), {"c:idem-props-1", "d:mult-left"}),
    "uv-mutant": (uv_mutant, {"d:mult-left"}),
}
STAGES = ("simple_set", "cell_module", "decomposition_matrix", "cartan_matrix", "core_subalgebra")


@pytest.mark.parametrize("command", ["cartan", "decomp", "simples", "gram", "core"])
@pytest.mark.parametrize("datum", sorted(FAILING))
def test_failed_axioms_refused_before_any_stage(capsys, monkeypatch, command, datum):
    import relcell.celldata as celldata
    import relcell.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("a stage after the axioms ran on failed data")

    build, failing = FAILING[datum]
    monkeypatch.setattr(cli, "build_family", lambda *args: build())
    for stage in STAGES:
        monkeypatch.setattr(celldata, stage, never)
        if hasattr(cli, stage):
            monkeypatch.setattr(cli, stage, never)
    code, out, err = run(capsys, command, "zigzag:A:3")
    assert code == 1 and out == ""
    assert "AxiomFailure" in err and "AssertionError" not in err
    named = {line.partition(": FAIL")[0] for line in err.splitlines() if ": FAIL" in line}
    assert named == failing, err


def test_uv_mutant_keeps_the_gram_form():
    # simple_set reads Phi only at U = V = M(0)[0], so the axioms are all that see this fault
    from relcell.celldata import simple_set

    _, mutant = uv_mutant()
    _, d = build_family("usl2:p=3")
    assert simple_set(mutant).grams[0] == simple_set(d).grams[0]


def test_core_eps_usage_error_before_axioms(capsys, monkeypatch):
    import relcell.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("the axioms ran on a usage error")

    monkeypatch.setattr(cli, "build_family", lambda *args: reversed_order_datum(QQ))
    monkeypatch.setattr(cli, "verify_cell_datum", never)
    code, out, err = run(capsys, "core", "zigzag:A:3", "--eps", "7")
    assert code == 2 and out == ""
    assert "--eps" in err


def test_verify_json_reciprocity_usl2(capsys):
    # usl2 registers no primitive idempotents; C is checked by the Peirce ranks of E
    code, out, _ = run(capsys, "verify", "usl2:p=3", "--format", "json")
    assert code == 0
    assert json.loads(out)["reciprocity_ok"] is True


def test_mult_annular(capsys):
    code, out, _ = run(capsys, "mult", "annular:n=1", "1-2|v^|1-2", "1-2|v^|1-2")
    assert code == 0
    assert out.strip() == "1-2|v^|1-2"


def test_mult_zero(capsys):
    code, out, _ = run(capsys, "mult", "annular:n=1", "1-2|^v|1-2", "1-2|^v|1-2")
    assert code == 0
    assert out.strip() == "0"


def test_mult_json_circles(capsys):
    code, out, _ = run(
        capsys, "mult", "annular:n=1", "1~2|^v|1~2", "1~2|^v|1~2", "--format", "json", "--circles"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc[0]["term"] == "1~2|^v|1~2"
    assert doc[0]["circles"]["circles"][0]["orientation"] == "anticlockwise"


def test_usage_error_exit_2(capsys):
    code, _, err = run(capsys, "cartan", "nosuch:thing")
    assert code == 2


@pytest.mark.parametrize("spec", ["usl2:p=2", "usl2:p=9", "zigzag:A:2", "annular:n=0"])
def test_invalid_family_parameter_exit_2(capsys, spec):
    code, _, err = run(capsys, "cartan", spec)
    assert code == 2
    assert spec in err


@pytest.mark.parametrize("prefix, digit", [("annular:n=1", "0"), ("usl2:p=", "1"), ("zigzag:A:", "9")])
def test_long_spec_usage_error_is_short(capsys, prefix, digit):
    # int() refuses 5,000 digits; the message names the spec cut to 60 characters
    code, out, err = run(capsys, "verify", prefix + digit * 5000)
    assert code == 2
    assert out == ""
    assert len(err.encode()) < 200
    assert prefix in err


@pytest.mark.parametrize("value", ["many", "0", "-5", "1e3"])
def test_bad_max_dim_env_exit_2(capsys, monkeypatch, value):
    monkeypatch.setenv("RELCELL_MAX_DIM", value)
    code, _, err = run(capsys, "cartan", "zigzag:A:3")
    assert code == 2
    assert "RELCELL_MAX_DIM" in err


@pytest.mark.parametrize("value", ["0", "-5"])
def test_bad_max_dim_flag_exit_2(capsys, value):
    code, out, err = run(capsys, "build", "zigzag:A:3", "--max-dim", value)
    assert code == 2
    assert out == ""
    assert "--max-dim must be a positive integer" in err


def test_internal_error_exit_1(capsys, monkeypatch):
    import relcell.celldata as celldata

    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr(celldata, "peirce_dims", broken)  # called only by cartan_matrix
    code, _, err = run(capsys, "cartan", "zigzag:A:3")
    assert code == 1
    assert "KeyError" in err


def test_out_into_missing_directory_exit_2(tmp_path, capsys, monkeypatch):
    import relcell.cli as cli

    def never(*args):
        raise AssertionError("build_family ran before --out was checked")

    monkeypatch.setattr(cli, "build_family", never)
    target = tmp_path / "missing" / "x.txt"
    code, out, err = run(capsys, "verify", "usl2:p=7", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and str(target) in err
    assert list(tmp_path.iterdir()) == []


def test_out_naming_a_directory_exit_2(tmp_path, capsys, monkeypatch):
    import relcell.cli as cli

    def never(*args):
        raise AssertionError("build_family ran before --out was checked")

    monkeypatch.setattr(cli, "build_family", never)
    (tmp_path / "kept.txt").write_text("kept\n")
    code, out, err = run(capsys, "verify", "zigzag:A:3", "--out", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and str(tmp_path) in err
    assert [p.name for p in tmp_path.iterdir()] == ["kept.txt"]
    assert (tmp_path / "kept.txt").read_text() == "kept\n"


REFUSALS = [
    (["mult", "zigzag:A:3", "x", "y"], "mult takes diagram notation and needs an annular family"),
    (["frobenius", "usl2:p=9"], "the Frobenius form is defined for annular families"),
]


@pytest.mark.parametrize("argv, message", REFUSALS, ids=[argv[0] for argv, _ in REFUSALS])
def test_annular_only_refused_before_build(capsys, monkeypatch, argv, message):
    import relcell.cli as cli

    def never(*args):
        raise AssertionError("build_family ran for a refused family")

    monkeypatch.setattr(cli, "build_family", never)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", message + "\n")


def test_frobenius_bad_spec_is_a_usage_error(capsys):
    # usl2:p=4 fails parse_family before the annular-only refusal is read
    code, out, err = run(capsys, "frobenius", "usl2:p=4")
    assert code == 2 and out == ""
    assert err.startswith("error: bad family spec 'usl2:p=4'")


def test_mult_rejects_bad_notation(capsys):
    code, _, err = run(capsys, "mult", "annular:n=1", "1-2|vv|1-2", "1-2|v^|1-2")
    assert code == 2


def test_max_dim_guard(capsys):
    code, _, err = run(capsys, "build", "annular:n=3", "--max-dim", "100")
    assert code == 1
    assert "1664" in err


GUARD_PROBES = [
    "usl2:p=1000000000000000003",  # a prime: trial division would run for hours
    "annular:n=3000000",  # C(2n, n) 4^n has millions of digits
    "annular:n=100000",
    "annular:n=3000",
    "zigzag:cycL:1" + "0" * 1500,  # n^3 has more than 4300 digits
]


@pytest.mark.parametrize("spec", GUARD_PROBES, ids=lambda spec: spec[:30])
def test_size_guard_refuses_at_once_with_a_short_message(spec):
    start = time.perf_counter()
    with pytest.raises(SizeLimit) as exc:
        build_family(spec)
    assert time.perf_counter() - start < 1
    assert len(str(exc.value)) < 200


def test_composite_p_above_the_guard_is_a_size_limit(capsys):
    # P^3 is compared with the guard before P is tested for primality
    code, _, err = run(capsys, "build", "usl2:p=15")
    assert code == 1
    assert "SizeLimit" in err and "3375" in err


def test_env_max_dim(capsys, monkeypatch):
    monkeypatch.setenv("RELCELL_MAX_DIM", "5")
    code, _, err = run(capsys, "build", "annular:n=1")
    assert code == 1


def test_decomp_and_simples(capsys):
    code, out, _ = run(capsys, "decomp", "zigzag:A:3", "--format", "csv")
    assert code == 0
    assert out == "1,0,0\n1,1,0\n0,1,1\n0,0,1\n"
    code, out, _ = run(capsys, "simples", "usl2:p=3", "--format", "json")
    assert json.loads(out)["dims"] == {"0": 1, "1": 2, "2": 3}


def test_gram_json(capsys):
    code, out, _ = run(capsys, "gram", "usl2:p=3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["2"] == [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "1"]]


def test_core_subcommand(capsys):
    code, out, _ = run(capsys, "core", "usl2:p=3", "--eps", "0", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["cellular"] is True and doc["dimension"] == 3


def test_frobenius_subcommand(capsys):
    code, out, _ = run(capsys, "frobenius", "annular:n=1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["nondegenerate"] is True and doc["rank"] == 8


def test_frobenius_seed(capsys):
    code, _, _ = run(capsys, "frobenius", "annular:n=1", "--seed", "3")
    assert code == 0


def test_frobenius_reports_a_perturbed_sigma(capsys, monkeypatch):
    # sigma'(x_i, x_j) = (i + 1) sigma(x_i, x_j) keeps the rank but not
    # sigma(x y, z) = sigma(x, y z); a uniform sample on annular:n=2 sees
    # sigma(x y, z) = 0 on every triple and misses it
    from relcell import cli

    gram = cli.frobenius_gram

    def perturbed(alg):
        f = alg.field
        return {i: {j: f.mul(f.from_int(i + 1), c) for j, c in row.items()} for i, row in gram(alg).items()}

    monkeypatch.setattr(cli, "frobenius_gram", perturbed)
    code, out, _ = run(capsys, "frobenius", "annular:n=2")
    assert code == 1
    assert out == "sigma-Gram rank 108 of 108; nondegenerate: True; associativity sample (200 triples): FAILED\n"


def test_help_keeps_the_examples_one_per_line(capsys):
    from relcell import cli

    code, out, _ = run(capsys, "--help")
    assert code == 0
    examples = [line for line in cli.__doc__.splitlines() if line.strip().startswith("relcell ")]
    assert len(examples) == 3
    lines = out.splitlines()
    for example in examples:
        assert example in lines


def test_seed_only_on_frobenius(capsys):
    code, _, _ = run(capsys, "cartan", "usl2:p=3", "--seed", "3")
    assert code == 2


def test_build_pretty(capsys):
    code, out, _ = run(capsys, "build", "zigzag:A:3")
    assert code == 0
    assert "dimension: 10" in out


def test_deterministic_output(capsys):
    _, out1, _ = run(capsys, "verify", "usl2:p=3", "--format", "json")
    _, out2, _ = run(capsys, "verify", "usl2:p=3", "--format", "json")
    assert out1 == out2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "cartan.csv"
    code, out, _ = run(capsys, "cartan", "usl2:p=3", "--format", "csv", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "2,2,0\n2,2,0\n0,0,1\n"

# modules that `import relcell.cli` must not load: dataclasses and the
# source-inspection modules it pulls in, and typing
HEAVY_STDLIB = {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing"}
# the relcell modules that perfbench/layers.py looks up in sys.modules
LAYER_MODULES = {"families", "celldata", "cli", "algebra", "linalg", "usl2", "zigzag", "annular", "diagrams"}


def test_import_cli_module_set():
    src = Path(__file__).resolve().parent.parent / "src"
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import relcell.cli\n"
        "print(relcell.__file__)\n"
        "print(*sorted(set(sys.modules) - before), sep='\\n')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    where, *loaded = done.stdout.splitlines()
    assert Path(where).resolve().is_relative_to(src)
    assert HEAVY_STDLIB.isdisjoint(loaded), sorted(HEAVY_STDLIB.intersection(loaded))
    assert {f"relcell.{name}" for name in LAYER_MODULES} <= set(loaded)


# verify --format json on the 13 small-rank table families, as printed at
# the commit that recorded them: (spec, byte length, sha256).  The report
# holds only ints, strings and booleans, so the bytes do not depend on the
# Python version.
VERIFY_JSON_DIGESTS = [
    ("zigzag:A:3", 962, "812883b6a031944bb20ee975b29e90423b04aca95b060da9356c44cda8ab2b71"),
    ("zigzag:A:4", 1085, "6e2e1e5d29f89c2fb42855ebac64768b5b883dec917238eee0d6686ed518b3fa"),
    ("zigzag:A:5", 1232, "4236c06ac75fa667217961ea347fac254e85c231ca9545edff12864d2aae28a0"),
    ("zigzag:cycS:3", 936, "e0bc785c757f44b32f6c3bea4602fae649542e375b36201062e268ae565e766f"),
    ("zigzag:cycS:4", 1053, "b0c40da6d96538ae55071f203e17a461b269797297411f0781d353121b9c673e"),
    ("zigzag:cycS:5", 1194, "2cd68ffb9c95e221c89a670e48a60a7e1a7e7b66d08d5294f5b751380c9023c4"),
    ("zigzag:cycL:3", 936, "e35b054b662d61212909c4bf54079fb2686a9c6534fec570cb108215cb1061f8"),
    ("zigzag:cycL:4", 1053, "aad7b7787aaa65375c939b79965c7bba1cefde126ea6a5063a26e9483beae24a"),
    ("usl2:p=3", 936, "8821e493c254a10a46292dbad3198e471b8d9e42f1bb0c33ea95fc572e60b045"),
    ("usl2:p=5", 1194, "6184565225ab0d8086c965b6fa1d76a778118acc7b7921b05ee975c579535905"),
    ("usl2:p=7", 1548, "4ef4b1146044a18e74dacaa85d142fdcbe37c5304f7281acd28f2966b5433218"),
    ("annular:n=1", 847, "4b98ec8cf1dd2f9dd24a40a4b55dbc28899b9c36c5d6d3c6881fe5c92f5b459e"),
    ("annular:n=2", 1395, "d2061a41c67fb9152eef4a104c21ef0afd4ef480b789adf8b1d4c462cd73051f"),
    # radical series on larger modules than the table families reach
    ("usl2:p=11", 2548, "35f3ac04c8f3491b7a9ae76c0dc3e22a5b068f79ce3e9e63106327a57f986e03"),
    ("zigzag:cycL:6", 1359, "376574b00fb3e2490f3cdceda2f4fe6bd2fea7f59000d296b1d4ced98ec6f014"),
]


@pytest.mark.parametrize("spec, size, digest", VERIFY_JSON_DIGESTS)
def test_verify_json_pinned(capsys, spec, size, digest):
    code, out, _ = run(capsys, "verify", spec, "--format", "json")
    assert code == 0
    out = out.encode()
    assert (len(out), hashlib.sha256(out).hexdigest()) == (size, digest)


# gram in each format on one family per kind, as printed at the commit that
# recorded them: (spec, format, byte length, sha256).
GRAM_DIGESTS = [
    ("zigzag:cycL:4", "pretty", 144, "a2fe1529a4352a4f4841db6af1742c6ff3848af55f5a2d53ba1c1728454d9563"),
    ("zigzag:cycL:4", "csv", 144, "27558a13af52beedfa6b0064321c297c80dd42e84c46fae3e3bb44655ad58ea9"),
    ("zigzag:cycL:4", "json", 687, "748b4485dcaad1ac2ebff9792d3df994e816676b90c74d59e19cb43686e9a47b"),
    ("usl2:p=7", "pretty", 714, "3fa89f3fb180f35daf49efaaca3b6fd64fdd3712a6f04b0937415bd41196b1d2"),
    ("usl2:p=7", "csv", 714, "b65ac5d855f767617a5660283ea637e64ce5f7dc4f7738332fe35dd7b8117897"),
    ("usl2:p=7", "json", 3216, "5f23d4a02ec5739b2ce49ed437bfd88adf53561e52c2deb582a4627b9fb2d306"),
    ("annular:n=2", "pretty", 258, "deb0d2b36c8b3e618c2515d8092cd1982f3f0d52f49ed188a3d222b0a5e12f6d"),
    ("annular:n=2", "csv", 258, "36a09f7a8cdc0de5ba6215b0a8cee6c8842d193cfb71fd171f2ac764793c19d5"),
    ("annular:n=2", "json", 1143, "e9822c8c7bba4e23bdc4a5ddb493905e9d92e5973b7dc115e3ce353bac3a7e58"),
]


@pytest.mark.parametrize("spec, fmt, size, digest", GRAM_DIGESTS)
def test_gram_pinned(capsys, spec, fmt, size, digest):
    code, out, _ = run(capsys, "gram", spec, "--format", fmt)
    assert code == 0
    out = out.encode()
    assert (len(out), hashlib.sha256(out).hexdigest()) == (size, digest)


# gram in each format and simples in pretty and json on the 13 small-rank
# table families, as printed at the commit that recorded them, before the
# Gram forms were read off the cell modules: (command, spec, format, byte
# length, sha256).
TABLE_DIGESTS = [
    ("gram", "zigzag:A:3", "pretty", 36, "ce3993ba86a4fe3405584e955d5f9b20141afc5294eefb8411c29f1fb7317324"),
    ("gram", "zigzag:A:3", "csv", 36, "29bc7d710a72d05c13f62a563961ae708dcd98c3b70ffc413f89a0e6c31b9395"),
    ("gram", "zigzag:A:3", "json", 175, "0b57978613555d586f397fcc736a483b8eb3300f90ea7a977508d748467821ce"),
    ("simples", "zigzag:A:3", "pretty", 36, "d43dbf7f17d7163c7f6562b6ef67894db886471890995d66e960cecdc67979b5"),
    ("simples", "zigzag:A:3", "json", 80, "33f81fdf1b752d6d92b54ace65b86aec1b86f372b1e1a5aaf5a4d92a28461c23"),
    ("gram", "zigzag:A:4", "pretty", 48, "7e2948045d4f2dcf1135a8a3c7f5b203ed7611f50015c2d93a0a32d245dc1943"),
    ("gram", "zigzag:A:4", "csv", 48, "197282e50c530d7083ca7814335238649d031611d797e9441e2c94e5f2dc1416"),
    ("gram", "zigzag:A:4", "json", 234, "443c391d2877fa2d06623cdbb1ec379c4dc192d547aeee5cdedf7392fdf763a1"),
    ("simples", "zigzag:A:4", "pretty", 48, "36c447ab8749eb30f1debff79f3db4d90b308915ebabb1d8b709f5d7912c3210"),
    ("simples", "zigzag:A:4", "json", 97, "9bde312b5e39b8eef48c8f42946390acc0e0b7027876949cdee8e023788d0ef3"),
    ("gram", "zigzag:A:5", "pretty", 60, "66915d04c2fe23da193f2382e023681f777382107ac8a256328ba376465cfdd7"),
    ("gram", "zigzag:A:5", "csv", 60, "8023152d91eb94ac24651e3d82d3c3d84ff72bd97eaf6e3c54aeb1e7c8aa8fd2"),
    ("gram", "zigzag:A:5", "json", 293, "a54935cb75fd3690f1eb080ada360ecaa7c51c42955357544938b6a638702006"),
    ("simples", "zigzag:A:5", "pretty", 60, "046e15fe8ea456cdf1de3d6c38c9ace52409947765bbfbf81eb8e307f5d21742"),
    ("simples", "zigzag:A:5", "json", 114, "cef961867311991404dc30196ef7352b48c0abd4aa2df48f7aa3ee50e73ceb6e"),
    ("gram", "zigzag:cycS:3", "pretty", 36, "61a0e462e3b5c5bf8900dc85c9695ec702d9f709ac3a0047e271a34a3855d0aa"),
    ("gram", "zigzag:cycS:3", "csv", 36, "7dafa7827a8ae3d2dd96fef5f795ba4c7b290dfc31a6517445d4a555839d09cc"),
    ("gram", "zigzag:cycS:3", "json", 180, "a335c77061df779c22ab7687456effbeb459792268e5a63ad229edc26ac8b0f8"),
    ("simples", "zigzag:cycS:3", "pretty", 36, "d43dbf7f17d7163c7f6562b6ef67894db886471890995d66e960cecdc67979b5"),
    ("simples", "zigzag:cycS:3", "json", 80, "33f81fdf1b752d6d92b54ace65b86aec1b86f372b1e1a5aaf5a4d92a28461c23"),
    ("gram", "zigzag:cycS:4", "pretty", 48, "c8c0b91cc2eb8e0c13cf9470c2d17e18f4641b63f0000ba787a8cb6d1615f960"),
    ("gram", "zigzag:cycS:4", "csv", 48, "29b08b177c7be16536cd9caeb2e3aef2dfb9641787168e0add8b3ea883d0eeb7"),
    ("gram", "zigzag:cycS:4", "json", 239, "9275a2b5a78668358f96e46c14f010cec3aa05e11d9f2fdaf1b57cd8437eea80"),
    ("simples", "zigzag:cycS:4", "pretty", 48, "36c447ab8749eb30f1debff79f3db4d90b308915ebabb1d8b709f5d7912c3210"),
    ("simples", "zigzag:cycS:4", "json", 97, "9bde312b5e39b8eef48c8f42946390acc0e0b7027876949cdee8e023788d0ef3"),
    ("gram", "zigzag:cycS:5", "pretty", 60, "06a9ea17d14f0f2bc613b2b9b62511f0317efe7dbcad475aa368edff743d6b28"),
    ("gram", "zigzag:cycS:5", "csv", 60, "8c5c7ca0a99f0704c6dc2aad056b700676d318a509ef615c8ed1e4dd47b4f3c6"),
    ("gram", "zigzag:cycS:5", "json", 298, "ae4908f0ddf97668f09d2b80e18cb9e3e9874a87280b3ae4a85fe186a24f4491"),
    ("simples", "zigzag:cycS:5", "pretty", 60, "046e15fe8ea456cdf1de3d6c38c9ace52409947765bbfbf81eb8e307f5d21742"),
    ("simples", "zigzag:cycS:5", "json", 114, "cef961867311991404dc30196ef7352b48c0abd4aa2df48f7aa3ee50e73ceb6e"),
    ("gram", "zigzag:cycL:3", "pretty", 66, "4d038ac4795186185ae11d7e764231e4bb72f0b26ec2df6ea5c1882aa61d7b30"),
    ("gram", "zigzag:cycL:3", "csv", 66, "2fe4bebcc7660382c811c88a3709def7953e51b612425a6dc1cb0feaf61a0f5a"),
    ("gram", "zigzag:cycL:3", "json", 324, "e4c148af8205d2f02bf64c53d8a35cf461b331ed42e75d3da772f0d17dba5ffb"),
    ("simples", "zigzag:cycL:3", "pretty", 36, "d43dbf7f17d7163c7f6562b6ef67894db886471890995d66e960cecdc67979b5"),
    ("simples", "zigzag:cycL:3", "json", 80, "33f81fdf1b752d6d92b54ace65b86aec1b86f372b1e1a5aaf5a4d92a28461c23"),
    ("gram", "zigzag:cycL:4", "pretty", 144, "a2fe1529a4352a4f4841db6af1742c6ff3848af55f5a2d53ba1c1728454d9563"),
    ("gram", "zigzag:cycL:4", "csv", 144, "27558a13af52beedfa6b0064321c297c80dd42e84c46fae3e3bb44655ad58ea9"),
    ("gram", "zigzag:cycL:4", "json", 687, "748b4485dcaad1ac2ebff9792d3df994e816676b90c74d59e19cb43686e9a47b"),
    ("simples", "zigzag:cycL:4", "pretty", 48, "36c447ab8749eb30f1debff79f3db4d90b308915ebabb1d8b709f5d7912c3210"),
    ("simples", "zigzag:cycL:4", "json", 97, "9bde312b5e39b8eef48c8f42946390acc0e0b7027876949cdee8e023788d0ef3"),
    ("gram", "usl2:p=3", "pretty", 66, "976c326bd18fa2fe0f05ed6926c0ca1aa4f44d326abd3a4fd05a71b3d7582857"),
    ("gram", "usl2:p=3", "csv", 66, "37651180b4d3ff8f17cfbb960641b606e9034c17ad377968e3155ac526860353"),
    ("gram", "usl2:p=3", "json", 324, "0ecd650c4af56ea99b0ae46fae1fa2fac6351b7bf1224801787c3f0d81594a52"),
    ("simples", "usl2:p=3", "pretty", 36, "d4ad4dc83315f4b81494c07a2b23211ddefd736b011f9f8d20bb12ec74c00216"),
    ("simples", "usl2:p=3", "json", 80, "ecb746dcade5f4b37d27a6b005d8b14198b23c7a25fe27e9c24f644d9d70e602"),
    ("gram", "usl2:p=5", "pretty", 270, "6a0bafb028eab98124282d4437cdbf004e4d2e63212c87f8d37406e56c5ceba1"),
    ("gram", "usl2:p=5", "csv", 270, "a5771c4e7446e950b154f9bfe4a154757ca5e4344cc6c877c54eea50d0b0adcb"),
    ("gram", "usl2:p=5", "json", 1258, "588308c355188818b76fc872ab1a4c505390179e7b81c9eed65168d0db181a5f"),
    ("simples", "usl2:p=5", "pretty", 60, "489a272d1ae0c410ca3843c0b736e5549011a5dbf8ebae1c69ccc7811411fdb4"),
    ("simples", "usl2:p=5", "json", 114, "04b9ede85b5cd4c7a4a62ee1a60dd278e16ed33fa1bbfa50ac4dd345db059531"),
    ("gram", "usl2:p=7", "pretty", 714, "3fa89f3fb180f35daf49efaaca3b6fd64fdd3712a6f04b0937415bd41196b1d2"),
    ("gram", "usl2:p=7", "csv", 714, "b65ac5d855f767617a5660283ea637e64ce5f7dc4f7738332fe35dd7b8117897"),
    ("gram", "usl2:p=7", "json", 3216, "5f23d4a02ec5739b2ce49ed437bfd88adf53561e52c2deb582a4627b9fb2d306"),
    ("simples", "usl2:p=7", "pretty", 84, "233e5e368dbba4864c3d342a19d3ac44c4a33ebc78a4d637092b088e49244773"),
    ("simples", "usl2:p=7", "json", 148, "dcf7b6518d27318fddd1e66ac59e1f51ff8dc19f3b3ec483ca124e0002074495"),
    ("gram", "annular:n=1", "pretty", 26, "31f04cb67936fdc7268ac0e0f89cf7c7fb64fdcce228ea0021849223bae15eca"),
    ("gram", "annular:n=1", "csv", 26, "aee48874a8f9d90a991339adda32b21dabb8fece24a6bc6f8ca84adb5ec9b83e"),
    ("gram", "annular:n=1", "json", 123, "c28ca47d0058231af39692a5aa5ca1656ba94307f4ba46ce12c12ef82fc12a1d"),
    ("simples", "annular:n=1", "pretty", 26, "59a893fbe03d5b7bdfdaacc8fa90e659bc10a06dd7968dd978c04621cc657445"),
    ("simples", "annular:n=1", "json", 67, "85b3fbca04e7c0912a56f8155de72b0576096e50759d97f1985f06b281dfb389"),
    ("gram", "annular:n=2", "pretty", 258, "deb0d2b36c8b3e618c2515d8092cd1982f3f0d52f49ed188a3d222b0a5e12f6d"),
    ("gram", "annular:n=2", "csv", 258, "36a09f7a8cdc0de5ba6215b0a8cee6c8842d193cfb71fd171f2ac764793c19d5"),
    ("gram", "annular:n=2", "json", 1143, "e9822c8c7bba4e23bdc4a5ddb493905e9d92e5973b7dc115e3ce353bac3a7e58"),
    ("simples", "annular:n=2", "pretty", 90, "d6069424dc6abb02f5e4b233b0a68c9e05e43bb7d58cb914dcd73eab09381466"),
    ("simples", "annular:n=2", "json", 167, "423a80368556fcdd8bd6118cad6de29670a9dcbfff59f2d321a7aa32408e2475"),
]


@pytest.mark.parametrize("command, spec, fmt, size, digest", TABLE_DIGESTS)
def test_gram_and_simples_pinned_on_table_families(capsys, command, spec, fmt, size, digest):
    code, out, _ = run(capsys, command, spec, "--format", fmt)
    assert code == 0
    out = out.encode()
    assert (len(out), hashlib.sha256(out).hexdigest()) == (size, digest)
