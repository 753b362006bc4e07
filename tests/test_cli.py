import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (fifth_scaled_l58, heisenberg, jacobi_breaker, non_nilpotent,
                      out_of_scope_algebra, stem7_rank2, wrong_stem_multiplier)

import liemult
from liemult import LieAlgebra
from liemult.catalog import CatalogId, Family, make_catalog
from liemult.cli import build_parser, entrypoint, main
from liemult.document import dumps_algebra, loads_algebra
from liemult.fields import gf, rationals
from liemult.verify import builtin_suite

QQ = rationals()
ZERO_DENOMINATOR_DOC = json.dumps(
    {"field": "rationals", "dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": ["0", "0", "1/0"]}]}
)


def write_doc(tmp_path, name, algebra):
    path = tmp_path / name
    path.write_text(dumps_algebra(algebra))
    return path


# -- validate -----------------------------------------------------------------

def test_validate_ok(tmp_path, capsys):
    path = write_doc(tmp_path, "h1.json", make_catalog(CatalogId(Family.HEISENBERG, rank=1), QQ))
    assert main(["validate", str(path)]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_jacobi_failure(tmp_path, capsys):
    path = write_doc(tmp_path, "bad.json", jacobi_breaker(QQ))
    assert main(["validate", str(path)]) == 2
    out = capsys.readouterr().out
    assert "(1, 2, 3)" in out


def test_validate_parse_error(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{definitely not json")
    assert main(["validate", str(path)]) == 1
    path2 = tmp_path / "dup.json"
    doc = {
        "field": "rationals",
        "dim": 3,
        "brackets": [
            {"i": 1, "j": 2, "coeffs": ["0", "0", "1"]},
            {"i": 1, "j": 2, "coeffs": ["0", "0", "1"]},
        ],
    }
    path2.write_text(json.dumps(doc))
    assert main(["validate", str(path2)]) == 1
    assert main(["validate", str(tmp_path / "missing.json")]) == 1


def test_zero_denominator_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(ZERO_DENOMINATOR_DOC)
    for command in ("validate", "report"):
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: parse: bracket (1, 2): zero denominator: '1/0'\n"
    assert main(["catalog", "L6_22", "--eps", "1/0"]) == 1
    assert capsys.readouterr().err == "error: zero denominator: '1/0'\n"


# -- catalog ------------------------------------------------------------------

def test_catalog_emits_round_trippable_document(capsys):
    assert main(["catalog", "L1"]) == 0
    out = capsys.readouterr().out
    L = loads_algebra(out)
    assert L.dim == 7
    assert len(L.table) == 4
    assert L.table == make_catalog(CatalogId(Family.L1), QQ).table


def test_catalog_heisenberg_with_summand(capsys):
    assert main(["catalog", "H", "--m", "2", "--abelian", "3"]) == 0
    L = loads_algebra(capsys.readouterr().out)
    assert L.dim == 8


def test_catalog_char2_family(capsys):
    assert main(["catalog", "L6_7_2", "--eta", "1", "--prime", "2"]) == 0
    L = loads_algebra(capsys.readouterr().out)
    assert L.dim == 6 and L.field == gf(2)


def test_catalog_guards(capsys):
    assert main(["catalog", "L6_22", "--prime", "2"]) == 1
    assert main(["catalog", "L6_7_2", "--eta", "1"]) == 1  # needs char 2
    assert main(["catalog", "H"]) == 1  # rank missing
    assert main(["catalog", "nope"]) == 1
    assert main(["catalog"]) == 1
    capsys.readouterr()
    # a flag the family does not take is a usage error, not dropped
    cases = [
        (["catalog", "L4_3", "--eps", "5"], "error: --eps applies only to L6_22\n"),
        (["catalog", "L6_22", "--eta", "1"], "error: --eta applies only to L6_7_2\n"),
        (["catalog", "L6_7_2", "--eps", "1", "--prime", "2"], "error: --eps applies only to L6_22\n"),
        (["catalog", "A", "--m", "3"], "error: --m applies only to H\n"),
        (["catalog", "L1", "--m", "1"], "error: --m applies only to H\n"),
        (["catalog", "H", "--m", "1", "--eta", "0"], "error: --eta applies only to L6_7_2\n"),
    ]
    for argv, err in cases:
        assert main(argv) == 1, argv
        assert capsys.readouterr() == ("", err)


CATALOG_LIST = """\
name     dim        notes
A        0          abelian; total dimension = --abelian K
H        2m+1       Heisenberg H(m), dim 2m+1; needs --m
L4_3     4          class-3 stem, dim 4
L5_5     5          class-3 stem, dim 5
L5_8     5          class-2 stem, dim 5
L6_22    6          class-2 stem, dim 6, --eps parameter, char != 2
L6_7_2   6          class-2 stem, dim 6, --eta in {0,1}, char = 2
L1       7          class-2 stem, dim 7
"""


def test_catalog_list(capsys):
    assert main(["catalog", "--list"]) == 0
    assert capsys.readouterr().out == CATALOG_LIST


def test_catalog_abelian(capsys):
    assert main(["catalog", "A", "--abelian", "3"]) == 0
    L = loads_algebra(capsys.readouterr().out)
    assert L.dim == 3 and L.is_abelian


# -- report -------------------------------------------------------------------

def test_report_heisenberg_with_summand(tmp_path, capsys):
    L = make_catalog(CatalogId(Family.HEISENBERG, rank=2, abelian=1), QQ)
    path = write_doc(tmp_path, "h2a1.json", L)
    assert main(["report", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["series"]["class"] == 2
    assert report["classification"]["family"] == "H"
    assert report["functors"]["schur"] == 9
    assert report["functors"]["corank"] == 6
    assert report["functors"]["capable"] is False
    assert report["ok"] is True
    assert "oracle" not in report


def test_report_is_deterministic(tmp_path, capsys):
    path = write_doc(tmp_path, "l55.json", make_catalog(CatalogId(Family.L5_5), QQ))
    assert main(["report", str(path), "--oracle"]) == 0
    first = capsys.readouterr().out
    assert main(["report", str(path), "--oracle"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_report_oracle_golden(tmp_path, capsys):
    path = write_doc(tmp_path, "l58.json", make_catalog(CatalogId(Family.L5_8), QQ))
    assert main(["report", str(path), "--oracle"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["oracle"]["schur"] == 6
    assert report["oracle"]["exterior"] == 8
    assert report["oracle"]["tensor"] == 14
    assert report["oracle"]["capable"] is True
    assert report["oracle"]["epicenter_prime"] == 5
    assert all(ch["pass"] for ch in report["checks"])
    assert {ch["quantity"] for ch in report["checks"]} == {
        "schur", "exterior", "tensor", "corank", "capable",
    }


def test_report_randomize_basis_invariance(tmp_path, capsys):
    path = write_doc(tmp_path, "l43.json", make_catalog(CatalogId(Family.L4_3, abelian=1), QQ))
    assert main(["report", str(path)]) == 0
    plain = json.loads(capsys.readouterr().out)
    assert main(["report", str(path), "--randomize-basis", "--seed", "9"]) == 0
    moved = json.loads(capsys.readouterr().out)
    assert moved["input"]["randomized_basis"] is True and moved["input"]["seed"] == 9
    assert moved["series"] == plain["series"]
    assert moved["classification"] == plain["classification"]
    assert moved["functors"] == plain["functors"]


def test_report_out_of_scope_partial(tmp_path, capsys):
    path = write_doc(tmp_path, "oos.json", out_of_scope_algebra(QQ))
    assert main(["report", str(path), "--oracle"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["classification"]["applicable"] is False
    assert report["functors"]["applicable"] is False
    assert report["oracle"]["schur"] == 3
    assert report["oracle"]["exterior"] is None
    assert report["checks"] == []
    assert report["ok"] is True


def test_report_sweep_error(tmp_path, capsys):
    # a denominator of 5 has no reduction mod the default sweep prime
    path = write_doc(tmp_path, "l58_fifth.json", fifth_scaled_l58(QQ))
    assert main(["report", str(path), "--oracle"]) == 0
    report = json.loads(capsys.readouterr().out)
    oracle = report["oracle"]
    assert "denominator divisible by 5" in oracle["sweep_error"]
    assert oracle["capable"] is None and oracle["epicenter_prime"] is None
    assert oracle["schur"] == 6
    assert {ch["quantity"] for ch in report["checks"]} == {"schur", "exterior", "tensor", "corank"}
    assert report["ok"] is True


def test_report_rejects_non_prime(tmp_path, capsys):
    path = write_doc(tmp_path, "l58.json", make_catalog(CatalogId(Family.L5_8), QQ))
    for bad, message in (
        ("4", "error: not a prime: 4"),
        ("-5", "error: not a prime: -5"),
        (str(2**31 + 11), "error: prime too large"),  # 2^31 + 11 is prime
    ):
        assert main(["report", str(path), "--oracle", "--prime", bad]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(message)
    # the prime is checked before the document is read
    assert main(["report", str(tmp_path / "missing.json"), "--prime", "4"]) == 1
    assert capsys.readouterr().err == "error: not a prime: 4\n"


def test_report_zero_algebra_is_capable(tmp_path, capsys):
    # A(0) = A(1)/Z(A(1)): formula and oracle both say capable
    for field in ("rationals", {"prime": 5}):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"field": field, "dim": 0}))
        assert main(["report", str(path), "--oracle"]) == 0, field
        report = json.loads(capsys.readouterr().out)
        assert report["functors"]["capable"] is True
        assert report["oracle"]["capable"] is True
        assert report["ok"] is True


def test_report_mismatch_exit_code(tmp_path, capsys, monkeypatch):
    # the 7-dim stem with a rank-2 member in its pencil is not L1, and passes
    path = write_doc(tmp_path, "stem7.json", stem7_rank2(QQ))
    assert main(["report", str(path), "--oracle"]) == 0
    assert json.loads(capsys.readouterr().out)["functors"]["schur"] == 10
    # a wrong multiplier formula disagrees with the brute force
    wrong_stem_multiplier(monkeypatch)
    code = main(["report", str(path), "--oracle"])
    report = json.loads(capsys.readouterr().out)
    assert code == 3
    assert report["ok"] is False
    assert any(not ch["pass"] for ch in report["checks"])


def test_report_pretty(tmp_path, capsys):
    path = write_doc(tmp_path, "l58.json", make_catalog(CatalogId(Family.L5_8), QQ))
    assert main(["report", str(path), "--oracle", "--pretty"]) == 0
    out = capsys.readouterr().out
    assert "verdict  : ok" in out
    assert "rule capable-L5_8" in out


def test_report_pretty_sweep_error(tmp_path, capsys):
    path = write_doc(tmp_path, "l58_fifth.json", fifth_scaled_l58(QQ))
    assert main(["report", str(path), "--oracle", "--pretty"]) == 0
    line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("oracle   :")][0]
    assert line.endswith("capable n/a (coefficient 1/5 has denominator divisible by 5)")


def test_report_computes_jacobi_residuals_once(tmp_path, capsys, monkeypatch):
    import liemult.cli as cli
    import liemult.cohomology as cohomology

    seen, read = [], []
    real = cohomology.jacobi_residuals
    monkeypatch.setattr(cohomology, "jacobi_residuals", lambda L: seen.append(L) or real(L))
    monkeypatch.setattr(cli, "loads_algebra", lambda text: read.append(loads_algebra(text)) or read[-1])
    path = write_doc(tmp_path, "l58.json", make_catalog(CatalogId(Family.L5_8, abelian=1), gf(5)))
    assert main(["report", str(path), "--oracle"]) == 0
    assert len(seen) == 1 and seen[0] is read[0]
    seen.clear()
    read.clear()
    # only the basis change, the algebra the report analyses, is validated
    assert main(["report", str(path), "--oracle", "--randomize-basis", "--seed", "3"]) == 0
    assert len(read) == 1 and len(seen) == 1 and seen[0] is not read[0]
    capsys.readouterr()


def test_report_jacobi_failure(tmp_path, capsys):
    path = write_doc(tmp_path, "bad.json", jacobi_breaker(QQ))
    assert main(["report", str(path)]) == 2
    capsys.readouterr()


def _j635(n):
    # [x1,x2] = 1/3 x3, [x1,x3] = 2/5 x4, [x2,x4] = 3/7 x1, plus n - 4 central generators
    table = {(0, 1): (0, 0, Fraction(1, 3)), (0, 2): (0, 0, 0, Fraction(2, 5)), (1, 3): (Fraction(3, 7),)}
    return LieAlgebra(QQ, n, {pq: vec + (0,) * (n - len(vec)) for pq, vec in table.items()})


@pytest.mark.parametrize(
    "name, algebra, triples",
    [("j635", _j635(4), [(1, 2, 3), (2, 3, 4)]), ("j635x5", _j635(5), [(1, 2, 3), (2, 3, 4)])]
    + [(f"breaker_gf{p}", jacobi_breaker(gf(p)), [(1, 2, 3)]) for p in (2, 3, 5)],
)
def test_report_lists_the_documents_violations_in_any_basis(tmp_path, capsys, name, algebra, triples):
    # the randomized copy is validated in place of the document; a copy that
    # fails lists the document's triples, so no flag changes the output
    path = write_doc(tmp_path, f"{name}.json", algebra)
    expected = "".join(f"jacobi violation at {t}\n" for t in triples)
    for oracle in ([], ["--oracle"]):
        for basis in ([], ["--randomize-basis", "--seed", "3"], ["--randomize-basis", "--seed", "7"]):
            for pretty in ([], ["--pretty"]):
                argv = ["report", str(path), *oracle, *basis, *pretty]
                assert main(argv) == 2, argv
                assert capsys.readouterr() == (expected, ""), argv


# -- check --------------------------------------------------------------------

def test_check_directory(tmp_path, capsys):
    write_doc(tmp_path, "l43.json", make_catalog(CatalogId(Family.L4_3), QQ))
    write_doc(tmp_path, "h2.json", make_catalog(CatalogId(Family.HEISENBERG, rank=2), gf(5)))
    write_doc(tmp_path, "oos.json", out_of_scope_algebra(QQ))
    write_doc(tmp_path, "solvable.json", non_nilpotent(QQ))
    assert main(["check", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [l.split()[0] for l in lines[:4]] == ["h2.json", "l43.json", "oos.json", "solvable.json"]
    # dim L^2 = 3: the oracle runs and its multiplier is printed, as `report --oracle` does
    assert lines[2] == f"{'oos.json':<24} {'out of scope (dim L^2 = 3 > 2)':<28} ok        oracle multiplier 3"
    assert lines[3] == f"{'solvable.json':<24} {'':<28} skipped   not nilpotent"
    # the per-rule table holds the in-scope rules only
    rules = lines[lines.index("per-rule pass counts:") + 1:-1]
    assert [l.split()[0] for l in rules] == ["capable-L4_3", "heisenberg-rank-ge2"]
    assert lines[-1] == "total: 3/3 algebras ok, 10 quantity checks"
    assert not any("MISMATCH" in l for l in lines)


def test_check_directory_sweep_error(tmp_path, capsys):
    write_doc(tmp_path, "l58_fifth.json", fifth_scaled_l58(QQ))
    assert main(["check", str(tmp_path)]) == 0
    line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("l58_fifth.json")][0]
    assert "schur=ok" in line and "corank=ok" in line
    assert "capable=" not in line


def test_check_directory_zero_denominator(tmp_path, capsys):
    write_doc(tmp_path, "a_l43.json", make_catalog(CatalogId(Family.L4_3), QQ))
    (tmp_path / "b_zero.json").write_text(ZERO_DENOMINATOR_DOC)
    write_doc(tmp_path, "c_h2.json", make_catalog(CatalogId(Family.HEISENBERG, rank=2), gf(5)))
    assert main(["check", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "b_zero.json: parse error: bracket (1, 2): zero denominator: '1/0'" in out
    assert "a_l43.json" in out and "c_h2.json" in out
    assert "total: 2/2 algebras ok" in out


def test_check_rejects_non_prime(tmp_path, capsys):
    write_doc(tmp_path, "l58.json", make_catalog(CatalogId(Family.L5_8), QQ))
    for argv in (["check", str(tmp_path)], ["check"], ["catalog", "L5_8"]):
        assert main([*argv, "--prime", "4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: not a prime: 4\n"


def test_check_directory_flags_mismatch(tmp_path, capsys, monkeypatch):
    write_doc(tmp_path, "l43.json", make_catalog(CatalogId(Family.L4_3), QQ))
    write_doc(tmp_path, "stem7.json", stem7_rank2(QQ))
    assert main(["check", str(tmp_path)]) == 0
    assert "MISMATCH" not in capsys.readouterr().out
    # a multiplier formula that is wrong at dimension 7 only
    wrong_stem_multiplier(monkeypatch, lambda c: c.n == 7)
    assert main(["check", str(tmp_path)]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert [l.split()[0] for l in lines if "MISMATCH" in l] == ["stem7.json"]


def test_check_directory_other_exit_codes(tmp_path, capsys):
    (tmp_path / "broken.json").write_text("{nope")
    assert main(["check", str(tmp_path)]) == 1
    write_doc(tmp_path, "bad.json", jacobi_breaker(QQ))
    assert main(["check", str(tmp_path)]) == 2  # invalid outranks parse error
    capsys.readouterr()
    assert main(["check", str(tmp_path / "missing")]) == 1


def test_check_builtin_suite(capsys):
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert "per-rule pass counts" in out
    # one row per suite entry, sorted by name
    lines = out.splitlines()
    names = [l.split()[0] for l in lines[:lines.index("")]]
    assert names == sorted(names) and len(names) == len(builtin_suite())
    # the builtin suite is the golden table plus grids: >= 30 algebras, >= 150 quantity checks
    total_line = [l for l in lines if l.startswith("total:")][0]
    count = int(total_line.split("/")[1].split()[0])
    assert count >= 30 and int(total_line.split(", ")[1].split()[0]) >= 150
    assert "MISMATCH" not in out


H1_A1_PRETTY = """\
input    : dim 4 over GF(5)  (digest e86ef01123d2)
series   : class 2, lower central dims [4, 1, 0], center dim 2
class    : H(1) + A(1)
formulas : rule heisenberg-rank1  multiplier 4  exterior 5  tensor 11  corank 2  capable True
oracle   : multiplier 4  exterior 5  tensor 11  capable True (epicenter dim 0, GF(5))
  check  : schur     formula 4  oracle 4  pass
  check  : exterior  formula 5  oracle 5  pass
  check  : tensor    formula 11  oracle 11  pass
  check  : corank    formula 2  oracle 2  pass
  check  : capable   formula True  oracle True  pass
verdict  : ok
"""


def test_main_builds_one_parser_per_process(tmp_path, capsys):
    path = write_doc(tmp_path, "h1a1.json", heisenberg(gf(5), 1, 1))
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out == "ok: dim 4 over GF(5), 4 Jacobi triples checked\n"
    # a second subcommand on the same parser prints what a fresh process prints
    assert main(["report", str(path), "--oracle", "--pretty"]) == 0
    assert capsys.readouterr().out == H1_A1_PRETTY
    assert build_parser() is build_parser()


def test_module_entry_point():
    # the child imports the same liemult as this process, installed or not
    src = str(Path(liemult.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-m", "liemult", "catalog", "L4_3"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert loads_algebra(proc.stdout).dim == 4


_THIRD_PARTY_IMPORTS = """
import sys
before = set(sys.modules)  # modules that site hooks loaded are not ours
import liemult, liemult.cli
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(added - {"liemult"} - set(sys.stdlib_module_names))))
"""


def test_import_needs_only_the_standard_library():
    src = str(Path(liemult.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _THIRD_PARTY_IMPORTS],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away: every write raises BrokenPipeError."""

    def __init__(self, fd):
        super().__init__()
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


def test_entrypoint_exits_quietly_on_closed_stdout(tmp_path, capsys, monkeypatch):
    path = write_doc(tmp_path, "l43.json", make_catalog(CatalogId(Family.L4_3), QQ))
    with open(tmp_path / "stdout", "w") as sink:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(sink.fileno()))
        monkeypatch.setattr(sys, "argv", ["liemult", "report", str(path), "--oracle"])
        with pytest.raises(SystemExit) as exit_info:
            entrypoint()
    assert exit_info.value.code == 1
    assert capsys.readouterr().err == ""


def test_module_entry_point_closed_pipe():
    src = str(Path(liemult.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "liemult", "catalog", "L4_3"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": path},
    )
    proc.stdout.close()  # the reader is gone before the child writes
    with proc.stderr:
        err = proc.stderr.read().decode()
    assert proc.wait() == 1
    assert err == ""
