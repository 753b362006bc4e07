import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import fifth_scaled_l58, jacobi_breaker, out_of_scope_algebra, stem7_rank2

import liemult
from liemult.catalog import CatalogId, Family, make_catalog
from liemult.cli import main
from liemult.document import dumps_algebra, loads_algebra
from liemult.fields import gf, rationals

QQ = rationals()


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


def test_catalog_list(capsys):
    assert main(["catalog", "--list"]) == 0
    out = capsys.readouterr().out
    for name in ("A", "H", "L4_3", "L5_5", "L5_8", "L6_22", "L6_7_2", "L1"):
        assert name in out


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


def test_report_mismatch_exit_code(tmp_path, capsys):
    # the known fingerprint collision: formulas disagree with the brute force
    path = write_doc(tmp_path, "stem7.json", stem7_rank2(QQ))
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


def test_report_jacobi_failure(tmp_path, capsys):
    path = write_doc(tmp_path, "bad.json", jacobi_breaker(QQ))
    assert main(["report", str(path)]) == 2
    capsys.readouterr()


# -- check --------------------------------------------------------------------

def test_check_directory(tmp_path, capsys):
    write_doc(tmp_path, "l43.json", make_catalog(CatalogId(Family.L4_3), QQ))
    write_doc(tmp_path, "h2.json", make_catalog(CatalogId(Family.HEISENBERG, rank=2), gf(5)))
    write_doc(tmp_path, "oos.json", out_of_scope_algebra(QQ))
    assert main(["check", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "l43.json" in out and "h2.json" in out
    assert "skipped" in out  # the out-of-scope one
    assert "MISMATCH" not in out


def test_check_directory_sweep_error(tmp_path, capsys):
    write_doc(tmp_path, "l58_fifth.json", fifth_scaled_l58(QQ))
    assert main(["check", str(tmp_path)]) == 0
    line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("l58_fifth.json")][0]
    assert "schur=ok" in line and "corank=ok" in line
    assert "capable=" not in line


def test_check_directory_flags_mismatch(tmp_path, capsys):
    write_doc(tmp_path, "l43.json", make_catalog(CatalogId(Family.L4_3), QQ))
    write_doc(tmp_path, "stem7.json", stem7_rank2(QQ))
    assert main(["check", str(tmp_path)]) == 3
    out = capsys.readouterr().out
    assert "MISMATCH" in out


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
    # the builtin suite is the golden table plus grids: >= 30 algebras
    total_line = [l for l in out.splitlines() if l.startswith("total:")][0]
    count = int(total_line.split("/")[1].split()[0])
    assert count >= 30
    assert "MISMATCH" not in out


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
