"""Command-line surface.

Subcommands:

    validate FILE                 parse + Jacobi check
    catalog NAME [options]        emit a named algebra as a document
    report FILE [options]         classification, formulas, optional oracle
    check [DIR] [options]         cross-check a directory or the builtin suite

Exit codes: 0 success, 1 I/O or parse or usage error, 2 validation
(Jacobi) failure, 3 formula/oracle mismatch.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from .catalog import CONSTRUCTIBLE, CatalogId, Family, make_catalog
from .document import (
    DocumentError,
    algebra_to_document,
    document_digest,
    dumps_algebra,
    loads_algebra,
)
from .fields import FieldSpec, rationals
from .linalg import random_invertible
from .report import DEFAULT_SWEEP_PRIME, build_report
from .verify import builtin_suite, cross_check, run_suite

_CATALOG_HELP = {
    Family.ABELIAN: ("A", 0, "abelian; total dimension = --abelian K"),
    Family.HEISENBERG: ("H", None, "Heisenberg H(m), dim 2m+1; needs --m"),
    Family.L4_3: ("L4_3", 4, "class-3 stem, dim 4"),
    Family.L5_5: ("L5_5", 5, "class-3 stem, dim 5"),
    Family.L5_8: ("L5_8", 5, "class-2 stem, dim 5"),
    Family.L6_22: ("L6_22", 6, "class-2 stem, dim 6, --eps parameter, char != 2"),
    Family.L6_7_2: ("L6_7_2", 6, "class-2 stem, dim 6, --eta in {0,1}, char = 2"),
    Family.L1: ("L1", 7, "class-2 stem, dim 7"),
}


def _field_from_args(args) -> FieldSpec:
    if getattr(args, "prime", None) is not None:
        return FieldSpec(args.prime)
    return rationals()


def _read_algebra(path: str):
    text = Path(path).read_text()
    return loads_algebra(text)


def _print_err(msg: str):
    print(f"error: {msg}", file=sys.stderr)


def cmd_validate(args) -> int:
    try:
        algebra = _read_algebra(args.path)
    except OSError as exc:
        _print_err(str(exc))
        return 1
    except DocumentError as exc:
        _print_err(f"parse: {exc}")
        return 1
    violations = algebra.validate()
    if violations:
        for v in violations:
            residual = ", ".join(algebra.field.format(x) for x in v.residual)
            print(f"jacobi violation at ({v.i + 1}, {v.j + 1}, {v.k + 1}): residual ({residual})")
        print(f"invalid: {len(violations)} violating triple(s) of {algebra.dim} generators")
        return 2
    triples = algebra.dim * (algebra.dim - 1) * (algebra.dim - 2) // 6
    print(f"ok: dim {algebra.dim} over {algebra.field}, {triples} Jacobi triples checked")
    return 0


def cmd_catalog(args) -> int:
    if args.list:
        print(f"{'name':<8} {'dim':<10} notes")
        for fam in CONSTRUCTIBLE:
            name, base, note = _CATALOG_HELP[fam]
            dim = "2m+1" if fam is Family.HEISENBERG else str(base)
            print(f"{name:<8} {dim:<10} {note}")
        return 0
    if not args.name:
        _print_err("catalog needs a family name (or --list)")
        return 1
    try:
        family = Family(args.name)
    except ValueError:
        _print_err(f"unknown catalog name {args.name!r}; try --list")
        return 1
    if family not in CONSTRUCTIBLE:
        _print_err(f"{args.name} is a classification verdict, not a constructible family")
        return 1
    try:
        field = _field_from_args(args)
        param = None
        if family is Family.L6_22 and args.eps is not None:
            param = field.parse(args.eps)
        if family is Family.L6_7_2 and args.eta is not None:
            param = field.parse(args.eta)
        cid = CatalogId(family, rank=args.m, param=param, abelian=args.abelian)
        algebra = make_catalog(cid, field)
    except (ValueError, TypeError) as exc:
        _print_err(str(exc))
        return 1
    sys.stdout.write(dumps_algebra(algebra))
    return 0


def cmd_report(args) -> int:
    try:
        algebra = _read_algebra(args.path)
    except OSError as exc:
        _print_err(str(exc))
        return 1
    except DocumentError as exc:
        _print_err(f"parse: {exc}")
        return 1
    violations = algebra.validate()
    if violations:
        for v in violations:
            print(f"jacobi violation at ({v.i + 1}, {v.j + 1}, {v.k + 1})")
        return 2
    digest = document_digest(algebra_to_document(algebra))
    seed = None
    if args.randomize_basis:
        seed = args.seed
        rng = random.Random(seed)
        algebra = algebra.change_basis(random_invertible(algebra.field, algebra.dim, rng))
    try:
        report = build_report(
            algebra,
            digest=digest,
            want_oracle=args.oracle,
            sweep_prime=args.prime,
            randomized_seed=seed,
        )
    except ValueError as exc:
        _print_err(str(exc))
        return 1
    if args.pretty:
        _print_pretty_report(report)
    else:
        print(json.dumps(report, indent=2))
    return 0 if report["ok"] else 3


def _print_pretty_report(report: dict):
    inp = report["input"]
    series = report["series"]
    print(f"input    : dim {inp['dim']} over {_field_str(inp['field'])}  (digest {inp['digest'][:12]})")
    if inp["randomized_basis"]:
        print(f"basis    : randomized with seed {inp['seed']}")
    if not series["nilpotent"]:
        print("series   : NOT NILPOTENT (lower central series stabilizes above zero)")
        return
    print(
        f"series   : class {series['class']}, lower central dims "
        f"{series['lower_central_dims']}, center dim {series['center_dim']}"
    )
    cls = report["classification"]
    if not cls["applicable"]:
        print(f"class    : not classified ({cls.get('reason', 'n/a')})")
    else:
        print(f"class    : {cls['description']}")
    fr = report["functors"]
    if fr["applicable"]:
        print(
            f"formulas : rule {fr['rule']}  multiplier {fr['schur']}  exterior {fr['exterior']}"
            f"  tensor {fr['tensor']}  corank {fr['corank']}  capable {fr['capable']}"
        )
    if "oracle" in report:
        orc = report["oracle"]
        cap = orc["capable"]
        cap_str = "n/a" if cap is None else f"{cap} (epicenter dim {orc['epicenter_dim']}, GF({orc['epicenter_prime']}))"
        print(
            f"oracle   : multiplier {orc['schur']}  exterior {orc['exterior']}"
            f"  tensor {orc['tensor']}  capable {cap_str}"
        )
        for ch in report.get("checks", []):
            mark = "pass" if ch["pass"] else "FAIL"
            print(f"  check  : {ch['quantity']:<9} formula {ch['formula']}  oracle {ch['oracle']}  {mark}")
    print(f"verdict  : {'ok' if report['ok'] else 'MISMATCH'}")


def _field_str(field_json) -> str:
    return "Q" if field_json == "rationals" else f"GF({field_json['prime']})"


def cmd_check(args) -> int:
    prime = args.prime or DEFAULT_SWEEP_PRIME
    had_parse_error = had_invalid = False
    results = []
    skipped = []

    if args.suite:
        directory = Path(args.suite)
        if not directory.is_dir():
            _print_err(f"not a directory: {directory}")
            return 1
        for path in sorted(directory.glob("*.json")):
            try:
                algebra = loads_algebra(path.read_text())
            except (OSError, DocumentError) as exc:
                print(f"{path.name}: parse error: {exc}")
                had_parse_error = True
                continue
            if algebra.validate():
                print(f"{path.name}: invalid (Jacobi violations)")
                had_invalid = True
                continue
            series = algebra.series()
            if not series.is_nilpotent:
                skipped.append((path.name, "not nilpotent"))
                continue
            if series.derived_dim <= 2:
                results.append(cross_check(algebra, path.name, capability_prime=prime))
            else:
                skipped.append((path.name, "out of scope (dim L^2 > 2), oracle-only"))
    else:
        try:
            entries = builtin_suite(prime)
        except ValueError as exc:
            _print_err(str(exc))
            return 1
        results = run_suite(entries)

    results.sort(key=lambda r: r.name)
    rule_pass: dict[str, list[int]] = {}
    failed = 0
    for r in results:
        status = "ok" if r.ok else "MISMATCH"
        counts = rule_pass.setdefault(r.functors.rule, [0, 0])
        counts[0] += r.ok
        counts[1] += 1
        quantities = " ".join(
            f"{ch.quantity}={'ok' if ch.ok else 'FAIL'}" for ch in r.checks
        )
        print(f"{r.name:<24} {r.classification.describe():<28} {status:<9} {quantities}")
        if not r.ok:
            failed += 1
    for name, reason in skipped:
        print(f"{name:<24} {'':<28} skipped   {reason}")
    print()
    print("per-rule pass counts:")
    for rule in sorted(rule_pass):
        ok_count, total = rule_pass[rule]
        print(f"  {rule:<28} {ok_count}/{total}")
    checks_run = sum(len(r.checks) for r in results)
    print(f"total: {len(results) - failed}/{len(results)} algebras ok, {checks_run} quantity checks")
    if failed:
        return 3
    if had_invalid:
        return 2
    if had_parse_error:
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liemult",
        description=(
            "Exact invariants of small nilpotent Lie algebras: classification, "
            "multiplier/exterior/tensor dimensions, corank and capability, with "
            "brute-force cross-checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="parse a document and check the Jacobi identity")
    p_val.add_argument("path")
    p_val.set_defaults(func=cmd_validate)

    p_cat = sub.add_parser("catalog", help="emit a named algebra as a document")
    p_cat.add_argument("name", nargs="?", help="A, H, L4_3, L5_5, L5_8, L6_22, L6_7_2, L1")
    p_cat.add_argument("--m", type=int, default=None, help="Heisenberg rank (H only)")
    p_cat.add_argument("--eps", default=None, help="parameter for L6_22 (default 1)")
    p_cat.add_argument("--eta", default=None, help="parameter for L6_7_2, 0 or 1 (default 0)")
    p_cat.add_argument("--abelian", type=int, default=0, help="abelian summand dimension")
    p_cat.add_argument("--prime", type=int, default=None, help="use GF(p) instead of Q")
    p_cat.add_argument("--list", action="store_true", help="list family names and constraints")
    p_cat.set_defaults(func=cmd_catalog)

    p_rep = sub.add_parser("report", help="classification, formula values, optional oracle")
    p_rep.add_argument("path")
    p_rep.add_argument("--oracle", action="store_true", help="run the brute-force cross-check")
    p_rep.add_argument(
        "--prime",
        type=int,
        default=None,
        help=f"capability sweep prime for rational inputs (default {DEFAULT_SWEEP_PRIME})",
    )
    p_rep.add_argument("--seed", type=int, default=0, help="seed for --randomize-basis")
    p_rep.add_argument(
        "--randomize-basis",
        action="store_true",
        help="apply a seeded random invertible basis change before analysis",
    )
    p_rep.add_argument("--pretty", action="store_true", help="human-readable output")
    p_rep.set_defaults(func=cmd_report)

    p_chk = sub.add_parser("check", help="cross-check a document directory or the builtin suite")
    p_chk.add_argument("suite", nargs="?", help="directory of .json documents (default: builtin)")
    p_chk.add_argument(
        "--prime",
        type=int,
        default=None,
        help=f"sweep prime for the suite (default {DEFAULT_SWEEP_PRIME})",
    )
    p_chk.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


def entrypoint():
    sys.exit(main())
