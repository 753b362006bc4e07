"""The liemult benchmark: one closed-loop client over three seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload suite --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --self-test [--workload sweep] [--seed 1]

An op is one algebra fully analysed: `verify.cross_check` for `suite`,
`cli.main(["report", DOC, "--oracle", ...])` for `sweep` and `rational`.
The next op starts when the previous one returns; there are no threads or
subprocesses while an op is timed.  The seed fixes the `sweep` inputs
(`suite` and `rational` take none, see inputs.py); a run repeats whole
passes over its inputs until `--seconds` have passed (at least MIN_PASSES).  Every op's output is checked against reference values after
its timer stops, on every pass.

Timings use each input's median latency over the run's passes.  The
machine the benchmark was built on (2 shared vCPUs) changes speed by
20-40% in spells of tens of seconds; of the per-input minimum, lower
quartile, mean and median over the passes, the median repeated best from
run to run there (perfbench/design.json, "timing").

`--trace 0` prints the end-to-end metrics named in BENCHMARK.json.
`--trace 1` runs one pass untraced and one traced, and prints the
per-layer metrics of the traced pass and the tracing overhead.  The last
line of stdout is always the JSON result; details go to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
import reference  # noqa: E402

ROOT = Path.cwd()
OUT = ROOT / ".bench_out"
WORKLOADS = ("suite", "sweep", "rational")
MIN_PASSES = 3
SETUP_PROBES = 7


def import_liemult():
    src = ROOT / "src"
    if not (src / "liemult" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'liemult'} not found; run from the repository root")
    sys.path.insert(0, str(src))
    import liemult
    import liemult.cli

    if Path(liemult.__file__).resolve().parent != (src / "liemult").resolve():
        sys.exit(f"error: imported liemult from {liemult.__file__}, not from {src}")
    return liemult


# -- ops -----------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], tuple[int, object]]  # (exit code, payload)
    to_report: Callable[[object], dict]
    expected: inputs.Expected
    closed_form: bool


def _suite_ops(liemult) -> list[Op]:
    ops = []
    for name, alg, cap in liemult.verify.builtin_suite(inputs.SUITE_PRIME):
        prime = alg.field.p if alg.field.is_prime_field else cap

        def run(alg=alg, name=name, cap=cap):
            r = liemult.verify.cross_check(alg, name, capability_prime=cap)
            return (0 if r.ok else 3), r

        ops.append(Op(name, run, lambda r, p=prime: reference.cross_check_json(r, p),
                      inputs.suite_expected(name, cap), True))
    return ops


def _report_ops(liemult, workload: str, docs: list[inputs.Input]) -> list[Op]:
    folder = OUT / "inputs" / workload
    folder.mkdir(parents=True, exist_ok=True)
    ops = []
    for k, inp in enumerate(docs):
        path = folder / f"{k:03d}.json"
        path.write_text(inp.doc)
        argv = ["report", str(path), "--oracle", *inp.flags]

        def run(argv=argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = liemult.cli.main(argv)
            return rc, buf.getvalue()

        ops.append(Op(inp.name, run, json.loads, inp.expected, not inp.pencil))
    return ops


def generate(workload: str, seed: int) -> list[inputs.Input]:
    return inputs.sweep_inputs(seed) if workload == "sweep" else inputs.rational_inputs()


def build_ops(liemult, workload: str, seed: int) -> list[Op]:
    """The run's inputs as ops; this is the set-up a user waits for."""
    if workload == "suite":
        return _suite_ops(liemult)
    return _report_ops(liemult, workload, generate(workload, seed))


def judge(op: Op, raw) -> tuple[list[str], bool]:
    """(problems, liemult reported MISMATCH) for one op's raw result."""
    if isinstance(raw, BaseException):
        return [f"raised {type(raw).__name__}: {raw}"], False
    rc, payload = raw
    if rc not in (0, 3):
        return [f"exit code {rc}"], False
    try:
        rep = op.to_report(payload)
        problems = reference.check(rep, op.expected, op.closed_form)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"], False
    mismatch = not rep["ok"]
    if (rc == 3) != mismatch:
        problems.append(f"exit code {rc} with ok={rep['ok']}")
    return problems, mismatch


@dataclass
class Tally:
    passes: list[list[float]] = field(default_factory=list)  # latency per pass per op
    failed: int = 0
    mismatched: int = 0
    wall_s: float = 0.0
    failures: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(len(p) for p in self.passes)

    def typical(self) -> list[float]:
        """Each input's median latency over the passes."""
        return [statistics.median(col) for col in zip(*self.passes)]


def run_passes(ops: list[Op], seconds: float, min_passes: int = 1, tracer=None,
               between: Callable[[], None] | None = None) -> Tally:
    """Closed loop over whole passes until `seconds` and `min_passes` are both reached."""
    tally = Tally()
    t_start = time.perf_counter()
    while len(tally.passes) < min_passes or time.perf_counter() - t_start < seconds:
        lat = []
        for op in ops:
            if tracer is not None:
                tracer.op_id = tally.attempted + len(lat)
            t0 = time.perf_counter()
            try:
                raw = op.run()
            except (Exception, SystemExit) as exc:
                raw = exc
            lat.append(time.perf_counter() - t0)
            problems, mismatch = judge(op, raw)
            tally.mismatched += mismatch
            if problems:
                tally.failed += 1
                tally.failures.append({"pass": len(tally.passes), "op": op.name, "problems": problems})
        tally.passes.append(lat)
        if between is not None:
            between()
    tally.wall_s = time.perf_counter() - t_start
    return tally


# -- self-checks ---------------------------------------------------------------


def checker_catches_wrong_value(ops: list[Op]) -> bool:
    """A reference with one wrong value must fail the op it describes."""
    pencils = [op for op in ops if not op.closed_form]
    for op in ops[:2] + pencils[:1]:
        raw = op.run()
        if judge(op, raw)[0]:
            return False  # the unmodified reference must pass
        e = op.expected
        wrong = [replace(e, center_dim=e.center_dim + 1)]
        if e.schur is not None:
            wrong.append(replace(e, schur=e.schur + 1))
        if e.tensor is not None:
            wrong.append(replace(e, tensor=e.tensor + 1))
        for bad in wrong:
            if not judge(replace(op, expected=bad), raw)[0]:
                return False
    return True


def inputs_deterministic(workload: str, seed: int) -> bool:
    """Same seed, byte-identical documents; for `sweep`, another seed gives other ones."""
    if workload == "suite":
        return True  # builtin_suite takes no seed

    def docs(s):
        return [(i.doc, i.flags) for i in generate(workload, s)]

    return docs(seed) == docs(seed) and (workload != "sweep" or docs(seed) != docs(seed + 1))


def lines_check(tracer, ops: list[Op]) -> tuple[int, int]:
    """(lines the traced sweep visited, sum of (p^z - 1)/(p - 1) over the inputs)."""
    swept = sum(lines for _, lines, _ in tracer.epicenter_calls())
    return swept, sum(op.expected.lines for op in ops)


# -- measurement ---------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> float:
    """Fresh-interpreter set-up: import liemult and build the run's inputs."""
    t0 = time.perf_counter()
    build_ops(import_liemult(), workload, seed)
    return time.perf_counter() - t0


def probe_setup(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def tail_level(n: int) -> int:
    """Highest integer percentile with at least 10 of n samples beyond it."""
    return max(1, (100 * (n - 10)) // n)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def machine_facts(seed: int) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "liemult").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def untraced_run(liemult, args, spec) -> dict:
    setup_times = [probe_setup(args.workload, args.seed)]
    ops = build_ops(liemult, args.workload, args.seed)
    self_checks = {
        "inputs_deterministic": inputs_deterministic(args.workload, args.seed),
        "checker_catches_wrong_value": checker_catches_wrong_value(ops),
    }

    def between():
        # spread the set-up probes over the run, so they sample its slow and fast spells
        if len(setup_times) < SETUP_PROBES:
            setup_times.append(probe_setup(args.workload, args.seed))

    tally = run_passes(ops, args.seconds, MIN_PASSES, between=between)
    while len(setup_times) < SETUP_PROBES:
        between()
    lat = tally.typical()
    level = tail_level(len(lat))
    tail_s = statistics.quantiles(lat, n=100, method="inclusive")[level - 1]
    values = {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * tail_s,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "ops_per_s": f"{len(lat)} inputs at their median latency over {len(tally.passes)} passes",
        "op_p50_ms": f"median over {len(lat)} inputs",
        "op_tail_ms": f"p{level}, {sum(x > tail_s for x in lat)} of {len(lat)} inputs beyond it",
        "setup_s": f"median of {SETUP_PROBES} fresh interpreters: "
                   + ", ".join(f"{t:.4f}" for t in setup_times),
    }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    for name, m in metrics.items():
        print(f"{name:<15} {m['value']:<14.6g} {m['unit']:<6} {notes.get(name, '')}")
    n = tally.attempted
    shares = {"failed_share": tally.failed / n, "mismatch_share": tally.mismatched / n}
    print(f"{'failed_share':<15} {shares['failed_share']:<14.6g} {'ratio':<6} {tally.failed} of {n} ops")
    print(f"{'mismatch_share':<15} {shares['mismatch_share']:<14.6g} {'ratio':<6} "
          f"{tally.mismatched} of {n} ops report MISMATCH (liemult's own formula != oracle)")
    all_lat = [x for p in tally.passes for x in p]
    print(f"load: closed loop, 1 client, {len(tally.passes)} whole passes, {n} ops in "
          f"{tally.wall_s:.1f} s; mean over all ops {len(all_lat) / sum(all_lat):.4g} ops/s")
    return {
        "correct": tally.failed == 0 and all(self_checks.values()),
        "attempted": n,
        "failed": tally.failed,
        "metrics": metrics,
        "details": {"self_checks": self_checks, "notes": notes, **shares,
                    "pass_seconds": [sum(p) for p in tally.passes],
                    "ops": [op.name for op in ops],
                    "latency_ms": [[1e3 * x for x in p] for p in tally.passes],
                    "failures": tally.failures[:20]},
    }


def traced_pass(liemult, workload: str, seed: int):
    """Build the inputs and run one pass under a fresh tracer: (tracer, tally, ops)."""
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        ops = build_ops(liemult, workload, seed)
        tally = run_passes(ops, 0, tracer=tracer)
    finally:
        tracer.uninstall()
    return tracer, tally, ops


def traced_run(liemult, args, spec) -> dict:
    base = run_passes(build_ops(liemult, args.workload, args.seed), 0)
    tracer, tally, ops = traced_pass(liemult, args.workload, args.seed)
    layer = tracer.metrics()
    layer["trace.overhead"] = tally.wall_s / base.wall_s
    swept, want = lines_check(tracer, ops)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    layer_map = json.loads((Path(__file__).parent / "design.json").read_text())["layer_map"]
    metrics = {}
    for m in spec["per_layer"]:
        name = m["name"]
        group = [k for k in layer_map if name == k or name.startswith(k + ".")]
        if not group:
            sys.exit(f"error: per-layer metric {name} has no entry in design.json's layer_map")
        moves = layer_map[group[0]]
        metrics[name] = {"value": layer[name], "unit": m["unit"]}
        print(f"{name:<36} {layer[name]:<14.6g} {m['unit']:<6} "
              f"moves {','.join(moves['moves']) or '-'} on {','.join(moves['on']) or '-'}")
    print(f"tracing overhead: traced pass {tally.wall_s:.3f} s / untraced pass "
          f"{base.wall_s:.3f} s = {layer['trace.overhead']:.3f}")
    # a count check on the sweep as it is built today; it does not gate `correct`,
    # because a faster capability test may legitimately sweep fewer lines
    print(f"epicenter lines: swept {swept}, sum of (p^z-1)/(p-1) over the inputs {want}: "
          f"{'equal' if swept == want else 'DIFFERENT'}")
    failed = tally.failed + base.failed
    return {
        "correct": failed == 0,
        "attempted": tally.attempted + base.attempted,
        "failed": failed,
        "metrics": metrics,
        "details": {"lines_swept": swept, "lines_expected": want,
                    "mismatch_share": tally.mismatched / tally.attempted,
                    "failures": (base.failures + tally.failures)[:20]},
    }


def self_test(liemult, workloads, seed: int) -> bool:
    ok = True

    def verdict(name, passed, note=""):
        nonlocal ok
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'}  {name}  {note}", flush=True)

    for w in workloads:
        verdict(f"{w}: same seed gives byte-identical inputs", inputs_deterministic(w, seed))
        verdict(f"{w}: a wrong expected value is caught",
                checker_catches_wrong_value(build_ops(liemult, w, seed)))
        runs = [traced_pass(liemult, w, seed) for _ in range(2)]
        counts = []
        for tracer, _, _ in runs:
            m = tracer.metrics()
            counts.append((m["cohomology.cochain_complex.calls"], m["cohomology.epicenter.lines"]))
        verdict(f"{w}: two traced runs give identical exact counts", counts[0] == counts[1],
                f"(cochain_complex.calls, epicenter.lines) = {counts}")
        tracer, tally, ops = runs[0]
        swept, want = lines_check(tracer, ops)
        verdict(f"{w}: epicenter lines = sum (p^z-1)/(p-1)", swept == want, f"{swept} vs {want}")
        verdict(f"{w}: every op matches its reference", tally.failed == 0,
                f"{tally.failed} failed, {tally.mismatched} MISMATCH of {tally.attempted}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(f"{setup_probe(args.workload, args.seed):.9f}")
        return 0
    liemult = import_liemult()
    if args.self_test:
        return 0 if self_test(liemult, [args.workload] if args.workload else WORKLOADS, args.seed) else 1
    if args.workload is None:
        parser.error("--workload is required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    facts = machine_facts(args.seed)
    print(f"liemult benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + json.dumps(facts))
    result = (traced_run if args.trace else untraced_run)(liemult, args, spec)
    details = result.pop("details")
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "machine": facts, **result, **details}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    for f in details["failures"]:
        print(f"FAILED {f}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
