"""chebquad benchmark: `quad` workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload gauss-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The package is imported from ``src/``
and the moment references from ``tests/oracles.py``; nothing is installed.

With ``--trace 0`` the run first starts two import-only interpreters, then
runs whole passes over the workload, each in a fresh interpreter with
empty package caches, until ``--seconds`` have gone by (at least one
pass).  It reports the median import time (``setup_s``, over the probes
and the passes), the median pass time (``wall_s``), the median operation
time over all passes (``op_p50_s``) and the median peak RSS of a pass
(``peak_rss_mb``).

With ``--trace 1`` it runs one pass with every public function of the
package wrapped in a span (see tracing.py), writes the spans to
``.perfbench/trace-<workload>-seed<seed>.jsonl`` and reports the
per-layer metrics, plus ``python -X importtime`` figures per module.

Every output is checked against independent references (checks.py).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench")
IMPORT_PROBES = 2
WORKER_TIMEOUT_S = 170


def run_worker(workdir: str, name: str, ops: list, trace_path: str | None = None) -> dict:
    """One fresh interpreter: import chebquad, run ``ops``, report timings."""
    out = os.path.join(workdir, name)
    os.mkdir(out)
    plan_path = os.path.join(workdir, f"{name}.plan.json")
    result_path = os.path.join(workdir, f"{name}.result.json")
    with open(plan_path, "w", encoding="utf-8") as handle:
        json.dump({"src": SRC, "out": out, "ops": ops, "trace_path": trace_path}, handle)
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), plan_path, result_path],
                   check=True, timeout=WORKER_TIMEOUT_S, stdout=subprocess.DEVNULL)
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)
    result["out"] = out
    return result


def import_times() -> dict:
    """Cumulative import time of each package module, from -X importtime."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import chebquad, chebquad.cli"
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                          check=True, timeout=WORKER_TIMEOUT_S, capture_output=True, text=True)
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip().startswith("chebquad."):
            cumulative[parts[2].strip()[len("chebquad."):]] = int(parts[1]) / 1e6
    return {f"{m}.import_s": {"value": cumulative[m], "unit": "s"} for m in tracing.MODULES}


def check_pass(ops: list, result: dict) -> tuple[int, bool, list[str]]:
    """(failed operations, whether all failures are known faults, reasons)."""
    import checks

    failed, expected, reasons = 0, True, []
    for i, (op, codes) in enumerate(zip(ops, result["codes"])):
        problems = []
        for j, (argv, code) in enumerate(zip(op["commands"], codes)):
            path = os.path.join(result["out"], f"{i}-{j}.csv")
            text = None
            if os.path.exists(path):
                with open(path, encoding="utf-8") as handle:
                    text = handle.read()
            problem = checks.check(argv, code, text)
            if problem:
                problems.append(f"{' '.join(argv)}: {problem}")
        if problems:
            failed += 1
            expected &= op["known_fault"]
            reasons.extend(problems)
    return failed, expected, reasons


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (os.path.join(SRC, "chebquad", "cli.py"),
                   os.path.join(ROOT, "tests", "oracles.py")):
        if not os.path.isfile(needed):
            print(f"run.py: {needed} is missing; run from a chebquad checkout",
                  file=sys.stderr)
            return 2
    import checks

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    problems = checks.self_test()
    if problems:
        print("run.py: check self-test failed: " + "; ".join(problems), file=sys.stderr)
        return 2

    ops = workloads.build(args.workload, args.seed)
    os.makedirs(OUT_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_ROOT)
    try:
        if args.trace:
            trace_path = os.path.join(OUT_ROOT, f"trace-{args.workload}-seed{args.seed}.jsonl")
            passes = [run_worker(workdir, "pass0", ops, trace_path)]
            metrics = dict(passes[0]["layers"])
            metrics["trace.wall_s"] = {"value": passes[0]["wall_s"], "unit": "s"}
            metrics.update(import_times())
        else:
            probes = [run_worker(workdir, f"probe{i}", []) for i in range(IMPORT_PROBES)]
            passes = []
            start = time.perf_counter()
            while not passes or time.perf_counter() - start < args.seconds:
                passes.append(run_worker(workdir, f"pass{len(passes)}", ops))
            op_s = [t for p in passes for t in p["op_s"]]
            metrics = {
                "setup_s": statistics.median(p["setup_s"] for p in probes + passes),
                "wall_s": statistics.median(p["wall_s"] for p in passes),
                "op_p50_s": statistics.median(op_s),
                "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            }
            units = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}
            metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}

        failed, correct, reasons = 0, True, []
        for result in passes:
            f, expected, why = check_pass(ops, result)
            failed += f
            correct &= expected
            reasons.extend(why)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(ops) * len(passes)
    for reason in sorted(set(reasons)):
        print(f"failed: {reason}")
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} pass(es), "
          f"{attempted} operations, {failed} failed, correct={correct}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
