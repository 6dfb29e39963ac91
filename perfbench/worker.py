"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py PLAN.json RESULT.json

The plan names the package's source directory, the output directory, the
operations and, for a traced pass, where the spans go.  The worker times
``import chebquad, chebquad.cli`` first, so nothing but the standard
library may be imported above that point.  It then sends every command
through ``chebquad.cli.main`` in-process, one at a time, and writes its
timings and peak RSS to RESULT.json.
"""

import json
import os
import resource
import sys
import time


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    src = plan["src"]
    sys.path.insert(0, src)
    start = time.perf_counter()
    import chebquad
    import chebquad.cli
    setup_s = time.perf_counter() - start
    if not os.path.realpath(chebquad.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"worker: chebquad imported from {chebquad.__file__}, not {src}",
              file=sys.stderr)
        return 2

    tracer = None
    if plan.get("trace_path"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install("chebquad")

    op_s, codes = [], []
    start = time.perf_counter()
    for i, op in enumerate(plan["ops"]):
        t0 = time.perf_counter()
        codes.append([
            chebquad.cli.main(argv + ["--out", os.path.join(plan["out"], f"{i}-{j}.csv")])
            for j, argv in enumerate(op["commands"])
        ])
        op_s.append(time.perf_counter() - t0)
    wall_s = time.perf_counter() - start

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "op_s": op_s,
        "codes": codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.report()
        tracer.dump(plan["trace_path"])
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
