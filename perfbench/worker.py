"""One timed run of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --setup     print the monotonic clock once
                                            `loomfold.cli` is imported
    python3 perfbench/worker.py < job.json  run a job, print one JSON line

A job is {"workload", "items", "digest", "trace", "trace_out"}.  loomfold is
imported from the `src/` directory of the checkout that holds this file and
from nowhere else, so a checkout without it fails here.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import loomfold.cli  # noqa: E402  (set-up ends here)

IMPORTED = time.monotonic()

import json  # noqa: E402


def main() -> int:
    if not loomfold.__file__.startswith(SRC + os.sep):
        print(f"loomfold imported from {loomfold.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if sys.argv[1:] == ["--setup"]:
        print(repr(IMPORTED))
        return 0
    import spans
    import workloads

    job = json.load(sys.stdin)
    items = workloads.prepare(job["workload"], job["items"])
    tracer = None
    if job["trace"]:
        tracer = spans.Tracer()
        spans.install(tracer)
    res = workloads.run(job["workload"], items, tracer, job["digest"])
    out = {
        "wall_s": res.wall_s, "queries_ms": res.queries_ms,
        "attempted": res.attempted, "failed": res.failed, "errors": res.errors,
        "digest": res.digest(), "slowest": res.slowest(),
    }
    if tracer is not None:
        out["layers"] = spans.layer_metrics(tracer, res.wall_s)
        if job["trace_out"]:
            with open(job["trace_out"], "w") as fh:
                json.dump({"workload": job["workload"], "items": res.labels,
                           "slowest_items": out["slowest"], "layers": out["layers"],
                           "span_fields": ["name", "parent", "item", "start", "end"],
                           "spans": tracer.spans}, fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
