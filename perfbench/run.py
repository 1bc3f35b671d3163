"""loomfold benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 30 --trace 0

Run from anywhere; the checkout is the directory above this file and
loomfold is imported from its `src/`.  Each repetition of the workload runs
in a fresh interpreter (`worker.py`), because every loomfold cache lives
only as long as its process and a user pays to fill them on every run.
Rounds of repetitions follow one another while the next one would end
less than half a round after `--seconds`; there is always at least one.

With `--trace 0` the last line of stdout carries the end-to-end metrics of
BENCHMARK.json, with `--trace 1` its per-layer metrics, taken from traced
repetitions that alternate with untraced ones.  The line before it is a
record of the run: repetition times, set-up samples, a calibration loop's
time before every round, the result digests and the first errors.
Exits 2 without a result when the checkout has no loomfold sources, and 1
when a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
SETUP_PER_ROUND = 3


class WorkerFailed(RuntimeError):
    """A worker process exited non-zero or printed no result."""


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: a record of machine speed, not a metric.

    On a shared 2-vCPU VM this loop's time moved by up to 1.8x within a
    minute, with CPU time equal to wall time; this record, taken before
    every round, makes such drift visible beside the figures it moves.
    """
    t0 = time.perf_counter()
    x = 0
    for i in range(1_000_000):
        x += i * i % 7
    return time.perf_counter() - t0


def spawn(job: dict) -> dict:
    """Run one worker on `job`; its result plus the child's peak RSS in MB."""
    proc = subprocess.Popen([sys.executable, WORKER], cwd=ROOT,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        proc.stdin.write(json.dumps(job).encode())
        proc.stdin.close()
        out = proc.stdout.read()
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    if proc.returncode != 0 or not out.strip():
        raise WorkerFailed(f"worker for {job['workload']} exited {proc.returncode}")
    res = json.loads(out.decode().splitlines()[-1])
    res["peak_rss_mb"] = usage.ru_maxrss / 1024    # ru_maxrss is in KiB on Linux
    return res


def setup_once() -> float:
    """Seconds from starting a fresh interpreter until `loomfold.cli` is imported."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, WORKER, "--setup"], cwd=ROOT,
                          stdout=subprocess.PIPE, check=False)
    if proc.returncode != 0:
        raise WorkerFailed(f"set-up worker exited {proc.returncode}")
    return float(proc.stdout) - t0


def repeat(seconds: float, jobs_for, setups: int, record: dict) -> tuple[list[list[dict]], list[float]]:
    """Run as many rounds as end nearest to `seconds`, and at least one.

    Round k is the calibration loop, `setups` set-up measurements, then
    each job of `jobs_for(k)` once.  Another round starts only if it would
    end less than half a round after `seconds`.  Spreading the set-up
    measurements over the run keeps their median from resting on one
    moment of the machine.
    """
    start = time.monotonic()
    rounds, setup = [], []
    while True:
        t0 = time.monotonic()
        record["calibration_s"].append(calibrate())
        setup += [setup_once() for _ in range(setups)]
        rounds.append([spawn(job) for job in jobs_for(len(rounds))])
        now = time.monotonic()
        if now - start + (now - t0) / 2 > seconds:
            return rounds, setup


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated inside the samples' range."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "loomfold", "__init__.py")):
        print(f"no loomfold sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    with open(os.path.join(HERE, "digests.json")) as fh:
        expected = json.load(fh).get(args.workload)
    trace_out = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)

    def jobs_for(k: int) -> list[dict]:
        # Round k draws its own items from the seed, so that one run covers
        # several draws and its medians do not rest on one of them.
        items = workloads.make_items(args.workload, args.seed * 1000 + k)
        job = {"workload": args.workload, "items": items, "digest": expected,
               "trace": False, "trace_out": None}
        return [job, dict(job, trace=True, trace_out=trace_out)] if args.trace else [job]

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "python": platform.python_version(), "calibration_s": []}
    try:
        rounds, setup = repeat(args.seconds, jobs_for, 0 if args.trace else SETUP_PER_ROUND, record)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        metrics = traced_metrics(rounds)
    else:
        metrics = end_to_end_metrics([r[0] for r in rounds], setup)
        record["setup_s"] = setup
    runs = [res for rnd in rounds for res in rnd]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    record.update({
        "repetitions": len(rounds),
        "wall_s": [[res["wall_s"] for res in rnd] for rnd in rounds],
        "query_samples": sum(len(r["queries_ms"]) for r in runs),
        "fail_frac": failed / attempted,
        "digests": sorted({r["digest"] for r in runs}),
        "errors": [e for r in runs for e in r["errors"]][:10],
        "slowest_items": runs[0]["slowest"],
    })
    print(json.dumps({"record": record}))
    declared = bench["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


def end_to_end_metrics(runs: list[dict], setup: list[float]) -> dict[str, float]:
    latencies = [x for r in runs for x in r["queries_ms"]]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "query_p50_ms": statistics.median(latencies),
        "query_p95_ms": quantile(latencies, 95),
    }


def traced_metrics(rounds: list[list[dict]]) -> dict[str, float]:
    traced = [t for _, t in rounds]
    out = {name: statistics.median(t["layers"][name] for t in traced)
           for name in traced[0]["layers"]}
    out["trace.overhead"] = (sum(t["wall_s"] for t in traced)
                             / sum(u["wall_s"] for u, _ in rounds))
    return out


if __name__ == "__main__":
    sys.exit(main())
