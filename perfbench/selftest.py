"""Self-test of the benchmark at a tiny size; about half a minute.

    python3 perfbench/selftest.py

Runs every workload through the real worker on a few small cells and
checks that the benchmark's own checks can fail: `verify-all
--inject-fault` and a corrupted digest must each give failed items, while
a clean run gives none and its digest does not depend on the seed.  A
traced run of each workload must emit every per-layer metric that
BENCHMARK.json declares.  Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import os
import sys

import run

sys.path.insert(0, os.path.join(run.ROOT, "src"))
import workloads  # noqa: E402

BAD_DIGEST = "0" * 64


def tiny_items(workload: str, seed: int) -> list:
    if workload == "verify_all":
        return workloads.verify_all_items(("verify-all", "--degree", "4"))
    if workload == "rank_sweep":
        return workloads.rank_sweep_items(seed, max_n=3)
    if workload == "series_deep":
        return workloads.series_deep_items(seed, max_n=2, degree=6)
    return workloads.cli_mix_items(seed, max_n=3, per_variant=2)


def job(workload: str, items: list, digest=None, trace=False) -> dict:
    return {"workload": workload, "items": items, "digest": digest,
            "trace": trace, "trace_out": None}


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    with open(os.path.join(run.HERE, "digests.json")) as fh:
        digested = set(json.load(fh))
    failures = 0

    def expect(ok: bool, what: str) -> None:
        nonlocal failures
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {what}")

    for w in workloads.WORKLOADS:
        clean = run.spawn(job(w, tiny_items(w, 1)))
        expect(clean["attempted"] > 0 and clean["failed"] == 0,
               f"{w}: clean run has no failed items {clean['errors']}")
        if w in digested:
            again = run.spawn(job(w, tiny_items(w, 2), digest=clean["digest"]))
            expect(again["failed"] == 0, f"{w}: digest is the same for another seed")
            bad = run.spawn(job(w, tiny_items(w, 1), digest=BAD_DIGEST))
            expect(bad["failed"] > 0, f"{w}: a corrupted digest fails the run")
        traced = run.spawn(job(w, tiny_items(w, 1), trace=True))
        emitted = set(run.traced_metrics([[clean, traced]]))
        expect(emitted == declared,
               f"{w}: traced run emits every per-layer metric {sorted(emitted ^ declared)}")

    fault = run.spawn(job("verify_all", workloads.verify_all_items(
        ("verify-all", "--degree", "4", "--inject-fault"))))
    expect(fault["failed"] / fault["attempted"] > 0,
           f"verify_all: --inject-fault gives fail_frac > 0 {fault['errors'][:2]}")
    print(f"selftest: {failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
