"""Record the per-item output digests that the benchmark gate compares.

usage: python3 perfbench/record_digests.py

Runs one untraced repetition of every workload for each of SEEDS and
rewrites perfbench/digests.json.  A seed is recorded only when all of its
items pass the gate's other checks, so a broken program cannot be recorded
as the reference.  Run it only on a commit whose outputs are known good; the
recorded file says which commit that was.
"""

from __future__ import annotations

import json

import run
import workloads

SEEDS = range(20)


def record() -> dict:
    out: dict = {"commit": run.git_state()["commit"]}
    run.OUT.mkdir(exist_ok=True)
    for name in workloads.NAMES:
        out[name] = {}
        for seed in SEEDS:
            wl = run.Workload(name, seed)
            wl.expected = {}
            rep = wl.run_rep(trace=False)
            attempted, failures = run.gate(wl, [rep])
            if failures:
                raise SystemExit(f"{name} seed {seed}: {failures[:3]}")
            out[name][str(seed)] = {str(i["id"]): i["digest"]
                                    for r in rep for i in r["items"]}
            print(f"{name} seed {seed}: {attempted} items", flush=True)
    return out


if __name__ == "__main__":
    (run.HERE / "digests.json").write_text(
        json.dumps(record(), separators=(",", ":")) + "\n", encoding="utf-8")
