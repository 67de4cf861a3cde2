"""Tests of the benchmark itself.

usage: python3 perfbench/selftest.py     (about two minutes)

For every workload it runs one untraced and two traced repetitions of one
seed (SEED) and checks that
  * the two traced runs give identical per-layer counts, and
  * tracing leaves every item's output digest unchanged;
and it checks that BENCHMARK.json names exactly the metrics run.py reports.
Exits 1 and names each broken property when one does not hold.
"""

from __future__ import annotations

import json
import sys

import layertrace
import run
import workloads

SEED = 3


def counts(rep: list[dict]) -> dict:
    merged, _ = layertrace.combine([r["layers"] for r in rep])
    return {name: merged[name] for name, (unit, _) in layertrace.METRICS.items()
            if unit in ("count", "ratio") and not name.endswith("_s")}


def digests(rep: list[dict]) -> list:
    return [(i["id"], i.get("digest")) for r in rep for i in r["items"]]


def check_workload(name: str, seed: int) -> list[str]:
    wl = run.Workload(name, seed)
    run.OUT.mkdir(exist_ok=True)
    plain = wl.run_rep(trace=False)
    first, second = wl.run_rep(trace=True), wl.run_rep(trace=True)
    errors = [r["error"] for rep in (plain, first, second) for r in rep
              if "error" in r]
    if errors:
        return [f"{name}: a child failed: {errors[0]}"]
    problems = []
    a, b = counts(first), counts(second)
    for metric in sorted(a):
        if a[metric] != b[metric]:
            problems.append(f"{name}: {metric} differs between traced runs "
                            f"({a[metric]} vs {b[metric]})")
    if digests(plain) != digests(first):
        problems.append(f"{name}: tracing changed an output digest")
    print(f"{name} seed {seed}: {len(a)} counts repeat, "
          f"{len(digests(plain))} digests compared", flush=True)
    return problems


def check_declaration() -> list[str]:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if declared != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if declared != run.per_layer_units():
        problems.append("BENCHMARK.json per_layer differs from the traced metrics")
    if [w["name"] for w in bench["workloads"]] != list(workloads.NAMES):
        problems.append("BENCHMARK.json workloads differ from workloads.NAMES")
    return problems


def main() -> int:
    problems = check_declaration()
    for name in workloads.NAMES:
        problems += check_workload(name, SEED)
    for p in problems:
        print(f"FAILED {p}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
