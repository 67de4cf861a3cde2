"""liftcalc benchmark: cold-process workloads, end to end and layer by layer.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each repetition of a workload runs in a
fresh interpreter (`child.py`), started one at a time by this process, so
every repetition starts with cold liftcalc caches.  Each child times a
small fixed probe every few tenths of a second and reports its times scaled
to a reference host speed (see child.py).  With --trace 0 it repeats the
workload until --seconds is spent and prints the end-to-end metrics; with
--trace 1 it runs one untraced and one traced repetition and prints the
per-layer metrics.  Every item's output is checked; the last
line of stdout is one JSON object with correct/attempted/failed/metrics.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s",
              "item_p50_ms": "ms", "item_p90_ms": "ms", "peak_rss_mb": "MB"}
# Extra set-up-only children per run, so setup_s is a median of many.
SETUP_SAMPLES = 20
CHILD_TIMEOUT_S = 170


# -- context ------------------------------------------------------------------

def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"commit": "unavailable (not a git checkout)", "dirty": None}
    def git(*args):
        return subprocess.run(["git", "--no-optional-locks", *args], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    head = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"commit": head.stdout.strip() or "unknown",
            "dirty": bool(status.stdout.strip())}


def run_context(args, workload: str) -> dict:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(), "nproc": os.cpu_count(),
            **git_state(), "workload": workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


# -- children -----------------------------------------------------------------

def spawn(spec: dict) -> dict:
    """Run one child to completion and return its result, or an error."""
    spec_path = OUT / f"child-spec-{os.getpid()}.json"
    result_path = OUT / f"child-result-{os.getpid()}.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    result_path.unlink(missing_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-s", str(HERE / "child.py"), str(spec_path),
             str(result_path)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"child timed out after {CHILD_TIMEOUT_S} s"}
    finally:
        spec_path.unlink(missing_ok=True)
    if proc.returncode != 0 or not result_path.exists():
        return {"error": f"child exit {proc.returncode}: "
                         f"{proc.stderr.strip()[-800:]}"}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result_path.unlink()
    result["setup_s"] = result["setup_end"] - start
    return result


class Workload:
    """Inputs, child specs and the per-item gate of one workload."""

    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed
        digests = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
        self.expected = digests[name].get(str(seed), {})
        self.keep: list[int] = []
        if name == "suite-sweep":
            self.specs = [{"argv": workloads.sweep_argv(seed)}]
            self.per_child = workloads.SWEEP_CLAUSES
        elif name == "compare-cold":
            self.specs = [{"argv": workloads.compare_argv(p, seed)}
                          for p in workloads.COMPARE_VERDICTS]
            self.per_child = 1
        else:
            self.session = workloads.lift_requests(seed)
            eligible = [n for n, r in enumerate(self.session["requests"])
                        if r["kind"] in workloads.ORACLE_KINDS]
            self.keep = sorted(random.Random(seed).sample(
                eligible, workloads.ORACLE_SAMPLE))
            self.specs = [{"session": self.session, "keep": self.keep}]
            self.per_child = workloads.LIFT_REQUESTS
        for spec in self.specs:
            spec["workload"] = name

    def item_failures(self, res: dict) -> list[str]:
        """Why items of one child failed, one entry per failed item.  A
        child that broke or exited nonzero fails all of its items."""
        if "error" in res:
            return [res["error"]] * self.per_child
        items = res["items"]
        bad = [f"item {item.get('id')}: {why}" for item in items
               if (why := self._check(item))]
        bad += ["item missing"] * (self.per_child - len(items))
        if res["rc"] != 0:
            bad += [f"exit code {res['rc']}: {res['stderr'].strip()[-300:]}"] \
                * (self.per_child - len(bad))
        return bad[:self.per_child]

    def _check(self, item: dict) -> str | None:
        if self.name == "suite-sweep":
            status = item["status"]
            if status == "FAIL":
                return "FAIL"
            if status == "CONFLICT" and item["id"] not in workloads.DOCUMENTED_CONFLICTS:
                return "undocumented CONFLICT"
            if status not in ("PASS", "CONFLICT"):
                return f"unknown status {status!r}"
        elif self.name == "compare-cold":
            want = workloads.COMPARE_VERDICTS[item["id"]]
            if item["verdict"] != want:
                return f"verdict {item['verdict']}, README says {want}"
        elif "error" in item:
            return item["error"]
        elif not item["ok"]:
            return "format_expr -> parse round trip changed the output"
        recorded = self.expected.get(str(item["id"]))
        if recorded is not None and item["digest"] != recorded:
            return "output digest differs from the recorded one"
        return None

    def run_rep(self, trace: bool) -> list[dict]:
        """One repetition: its children, in turn.  Traced children also
        write their spans to perfbench/out/."""
        results = []
        for idx, spec in enumerate(self.specs):
            spec = dict(spec, trace=trace)
            if trace:
                spec["dump"] = str(OUT / f"spans-{self.name}-seed{self.seed}-{idx}.json")
            results.append(spawn(spec))
        return results

    def setup_only(self) -> dict:
        return spawn(dict(self.specs[0], trace=False, setup_only=True))


# -- measurement --------------------------------------------------------------

def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def rep_summary(results: list[dict], wl: "Workload") -> dict | None:
    """Timings of one repetition, scaled to the reference host, or None
    when a child broke."""
    if any("error" in r for r in results):
        return None
    wall = sum(r["timed_s"] * r["scale"] for r in results)
    latency = [i["s"] * r["scale"] for r in results for i in r["items"]] \
        if wl.name == "lift-direct" else [wall]
    return {"wall_s": wall, "items_per_s": wl.per_child * len(results) / wall,
            "raw_wall_s": sum(r["timed_s"] for r in results),
            "rss_mb": max(r["maxrss_kb"] for r in results) / 1024,
            "latency_s": latency, "children": results}


def gate(wl: Workload, reps: list[list[dict]]) -> tuple[int, list[str]]:
    attempted, failures = 0, []
    for rep in reps:
        for res in rep:
            attempted += wl.per_child
            failures += wl.item_failures(res)
    return attempted, failures


def run_oracle(wl: Workload, rep: list[dict]) -> tuple[str, list[str]]:
    if wl.name != "lift-direct" or "error" in rep[0]:
        return "not applicable", []
    texts = {i["id"]: i.get("text") for i in rep[0]["items"]}
    cases = []
    for n in wl.keep:
        req = wl.session["requests"][n]
        if texts.get(n) is None:
            return "not run (sampled outputs missing)", []
        cases.append((req["kind"], req["value"], wl.session["k"], texts[n]))
    outcome = oracle.check(cases)
    if outcome is None:
        return "skipped (sympy not installed)", []
    checked, bad = outcome
    return (f"passed {checked - len(bad)}/{checked} "
            f"(items {', '.join(map(str, wl.keep))})"), bad


def measure(wl: Workload, seconds: int) -> tuple[dict, list, dict]:
    """Untraced repetitions until `seconds` is spent.  A repetition is
    started only while the slowest one so far would end less than half a
    repetition past `seconds`, so a run lasts at most that long."""
    OUT.mkdir(exist_ok=True)
    wl.setup_only()  # warm-up: byte-compiles sources and fills the page cache
    start = time.perf_counter()
    setups = [wl.setup_only() for _ in range(SETUP_SAMPLES)]
    reps, slowest = [], 0.0
    while True:
        rep_start = time.perf_counter()
        reps.append(wl.run_rep(trace=False))
        now = time.perf_counter()
        slowest = max(slowest, now - rep_start)
        if now - start + slowest / 2 > seconds:
            break
    summaries = [rep_summary(r, wl) for r in reps]
    if any(s is None for s in summaries) or any("error" in s for s in setups):
        return {}, reps, {}
    items_ms = [s * 1000 for sm in summaries for s in sm["latency_s"]]
    children = setups + [c for sm in summaries for c in sm["children"]]
    metrics = {
        "setup_s": statistics.median(c["setup_s"] * c["setup_scale"]
                                     for c in children),
        "wall_s": statistics.median(s["wall_s"] for s in summaries),
        "items_per_s": statistics.median(s["items_per_s"] for s in summaries),
        "item_p50_ms": statistics.median(items_ms),
        "item_p90_ms": percentile(items_ms, 90),
        "peak_rss_mb": statistics.median(s["rss_mb"] for s in summaries),
    }
    extra = {"repetitions": len(reps), "item_samples": len(items_ms),
             "setup_samples": len(children),
             "probe_ms": [round(c["probe_s"] * 1000, 3) for c in children],
             "unscaled_setup_s": statistics.median(c["setup_s"] for c in children),
             "unscaled_wall_s": statistics.median(s["raw_wall_s"] for s in summaries),
             "wall_s_each": [s["wall_s"] for s in summaries]}
    return metrics, reps, extra


def measure_traced(wl: Workload) -> tuple[dict, list, dict]:
    OUT.mkdir(exist_ok=True)
    plain = wl.run_rep(trace=False)
    traced = wl.run_rep(trace=True)
    reps = [plain, traced]
    plain_sum, traced_sum = rep_summary(plain, wl), rep_summary(traced, wl)
    if plain_sum is None or traced_sum is None:
        return {}, reps, {}
    layers, absent = layertrace.combine([r["layers"] for r in traced])
    layers["perfbench.trace_overhead_s"] = traced_sum["wall_s"] - plain_sum["wall_s"]
    extra = {"absent": absent,
             "probe_ms": [round(c["probe_s"] * 1000, 3) for c in plain + traced],
             "untraced_wall_s": plain_sum["wall_s"],
             "traced_wall_s": traced_sum["wall_s"]}
    return layers, reps, extra


def per_layer_units() -> dict[str, str]:
    units = {name: unit for name, (unit, _) in layertrace.METRICS.items()}
    units.update({"perfbench.trace_overhead_s": "s",
                  "perfbench.fail_ratio": "ratio"})
    return units


def run_workload(name: str, args) -> int:
    """Measure one workload, print its report and, last, its JSON line."""
    context = run_context(args, name)
    wl = Workload(name, args.seed)
    if args.trace:
        values, reps, extra = measure_traced(wl)
        units = per_layer_units()
    else:
        values, reps, extra = measure(wl, args.seconds)
        units = END_TO_END
    attempted, failures = gate(wl, reps)
    oracle_status, oracle_bad = run_oracle(wl, reps[0])
    failures += [f"oracle: {b}" for b in oracle_bad]
    if not values:
        print(f"error: {name}: a repetition left no timings; "
              f"{len(failures)} failed items, first: {failures[:1]}", file=sys.stderr)
        return 1
    failed = min(attempted, len(failures))
    if args.trace:
        values["perfbench.fail_ratio"] = failed / attempted
    context.update(extra, oracle=oracle_status,
                   digests="checked" if wl.expected else "no recorded digests for this seed")

    print(f"liftcalc benchmark: workload={name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    for key in ("python", "platform", "nproc", "commit", "dirty", "repetitions",
                "item_samples", "setup_samples", "unscaled_setup_s",
                "unscaled_wall_s", "untraced_wall_s", "traced_wall_s",
                "oracle", "digests"):
        if key in context:
            print(f"  {key}: {context[key]}")
    probes = context["probe_ms"]
    print(f"  probe_ms per child: "
          f"min {min(probes):.2f}, median {statistics.median(probes):.2f}, "
          f"max {max(probes):.2f}")
    if context.get("absent"):
        print(f"  absent (reported as 0): {', '.join(context['absent'])}")
    for metric, value in values.items():
        print(f"  {metric} = {value:.6g} {units[metric]}")
    print(f"  fail_ratio = {failed / attempted:.6g} ({failed}/{attempted})")
    for why in failures[:10]:
        print(f"  FAILED {why}")

    record = {"context": context, "attempted": attempted, "failed": failed,
              "failures": failures[:50], "metrics": values}
    (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {metric: {"value": value, "unit": units[metric]}
                    for metric, value in values.items()}}), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "liftcalc" / "__init__.py").is_file():
        print(f"error: no liftcalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    return max(run_workload(name, args) for name in names)


if __name__ == "__main__":
    sys.exit(main())
