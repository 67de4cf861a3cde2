"""Record one benchmark run as a committed trajectory point.

usage: python3 scripts/bench_record.py --seed N --out BENCH_<n>.json

Runs ``perfbench/run.py --workload all --seconds S --trace 0`` for one
seed from the root of this checkout, at the benchmark's own run length S
(``run_seconds`` in ``BENCHMARK.json``, read at each run), and
writes a JSON file holding each workload's result line (its metrics,
``correct``, ``attempted`` and ``failed``) keyed by workload name, with the
commit, the interpreter and the host as run.py reports them under each
workload's header.  The benchmark itself is not changed or re-implemented
here.  Exits nonzero, writing nothing, when the run fails or a workload is
not correct.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HEADER = "liftcalc benchmark: workload="
CONTEXT_KEYS = ("commit", "dirty", "python", "platform", "nproc")


def value(text: str):
    """A context value as run.py prints it: a bool, None, an int or text."""
    literals = {"True": True, "False": False, "None": None}
    if text in literals:
        return literals[text]
    return int(text) if text.isdigit() else text


def results(stdout: str) -> tuple[dict, dict]:
    """Each workload's JSON result line, keyed by the name in the report
    header that precedes it, and the context (commit, interpreter, host)
    printed as ``  key: value`` lines under the first header."""
    found, context, name = {}, {}, None
    for line in stdout.splitlines():
        if line.startswith(HEADER):
            name = line[len(HEADER):].split()[0]
        elif line.startswith("{") and name is not None:
            found[name] = json.loads(line)
            name = None
        elif name is not None and not found and line.startswith("  "):
            key, sep, text = line.strip().partition(": ")
            if sep and key in CONTEXT_KEYS:
                context[key] = value(text)
    return found, context


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[
        "run_seconds"]
    command = [sys.executable, "perfbench/run.py", "--workload", "all",
               "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    workloads, context = results(proc.stdout)
    if proc.returncode or len(workloads) != 3 or not all(
            w["correct"] for w in workloads.values()):
        print(proc.stdout, end="")
        print(f"error: run exited {proc.returncode} with {len(workloads)} "
              f"result lines; nothing written", file=sys.stderr)
        return 1
    record = {**context, "seed": args.seed, "seconds": seconds,
              "command": " ".join(["python3", *command[1:]]),
              "workloads": workloads}
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
