"""The committed benchmark trajectory: every ``BENCH_*.json`` at the root of
the repository is a whole record of one benchmark run.

`scripts/bench_record.py` writes these files; each must hold a correct,
failure-free result for every workload that ``BENCHMARK.json`` declares,
with every end-to-end metric it declares in that metric's unit, at the
benchmark's own run length, and name the seed and commit it measured.
"""

import json
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_the_trajectory_has_a_record():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_is_a_whole_benchmark_run(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert record["seconds"] == SPEC["run_seconds"] == 36
    assert type(record["seed"]) is int
    assert re.fullmatch(r"[0-9a-f]{40}", record["commit"])
    workloads = record["workloads"]
    assert sorted(workloads) == sorted(w["name"] for w in SPEC["workloads"])
    for name, result in workloads.items():
        assert (name, result["correct"], result["failed"]) == (name, True, 0)
        metrics = result["metrics"]
        for metric in SPEC["end_to_end"]:
            assert metrics[metric["name"]]["unit"] == metric["unit"], (
                name, metric["name"])
