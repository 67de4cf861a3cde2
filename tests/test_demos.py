"""The demos run end to end: each exits 0 and prints exactly its golden.

The demos are the only callers of parts of the public API outside the
tests (``HermitianPackage.flat`` among them).  Each runs in its own
interpreter, with this checkout's ``src`` first on the import path.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_golden():
    assert DEMOS
    assert sorted(p.name for p in GOLDEN.glob("demo_*.txt")) == [
        f"demo_{demo.stem}.txt" for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_is_golden(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == (GOLDEN / f"demo_{demo.stem}.txt").read_bytes()
