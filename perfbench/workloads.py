"""Workload definitions: seeded inputs and the expectations the gate checks.

Everything here is plain data built with the standard library; nothing
imports liftcalc, so run.py can build inputs without loading the
program it measures.
"""

from __future__ import annotations

import random

NAMES = ("suite-sweep", "compare-cold", "lift-direct")

# suite-sweep: one `check all` run through cli.main.
SWEEP_M, SWEEP_K = 1, 2
SWEEP_CLAUSES = 71
# Clauses documented to report CONFLICT (README, "Clause statuses").
DOCUMENTED_CONFLICTS = frozenset({"V15", "O14", "O8", "O12", "FR7", "T2", "T5"})

# compare-cold: each comparison in its own cold process.
COMPARE_M, COMPARE_K, COMPARE_SAMPLES = 2, 3, 2
# README table, k >= 2 column.
COMPARE_VERDICTS = {"P321": "MATCH", "P322": "MISMATCH", "P323": "MISMATCH",
                    "P331": "MATCH", "P332": "MISMATCH", "P333": "MISMATCH"}

# lift-direct: a library session of seeded requests, round-robin by kind.
LIFT_M, LIFT_K = 3, 5
LIFT_REQUESTS = 400
LIFT_KINDS = ("fn_complete", "fn_horizontal",
              "vf_complete_closed", "vf_cv_closed",
              "of_complete_closed", "of_cv_closed",
              "vf_horizontal", "of_horizontal")
# Kinds the sympy oracle recomputes independently.
ORACLE_KINDS = ("fn_complete", "fn_horizontal")
ORACLE_SAMPLE = 6


def sweep_argv(seed: int) -> list[str]:
    return ["check", "all", "--m", str(SWEEP_M), "--k", str(SWEEP_K),
            "--seed", str(seed)]


def compare_argv(prop: str, seed: int) -> list[str]:
    return ["compare", prop, "--m", str(COMPARE_M), "--k", str(COMPARE_K),
            "--seed", str(seed), "--samples", str(COMPARE_SAMPLES)]


# -- lift-direct inputs -------------------------------------------------------

def _fraction(rng: random.Random, bound: int = 5) -> str:
    return f"{rng.randint(-bound, bound)}/{rng.randint(1, bound)}"


def _coefficient(rng: random.Random) -> str:
    re, im = _fraction(rng), _fraction(rng)
    sign = "-" if im.startswith("-") else "+"
    return f"({re} {sign} {im.lstrip('-')}*i)"


def _poly(rng: random.Random, atoms: list[str], terms: int,
          max_degree: int = 3) -> str:
    """Text of a polynomial with `terms` terms of degree <= max_degree."""
    pieces = []
    for _ in range(terms):
        factors = [_coefficient(rng)]
        factors += [rng.choice(atoms) for _ in range(rng.randint(1, max_degree))]
        pieces.append("*".join(factors))
    return " + ".join(pieces)


def _base_atoms(m: int) -> list[str]:
    return [f"z0_{i}" for i in range(1, m + 1)] + \
           [f"zb0_{i}" for i in range(1, m + 1)]


def lift_requests(seed: int) -> dict:
    """The lift-direct session for one seed: a shared connection and
    LIFT_REQUESTS requests whose inputs are polynomial texts."""
    rng = random.Random(seed)
    atoms = _base_atoms(LIFT_M)
    scalar_atoms = atoms + ["t"]
    connection = {f"{r},{i},{j}": _poly(rng, atoms, 1, max_degree=1)
                  for r in range(LIFT_K)
                  for i in range(1, LIFT_M + 1)
                  for j in range(1, LIFT_M + 1)}
    requests = []
    for n in range(LIFT_REQUESTS):
        kind = LIFT_KINDS[n % len(LIFT_KINDS)]
        req: dict = {"kind": kind}
        if kind.startswith("fn_"):
            req["value"] = _poly(rng, scalar_atoms, rng.randint(2, 4))
        else:
            # Two nonzero base components keep every request of similar size.
            coords = rng.sample(atoms, 2)
            req["components"] = {c: _poly(rng, atoms, rng.randint(1, 2))
                                 for c in coords}
            # Closed forms need a constant time part; of_horizontal a zero one.
            if kind.startswith("vf_"):
                req["components"]["t"] = "1"
        if kind.endswith("_cv_closed"):
            req["r"] = rng.randint(0, LIFT_K)
        requests.append(req)
    return {"m": LIFT_M, "k": LIFT_K, "connection": connection,
            "requests": requests}
