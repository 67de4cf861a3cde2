"""One cold repetition of one workload, in a fresh interpreter.

usage: python3 -s perfbench/child.py SPEC.json RESULT.json

`run.py` writes SPEC, starts this script once per repetition (never two at
a time) and reads RESULT.  The child imports liftcalc from the checkout's
`src/`, builds its inputs (the set-up phase), runs the timed phase and
records one entry per item: a digest of its output, whether its own checks
held and, for lift requests, its time.  With tracing on it installs
`layertrace` before the set-up phase and also returns the per-layer
metrics.

A shared host can change speed by tens of percent within minutes, so the
child also times a fixed pure-Python probe (`HostProbe`): three times
right after set-up, then on a timer signal every PROBE_EVERY_S seconds of
the timed phase, in this same thread.  Probe time is left out of every
reported time, and `setup_scale`/`scale` (PROBE_REF_S over the median probe
time) convert the set-up and timed-phase times to a host on which the probe
takes PROBE_REF_S.
"""

import contextlib
import hashlib
import io
import json
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

PROBE_EVERY_S = 0.25
PROBE_REF_S = 0.005


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def import_liftcalc():
    import liftcalc
    import liftcalc.cli  # noqa: F401  (not imported by the package itself)
    where = Path(liftcalc.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"liftcalc imported from {where}, not from the checkout")
    return liftcalc


# -- host speed -------------------------------------------------------------

def fraction_probe() -> None:
    """Fixed pure-Python Fraction work; about 5 ms on a quiet host."""
    acc = Fraction(0)
    for n in range(1, 1000):
        acc += Fraction(n, n + 7) * Fraction(3, n + 1)


class HostProbe:
    """Probe samples of this process, and a clock that leaves them out."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self.ticking = False

    def sample(self, *_signal) -> None:
        start = time.perf_counter()
        fraction_probe()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += took
        if self.ticking:  # re-armed only after a sample, so none overlap
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)

    def clock(self) -> float:
        """perf_counter minus the time spent probing.  Retried when a
        sample lands between the two reads."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:
                return now - spent

    def scale(self) -> float:
        return PROBE_REF_S / statistics.median(self.samples)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        self.ticking = True
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        self.ticking = False
        signal.setitimer(signal.ITIMER_REAL, 0)


# -- lift-direct --------------------------------------------------------------

class LiftSession:
    """Parsed lift-direct inputs: fields on the base chart and one
    connection on the order-k chart."""

    def __init__(self, lc, session: dict):
        self.lc = lc
        self.k = session["k"]
        chart0 = lc.ChartSpec(session["m"], 0, True)
        target = chart0.extend(self.k)
        coords = {c.name: c for c in chart0.coordinates()}
        parse = lc.symkernel.parse
        gamma = {tuple(int(x) for x in key.split(",")): parse(text, chart0)
                 for key, text in session["connection"].items()}
        self.conn = lc.ConnectionCoeffs(target, gamma)
        self.inputs = []
        for req in session["requests"]:
            kind = req["kind"]
            if kind.startswith("fn_"):
                obj = lc.ScalarField(chart0, parse(req["value"], chart0))
            else:
                comps = {coords[c]: parse(text, chart0)
                         for c, text in req["components"].items()}
                cls = lc.VectorField if kind.startswith("vf_") else lc.OneForm
                obj = cls(chart0, comps)
            self.inputs.append((kind, obj, req.get("r")))

    def run_one(self, kind: str, obj, r) -> tuple[str, bool]:
        """One request: the lift, then a format_expr -> parse round trip of
        every output component.  Returns (output text, round trip held)."""
        lifts, k = self.lc.lifts, self.k
        if kind == "fn_complete":
            parts = [("f", lifts.fn_complete(obj, k).value)]
        elif kind == "fn_horizontal":
            parts = [("f", lifts.fn_horizontal(obj, k).value)]
        else:
            if kind == "vf_complete_closed":
                out = lifts.vf_complete_closed(obj, k)
            elif kind == "vf_cv_closed":
                out = lifts.vf_cv_closed(obj, r, k - r)
            elif kind == "of_complete_closed":
                out = lifts.of_complete_closed(obj, k)
            elif kind == "of_cv_closed":
                out = lifts.of_cv_closed(obj, r, k - r)
            elif kind == "vf_horizontal":
                out = lifts.vf_horizontal(obj, self.conn)
            elif kind == "of_horizontal":
                out = lifts.of_horizontal(obj, self.conn)
            else:
                raise ValueError(f"unknown request kind {kind!r}")
            parts = sorted(((c.name, v) for c, v in out.components.items()),
                           key=lambda kv: kv[0])
        format_expr, parse = self.lc.symkernel.format_expr, self.lc.symkernel.parse
        lines, ok = [], True
        for name, value in parts:
            text = format_expr(value)
            ok = ok and parse(text) == value
            lines.append(f"{name} = {text}")
        return "\n".join(lines), ok


def run_lift_direct(session: LiftSession, keep: set, clock) -> tuple[float, list]:
    items = []
    t0 = clock()
    for n, (kind, obj, r) in enumerate(session.inputs):
        start = clock()
        try:
            text, ok = session.run_one(kind, obj, r)
            item = {"id": n, "digest": digest(text), "ok": ok}
            if n in keep:
                item["text"] = text
        except Exception as exc:  # one failed request must not end the run
            item = {"id": n, "ok": False, "error": f"{type(exc).__name__}: {exc}"}
        item["s"] = clock() - start
        items.append(item)
    return clock() - t0, items


# -- CLI workloads ------------------------------------------------------------

def run_cli(lc, argv: list, clock) -> tuple[float, list, int, str]:
    """Run one CLI command through cli.main; its items are the clause lines
    of a `check` report, or the whole report of a `compare`."""
    out, err = io.StringIO(), io.StringIO()
    t0 = clock()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = lc.cli.main(argv)
    timed = clock() - t0
    text = out.getvalue()
    if argv[0] == "check":
        items = []
        for line in text.splitlines():
            if line.startswith("clause "):
                fields = line.split(" ")
                items.append({"id": fields[1],
                              "status": fields[3].partition("=")[2],
                              "digest": digest(line)})
    else:
        last = text.rstrip("\n").rpartition("\n")[2].split(" ")
        verdict = last[1] if len(last) > 1 and last[0] == "verdict:" else ""
        items = [{"id": argv[1], "verdict": verdict, "digest": digest(text)}]
    return timed, items, rc, err.getvalue()


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result_path = Path(sys.argv[2])
    lc = import_liftcalc()
    tracer = None
    if spec["trace"]:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install(lc)
    workload = spec["workload"]
    session = LiftSession(lc, spec["session"]) if workload == "lift-direct" else None
    setup_end = time.perf_counter()
    probe = HostProbe()
    for _ in range(3):
        probe.sample()
    result: dict = {"setup_end": setup_end, "setup_scale": probe.scale()}
    if not spec.get("setup_only"):
        rc, stderr = 0, ""
        with probe:
            if workload == "lift-direct":
                timed, items = run_lift_direct(session, set(spec.get("keep", ())),
                                               probe.clock)
            else:
                timed, items, rc, stderr = run_cli(lc, spec["argv"], probe.clock)
        result.update(timed_s=timed, items=items, rc=rc, stderr=stderr[-2000:])
        if tracer is not None:
            result["layers"] = tracer.layer_metrics(lc.lifts)
            if spec.get("dump"):
                tracer.dump(spec["dump"])
    result["scale"] = probe.scale()
    result["probe_s"] = statistics.median(probe.samples)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
