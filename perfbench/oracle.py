"""Independent recomputation of scalar lifts with sympy.

The complete lift of a function applies, k times, the step
``f -> t*df/dt + sum over coordinates c of shift(c)*df/dc`` where shift
raises the level of z{l}_{i} / zb{l}_{i} by one.  The horizontal lift is
``C^k f - G(C^{k-1} f)``, where G is the same step with ``df/dt`` in place
of ``t*df/dt``.  These are written here from the definitions, with sympy's
own polynomial arithmetic, and compared with liftcalc's text output.

sympy is optional: `check` returns None when it cannot be imported.
"""

from __future__ import annotations

import re

_COORD = re.compile(r"^(zb?)(\d+)_(\d+)$")


def _to_sympy(sp, text: str):
    symbols = {name: sp.Symbol(name)
               for name in set(re.findall(r"zb?\d+_\d+|\bt\b", text))}
    symbols["i"] = sp.I
    return sp.expand(sp.sympify(text.replace("^", "**"), locals=symbols))


def _step(sp, f, time_scaled: bool):
    t = sp.Symbol("t")
    out = sp.diff(f, t) * (t if time_scaled else 1)
    for sym in f.free_symbols:
        m = _COORD.match(sym.name)
        if m:
            kind, level, index = m.group(1), int(m.group(2)), m.group(3)
            out += sp.Symbol(f"{kind}{level + 1}_{index}") * sp.diff(f, sym)
    return sp.expand(out)


def _complete(sp, f, steps: int):
    for _ in range(steps):
        f = _step(sp, f, True)
    return f


def check(cases: list[tuple[str, str, int, str]]) -> tuple[int, list[str]] | None:
    """cases: (kind, input text, k, liftcalc output text "f = ...").
    Returns (number checked, descriptions of mismatches), or None when
    sympy is not installed."""
    try:
        import sympy as sp
    except ImportError:
        return None
    bad = []
    for kind, value, k, output in cases:
        f = _to_sympy(sp, value)
        if kind == "fn_complete":
            expected = _complete(sp, f, k)
        elif kind == "fn_horizontal":
            expected = sp.expand(_complete(sp, f, k)
                                 - _step(sp, _complete(sp, f, k - 1), False))
        else:
            raise ValueError(f"the oracle does not cover {kind!r}")
        got = _to_sympy(sp, output.partition(" = ")[2])
        if sp.expand(expected - got) != 0:
            bad.append(f"{kind} of {value!r}")
    return len(cases), bad
