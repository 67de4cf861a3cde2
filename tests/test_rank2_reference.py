"""The rank-2 algebra against explicit index sums.

Every product of ``fields`` and ``structures`` that contracts a rank-2 map
is checked against its sum over ``chart.coordinates()``, written out here
with ``entry()``/``component()``.  The fields are seeded and their rank-2
maps are not symmetric, so a transposed index in any product fails.
"""

import random

import pytest

from liftcalc.charts import ChartSpec
from liftcalc.fields import (
    Bilinear,
    EndoField,
    OneForm,
    VectorField,
)
from liftcalc.structures import fundamental_bilinear, star_apply
from liftcalc.symkernel import Expr

CASES = [(chart, seed) for chart in (ChartSpec(2, 1, False), ChartSpec(1, 1, True))
         for seed in (0, 1, 2)]
IDS = [f"m{c.m}k{c.k}{'t' if c.has_time else ''}-seed{s}" for c, s in CASES]


def _poly(rng: random.Random, chart: ChartSpec) -> Expr:
    """One or two Gaussian-integer terms of degree at most 1."""
    total = Expr.zero()
    for _ in range(rng.randint(1, 2)):
        term = (Expr.from_value(rng.randint(-3, 3))
                + Expr.imag_unit() * Expr.from_value(rng.randint(-3, 3)))
        if rng.random() < 0.5:
            term = term * Expr.atom(rng.choice(chart.coordinates()))
        total = total + term
    return total


def _rank1(cls, rng, chart):
    return cls(chart, {c: _poly(rng, chart) for c in chart.coordinates()
                       if rng.random() < 0.7})


def _rank2(cls, rng, chart):
    coords = chart.coordinates()
    field = cls(chart, {(a, b): _poly(rng, chart) for a in coords for b in coords
                        if rng.random() < 0.4})
    assert any(field.entry(b, a) != v for (a, b), v in field.entries.items())
    return field


def _sum(values) -> Expr:
    return sum(values, Expr.zero())


@pytest.mark.parametrize("chart,seed", CASES, ids=IDS)
def test_apply_vector_sums_over_the_in_index(chart, seed):
    rng = random.Random(seed)
    T, Z = _rank2(EndoField, rng, chart), _rank1(VectorField, rng, chart)
    coords = chart.coordinates()
    assert T.apply_vector(Z) == VectorField(chart, {
        a: _sum(T.entry(a, b) * Z.component(b) for b in coords) for a in coords})


@pytest.mark.parametrize("chart,seed", CASES, ids=IDS)
def test_apply_form_sums_over_the_out_index(chart, seed):
    rng = random.Random(seed)
    T, w = _rank2(EndoField, rng, chart), _rank1(OneForm, rng, chart)
    coords = chart.coordinates()
    assert T.apply_form(w) == OneForm(chart, {
        b: _sum(w.component(a) * T.entry(a, b) for a in coords) for b in coords})


@pytest.mark.parametrize("chart,seed", CASES, ids=IDS)
def test_compose_is_the_matrix_product(chart, seed):
    rng = random.Random(seed)
    S, T = _rank2(EndoField, rng, chart), _rank2(EndoField, rng, chart)
    coords = chart.coordinates()
    assert S.compose(T) == EndoField(chart, {
        (a, c): _sum(S.entry(a, b) * T.entry(b, c) for b in coords)
        for a in coords for c in coords})


@pytest.mark.parametrize("chart,seed", CASES, ids=IDS)
def test_pullback_endo_is_J_transpose_G_J(chart, seed):
    rng = random.Random(seed)
    G, J = _rank2(Bilinear, rng, chart), _rank2(EndoField, rng, chart)
    coords = chart.coordinates()
    assert G.pullback_endo(J) == Bilinear(chart, {
        (a, b): _sum(J.entry(c, a) * G.entry(c, d) * J.entry(d, b)
                     for c in coords for d in coords)
        for a in coords for b in coords})


@pytest.mark.parametrize("chart,seed", CASES, ids=IDS)
def test_star_apply_is_matrix_times_components(chart, seed):
    rng = random.Random(seed)
    S, w = _rank2(EndoField, rng, chart), _rank1(OneForm, rng, chart)
    coords = chart.coordinates()
    assert star_apply(S, w) == OneForm(chart, {
        a: _sum(S.entry(a, b) * w.component(b) for b in coords) for a in coords})


@pytest.mark.parametrize("chart,seed", CASES, ids=IDS)
def test_fundamental_bilinear_is_G_times_J(chart, seed):
    rng = random.Random(seed)
    G, J = _rank2(Bilinear, rng, chart), _rank2(EndoField, rng, chart)
    coords = chart.coordinates()
    assert fundamental_bilinear(G, J) == Bilinear(chart, {
        (a, b): _sum(G.entry(a, c) * J.entry(c, b) for c in coords)
        for a in coords for b in coords})
