"""Chart bookkeeping: coordinate enumeration, extension, validation."""

import pytest

from liftcalc.charts import ChartError, ChartSpec
from liftcalc.symkernel import TIME, Kind, anti, holo, parse


def test_coordinate_order_time_first_then_holo_then_anti():
    chart = ChartSpec(2, 1, True)
    assert chart.coordinates() == (
        TIME,
        holo(0, 1), holo(0, 2), holo(1, 1), holo(1, 2),
        anti(0, 1), anti(0, 2), anti(1, 1), anti(1, 2),
    )


def test_coordinate_order_without_time():
    chart = ChartSpec(1, 0, False)
    assert chart.coordinates() == (holo(0, 1), anti(0, 1))


def test_invalid_parameters():
    with pytest.raises(ChartError):
        ChartSpec(0, 0, False)
    with pytest.raises(ChartError):
        ChartSpec(1, -1, False)


# Levels and indices are packed into 20-bit fields of a coordinate code.
@pytest.mark.parametrize("m,k,text", [
    (2 ** 20, 0, "complex dimension m=1048576 exceeds the limit 1048575"),
    (1, 2 ** 20, "extension order k=1048576 exceeds the limit 1048575"),
])
def test_chart_refuses_m_and_k_beyond_the_code_range(m, k, text):
    with pytest.raises(ChartError) as err:
        ChartSpec(m, k, True)
    assert str(err.value) == text


def test_chart_range_edges():
    top = ChartSpec(2 ** 20 - 1, 2 ** 20 - 1, False)
    assert top.contains(anti(2 ** 20 - 1, 2 ** 20 - 1))
    with pytest.raises(ChartError):
        ChartSpec(1, 2 ** 20 - 1, True).extend(1)


def test_extend_and_base():
    base = ChartSpec(2, 0, True)
    big = base.extend(3)
    assert big == ChartSpec(2, 3, True)
    assert big.base() == base
    assert base.extend(0) == base


def test_extend_rejects_negative():
    with pytest.raises(ChartError):
        ChartSpec(1, 1, True).extend(-1)


def test_contains():
    chart = ChartSpec(1, 1, False)
    assert chart.contains(holo(0, 1))
    assert chart.contains(anti(1, 1))
    assert not chart.contains(holo(2, 1))
    assert not chart.contains(holo(0, 2))
    assert not chart.contains(TIME)


def test_validate_expr():
    chart = ChartSpec(1, 0, False)
    chart.validate_expr(parse("z0_1*zb0_1"))
    with pytest.raises(ChartError):
        chart.validate_expr(parse("z1_1"))
    with pytest.raises(ChartError):
        chart.validate_expr(parse("t"))


@pytest.mark.parametrize("chart,text,names", [
    (ChartSpec(1, 0, False), "z1_1*zb0_1 + z0_2 + zb1_1", "z0_2, z1_1, zb1_1"),
    (ChartSpec(2, 1, False), "zb2_1*z0_1 + z0_3 + t*zb1_2", "t, z0_3, zb2_1"),
])
def test_validate_expr_names_the_outside_coordinates_in_order(chart, text, names):
    e = parse(text)
    with pytest.raises(ChartError) as err:
        chart.validate_expr(e, "vector component at z0_1")
    assert str(err.value) == ("vector component at z0_1 uses coordinates "
                              f"outside the chart: {names}")


def test_time_coord():
    assert ChartSpec(1, 0, True).time_coord == TIME
    with pytest.raises(ChartError):
        ChartSpec(1, 0, False).time_coord


def test_level_slices():
    chart = ChartSpec(2, 1, False)
    assert chart.holo_coords(0) == (holo(0, 1), holo(0, 2))
    assert chart.holo_coords(1) == (holo(1, 1), holo(1, 2))
    assert chart.anti_coords(1) == (anti(1, 1), anti(1, 2))
    assert chart.holo_coords() == chart.holo_coords(0) + chart.holo_coords(1)
    with pytest.raises(ChartError):
        chart.holo_coords(2)

