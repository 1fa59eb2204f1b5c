import re
import tracemalloc
import warnings

import numpy as np
import pytest

from homoglab import quadrature
from homoglab.families import _basis_limits_numeric
from homoglab.quadrature import (QuadratureError, cumulative, integrate,
                                 panel_integrals)


def test_polynomial_exact():
    val = integrate(lambda t: t ** 3 - 2 * t, 0.0, 2.0)
    assert val == pytest.approx(4.0 - 4.0, abs=1e-13)


def test_oriented_reversal():
    fwd = integrate(lambda t: np.sin(t) + 0.5, 0.0, 3.0)
    bwd = integrate(lambda t: np.sin(t) + 0.5, 3.0, 0.0)
    assert bwd == pytest.approx(-fwd, rel=1e-12)


def test_oscillatory_long_range():
    # int_0^X sin = 1 - cos X, even over many periods
    X = 200.0
    val = integrate(lambda t: np.sin(t), 0.0, X, rtol=1e-10)
    assert val == pytest.approx(1.0 - np.cos(X), abs=1e-9)


def test_arctan_transition_closed_form():
    # int_0^X (2/pi) arctan t dt = (2/pi)(X atan X - 0.5 log(1+X^2))
    X = 1e4
    val = integrate(lambda t: (2 / np.pi) * np.arctan(t), 0.0, X, rtol=1e-10)
    ref = (2 / np.pi) * (X * np.arctan(X) - 0.5 * np.log1p(X ** 2))
    assert val == pytest.approx(ref, rel=1e-9)


def test_cumulative_matches_pointwise():
    grid = np.array([0.0, 0.5, 1.5, 4.0])
    cum = cumulative(lambda t: np.cos(t), grid)
    assert cum == pytest.approx(np.sin(grid), abs=1e-12)


def test_cumulative_decreasing_grid():
    grid = np.array([0.0, -1.0, -3.0])
    cum = cumulative(lambda t: np.ones_like(t), grid)
    assert cum == pytest.approx(grid, abs=1e-13)


def test_panel_integrals_shape_and_sum():
    edges = np.linspace(0.0, np.pi, 7)
    parts = panel_integrals(lambda t: np.sin(t), edges)
    assert parts.shape == (6,)
    assert parts.sum() == pytest.approx(2.0, rel=1e-10)


def test_unvectorized_integrand_rejected():
    with pytest.raises(QuadratureError):
        integrate(lambda t: 1.0, 0.0, 1.0)


def test_zero_length_interval():
    assert integrate(lambda t: np.exp(t), 2.0, 2.0) == 0.0




# ---------------------------------------------------------------------------
# Per-cell rule: every estimate equals that of a one-call refinement loop
# ---------------------------------------------------------------------------

def _per_cell_cumulative(g, grid, rtol=1e-8, max_panel=np.pi, order=12):
    """Reference: each cell refined on its own, panel count doubled from
    ceil(|cell| / max_panel) until two consecutive estimates agree to
    ``rtol`` or 1e-12 absolute (at most 8 doublings), every estimate one
    ``panel_integrals`` call; partial sums in grid order."""
    acc = 0.0
    rows = [acc]
    for a, b in zip(grid[:-1], grid[1:]):
        if a != b:
            n = max(1, int(np.ceil(abs(b - a) / max_panel)))
            prev = panel_integrals(g, np.linspace(a, b, n + 1), order).sum()
            for _ in range(8):
                n *= 2
                cur = panel_integrals(g, np.linspace(a, b, n + 1), order).sum()
                if abs(cur - prev) <= 1e-12 + rtol * abs(cur):
                    break
                prev = cur
            else:
                raise AssertionError(f"reference cell [{a}, {b}] unsettled")
            acc = acc + cur
        rows.append(acc)
    return np.array(rows)


def _bumps(t):
    # narrow bumps inside cells 2 and 5 of the grid 0, 1, ..., 8
    return (np.cos(t) + np.exp(-((t - 2.4) / 0.02) ** 2)
            + np.exp(-((t - 5.7) / 0.03) ** 2))


# (integrand, grid, max_panel)
_CASES = {
    "zero-length cells": (lambda t: np.exp(-t) * np.cos(3 * t),
                          [0.0, 0.5, 0.5, 2.0, 2.0, 2.0, 3.7], np.pi),
    "decreasing": (lambda t: np.sin(t) + 0.2 * t,
                   [0.0, -0.3, -1.7, -4.0, -9.5], np.pi),
    "long cells, one component": (lambda t: np.sin(t) + 1.0 / (1.0 + t * t),
                                  [0.0, 50.0, 400.0, 3000.0], np.pi),
    "bumps settle late": (_bumps, np.arange(9.0), np.pi),
    # 38,198 panels to start, more than the _VALUES // 12 = 5461 of one
    # integrand call, so every estimate of the cell takes several calls
    "one cell over several calls": (np.cos, [0.0, 3e4], np.pi / 4),
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_cumulative_matches_per_cell_loop(case):
    g, grid, max_panel = _CASES[case]
    got = cumulative(g, grid, max_panel=max_panel)
    assert np.array_equal(got, _per_cell_cumulative(g, grid,
                                                    max_panel=max_panel))


def test_integrand_calls_fit_the_budget_without_probes():
    # every integrand call is one Gauss rule of whole 12-node panels within
    # _VALUES values, also for a cell too big for one call, and no call
    # probes the integrand
    nodes = []

    def g(t):
        nodes.append(t.size)
        return np.cos(t)

    _, grid, max_panel = _CASES["one cell over several calls"]
    cumulative(g, grid, max_panel=max_panel)
    assert all(k % 12 == 0 and k <= quadrature._VALUES for k in nodes)
    # the 38,198 starting panels take seven calls: six full ones and the rest
    assert nodes[:7] == [12 * 5461] * 6 + [12 * (38198 - 6 * 5461)]


def test_unsettled_cell_raises_naming_it():
    def g(t):
        fast = np.where((t > 1.0) & (t < 2.0), np.sin(1e5 * t), 0.0)
        return np.cos(t) + fast

    with pytest.raises(QuadratureError, match=r"\[1\.0, 2\.0\].*last error"):
        cumulative(g, [0.0, 1.0, 2.0, 3.0])


@pytest.mark.parametrize("grid, max_panel, cell", [
    ([0.0, -0.2], np.pi * 1e-200, "[0.0, -0.2]"),
    ([0.0, 1.0, 1e200], np.pi, "[1.0, 1e+200]"),
    ([0.0, 1.0, np.inf], np.pi, "[1.0, inf]")],
    ids=["narrow-panels", "wide-cell", "infinite-cell"])
def test_overflowing_panel_count_raises_naming_cell(grid, max_panel, cell):
    # ceil(|b - a| / max_panel) beyond int64 was cast to a negative count
    # (numpy's "invalid value encountered in cast", then "repeats may not
    # contain negative values"); it is refused, naming the cell and count
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match=r"starting panel count "
                           r"\S+ on " + re.escape(cell)):
            cumulative(np.cos, grid, max_panel=max_panel)


def test_integrate_is_one_cell_of_cumulative():
    g = lambda t: np.sin(t) * np.exp(-0.1 * t)
    assert integrate(g, 0.3, 9.0) == cumulative(g, [0.3, 9.0])[1]


@pytest.mark.parametrize("call, bound_mb", [
    (lambda: _basis_limits_numeric(1e-4), 4.5),
    (lambda: cumulative(np.cos, [0.0, 3e4], max_panel=np.pi / 4), 4.5)],
    ids=["basis-limits", "long-cell"])
def test_traced_peak_is_bounded(call, bound_mb):
    # integrand values are held one call (quadrature._VALUES) at a time;
    # only one cell's edges and panel integrals grow with its panel count
    # (the sin cell up to 1e6 has 87,062 panels, the cos cell 76,396).
    # Holding every unsettled cell's panels at once peaked at 8.6 MB on
    # the basis limits.
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mb * 1e6
