import re
import warnings

import numpy as np
import pytest

from homoglab import quadrature
from homoglab.quadrature import (QuadratureError, cumulative, integrate,
                                 panel_integrals)


def test_polynomial_exact():
    val = integrate(lambda t: t ** 3 - 2 * t, 0.0, 2.0)
    assert val[0] == pytest.approx(4.0 - 4.0, abs=1e-13)


def test_oriented_reversal():
    fwd = integrate(lambda t: np.sin(t) + 0.5, 0.0, 3.0)
    bwd = integrate(lambda t: np.sin(t) + 0.5, 3.0, 0.0)
    assert bwd[0] == pytest.approx(-fwd[0], rel=1e-12)


def test_multi_component():
    val = integrate(lambda t: np.stack([t, t ** 2], axis=-1), 0.0, 1.0)
    assert val == pytest.approx([0.5, 1.0 / 3.0], rel=1e-12)


def test_oscillatory_long_range():
    # int_0^X sin = 1 - cos X, even over many periods
    X = 200.0
    val = integrate(lambda t: np.sin(t), 0.0, X, rtol=1e-10)
    assert val[0] == pytest.approx(1.0 - np.cos(X), abs=1e-9)


def test_arctan_transition_closed_form():
    # int_0^X (2/pi) arctan t dt = (2/pi)(X atan X - 0.5 log(1+X^2))
    X = 1e4
    val = integrate(lambda t: (2 / np.pi) * np.arctan(t), 0.0, X, rtol=1e-10)
    ref = (2 / np.pi) * (X * np.arctan(X) - 0.5 * np.log1p(X ** 2))
    assert val[0] == pytest.approx(ref, rel=1e-9)


def test_cumulative_matches_pointwise():
    grid = np.array([0.0, 0.5, 1.5, 4.0])
    cum = cumulative(lambda t: np.cos(t), grid)
    assert cum[:, 0] == pytest.approx(np.sin(grid), abs=1e-12)


def test_cumulative_decreasing_grid():
    grid = np.array([0.0, -1.0, -3.0])
    cum = cumulative(lambda t: np.ones_like(t), grid)
    assert cum[:, 0] == pytest.approx(grid, abs=1e-13)


def test_panel_integrals_shape_and_sum():
    edges = np.linspace(0.0, np.pi, 7)
    parts = panel_integrals(lambda t: np.sin(t), edges)
    assert parts.shape == (6, 1)
    assert parts.sum() == pytest.approx(2.0, rel=1e-10)


def test_unvectorized_integrand_rejected():
    with pytest.raises(QuadratureError):
        integrate(lambda t: 1.0, 0.0, 1.0)


def test_zero_length_interval():
    assert integrate(lambda t: np.exp(t), 2.0, 2.0)[0] == 0.0


# ---------------------------------------------------------------------------
# Batched engine: every estimate equals that of a per-cell refinement loop
# ---------------------------------------------------------------------------

def _per_cell_cumulative(g, grid, rtol=1e-8, max_panel=np.pi, order=12):
    """Reference: each cell refined on its own, panel count doubled from
    ceil(|cell| / max_panel) until two consecutive estimates agree to
    ``rtol`` or 1e-12 absolute (at most 8 doublings); partial sums in grid
    order."""
    parts = []
    for a, b in zip(grid[:-1], grid[1:]):
        if a == b:
            parts.append(None)
            continue
        n = max(1, int(np.ceil(abs(b - a) / max_panel)))
        prev = panel_integrals(g, np.linspace(a, b, n + 1), order).sum(axis=0)
        for _ in range(8):
            n *= 2
            cur = panel_integrals(g, np.linspace(a, b, n + 1), order).sum(axis=0)
            if np.all(np.abs(cur - prev) <= 1e-12 + rtol * np.abs(cur)):
                break
            prev = cur
        else:
            raise AssertionError(f"reference cell [{a}, {b}] unsettled")
        parts.append(cur)
    m = next(p.shape[0] for p in parts if p is not None)
    acc = np.zeros(m)
    rows = [acc]
    for p in parts:
        if p is not None:
            acc = acc + p
        rows.append(acc)
    return np.array(rows)


def _bumps(t):
    # narrow bumps inside cells 2 and 5 of the grid 0, 1, ..., 8
    return (np.cos(t) + np.exp(-((t - 2.4) / 0.02) ** 2)
            + np.exp(-((t - 5.7) / 0.03) ** 2))


_CASES = {
    "zero-length cells": (lambda t: np.exp(-t) * np.cos(3 * t),
                          [0.0, 0.5, 0.5, 2.0, 2.0, 2.0, 3.7]),
    "decreasing": (lambda t: np.sin(t) + 0.2 * t, [0.0, -0.3, -1.7, -4.0, -9.5]),
    "several components": (
        lambda t: np.stack([np.cos(t), t * np.sin(t), np.exp(-t * t),
                            (2 / np.pi) * np.arctan(t)], axis=-1),
        [0.0, 0.1, 1.0, 7.0, 60.0, 400.0]),
    "long cells, one component": (lambda t: np.sin(t) + 1.0 / (1.0 + t * t),
                                  [0.0, 50.0, 400.0, 3000.0]),
    "bumps settle late": (_bumps, np.arange(9.0)),
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_cumulative_matches_per_cell_loop(case):
    g, grid = _CASES[case]
    got = cumulative(g, grid)
    assert np.array_equal(got, _per_cell_cumulative(g, grid))


def _record_calls(monkeypatch):
    calls = []

    def recording(g, edges, order=12, **kw):
        calls.append(np.array(edges))
        return panel_integrals(g, edges, order, **kw)

    monkeypatch.setattr(quadrature, "panel_integrals", recording)
    return calls


def test_unsettled_cells_refine_without_gap_panels(monkeypatch):
    calls = _record_calls(monkeypatch)
    cumulative(_bumps, np.arange(9.0))
    # two rounds over all eight adjacent cells, then one call per round for
    # each of the non-adjacent cells 2 and 5, with edges inside its cell
    assert [c[[0, -1]].tolist() for c in calls[:2]] == [[0.0, 8.0]] * 2
    spans = [c[[0, -1]].tolist() for c in calls[2:]]
    assert set(map(tuple, spans)) == {(2.0, 3.0), (5.0, 6.0)}
    # the narrower bump in cell 2 settles in a later round
    assert spans.count([2.0, 3.0]) > spans.count([5.0, 6.0])


def test_settled_grid_takes_two_calls(monkeypatch):
    calls = _record_calls(monkeypatch)
    grid = np.linspace(0.0, 3.0, 31)
    cum = cumulative(np.cos, grid)
    assert len(calls) == 2
    assert cum[:, 0] == pytest.approx(np.sin(grid), abs=1e-13)


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
    g = lambda t: np.stack([np.sin(t), np.exp(-t)], axis=-1)
    assert np.array_equal(integrate(g, 0.3, 9.0),
                          cumulative(g, [0.3, 9.0])[1])
