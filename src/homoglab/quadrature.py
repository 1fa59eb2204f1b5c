"""Composite Gauss-Legendre quadrature with per-cell panel doubling.

The building block of the running-average (Cesaro) limits and of the
corrector's residual check.  The integrands mix slow algebraic trends
(arctan transitions) with O(1)-frequency oscillations (sin), so a fixed
Gauss rule per short panel is accurate and cheap.

One rule serves ``cumulative`` and ``integrate`` (its one-cell case): each
cell of a grid starts at ceil(|cell| / max_panel) panels and doubles on its
own until two consecutive estimates agree (per-interval termination, Gander
& Gautschi 2000, "Adaptive quadrature - revisited", BIT 40), or raises
``QuadratureError`` naming it.  Integrands are scalar and vectorized:
``g(t)`` maps a 1-d node array to an array of its shape, node by node.
"""

from __future__ import annotations

import numpy as np


class QuadratureError(RuntimeError):
    """Raised when panel refinement fails to reach the requested tolerance."""


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
# Gauss nodes per panel
_ORDER = 12
# Integrand values (0.5 MB as float64) per integrand call
_VALUES = 1 << 16


def _gl(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order not in _GL_CACHE:
        _GL_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _GL_CACHE[order]


def panel_integrals(g, edges, order: int = _ORDER):
    """One Gauss-Legendre rule per panel; returns per-panel integrals.

    ``edges`` may be decreasing, in which case the integrals are oriented
    (negative for a positive integrand).  All nodes go to ``g`` in one
    call: the rule sizes nothing, and its caller keeps
    ``n_panels x order`` within ``_VALUES``.
    """
    edges = np.asarray(edges, dtype=float)
    x, w = _gl(order)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    t = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    fv = np.asarray(g(t), dtype=float)
    if fv.shape != t.shape:
        raise QuadratureError("integrand is not vectorized over nodes")
    return np.einsum("pn,n->p", fv.reshape(mid.size, x.size), w) * half


# One tolerance policy for every cell: two consecutive estimates agree to
# ``rtol`` relative or ``_ATOL`` absolute within ``_MAX_ROUNDS`` doublings,
# or the cell raises.  1e-12 is above the round-off (~n * 1e-16) of a cell
# integral that cancels to ~0 over a few hundred O(1) panel values.
_ATOL = 1e-12
_MAX_ROUNDS = 8
# A cell's starting panel count must be below this, so that it stays a
# finite int64 through its ``_MAX_ROUNDS`` doublings.
_MAX_START = 2.0 ** (63 - _MAX_ROUNDS)


def _estimate(g, a, b, n):
    """Composite estimate over [a, b] on n equal panels: at most
    ``_VALUES // _ORDER`` panels per integrand call, the cell's panel
    integrals summed once."""
    edges = np.linspace(a, b, n + 1)
    cap = _VALUES // _ORDER
    return np.concatenate([panel_integrals(g, edges[p:p + cap + 1])
                           for p in range(0, n, cap)]).sum()


def _cells(g, grid, rtol, max_panel):
    """Integrals of ``g`` over the cells of ``grid``, one per cell.

    Zero-length cells are exact zeros.  A cell whose starting count is not
    below ``_MAX_START`` (too long for its panel width ``max_panel``, one
    number or one per cell, or not finite) raises ``QuadratureError``
    naming it.
    """
    a, b = grid[:-1], grid[1:]
    n = np.maximum(1, np.ceil(np.abs(b - a) / max_panel))
    # a NaN count fails the comparison too
    big = np.flatnonzero(~(n < _MAX_START))
    if big.size:
        i = big[0]
        raise QuadratureError(
            f"starting panel count {n[i]:.3g} on [{float(a[i])}, "
            f"{float(b[i])}] is not below {_MAX_START:.3g}, so its "
            f"{_MAX_ROUNDS} doublings would not stay finite int64s")
    out = np.zeros(a.size)
    for i in np.flatnonzero(a != b):
        k = int(n[i])
        prev = _estimate(g, a[i], b[i], k)
        for _ in range(_MAX_ROUNDS):
            k *= 2
            out[i] = _estimate(g, a[i], b[i], k)
            err = abs(out[i] - prev)
            if err <= _ATOL + rtol * abs(out[i]):
                break
            prev = out[i]
        else:
            raise QuadratureError(
                f"no convergence on [{float(a[i])}, {float(b[i])}] after "
                f"{_MAX_ROUNDS} refinements (last error {err:.3e})")
    return out


def integrate(g, a: float, b: float, rtol: float = 1e-8,
              max_panel: float = np.pi) -> float:
    """Adaptive composite integral of ``g`` over [a, b] (oriented): the
    one-cell case of :func:`cumulative`."""
    return float(_cells(g, np.array([a, b], dtype=float), rtol, max_panel)[0])


def cumulative(g, grid, rtol: float = 1e-8, max_panel: float = np.pi):
    """Oriented cumulative integrals of ``g`` from grid[0] to every point of
    the monotone ``grid``, shape ``(len(grid),)`` with a zero first entry.

    Panels start at width ``max_panel``, one number or one per cell.
    """
    parts = _cells(g, np.asarray(grid, dtype=float), rtol, max_panel)
    return np.cumsum(np.append(0.0, parts))
