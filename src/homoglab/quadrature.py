"""Composite Gauss-Legendre quadrature with batched panel doubling.

Shared building block for the running-average (Cesaro) limits and the
corrector integrals.  The integrands we meet mix slow algebraic trends
(arctan transitions) with O(1)-frequency oscillations (sin), so a fixed
Gauss rule per short panel is accurate and cheap; adaptivity doubles the
panel count until two consecutive estimates agree.

One engine serves ``cumulative`` and ``integrate`` (its one-cell case): in
each doubling round every unsettled cell of a grid is integrated by one
``panel_integrals`` call per run of adjacent cells, and a cell leaves the
round once it settles (per-interval termination, Gander & Gautschi 2000,
"Adaptive quadrature - revisited", BIT 40).  Each cell keeps its own panel
sequence and is summed on its own, so its estimate is bit-identical to a
one-cell refinement.  One tolerance policy holds for every cell (see
``_ATOL``); a cell that does not settle raises ``QuadratureError`` naming it.

Integrands must be vectorized: ``g(t)`` maps a 1-d node array to an array
of shape ``(nt,)`` or ``(nt, m)`` for m simultaneously integrated
components, evaluated node by node (the nodes of several cells arrive in
one call).
"""

from __future__ import annotations

import numpy as np


class QuadratureError(RuntimeError):
    """Raised when panel refinement fails to reach the requested tolerance."""


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
# Nodes per integrand call in ``panel_integrals``.
_CHUNK_NODES = 1 << 16


def _gl(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order not in _GL_CACHE:
        _GL_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _GL_CACHE[order]


def _eval(g, t):
    v = np.asarray(g(t), dtype=float)
    if v.ndim == 1:
        v = v[:, None]
    if v.ndim != 2 or v.shape[0] != t.shape[0]:
        raise QuadratureError("integrand is not vectorized over nodes")
    return v


def panel_integrals(g, edges, order: int = 12):
    """One Gauss-Legendre rule per panel; returns per-panel integrals.

    ``edges`` may be decreasing, in which case the integrals are oriented
    (negative for a positive integrand).  Output shape is ``(n_panels, m)``.
    """
    edges = np.asarray(edges, dtype=float)
    x, w = _gl(order)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    npan = mid.shape[0]
    step = max(1, _CHUNK_NODES // order)
    out = None
    for lo in range(0, npan, step):
        hi = min(npan, lo + step)
        nodes = (mid[lo:hi, None] + half[lo:hi, None] * x[None, :]).ravel()
        fv = _eval(g, nodes).reshape(hi - lo, order, -1)
        part = np.einsum("pnm,n->pm", fv, w) * half[lo:hi, None]
        if out is None:
            out = np.empty((npan, part.shape[1]))
        out[lo:hi] = part
    if out is None:
        out = np.zeros((0, 1))
    return out


# One tolerance policy for every cell: two consecutive estimates agree to
# ``rtol`` relative or ``_ATOL`` absolute within ``_MAX_ROUNDS`` doublings,
# or the cell raises.  These are the limits ``integrate`` always had, so its
# callers keep their values; a ``cumulative`` cell that settled at the first
# doubling under its former atol of 1e-14 still does, with the same
# estimate.  1e-14 is within the round-off (~n * 1e-16) of a cell integral
# that cancels to ~0 over a few hundred O(1) panel values.
_ATOL = 1e-12
_MAX_ROUNDS = 8
# A cell's starting panel count must be below this, so that it stays a
# finite int64 through its ``_MAX_ROUNDS`` doublings.
_MAX_START = 2.0 ** (63 - _MAX_ROUNDS)


def _estimates(g, a, b, n, cells):
    """Composite estimates of ``cells`` over [a[i], b[i]] with n[i] panels.

    One ``panel_integrals`` call per run of adjacent cells.  The edges are
    those of ``np.linspace(a[i], b[i], n[i] + 1)`` and each cell is summed
    on its own, so every estimate is bit-identical to a one-cell call.
    """
    k = n[cells]
    stops = np.cumsum(k)
    starts = stops - k
    j = np.arange(stops[-1]) - np.repeat(starts, k)
    step = (b[cells] - a[cells]) / k
    left = j * np.repeat(step, k) + np.repeat(a[cells], k)
    first = np.flatnonzero(np.diff(cells, prepend=-2) != 1)
    last = np.append(first[1:], cells.size) - 1
    parts = np.concatenate([
        panel_integrals(g, np.append(left[starts[f]:stops[e]], b[cells[e]]))
        for f, e in zip(first, last)])
    # np.add.reduceat would sum each cell in another order than a one-cell
    # ``.sum(axis=0)`` does
    return np.stack([parts[s:e].sum(axis=0) for s, e in zip(starts, stops)])


def _settle(g, grid, rtol, max_panel):
    """Integrals of ``g`` over the cells of ``grid``, shape ``(cells, m)``.

    Every unsettled cell doubles its panel count in the same round, starting
    from ceil(|cell| / max_panel) panels (``max_panel`` one width, or one
    per cell); zero-length cells are exact zeros.  A cell whose starting
    count is not below ``_MAX_START`` (too long for its panel width, or not
    finite) raises ``QuadratureError`` naming it.
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
    n = n.astype(np.int64)
    todo = np.flatnonzero(a != b)
    if todo.size == 0:
        m = _eval(g, grid[:1]).shape[1]
        return np.zeros((a.size, m))
    prev = _estimates(g, a, b, n, todo)
    out = np.zeros((a.size, prev.shape[1]))
    for _ in range(_MAX_ROUNDS):
        n[todo] *= 2
        cur = _estimates(g, a, b, n, todo)
        err = np.abs(cur - prev)
        ok = np.all(err <= _ATOL + rtol * np.abs(cur), axis=1)
        out[todo[ok]] = cur[ok]
        todo, prev, err = todo[~ok], cur[~ok], err[~ok]
        if todo.size == 0:
            return out
    i = todo[0]
    raise QuadratureError(
        f"no convergence on [{float(a[i])}, {float(b[i])}] after "
        f"{_MAX_ROUNDS} refinements (last error {float(np.max(err[0])):.3e})")


def integrate(g, a: float, b: float, rtol: float = 1e-8,
              max_panel: float = np.pi):
    """Adaptive composite integral of ``g`` over [a, b] (oriented).

    The one-cell case of :func:`cumulative`.  Returns an array of shape
    ``(m,)``.
    """
    return _settle(g, np.array([a, b], dtype=float), rtol, max_panel)[0]


def cumulative(g, grid, rtol: float = 1e-8, max_panel: float = np.pi):
    """Oriented cumulative integrals of ``g`` from grid[0] to every grid point.

    The grid must be monotone.  Panels start at width ``max_panel``, one
    number or one per cell.  All cells are refined together, each to the
    module's tolerance policy (a cell that does not settle raises
    ``QuadratureError``); output shape ``(len(grid), m)`` with a zero first
    row.
    """
    parts = _settle(g, np.asarray(grid, dtype=float), rtol, max_panel)
    return np.cumsum(np.vstack([np.zeros((1, parts.shape[1])), parts]), axis=0)
