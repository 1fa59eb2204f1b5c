"""Composite Gauss-Legendre quadrature with panel refinement.

Shared building block for the running-average (Cesaro) limits and the
corrector integrals.  The integrands we meet mix slow algebraic trends
(arctan transitions) with O(1)-frequency oscillations (sin), so a fixed
Gauss rule per short panel is accurate and cheap; adaptivity doubles the
panel count until two consecutive estimates agree.

Integrands must be vectorized: ``g(t)`` maps a 1-d node array to an array
of shape ``(nt,)`` or ``(nt, m)`` for m simultaneously integrated
components.
"""

from __future__ import annotations

import numpy as np


class QuadratureError(RuntimeError):
    """Raised when panel refinement fails to reach the requested tolerance."""


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


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


def panel_integrals(g, edges, order: int = 12, chunk: int = 1 << 16):
    """One Gauss-Legendre rule per panel; returns per-panel integrals.

    ``edges`` may be decreasing, in which case the integrals are oriented
    (negative for a positive integrand).  Output shape is ``(n_panels, m)``.
    """
    edges = np.asarray(edges, dtype=float)
    x, w = _gl(order)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    npan = mid.shape[0]
    step = max(1, chunk // order)
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


def _refine(g, a, b, rtol, atol, max_panel, order, max_rounds):
    """Composite estimates over [a, b] with the panel count doubled until
    two consecutive ones agree to ``rtol``/``atol``, for at most
    ``max_rounds`` doublings.  Returns (last estimate, converged, last
    error)."""
    n = max(1, int(np.ceil(abs(b - a) / max_panel)))
    prev = panel_integrals(g, np.linspace(a, b, n + 1), order).sum(axis=0)
    for _ in range(max_rounds):
        n *= 2
        cur = panel_integrals(g, np.linspace(a, b, n + 1), order).sum(axis=0)
        err = np.abs(cur - prev)
        if np.all(err <= atol + rtol * np.abs(cur)):
            return cur, True, err
        prev = cur
    return cur, False, err


def integrate(g, a: float, b: float, rtol: float = 1e-8, atol: float = 1e-12,
              max_panel: float = np.pi, order: int = 12, max_rounds: int = 8):
    """Adaptive composite integral of ``g`` over [a, b] (oriented).

    Doubles the panel count until two consecutive composite estimates
    agree to ``rtol``/``atol``.  Returns an array of shape ``(m,)``.
    """
    if a == b:
        probe = _eval(g, np.asarray([a], dtype=float))
        return np.zeros(probe.shape[1])
    val, ok, err = _refine(g, a, b, rtol, atol, max_panel, order, max_rounds)
    if not ok:
        raise QuadratureError(
            f"no convergence on [{a}, {b}] after {max_rounds} refinements "
            f"(last error {float(np.max(err)):.3e})")
    return val


def cumulative(g, grid, rtol: float = 1e-8, max_panel: float = np.pi,
               order: int = 12):
    """Oriented cumulative integrals of ``g`` from grid[0] to every grid point.

    The grid must be monotone.  Each cell is integrated adaptively (panel
    doubling within the cell, at most 6 rounds; the last estimate is kept
    when they do not settle); output shape ``(len(grid), m)`` with a zero
    first row.
    """
    grid = np.asarray(grid, dtype=float)
    parts = [None if a == b else
             _refine(g, a, b, rtol, 1e-14, max_panel, order, 6)[0]
             for a, b in zip(grid[:-1], grid[1:])]
    m = next((p.shape[0] for p in parts if p is not None), 1)
    out = np.zeros((grid.shape[0], m))
    acc = np.zeros(m)
    for i, p in enumerate(parts):
        if p is not None:
            acc = acc + p
        out[i + 1] = acc
    return out
