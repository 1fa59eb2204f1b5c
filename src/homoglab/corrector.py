"""Fast-variable corrector: construction by quadrature and decay checks.

The corrector V solves  a00(x1/eps, x2) * V'' = f(x1/eps, x2, y) - fbar(x1, x2, y)
in x1 with V(0) = V'(0) = 0, for frozen (x2, y).  Writing
q(t) = rho(t/eps, x2) * (f(t/eps, x2, y) - fbar(t, x2, y)), the solution is the
double primitive

    V(x1) = int_0^{x1} (x1 - t) q(t) dt,

so everything reduces to single adaptive quadratures.  Because q averages
to zero on each side of the interface, V shrinks with eps; decay_table
tabulates that.

Second derivatives are never formed by differencing quadrature values
(catastrophic cancellation at step h = 1e-4*eps); instead the central
second difference of a double primitive is written exactly as a hat-kernel
integral, which is evaluated directly.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .families import AveragedModel, CoefficientFamily, nonincreasing
from .quadrature import cumulative, integrate

# Relative tolerance of the pointwise corrector quadratures.
_RTOL = 1e-8


def _panel_width(eps: float) -> float:
    """The width the corrector's panels start at: pi * min(1, eps)
    resolves the t/eps oscillation scale."""
    return float(np.pi) * min(1.0, eps)


def start_panels(box, eps: float) -> float:
    """The decay table's starting panel count at fast scale ``eps``: the
    x1 range of ``box`` over the panel width."""
    return abs(np.subtract(*box[0])) / _panel_width(eps)


@dataclass
class CorrectorField:
    """Corrector data for a two-scale model and its averaged model:
    ``CorrectorField(fam.at(eps), avg)``; eps is the model's."""
    fam: CoefficientFamily
    avg: AveragedModel

    @property
    def eps(self) -> float:
        return self.fam.eps

    @property
    def max_panel(self) -> float:
        return _panel_width(self.eps)

    def q(self, t, x2, y):
        """Weighted driver gap rho * (f - fbar) at t, the two-scale model
        at fast argument t/eps."""
        t = np.asarray(t, dtype=float)
        x2 = np.asarray(x2, dtype=float).reshape(1, self.fam.d)
        rho = self.fam.rho(t, x2)
        return (self.fam.rho_f(t, x2, y)
                - rho * self.avg.f(t, x2, float(y)))


def corrector_value(field: CorrectorField, x1: float, x2, y: float) -> float:
    """V(x1) = int_0^{x1} (x1 - t) q(t) dt (the iterated integral collapsed)."""
    x1 = float(x1)
    if x1 == 0.0:
        return 0.0
    val = integrate(lambda t: (x1 - t) * field.q(t, x2, y),
                    0.0, x1, rtol=_RTOL, max_panel=field.max_panel)
    return float(val[0])


def second_difference(field: CorrectorField, x1: float, x2, y: float,
                      h: float) -> float:
    """Central second difference of V at step h, via the exact identity

        (V(c+h) - 2 V(c) + V(c-h)) / h^2 = (1/h^2) int (h - |t-c|)_+ q(t) dt.

    Evaluating the hat integral directly avoids the cancellation of
    differencing three O(1) quadrature values by h^2 ~ 1e-8 eps^2.
    Within |x1| < h the stencil is shifted one-sided away from the
    interface (center c = x1 + sign(x1) h).
    """
    x1 = float(x1)
    c = x1
    if abs(x1) < h:
        c = x1 + (h if x1 >= 0 else -h)

    def hat_part(a, b, left):
        def g(t):
            w = (t - a) if left else (b - t)
            return w * field.q(t, x2, y)
        return integrate(g, a, b, rtol=_RTOL, max_panel=field.max_panel)[0]

    total = hat_part(c - h, c, True) + hat_part(c, c + h, False)
    return float(total) / h ** 2


@dataclass(frozen=True)
class ResidualReport:
    max_residual: float
    max_scaled: float          # residual / per-point tolerance, worst case
    witness: tuple
    n_points: int
    n_failed: int
    h: float

    @property
    def passed(self) -> bool:
        return self.n_failed == 0


def residual_check(field: CorrectorField, sample_spec: dict) -> ResidualReport:
    """Check a00(x1/eps) * D2 V - (f - fbar) ~ 0 at sampled points.

    ``sample_spec``: {"box": [(x1lo, x1hi), x2 ranges..., (ylo, yhi)],
    "n_samples": int, "seed": int, optional "h"}.  The second derivative is
    the central difference at step h (default 1e-4*eps) via the hat-kernel
    identity; the per-point tolerance is max(1e-4, 1e-3*|f - fbar|).
    Violations are reported, not raised.
    """
    box = np.asarray(sample_spec["box"], dtype=float)
    n = int(sample_spec["n_samples"])
    h = float(sample_spec.get("h", 1e-4 * field.eps))
    rng = np.random.default_rng(int(sample_spec["seed"]))
    pts = box[:, 0] + (box[:, 1] - box[:, 0]) * rng.random((n, box.shape[0]))
    # keep samples off the interface per the one-sided-stencil contract
    pts[:, 0] = np.where(np.abs(pts[:, 0]) < 1e-6, 1e-6, pts[:, 0])
    d = field.fam.d
    worst = (-1.0, -1.0, None)
    n_failed = 0
    for p in pts:
        x1, x2, y = float(p[0]), p[1:1 + d], float(p[1 + d])
        d2 = second_difference(field, x1, x2, y, h)
        x2r = x2.reshape(1, d)
        a00 = float(field.fam.a00(x1, x2r)[0])
        gap = float(field.fam.f(x1, x2r, y)[0] - field.avg.f(x1, x2r, y)[0])
        resid = abs(a00 * d2 - gap)
        tol = max(1e-4, 1e-3 * abs(gap))
        if resid / tol > worst[1]:
            worst = (resid, resid / tol, (x1, *x2.tolist(), y))
        if resid > tol:
            n_failed += 1
    return ResidualReport(max_residual=worst[0], max_scaled=worst[1],
                          witness=worst[2], n_points=n, n_failed=n_failed, h=h)


# ---------------------------------------------------------------------------
# Decay table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayRow:
    eps: float
    sup_V: float
    sup_beta: float          # weighted-driver remainder, |x1| >= sqrt(eps)
    sup_alpha: float         # rho remainder, |x1| >= sqrt(eps)


@dataclass
class DecayTable:
    rows: list
    grid_spec: str
    monotone_V: bool

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["eps", "sup_V", "sup_beta", "sup_alpha", "grid_spec"])
            for r in self.rows:
                w.writerow([f"{r.eps:.10g}", f"{r.sup_V:.10g}",
                            f"{r.sup_beta:.10g}", f"{r.sup_alpha:.10g}",
                            self.grid_spec])


def _half_grid(lo, hi, n):
    """Split an x1 grid into monotone halves anchored at 0."""
    pts = np.linspace(lo, hi, n)
    neg = np.concatenate(([0.0], np.sort(pts[pts < 0])[::-1]))
    pos = np.concatenate(([0.0], np.sort(pts[pts > 0])))
    return neg, pos


def decay_table(fam: CoefficientFamily, avg: AveragedModel,
                eps_list: Sequence[float], box, y_box,
                n_grid) -> DecayTable:
    """Sampled sup norms of V and of the averaging remainders per eps.

    ``box`` = ((x1lo, x1hi), (x2lo, x2hi)) at d = 1, ``y_box`` = (ylo, yhi),
    ``n_grid`` = (x1, x2, y) sample counts.
    For each (eps, x2) the x1 profiles of all y values come from one
    cumulative quadrature of the stacked integrand (q, t*q, rho*f, rho),
    using V = x1 * Q1 - Qt.  Sup norms are grid samples, not certificates;
    the grid spec travels with the table.
    """
    eps_list = [float(e) for e in eps_list]
    if any(b <= a for a, b in zip(eps_list[1:], eps_list[:-1])):
        raise ValueError("eps_list must be strictly decreasing")
    fields = [CorrectorField(fam.at(eps), avg) for eps in eps_list]
    if fam.d != 1:
        raise ValueError("decay_table assumes d = 1 boxes")
    (x1lo, x1hi), (x2lo, x2hi) = box
    n1, n2, ny = n_grid
    x2s = np.linspace(x2lo, x2hi, n2)
    ys = np.linspace(y_box[0], y_box[1], ny)
    shape_y = fam.f_y_shape(ys)
    neg, pos = _half_grid(x1lo, x1hi, n1)
    rows = []
    for field in fields:
        eps, model = field.eps, field.fam
        sup_V = sup_b = sup_a = 0.0
        for x2v in x2s:
            x2r = np.array([[x2v]])

            def g(t):
                rho, rhof = model._combine(t, x2r, fam.rho_t, fam.rhof_t)
                rhof = rhof[:, None] * shape_y
                q = rhof - rho[:, None] * avg.driver(t[:, None], x2r)(ys)
                return np.concatenate(
                    [q, t[:, None] * q, rhof, rho[:, None]], axis=1)

            for side, grid in ((-1.0, neg), (1.0, pos)):
                if grid.shape[0] < 2:
                    continue
                flim = avg.rho_f_coef(side, x2r)[0]
                rlim = avg.rho(side, x2r)[0]
                cum = cumulative(g, grid, rtol=1e-6,
                                 max_panel=field.max_panel)
                x1 = grid[1:, None]
                Q1, Qt = cum[1:, :ny], cum[1:, ny:2 * ny]
                R1, A1 = cum[1:, 2 * ny:3 * ny], cum[1:, 3 * ny]
                sup_V = max(sup_V, float(np.max(np.abs(x1 * Q1 - Qt))))
                far = np.abs(grid[1:]) >= np.sqrt(eps)
                if far.any():
                    beta = np.abs(R1[far] / x1[far]
                                  - flim * shape_y[None, :])
                    alpha = np.abs(A1[far] / grid[1:][far] - rlim)
                    sup_b = max(sup_b, float(np.max(beta)))
                    sup_a = max(sup_a, float(np.max(alpha)))
        rows.append(DecayRow(eps=eps, sup_V=sup_V, sup_beta=sup_b,
                             sup_alpha=sup_a))

    spec = (f"x1[{x1lo},{x1hi}]x{n1};x2[{x2lo},{x2hi}]x{n2};"
            f"y[{y_box[0]},{y_box[1]}]x{ny}")
    return DecayTable(rows=rows, grid_spec=spec,
                      monotone_V=nonincreasing([r.sup_V for r in rows]))
