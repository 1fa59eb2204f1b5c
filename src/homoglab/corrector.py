"""Fast-variable corrector: the decay table in closed form, residual checks
by quadrature.

The corrector V solves  a00(x1/eps, x2) * V'' = f(x1/eps, x2, y) - fbar(x1, x2, y)
in x1 with V(0) = V'(0) = 0, for frozen (x2, y).  Writing
q(t) = rho(t/eps, x2) * (f(t/eps, x2, y) - fbar(t, x2, y)), the solution is the
double primitive

    V(x1) = int_0^{x1} (x1 - t) q(t) dt.

Because q averages to zero on each side of the interface, V shrinks with
eps; decay_table tabulates that from the basis primitives, since every
template is linear in {1, T, sin}.  The residual check is independent of
them: it writes the central second difference of V exactly as a hat-kernel
integral, evaluated by adaptive quadrature, never by differencing values
(catastrophic cancellation at step h = 1e-4*eps).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .families import (AveragedModel, CoefficientFamily, _Template,
                       closed_form_averaged, nonincreasing)
from .quadrature import integrate

# Relative tolerance of the pointwise corrector quadratures.
_RTOL = 1e-8


def second_difference(model: CoefficientFamily, avg: AveragedModel,
                      x1: float, x2, y: float, h: float) -> float:
    """Central second difference of V at step h, for the two-scale
    ``model`` (eps is its own) and its averaged model ``avg``, via the
    exact identity

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

    def q(t):
        """The weighted driver gap rho * (f - fbar) at t."""
        t = np.asarray(t, dtype=float)
        rho = model.rho(t, x2)
        return (model.rho_f_coef(t, x2) * model.f_y_shape(y)
                - rho * avg.driver(t, x2)(float(y)))

    def hat_part(a, b, left):
        def g(t):
            w = (t - a) if left else (b - t)
            return w * q(t)
        return integrate(g, a, b, rtol=_RTOL)

    return (hat_part(c - h, c, True) + hat_part(c, c + h, False)) / h ** 2


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


def residual_check(model: CoefficientFamily, avg: AveragedModel,
                   sample_spec: dict) -> ResidualReport:
    """Check a00(x1/eps) * D2 V - (f - fbar) ~ 0 at sampled points, for the
    two-scale ``model`` (eps is its own) and its averaged model ``avg``.

    ``sample_spec``: {"box": [(x1lo, x1hi), (x2lo, x2hi), (ylo, yhi)],
    "n_samples": int, "seed": int}.  The second derivative is the central
    difference at step h = 1e-4*eps via the hat-kernel identity; the
    per-point tolerance is max(1e-4, 1e-3*|f - fbar|).  Violations are
    reported, not raised.
    """
    box = np.asarray(sample_spec["box"], dtype=float)
    n = int(sample_spec["n_samples"])
    h = 1e-4 * model.eps
    rng = np.random.default_rng(int(sample_spec["seed"]))
    pts = box[:, 0] + (box[:, 1] - box[:, 0]) * rng.random((n, box.shape[0]))
    # keep samples off the interface per the one-sided-stencil contract
    pts[:, 0] = np.where(np.abs(pts[:, 0]) < 1e-6, 1e-6, pts[:, 0])
    worst = (-1.0, -1.0, None)
    n_failed = 0
    for p in pts:
        x1, x2, y = map(float, p)
        d2 = second_difference(model, avg, x1, x2, y, h)
        a00 = float(model.a00(x1, x2))
        gap = float(model.driver(x1, x2)(y) - avg.driver(x1, x2)(y))
        resid = abs(a00 * d2 - gap)
        tol = max(1e-4, 1e-3 * abs(gap))
        if resid / tol > worst[1]:
            worst = (resid, resid / tol, (x1, x2, y))
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


def decay_table(fam: CoefficientFamily, eps_list: Sequence[float], box,
                y_box, n_grid) -> DecayTable:
    """Sampled sup norms of V and of the averaging remainders per eps.

    ``box`` = ((x1lo, x1hi), (x2lo, x2hi)), ``y_box`` = (ylo, yhi),
    ``n_grid`` = (x1, x2, y) sample counts.  With r_j and q_j the (T, sin)
    weights of rho and rho*f at x2, fbar_s = ``rho_f_coef / rho`` of
    ``closed_form_averaged`` on the side s of x1, c_j = q_j - fbar_s*r_j and
    the basis primitives of ``_Template.averages`` at x1/eps, each row is,
    vectorized over (x1, x2, y) with x1 = 0 (where all vanish) left out,

        V     = x1^2 * shape(y) * (c1*M_T + c2*M_sin)
        beta  = |shape(y)| * |q1*A_T + q2*A_sin|    (|x1| >= sqrt(eps))
        alpha = |r1*A_T + r2*A_sin|                 (|x1| >= sqrt(eps))

    Sup norms are grid samples, not certificates; the grid spec travels
    with the table.
    """
    eps_list = [float(e) for e in eps_list]
    if any(b <= a for a, b in zip(eps_list[1:], eps_list[:-1])):
        raise ValueError("eps_list must be strictly decreasing")
    (x1lo, x1hi), (x2lo, x2hi) = box
    n1, n2, ny = n_grid
    x1 = np.linspace(x1lo, x1hi, n1)
    x1 = x1[x1 != 0.0][:, None, None]
    x2 = np.linspace(x2lo, x2hi, n2)[:, None]
    shape = fam.f_y_shape(np.linspace(y_box[0], y_box[1], ny))
    avg = closed_form_averaged(fam)
    fbar = avg.rho_f_coef(x1, x2) / avg.rho(x1, x2)
    r1, r2 = fam.rho_t.w1(x2), fam.rho_t.w2(x2)
    q1, q2 = fam.rhof_t.w1(x2), fam.rhof_t.w2(x2)
    c1, c2 = q1 - fbar * r1, q2 - fbar * r2
    rows = []
    for eps in eps_list:
        (a_t, a_sin), (m_t, m_sin) = _Template.averages(x1, eps)
        far = np.abs(x1) >= np.sqrt(eps)
        V = x1 ** 2 * shape * (c1 * m_t + c2 * m_sin)
        beta = np.abs(shape) * np.abs(q1 * a_t + q2 * a_sin)
        alpha = np.abs(r1 * a_t + r2 * a_sin)
        rows.append(DecayRow(
            eps=eps, sup_V=float(np.max(np.abs(V), initial=0.0)),
            sup_beta=float(np.max(np.where(far, beta, 0.0), initial=0.0)),
            sup_alpha=float(np.max(np.where(far, alpha, 0.0), initial=0.0))))

    spec = (f"x1[{x1lo},{x1hi}]x{n1};x2[{x2lo},{x2hi}]x{n2};"
            f"y[{y_box[0]},{y_box[1]}]x{ny}")
    return DecayTable(rows=rows, grid_spec=spec,
                      monotone_V=nonincreasing([r.sup_V for r in rows]))
