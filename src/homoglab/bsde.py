"""Least-squares regression Monte Carlo solver for the backward equation.

Backward induction from the terminal condition, with conditional
expectations replaced by polynomial least-squares projections and a short
Picard fixed point for the (y-Lipschitz, bounded) driver at each step.
The initial value Y0 represents the PDE solution at the bundle's starting
point; all paths share that point, so Y0 is a plain ensemble mean.

Also hosts the path functionals used by the tightness diagnostics:
grid conditional variation and up-crossing counts.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .simulate import PathBundle, mean_stderr, write_container

_MAGIC = b"HMGS1"
_VERSION = 1
# Singular values below this fraction of the largest are projected out, so
# the condition number of the kept directions is below 1 / _RCOND.
_RCOND = 1e-9
# Largest condition number fitted through the Gram matrix F^T F; its
# eigenvalues carry cond(F)^2, so beyond this the SVD takes the step.
_GRAM_COND = 1e4
# The (a, b) level pairs whose up-crossings tightness_certificate counts.
UPCROSSING_BANDS = ((-0.5, 0.5),)
# The most Picard sweeps per backward step, each a driver pass over every
# path: the demo's residuals fall ~1000x per sweep (6.5e-3, 7.9e-6, 1.3e-8
# at eps 1), so sweeps past a handful change no bit of Y.
MAX_PICARD = 64


class RegressionError(RuntimeError):
    """Zero feature matrix at some backward step."""


class PicardError(RuntimeError):
    """Driver fixed point failed to contract."""


@dataclass
class BsdeSpec:
    """The regression knobs of a backward solve (its problem is the
    model's).  ``y_bound`` clips the regression output to the a-priori
    band sup|H| + t*sup|f|.
    """
    basis_degree: int = 3
    include_sign_feature: bool = False
    n_picard: int = 3
    y_bound: float = np.inf

    def __post_init__(self):
        # the knobs' ranges; each message starts with the field it refuses
        if not 1 <= self.n_picard <= MAX_PICARD:
            raise ValueError(f"n_picard must be in [1, {MAX_PICARD}]")
        if not 0 <= self.basis_degree <= 6:
            raise ValueError("basis_degree must be in [0, 6]")


@dataclass
class BsdeSolution:
    Y0: float
    Y0_stderr: float
    Y: np.ndarray                  # (n_paths, n_steps+1)
    Z: np.ndarray                  # (n_paths, n_steps, k)
    picard_residuals: list
    condition_numbers: np.ndarray  # per interior step
    cv: float                      # grid conditional variation of Y (debiased)
    cv_stderr: float
    sup_y: np.ndarray              # (n_paths,) sup_s |Y_s| of each path
    eps: Optional[float]

    @property
    def sup_abs_y(self) -> float:
        """E sup_s |Y_s|."""
        return float(np.mean(self.sup_y))

    def save(self, path, dt):
        n_paths, n_steps1 = self.Y.shape
        k = self.Z.shape[2]
        header = struct.pack(
            "<5sIQQQdd", _MAGIC, _VERSION, n_paths, n_steps1 - 1, k,
            float("nan") if self.eps is None else self.eps, dt)
        write_container(path, header, (self.Y, self.Z), {
            "Y0": self.Y0, "Y0_stderr": self.Y0_stderr,
            "picard_residuals": list(self.picard_residuals),
            "max_condition_number": float(np.max(self.condition_numbers))
            if self.condition_numbers.size else 0.0,
            "cv": self.cv, "cv_stderr": self.cv_stderr,
            "sup_abs_y": self.sup_abs_y, "eps": self.eps})


# ---------------------------------------------------------------------------
# Regression features
# ---------------------------------------------------------------------------

def _monomial_powers(n_vars, degree):
    powers = []
    for total in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(n_vars), total):
            p = [0] * n_vars
            for v in combo:
                p[v] += 1
            powers.append(tuple(p))
    return powers


def feature_matrix(states, degree, sign_feature):
    """Scaled total-degree polynomial features of the state, plus an
    optional interface indicator 1_{x1>0}."""
    states = np.asarray(states, dtype=float)
    n, nv = states.shape
    # One contiguous row per variable.  numpy reduces axis 0 of an (n, nv)
    # array, nv > 1, as a running sum down each column, so a cumsum along
    # the rows gives states.mean(axis=0) and .std(axis=0) to the bit, at a
    # fraction of the cost of the strided reduction.
    z = states.T.copy()
    z -= (np.cumsum(z, axis=1)[:, -1] / n)[:, None]
    sd = np.sqrt(np.cumsum(z * z, axis=1)[:, -1] / n)
    z /= np.where(sd > 1e-12, sd, 1.0)[:, None]
    # Power table z_v ** e by repeated multiplication from the rows 1
    # and z: within a few ulp of pow, at a small fraction of its cost.
    table = np.empty((nv, degree + 1, n))
    table[:, 0] = 1.0
    if degree:
        table[:, 1] = z
    for e in range(2, degree + 1):
        np.multiply(table[:, e - 1], z, out=table[:, e])
    powers = _monomial_powers(nv, degree)
    m = len(powers)
    F = np.empty((n, m + 1 if sign_feature else m))
    # Each column multiplied variable by variable, left to right, as
    # np.prod; factors z ** 0 = 1 are exact and skipped.
    for j, p in enumerate(powers):
        factors = [table[v, e] for v, e in enumerate(p) if e]
        col = F[:, j]
        col[...] = factors[0] if factors else 1.0
        for f in factors[1:]:
            col *= f
    if sign_feature:
        F[:, m] = states[:, 0] > 0
    return F


def _projector(F, step):
    """Least squares on the columns of F, factored once; returns (fit, cond).

    ``fit(target)`` projects ``target`` (one column or an ``(n, j)`` block)
    on the columns of F.  A well-conditioned F (cond at most
    ``_GRAM_COND``, read off the eigenvalues of the Gram matrix F^T F) is
    fitted through that eigendecomposition.  Otherwise F takes a truncated
    SVD: near-collinear columns (e.g. the interface indicator while all
    paths are still on one side) are projected out rather than blowing up
    the fit, and the reported condition number covers the kept directions
    only.
    """
    w, v = np.linalg.eigh(F.T @ F)
    if w[0] > 0 and w[-1] <= _GRAM_COND ** 2 * w[0]:
        def fit(target):
            return F @ (v @ ((v.T @ (F.T @ target)).T / w).T)
        return fit, float(np.sqrt(w[-1] / w[0]))
    u, s, vt = np.linalg.svd(F, full_matrices=False)
    if s[0] <= 0:
        raise RegressionError(f"zero feature matrix at step {step}")
    keep = s > _RCOND * s[0]
    uk, sk, vk = u[:, keep], s[keep], vt[keep]

    def fit(target):
        return F @ (vk.T @ ((uk.T @ target).T / sk).T)
    return fit, s[0] / sk[-1]


# ---------------------------------------------------------------------------
# Backward solver
# ---------------------------------------------------------------------------

def solve_bsde(bundle: PathBundle, model, spec: BsdeSpec) -> BsdeSolution:
    """The backward equation of ``model``, its ``terminal`` at X_T and its
    ``driver``, along ``bundle``, with ``spec``'s regression knobs."""
    n, m = bundle.n_paths, bundle.grid.n_steps
    dt = bundle.grid.dt
    k = bundle.k
    x1 = bundle.x1()
    x2 = bundle.x2()
    Y = np.empty((n, m + 1))
    Z = np.zeros((n, m, k))
    Y[:, m] = np.asarray(model.terminal(bundle.X[:, m, :]), dtype=float)
    y_next = Y[:, m].copy()     # contiguous copy of the column Y[:, s + 1]
    sup_y = np.abs(y_next)      # running sup_s |Y_s| of each path
    conds = np.zeros(m - 1)
    picard = np.zeros(spec.n_picard)

    # per step: fitted conditional mean of the increment Y[:, s+1] - Y[:, s]
    # and its noise floor, for the conditional variation
    dy_fit = np.empty((m, n))
    dy_floor = [0.0] * m
    # Monte Carlo uncertainty of Y0 from the pathwise rollout estimator
    # H(X_T) + sum_s f(.., Y_s) dt, whose mean is the same value but whose
    # spread reflects the actual sampling noise of the ensemble.  Each step
    # adds its term with the driver it prepared for the Picard iterations,
    # so no (n_paths, n_steps) array of driver values is kept.
    rollout = y_next.copy()
    for s in range(m - 1, 0, -1):
        F = feature_matrix(bundle.X[:, s, :], spec.basis_degree,
                           spec.include_sign_feature)
        fit, conds[s - 1] = _projector(F, s)
        cont = fit(y_next)
        drive = model.driver(x1[:, s], x2[:, s])
        y = cont
        for j in range(spec.n_picard):
            y_new = cont + dt * np.asarray(drive(y), dtype=float)
            picard[j] = max(picard[j], float(np.sqrt(np.mean((y_new - y) ** 2))))
            y = y_new
        Y[:, s] = y = np.clip(y, -spec.y_bound, spec.y_bound)
        np.maximum(sup_y, np.abs(y), out=sup_y)
        rollout += dt * np.asarray(drive(y), dtype=float)
        # one fit for the k Z columns and the increment of Y; Z is fitted
        # on the martingale increment (y_next - cont) dB/dt, whose
        # conditional mean is that of y_next dB/dt (E[dB | F_s] = 0) and
        # whose spread is about |Z| rather than |Y|/sqrt(dt)
        targets = np.empty((n, k + 1))
        np.multiply((y_next - cont)[:, None], bundle.dB[:, s, :],
                    out=targets[:, :k])
        targets[:, :k] /= dt
        dY = np.subtract(y_next, y, out=targets[:, k])
        fitted = fit(targets)
        Z[:, s, :] = fitted[:, :k]
        dy_fit[s] = fitted[:, k]
        p = F.shape[1]
        dy_floor[s] = float(np.sqrt(np.mean((dY - dy_fit[s]) ** 2) * p
                                    / max(n - p, 1)))
        y_next = y

    # Step 0: every path sits at x0, so the projection is the plain mean.
    cont0 = float(np.mean(Y[:, 1]))
    drive = model.driver(x1[0, 0], x2[0, 0])
    y0 = cont0
    for j in range(spec.n_picard):
        y0_new = cont0 + dt * float(np.asarray(drive(y0)))
        picard[j] = max(picard[j], abs(y0_new - y0))
        y0 = y0_new
    y0 = float(np.clip(y0, -spec.y_bound, spec.y_bound))
    Y[:, 0] = y0
    np.maximum(sup_y, abs(y0), out=sup_y)
    rollout += dt * np.asarray(drive(Y[:, 0]), dtype=float)
    Z[:, 0, :] = np.mean((Y[:, 1] - cont0)[:, None] * bundle.dB[:, 0, :] / dt,
                         axis=0)
    dy_fit[0], dy_floor[0] = mean_stderr(Y[:, 1] - Y[:, 0])

    residuals = [float(r) for r in picard]
    for j in range(2, len(residuals)):
        if residuals[j] > residuals[j - 1] > residuals[j - 2]:
            raise PicardError(
                f"driver fixed point diverging: residuals {residuals}")

    cv, cv_stderr = conditional_variation(dy_fit, dy_floor)
    return BsdeSolution(
        Y0=y0, Y0_stderr=mean_stderr(rollout)[1], Y=Y, Z=Z,
        picard_residuals=residuals, condition_numbers=conds,
        cv=cv, cv_stderr=cv_stderr, sup_y=sup_y, eps=bundle.eps)


# ---------------------------------------------------------------------------
# Path functionals (tightness diagnostics)
# ---------------------------------------------------------------------------

def conditional_variation(fitted, noise_sd):
    """Grid conditional variation: sum over steps of E|E[dY | F_s]|.

    ``fitted[s]`` is each path's conditional mean of the step-s increment
    of Y (its projection on the step-s features); ``noise_sd[s]`` is that
    projection's noise floor, subtracted per path before taking absolute
    values so martingales report ~0 rather than accumulated regression
    noise.  This evaluates the simulation-grid partition only: a lower
    bound for the true CV.
    """
    fitted = np.asarray(fitted, dtype=float)
    if not np.all(np.isfinite(fitted)):
        raise ValueError("increments of Y contain non-finite values")
    n = fitted.shape[1]
    cv = 0.0
    var_acc = 0.0
    floor_acc = 0.0
    for fit_s, sd in zip(fitted, noise_sd):
        mag = np.sqrt(np.maximum(fit_s ** 2 - sd ** 2, 0.0))
        cv += float(np.mean(mag))
        var_acc += float(np.var(mag) / n)
        floor_acc += np.sqrt(2.0 / np.pi) * sd
    return cv, float(np.sqrt(var_acc) + floor_acc)


def upcrossings(path, a: float, b: float) -> int:
    """Completed traversals from level <= a up to level >= b."""
    if not a < b:
        raise ValueError("need a < b")
    path = np.asarray(path, dtype=float)
    count = 0
    armed = False
    for v in path:
        if not armed and v <= a:
            armed = True
        elif armed and v >= b:
            count += 1
            armed = False
    return count


def _upcrossings_batch(Y, a, b):
    """Mean up-crossing count across the rows of Y (vectorized scan)."""
    n = Y.shape[0]
    counts = np.zeros(n)
    armed = np.zeros(n, dtype=bool)
    for s in range(Y.shape[1]):
        v = Y[:, s]
        fire = armed & (v >= b)
        counts += fire
        armed = (armed & ~fire) | (v <= a)
    return float(np.mean(counts))


def tightness_row(sol: BsdeSolution, dt: float) -> dict:
    """One solution's row of the tightness certificate: CV + E sup|Y|, the
    energy E sup|Y|^2 + E sum |Z|^2 dt and the mean up-crossing count of
    each band of ``UPCROSSING_BANDS``."""
    return {
        "eps": sol.eps,
        "cv": sol.cv,
        "sup_abs_y": sol.sup_abs_y,
        "cv_plus_sup": sol.cv + sol.sup_abs_y,
        "energy": float(np.mean(sol.sup_y ** 2))
        + float(np.mean(np.sum(sol.Z ** 2, axis=(1, 2))) * dt),
        "upcrossings": {f"{a}:{b}": _upcrossings_batch(sol.Y, a, b)
                        for a, b in UPCROSSING_BANDS},
    }


def tightness_certificate(rows: Sequence[dict]) -> dict:
    """Empirical uniform-in-eps boundedness report (not a proof).

    Takes one ``tightness_row`` per solution and adds the max/min ratios
    across them: 1.0 when every value is 0, None (unbounded) when the
    smallest is 0 and another is not.
    """
    if not rows:
        raise ValueError("need at least one row")

    def ratio(vals):
        vals = np.array(vals)
        lo, hi = float(np.min(vals)), float(np.max(vals))
        if lo > 0:
            return hi / lo
        return 1.0 if hi == 0 else None

    return {"rows": rows,
            "ratio_cv_plus_sup": ratio([r["cv_plus_sup"] for r in rows]),
            "ratio_energy": ratio([r["energy"] for r in rows]),
            "ratio_upcrossings": {
                key: ratio([r["upcrossings"][key] for r in rows])
                for key in rows[0]["upcrossings"]}}
