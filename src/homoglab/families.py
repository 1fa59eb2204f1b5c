"""Coefficient families, Cesaro averaging and the effective-coefficient build.

A family bundles the primitives of the two-scale system: the fast-variable
diffusion amplitude ``phi`` (through ``a00 = phi^2/2``), the slow drift and
diffusion ``b1``/``sigma1``, the driver ``f`` and the terminal function ``H``.
``fam.at(eps)`` is the system at fast scale eps, its coefficients evaluated
at (x1/eps, x2).
Catalog families follow an oscillation+transition template in the weighted
quantities

    rho      = r0(x2) + r1(x2)*T(x1) + r2(x2)*sin(x1)
    rho*b1   = ...
    rho*a1   = ...
    rho*f    = (q0(x2) + q1(x2)*T(x1) + q2(x2)*sin(x1)) * (c0 + c1*tanh(y))

with ``T(x1) = (2/pi)*arctan(x1)`` and ``rho = 1/a00``.  Running averages of
``T`` tend to +1/-1 and of ``sin`` to 0, so every effective coefficient has a
closed form that the numeric averaging engine is checked against.

The effective model takes the quotient form: each averaged coefficient is a
ratio of Cesaro limits weighted by ``rho``, with a separate value on each
side of the interface ``{x1 = 0}`` (the point 0 itself uses the minus side).
By linearity it is the family's own templates on the limit basis: ``(T, sin)``
replaced by its one-sided limits, ``(+1, 0)`` for x1 > 0 and ``(-1, 0)``
otherwise in closed form.  So both models share one coefficient interface,
``TemplateCoefficients``, and differ only in the basis (which alone holds
the side convention) and in the operation order of ``driver``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .quadrature import cumulative


def transition(x1):
    """Odd transition profile with Cesaro running-average limits +1/-1."""
    return (2.0 / np.pi) * np.arctan(x1)


class FamilyError(ValueError):
    """Unknown family id or bad parameter arity."""


class AveragingError(RuntimeError):
    """Numeric Cesaro limits disagree with the declared closed form."""


# ---------------------------------------------------------------------------
# Cesaro averaging engine
# ---------------------------------------------------------------------------

# the horizons 100 * sqrt(10)^j, j = 0..8, on which every family is averaged
DEFAULT_SCHEDULE = tuple((100.0 * math.sqrt(10.0) ** np.arange(9)).tolist())


@dataclass(frozen=True)
class CesaroResult:
    g_plus: np.ndarray
    g_minus: np.ndarray
    converged: bool
    residual: float
    horizons: np.ndarray
    averages_plus: np.ndarray   # (n_horizons, m)
    averages_minus: np.ndarray


def cesaro_average(g, schedule=None, tol: float = 1e-4,
                   max_panel=2.0 * np.pi) -> CesaroResult:
    """Running-average limits of ``g(t)`` as t -> +/- infinity.

    ``g`` must be vectorized in t and may return several components at once
    (shape ``(nt, m)``).  The average A(X) = (1/X) * int_0^X g is evaluated
    on a geometric horizon schedule via adaptive panel quadrature, and
    convergence is declared when the last three values stabilize to ``tol``.
    Non-convergence is reported, never papered over with an extrapolation.

    ``max_panel`` is the panel scale of ``g``: the width its panels start
    at, one number or one width per horizon cell (the cells run from 0 to
    the first horizon and between consecutive horizons).  The default,
    2*pi, is the period of the template's sin(x1), for an integrand that
    mixes T and sin; ``_basis_limits_numeric`` gives each basis function
    its own scale (``_BASIS_PANELS``).
    """
    schedule = np.asarray(DEFAULT_SCHEDULE if schedule is None
                          else schedule, dtype=float)
    if schedule.size < 4 or np.any(np.diff(schedule) <= 0) or schedule[0] <= 0:
        raise ValueError("schedule must be increasing, positive, length >= 4")

    def one_side(sign):
        grid = np.concatenate(([0.0], sign * schedule))
        cum = cumulative(g, grid, rtol=tol / 10.0, max_panel=max_panel)
        # (1/x1) * int_0^{x1}; both signs give the plain ratio.
        return cum[1:] / (sign * schedule)[:, None]

    avg_p = one_side(+1.0)
    avg_m = one_side(-1.0)
    res_p = np.max(np.abs(avg_p[-3:] - avg_p[-1]))
    res_m = np.max(np.abs(avg_m[-3:] - avg_m[-1]))
    residual = float(max(res_p, res_m))
    return CesaroResult(
        g_plus=avg_p[-1].copy(), g_minus=avg_m[-1].copy(),
        converged=bool(residual <= tol), residual=residual,
        horizons=schedule, averages_plus=avg_p, averages_minus=avg_m)


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

def _as_x2(x2, d):
    x2 = np.asarray(x2, dtype=float)
    if x2.ndim == 0:
        x2 = x2[None]
    if x2.shape[-1] != d:
        raise FamilyError(f"x2 has trailing dimension {x2.shape[-1]}, expected {d}")
    return x2


@dataclass(frozen=True)
class _Template:
    """Weights of c0(x2) + c1(x2)*T(x1) + c2(x2)*sin(x1)."""
    w0: Callable
    w1: Callable
    w2: Callable

    def __call__(self, x1, x2):
        return self.combine(self.basis(x1), x2)

    @staticmethod
    def basis(x1):
        """The fast-variable basis (T(x1), sin(x1)) every template shares."""
        x1 = np.asarray(x1, dtype=float)
        return transition(x1), np.sin(x1)

    def combine(self, basis, x2):
        trans, sin = basis
        w0, w1, w2 = self.w0(x2), self.w1(x2), self.w2(x2)
        extra = w0.ndim - trans.ndim
        if extra > 0:
            trans = trans.reshape(trans.shape + (1,) * extra)
            sin = sin.reshape(sin.shape + (1,) * extra)
        return w0 + w1 * trans + w2 * sin


def _const_w(value):
    """Constant weight: ``value`` (scalar, vector or matrix) over the leading
    shape of x2."""
    value = np.asarray(value, dtype=float)
    return lambda x2: np.full(np.asarray(x2).shape[:-1] + value.shape, value)


class TemplateCoefficients:
    """The one coefficient interface of a family and its averaged model.

    Every coefficient is the family's ``(T, sin)`` templates evaluated on
    ``self.basis(x1)`` through ``_Template.combine``.  A subclass supplies
    ``basis``, ``d``, the family ``fam`` whose templates and driver
    y-shape it evaluates, ``driver`` and ``label``, the model's name in
    FD output.
    """

    def _combine(self, x1, x2, *templates):
        x2 = _as_x2(x2, self.d)
        basis = self.basis(x1)
        return [t.combine(basis, x2) for t in templates]

    def weighted(self, x1, x2):
        """``(rho, rho_b, rho_a)`` at once, the basis evaluated once."""
        fam = self.fam
        return tuple(self._combine(x1, x2, fam.rho_t, fam.rhob_t, fam.rhoa_t))

    def rho(self, x1, x2):
        return self._combine(x1, x2, self.fam.rho_t)[0]

    def rho_f_coef(self, x1, x2):
        """The y-independent factor of ``rho*f``."""
        return self._combine(x1, x2, self.fam.rhof_t)[0]

    def rho_f(self, x1, x2, y):
        return self.rho_f_coef(x1, x2) * self.fam.f_y_shape(y)

    def a00(self, x1, x2):
        return 1.0 / self.rho(x1, x2)

    def phi(self, x1, x2):
        return np.sqrt(2.0 / self.rho(x1, x2))

    def b1(self, x1, x2):
        rho, rho_b = self._combine(x1, x2, self.fam.rho_t, self.fam.rhob_t)
        return rho_b / rho[..., None]

    def a1(self, x1, x2):
        rho, rho_a = self._combine(x1, x2, self.fam.rho_t, self.fam.rhoa_t)
        return rho_a / rho[..., None, None]

    def sigma1(self, x1, x2):
        return _sym_sqrt(2.0 * self.a1(x1, x2))

    def f(self, x1, x2, y):
        return self.driver(x1, x2)(y)


@dataclass
class CoefficientFamily(TemplateCoefficients):
    """Evaluable two-scale coefficient set with declared bounds.

    ``d`` is the slow dimension, ``k = d + 1`` the Brownian dimension.
    Bounds (a00 ellipticity window, Lipschitz constant, driver sup norm)
    are declared by the constructor and audited by sampling.  Every family
    is a template in (T, sin), so its effective model has the closed form
    ``closed_form_averaged(fam)``.

    ``eps`` is the fast scale: every coefficient is evaluated at
    (x1/eps, x2), and ``basis`` is the one place in the package that forms
    x1/eps.  The catalog builds families at eps = 1 (x1/1.0 is x1 to the
    bit); ``at(eps)`` gives the two-scale system at another scale.
    """
    family_id: str
    params: tuple
    d: int
    k: int
    rho_t: _Template
    rhob_t: _Template
    rhoa_t: _Template
    rhof_t: _Template
    f_shape: tuple            # (c0, c1): y-shape c0 + c1*tanh(y)
    H: Callable
    bounds: dict
    eps: float = 1.0

    @property
    def fam(self) -> "CoefficientFamily":
        """A family evaluates its own templates."""
        return self

    def at(self, eps) -> "CoefficientFamily":
        """The family at fast scale ``eps`` (replacing, not compounding,
        its own); the one check that eps is positive."""
        if not eps > 0:
            raise FamilyError(f"eps must be positive, got {eps}")
        return replace(self, eps=eps)

    @property
    def label(self) -> str:
        """The two-scale system named by its fast scale, e.g. ``eps=0.1``."""
        return f"eps={float(self.eps)!r}"

    def basis(self, x1):
        """The fast basis at x1/eps, looked up on ``_Template`` at call
        time."""
        return _Template.basis(np.asarray(x1, dtype=float) / self.eps)

    def f_y_shape(self, y):
        c0, c1 = self.f_shape
        return c0 + c1 * np.tanh(np.asarray(y, dtype=float))

    def driver(self, x1, x2):
        """The driver at (x1, x2) as the map ``y -> f``.  Its y-independent
        factors, ``rho*f``'s coefficient and ``rho``, come from one basis
        evaluation, made once however often the map is applied."""
        rho, rhof = self._combine(x1, x2, self.rho_t, self.rhof_t)
        return lambda y: (rhof * self.f_y_shape(y)) / rho

    def terminal(self, x):
        x = np.asarray(x, dtype=float)
        return self.H(x)


def _sym_sqrt(mat):
    """Symmetric PSD square root, batched over leading axes."""
    mat = np.asarray(mat, dtype=float)
    d = mat.shape[-1]
    if d == 1:
        v = mat[..., 0, 0]
        if np.any(v < 0):
            raise AveragingError("matrix square root of a negative 1x1 block")
        return np.sqrt(v)[..., None, None]
    w, v = np.linalg.eigh(mat)
    if np.any(w < -1e-12):
        raise AveragingError("matrix square root of an indefinite block")
    w = np.clip(w, 0.0, None)
    return np.einsum("...ij,...j,...kj->...ik", v, np.sqrt(w), v)


# ---------------------------------------------------------------------------
# Averaged (effective) model
# ---------------------------------------------------------------------------

@dataclass
class AveragedModel(TemplateCoefficients):
    """Effective coefficients; possibly discontinuous across {x1 = 0}.

    The family's templates evaluated on the limit basis: ``basis(x1)`` is
    ``(a_trans, a_sin)[0]`` for x1 > 0 and ``[1]`` otherwise, so the point
    x1 = 0 belongs to the minus side.  The driver's y-shape is the family's.
    """
    fam: CoefficientFamily
    a_trans: tuple          # (plus, minus) limits of T
    a_sin: tuple            # (plus, minus) limits of sin
    label = "averaged"      # not a field

    @property
    def d(self) -> int:
        return self.fam.d

    @property
    def k(self) -> int:
        return self.fam.k

    def basis(self, x1):
        """The one-sided limits of (T, sin) on the side of x1."""
        plus = np.asarray(x1, dtype=float) > 0
        return np.where(plus, *self.a_trans), np.where(plus, *self.a_sin)

    def a(self, x1, x2):
        """The full diffusion block, ``a00`` and ``a1`` on the diagonal."""
        a00 = self.a00(x1, x2)
        a1 = self.a1(x1, x2)
        out = np.zeros(a1.shape[:-2] + (self.d + 1, self.d + 1))
        out[..., 0, 0] = a00
        out[..., 1:, 1:] = a1
        return out

    def driver(self, x1, x2):
        """The averaged driver at (x1, x2) as the map ``y -> f``, as
        ``CoefficientFamily.driver``, but with ``rho`` divided out first."""
        rho, rhof = self._combine(x1, x2, self.fam.rho_t, self.fam.rhof_t)
        coef = rhof / rho
        shape = self.fam.f_y_shape
        return lambda y: coef * shape(y)

    # -- serialization ------------------------------------------------------
    def to_json(self, x2_grid):
        """Branch tables on an x2 grid, for regression testing."""
        x2_grid = np.asarray(x2_grid, dtype=float)
        if x2_grid.ndim == 1:
            x2_grid = x2_grid[:, None]
        doc = {"format": "averaged-model", "version": 1, "d": self.d,
               "k": self.k, "side_convention": "minus",
               "x2_grid": x2_grid.tolist(),
               "y_grid": _Y_GRID.tolist(),
               "y_shape": self.fam.f_y_shape(_Y_GRID).tolist(),
               "branches": {}}
        for name, x1 in (("plus", 1.0), ("minus", -1.0)):
            drive = self.driver(x1, x2_grid)
            doc["branches"][name] = {
                "rho": self.rho(x1, x2_grid).tolist(),
                "b_bar": self.b1(x1, x2_grid).tolist(),
                "a_bar": self.a(x1, x2_grid).tolist(),
                "f_bar_at_ygrid": np.stack(
                    [drive(y) for y in _Y_GRID], axis=-1).tolist(),
            }
        return doc

    def save_json(self, path, x2_grid):
        with open(path, "w") as fh:
            json.dump(self.to_json(x2_grid), fh, sort_keys=True, indent=1)


# ---------------------------------------------------------------------------
# build_averaged
# ---------------------------------------------------------------------------

# where ``AveragedModel.to_json`` tabulates the driver's y-shape
_Y_GRID = np.linspace(-4.0, 4.0, 41)


# Each basis function with its panel scale, ``cesaro_average``'s
# ``max_panel``.  T is smooth away from 0 and flattens as |t| grows, so its
# panels grow with the horizon cell: 16 per cell to start (every running
# average within 2.1e-12 of its closed form).  sin is averaged on its
# period: panels start at 5*pi and settle at the first doubling on 5*pi/2,
# so consecutive panels are a quarter period out of phase and their Gauss
# errors, which follow the phase, cancel (within 1.3e-15); whole-period
# panels would add them up (a 4*pi start moves the sin limit by ~5e-13).
# T comes first, so a tol below its Cesaro residual (7.0228e-5) is refused
# before sin is integrated.
_BASIS_PANELS = (
    (transition, np.diff(DEFAULT_SCHEDULE, prepend=0.0) / 16.0),
    (np.sin, 5.0 * np.pi))


def _basis_limits_numeric(tol):
    """Cesaro limits of the template basis (T, sin) by quadrature, each
    function on its own panel scale; (plus, minus) for each."""
    limits = []
    for g, max_panel in _BASIS_PANELS:
        res = cesaro_average(g, tol=tol, max_panel=max_panel)
        if not res.converged:
            raise AveragingError(
                f"basis running averages did not stabilize "
                f"(residual {res.residual:.3e})")
        limits.append((float(res.g_plus[0]), float(res.g_minus[0])))
    return tuple(limits)


def closed_form_averaged(fam: CoefficientFamily) -> AveragedModel:
    """Effective model from the exact basis limits T -> +/-1, sin -> 0."""
    return AveragedModel(fam, (1.0, -1.0), (0.0, 0.0))


def _compare_models(num: AveragedModel, ref: AveragedModel):
    """Largest coefficient deviation of ``num`` from ``ref``."""
    x2g = np.linspace(-3.0, 3.0, 21)[:, None]
    dev = 0.0
    for x1 in (-2.0, -1e-9, 0.0, 1e-9, 2.0):
        dev = max(dev, float(np.max(np.abs(num.rho(x1, x2g) - ref.rho(x1, x2g)))))
        dev = max(dev, float(np.max(np.abs(num.b1(x1, x2g) - ref.b1(x1, x2g)))))
        dev = max(dev, float(np.max(np.abs(num.a(x1, x2g) - ref.a(x1, x2g)))))
        drive_num, drive_ref = num.driver(x1, x2g), ref.driver(x1, x2g)
        for y in (-2.0, 0.0, 2.0):
            dev = max(dev, float(np.max(np.abs(drive_num(y) - drive_ref(y)))))
    return dev


def build_averaged(fam: CoefficientFamily,
                   tol: float = 1e-4) -> AveragedModel:
    """Numeric Cesaro averaging of a family's weighted coefficients.

    The template structure makes every weighted coefficient a fixed linear
    combination of {1, T, sin}, so the engine averages the basis once and
    evaluates the templates on the numeric limits.  The numeric model must
    agree with the family's closed form within ``tol``; the returned model
    is the closed form, ``closed_form_averaged(fam)``.
    """
    a_trans, a_sin = _basis_limits_numeric(tol)
    numeric = AveragedModel(fam, a_trans, a_sin)
    # Positive definiteness at a probe set; failures point at (A3) violations.
    probe_x2 = np.linspace(-3.0, 3.0, 7)[:, None] if fam.d == 1 else \
        np.zeros((1, fam.d))
    for x1 in (-1.0, 0.0, 1.0):
        a1 = numeric.a1(x1, probe_x2)
        if np.any(np.linalg.eigvalsh(a1) <= 0):
            raise AveragingError("assembled averaged diffusion block is not "
                                 "positive definite (upstream assumption violation)")
    closed = closed_form_averaged(fam)
    dev = _compare_models(numeric, closed)
    if dev > tol:
        raise AveragingError(
            f"numeric limits deviate from closed form by {dev:.3e} > tol {tol:.1e}")
    return closed


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

def _const_family() -> CoefficientFamily:
    d = 1
    zero = _const_w(0.0)
    return CoefficientFamily(
        family_id="const", params=(), d=d, k=d + 1,
        rho_t=_Template(_const_w(1.0), zero, zero),
        rhob_t=_Template(_const_w([0.0]), _const_w([0.0]), _const_w([0.0])),
        rhoa_t=_Template(_const_w([[0.5]]), _const_w([[0.0]]), _const_w([[0.0]])),
        rhof_t=_Template(zero, zero, zero),
        f_shape=(0.0, 0.0),
        H=lambda x: np.ones(np.asarray(x).shape[:-1]),
        bounds=dict(C1=1.0, C2=1.0, C3=2.0, Lambda=1.0, lip=0.0,
                    f_sup=0.0, h_sup=1.0, deriv_bound=1.0))


def _switch_family(params=()) -> CoefficientFamily:
    if len(params) == 0:
        r0, r1 = 2.0, 1.0
    elif len(params) == 2:
        r0, r1 = map(float, params)
        if r0 - abs(r1) < 0.2:
            raise FamilyError("switch family needs r0 - |r1| >= 0.2")
    else:
        raise FamilyError(f"switch family takes 0 or 2 params, got {len(params)}")
    d = 1
    return CoefficientFamily(
        family_id="switch", params=tuple(params), d=d, k=d + 1,
        rho_t=_Template(_const_w(r0), _const_w(r1), _const_w(0.0)),
        rhob_t=_Template(_const_w([1.0]), _const_w([1.0]), _const_w([0.3])),
        rhoa_t=_Template(_const_w([[1.2]]), _const_w([[0.4]]), _const_w([[0.2]])),
        rhof_t=_Template(_const_w(0.9), _const_w(0.3), _const_w(0.2)),
        f_shape=(1.0, 0.5),
        H=lambda x: np.tanh(x[..., 0]) + 0.5 * np.cos(x[..., 1]),
        bounds=dict(C1=1.0 / (r0 + abs(r1)), C2=1.0 / (r0 - abs(r1)),
                    C3=12.0, Lambda=2.0 * 0.6 / (r0 + abs(r1)), lip=3.0,
                    f_sup=1.5 * 1.4 / (r0 - abs(r1)), h_sup=1.5,
                    deriv_bound=3.0))


def _slowvary_family() -> CoefficientFamily:
    d = 1
    zero = _const_w(0.0)
    zvec = _const_w([0.0])
    zmat = _const_w([[0.0]])

    def b_w(x2):
        return 0.5 * np.tanh(x2)          # (..., d) already

    def a_w(x2):
        return (0.5 + 0.2 * np.cos(x2[..., 0]))[..., None, None]

    def q_w(x2):
        return 0.5 + 0.2 * np.cos(x2[..., 0])

    return CoefficientFamily(
        family_id="slowvary", params=(), d=d, k=d + 1,
        rho_t=_Template(_const_w(1.0), zero, zero),
        rhob_t=_Template(lambda x2: b_w(x2), zvec, zvec),
        rhoa_t=_Template(lambda x2: a_w(x2), zmat, zmat),
        rhof_t=_Template(lambda x2: q_w(x2), zero, zero),
        f_shape=(0.2, 0.3),
        H=lambda x: np.tanh(x[..., 0]) + 0.5 * np.cos(x[..., 1]),
        bounds=dict(C1=1.0, C2=1.0, C3=4.0, Lambda=0.6, lip=1.0,
                    f_sup=0.5 * 0.7, h_sup=1.5, deriv_bound=1.5))


def _noparams(fid, builder):
    def make(params):
        if len(params) != 0:
            raise FamilyError(f"{fid} family takes no params, got {len(params)}")
        return builder()
    return make


CATALOG = {"const": _noparams("const", _const_family),
           "switch": _switch_family,
           "slowvary": _noparams("slowvary", _slowvary_family)}


def make_family(family_id: str, params: Sequence[float] = (), d: int = 1,
                k: Optional[int] = None) -> CoefficientFamily:
    if family_id not in CATALOG:
        raise FamilyError(f"unknown family_id {family_id!r}")
    fam = CATALOG[family_id](tuple(params))
    if d != fam.d or (k is not None and k != fam.k):
        raise FamilyError(f"{family_id} is a d={fam.d}, k={fam.k} family")
    return fam


# ---------------------------------------------------------------------------
# Assumption audit
# ---------------------------------------------------------------------------

_ASSUMPTION_IDS = ("A1", "A2", "A3", "B1", "B2", "B3", "C1", "C2", "C3")


@dataclass
class AssumptionEntry:
    id: str
    status: str                  # verified-sampled | closed-form | violated
    residual: float
    witness: Optional[tuple] = None
    detail: str = ""


@dataclass
class AssumptionReport:
    entries: dict

    def __getitem__(self, key):
        return self.entries[key]

    def violated(self):
        return [e for e in self.entries.values() if e.status == "violated"]


def audit_assumptions(fam: CoefficientFamily, sample_spec: dict) -> AssumptionReport:
    """Sampled audit of the structural assumptions; never a proof.

    ``sample_spec`` = {"box": [(lo, hi), ...] over (x1, x2_1..x2_d, y),
    "n_samples": int, "seed": int}.  Violations carry a witness point.
    """
    box = np.asarray(sample_spec["box"], dtype=float)
    n = int(sample_spec["n_samples"])
    seed = int(sample_spec["seed"])
    if box.shape[0] < fam.d + 1 or np.any(box[:, 1] <= box[:, 0]):
        raise ValueError("sample box must be nonempty over (x1, x2[, y])")
    from scipy.stats import qmc   # slow to import; only the audit uses it
    dims = box.shape[0]
    sob = qmc.Sobol(d=dims, scramble=True, seed=seed)
    pts = qmc.scale(sob.random(n), box[:, 0], box[:, 1])
    x1 = pts[:, 0]
    x2 = pts[:, 1:1 + fam.d]
    y = pts[:, 1 + fam.d] if dims > 1 + fam.d else np.zeros(n)
    b = fam.bounds

    # (A3): ellipticity window on a00 and the slow diffusion block.
    a00 = fam.a00(x1, x2)
    res_a3 = np.maximum(b["C1"] - a00, a00 - b["C2"])
    eigs = np.linalg.eigvalsh(2.0 * fam.a1(x1, x2)).min(axis=-1)
    res_a3 = np.maximum(res_a3, b["Lambda"] - eigs)
    growth = (np.abs(2.0 * fam.a1(x1, x2)).sum(axis=(-2, -1)) + a00
              + np.sum(fam.b1(x1, x2) ** 2, axis=-1)
              - b["C3"] * (1.0 + np.sum(x2 ** 2, axis=-1)))
    res_a3 = np.maximum(res_a3, growth)
    i_a3 = int(np.argmax(res_a3))

    # (A1): sampled Lipschitz quotients of phi, b1, sigma1.
    rng = np.random.default_rng(seed + 1)
    j = rng.permutation(n)
    dx = np.sqrt((x1 - x1[j]) ** 2 + np.sum((x2 - x2[j]) ** 2, axis=-1))
    ok = dx > 1e-9
    def lip_of(fn):
        v = fn(x1, x2)
        dv = np.abs(v - v[j]).reshape(n, -1).max(axis=-1)
        return np.where(ok, dv / np.where(ok, dx, 1.0), 0.0)
    q = np.maximum(lip_of(fam.phi),
                   np.maximum(lip_of(fam.b1), lip_of(fam.sigma1)))
    res_a1 = q - b["lip"]
    i_a1 = int(np.argmax(res_a1))

    # (A2)/(C3): sampled second x2-differences bounded.
    h = 1e-3
    def d2_x2(fn):
        e = np.zeros_like(x2); e[:, 0] = h
        return np.abs(fn(x1, x2 + e) - 2.0 * fn(x1, x2) + fn(x1, x2 - e)).max() / h ** 2
    res_a2 = max(d2_x2(fam.phi), d2_x2(lambda a, c: fam.b1(a, c)[..., 0])) - b["deriv_bound"]
    res_c3 = d2_x2(lambda a, c: fam.rho_f(a, c, 0.0)) - b["deriv_bound"]

    # (C1): bounded driver and terminal condition.
    fv = np.abs(fam.f(x1, x2, y))
    res_c1 = float(np.max(fv) - b["f_sup"])
    hv = np.abs(fam.terminal(np.concatenate([x1[:, None], x2], axis=1)))
    res_c1 = max(res_c1, float(np.max(hv) - b["h_sup"]))

    # one rule for the sampled verdicts: violated when the residual exceeds
    # its tolerance, then with the sample point ``at`` (if any) as witness
    entries = {}
    for aid, res, tol, at, detail in (
            ("A3", res_a3[i_a3], 1e-12, i_a3,
             "ellipticity window, growth bound"),
            ("A1", res_a1[i_a1], 1e-9, i_a1,
             "sampled difference quotients vs declared Lipschitz constant"),
            ("A2", res_a2, 1e-6, None, "sampled second x2-differences"),
            ("C3", res_c3, 1e-6, None,
             "sampled second x2-differences of rho*f"),
            ("C1", res_c1, 1e-9, int(np.argmax(fv)),
             "driver and terminal sup bounds")):
        bad = res > tol
        entries[aid] = AssumptionEntry(
            aid, "violated" if bad else "verified-sampled", float(res),
            tuple(float(v) for v in pts[at]) if bad and at is not None
            else None, detail)

    # (B1)/(B2): existence of the limits, by template construction.
    for aid in ("B1", "B2"):
        entries[aid] = AssumptionEntry(
            aid, "closed-form", 0.0, None,
            "limits exist by template construction")

    # (B3)/(C2): remainder decay trend along |x1| in {10, 1e2, 1e3, 1e4}.
    x2_ref = np.zeros((1, fam.d))
    avg = closed_form_averaged(fam)
    horizons = np.array([10.0, 1e2, 1e3, 1e4])
    norm = 1.0 + float(np.sum(x2_ref ** 2))
    # each remainder asks the family and its averaged model the same question
    for aid, g in (("B3", lambda model, t: model.rho(t, x2_ref)),
                   ("C2", lambda model, t: model.rho_f(t, x2_ref, 0.0))):
        rem = []
        for sgn in (+1.0, -1.0):
            grid = np.concatenate(([0.0], sgn * horizons))
            cum = cumulative(lambda t: g(fam, t)[:, None], grid, rtol=1e-6)
            run = cum[1:, 0] / (sgn * horizons)
            rem.append(np.abs(run - g(avg, sgn)[0]) / norm)
        trend = np.maximum(rem[0], rem[1])
        decreasing = bool(np.all(np.diff(trend) <= 1e-12 + 0.05 * trend[:-1]))
        entries[aid] = AssumptionEntry(
            aid, "verified-sampled" if decreasing else "violated",
            float(trend[-1]),
            None if decreasing else (float(horizons[int(np.argmax(np.diff(trend) > 0))]),),
            f"remainder along |x1|={list(horizons)}: {[float(t) for t in trend]}")
    return AssumptionReport(entries=entries)
