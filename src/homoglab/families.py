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
side of the interface ``{x1 = 0}`` (the point 0 itself takes their mean).
By linearity it is the family's own templates on the limit basis: ``(T, sin)``
replaced by its one-sided limits, ``(+1, 0)`` for x1 > 0 and ``(-1, 0)``
for x1 < 0 in closed form, and ``(0, 0)`` at x1 = 0.  So both models share
one coefficient interface, ``TemplateCoefficients`` with one driver, and
differ only in the basis (which alone holds the side convention).
"""

from __future__ import annotations

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
    """Running averages of a scalar ``g`` on both sides of 0: one per
    horizon of the schedule, the last of each side taken as its limit."""
    g_plus: float
    g_minus: float
    converged: bool
    residual: float
    averages_plus: np.ndarray   # (n_horizons,)
    averages_minus: np.ndarray


def cesaro_average(g, schedule=None, tol: float = 1e-4,
                   max_panel=2.0 * np.pi) -> CesaroResult:
    """Running-average limits of ``g(t)`` as t -> +/- infinity.

    ``g`` is a scalar integrand, vectorized in t.  The average
    A(X) = (1/X) * int_0^X g is evaluated on a geometric horizon schedule
    via adaptive panel quadrature, and convergence is declared when the
    last three values stabilize to ``tol``.
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
        return cum[1:] / (sign * schedule)

    avg_p = one_side(+1.0)
    avg_m = one_side(-1.0)
    res_p = np.max(np.abs(avg_p[-3:] - avg_p[-1]))
    res_m = np.max(np.abs(avg_m[-3:] - avg_m[-1]))
    residual = float(max(res_p, res_m))
    return CesaroResult(
        g_plus=float(avg_p[-1]), g_minus=float(avg_m[-1]),
        converged=bool(residual <= tol), residual=residual,
        averages_plus=avg_p, averages_minus=avg_m)


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Template:
    """Weights of c0(x2) + c1(x2)*T(x1) + c2(x2)*sin(x1), each a scalar
    function of the scalar x2; a constant weight returns a Python float
    (``_const_w``), which the template broadcasts."""
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

    @staticmethod
    def averages(x1, eps):
        """The centred basis primitives at X = x1/eps (x1 != 0) on the side
        s = sign(x1) of 0, ``((A_T, A_sin), (M_T, M_sin))``: the running
        averages A = (1/X) int_0^X and second averages
        M = (1/X^2) int_0^X (X - u) (.) du of (T - s, sin).  Each is odd in
        X and formed at |X| from theta = arctan(1/|X|), u = eps/|x1| and
        L = ln|x1| - ln eps, so no term overflows at any eps > 0.  Where X
        is not finite it is taken as 0, dropping the sin and cos terms (each
        at most 2*eps/|x1|).  Below |X| = 0.01, where the closed forms lose
        digits to cancellation, each is its Taylor series to |X|^5; either
        way the absolute error stays below 2e-14."""
        x1 = np.asarray(x1, dtype=float)
        ax = np.abs(x1)
        theta = np.arctan2(eps, ax)
        u = eps / np.maximum(ax, 0.01 * eps)
        # ln(1 + X^2) / (2|X|), on either side of |X| = 1
        r = np.minimum(ax, eps) / np.maximum(ax, eps)
        half_log = u * (np.maximum(np.log(ax) - math.log(eps), 0.0)
                        + 0.5 * np.log1p(r * r))
        with np.errstate(over="ignore"):
            X = ax / eps
        small = X < 0.01
        X = np.where(np.isfinite(X), X, 0.0)
        closed = (-(2.0 / np.pi) * (theta + half_log),
                  2.0 * u * np.sin(0.5 * X) ** 2,
                  -(2.0 / np.pi) * (0.5 * theta - 0.5 * u + half_log
                                    + 0.5 * u * u * np.arctan2(ax, eps)),
                  u - u * u * np.sin(X))
        y = np.where(small, X, 0.0)
        y2 = y * y
        series = (y * (1.0 - y2 * (1 / 6 - y2 / 15)) / np.pi - 1.0,
                  y * (1 / 2 - y2 * (1 / 24 - y2 / 720)),
                  y * (1 / 3 - y2 * (1 / 30 - y2 / 105)) / np.pi - 0.5,
                  y * (1 / 6 - y2 * (1 / 120 - y2 / 5040)))
        s = np.sign(x1)
        a_t, a_sin, m_t, m_sin = (s * np.where(small, ser, form)
                                  for ser, form in zip(series, closed))
        return (a_t, a_sin), (m_t, m_sin)

    def combine(self, basis, x2, out=None):
        """The template on ``basis`` at x2, in the broadcast shape of the
        basis and x2 (into ``out`` when given), summed as
        ``w0 + w1*T + w2*sin``."""
        trans, sin = basis
        if out is None:
            out = np.empty(_shape(trans, x2))
        np.multiply(self.w1(x2), trans, out=out)
        out += self.w0(x2)
        out += self.w2(x2) * sin
        return out


def _shape(a, b):
    """The broadcast shape of ``a`` and ``b``."""
    sa, sb = np.shape(a), np.shape(b)
    return sa if sa == sb else np.broadcast_shapes(sa, sb)


def _const_w(value):
    """Constant weight: ``value`` as a Python float, whatever x2 is."""
    value = float(value)
    return lambda x2: value


class TemplateCoefficients:
    """The one coefficient interface of a family and its averaged model.

    Every coefficient is the family's ``(T, sin)`` templates evaluated on
    ``self.basis(x1)`` through ``_Template.combine``.  X2 is scalar (the
    slow dimension ``d`` is 1, the Brownian dimension ``k`` 2), so x1 and
    x2 broadcast against each other and every coefficient is a scalar
    array.  A subclass supplies ``basis``, the family ``fam`` whose
    templates, driver y-shape and terminal data H it evaluates, and
    ``label``, the model's name in FD output.  A model is the problem:
    ``solve_pde`` reads its a00, a1, b1, driver, terminal and label,
    ``solve_bsde`` its terminal and driver, of any object that has them.
    """
    d = 1
    k = 2

    def _combine(self, x1, x2, *templates):
        """The templates at (x1, x2) from one basis evaluation, as views of
        one stacked array, each in the broadcast shape of x1 and x2."""
        basis = self.basis(x1)
        out = np.empty((len(templates),) + _shape(basis[0], x2))
        rows = [out[i, ...] for i in range(len(templates))]
        for t, row in zip(templates, rows):
            t.combine(basis, x2, out=row)
        return rows

    def rho(self, x1, x2):
        return self._combine(x1, x2, self.fam.rho_t)[0]

    def rho_f_coef(self, x1, x2):
        """The y-independent factor of ``rho*f``; its y-shape is the
        family's ``f_y_shape``."""
        return self._combine(x1, x2, self.fam.rhof_t)[0]

    def a00(self, x1, x2):
        return 1.0 / self.rho(x1, x2)

    def b1(self, x1, x2):
        rho, rho_b = self._combine(x1, x2, self.fam.rho_t, self.fam.rhob_t)
        return rho_b / rho

    def a1(self, x1, x2):
        rho, rho_a = self._combine(x1, x2, self.fam.rho_t, self.fam.rhoa_t)
        return rho_a / rho

    def forward(self, x1, x2):
        """The Euler step's ``(phi, b1, sigma1)`` from one basis evaluation:
        phi = sqrt(2/rho), b1 = rho_b/rho, sigma1 = sqrt(2*rho_a/rho), the
        rows of one fresh array, which the caller may update in place.  A
        negative slow diffusion is refused (``AveragingError``)."""
        fam = self.fam
        rho, b1, sigma1 = self._combine(x1, x2, fam.rho_t, fam.rhob_t,
                                        fam.rhoa_t)
        # in place on the stacked rows, each in the order written above
        sigma1 *= 2.0
        sigma1 /= rho
        if np.any(sigma1 < 0):
            raise AveragingError("negative slow diffusion 2*rho_a/rho")
        b1 /= rho
        phi = np.divide(2.0, rho, out=rho)
        return np.sqrt(phi, out=phi), b1, np.sqrt(sigma1, out=sigma1)

    def driver(self, x1, x2):
        """The driver at (x1, x2) as the map ``y -> f``.  Its y-independent
        factor ``rho_f / rho`` comes from one basis evaluation and one
        division, made once however often the map is applied: the one
        driver contract, which ``solve_bsde`` prepares once per backward
        step at the bundle's own X1, and ``solve_pde`` once on its mesh."""
        rho, rhof = self._combine(x1, x2, self.fam.rho_t, self.fam.rhof_t)
        coef = rhof / rho
        shape = self.fam.f_y_shape
        return lambda y: coef * shape(y)

    def terminal(self, x):
        """The terminal data H at the points ``x``, of shape (..., 2)."""
        return self.fam.H(np.asarray(x, dtype=float))


@dataclass
class CoefficientFamily(TemplateCoefficients):
    """Evaluable two-scale coefficient set with declared bounds.

    Bounds (a00 ellipticity window, Lipschitz constant, driver sup norm)
    are declared by the constructor and audited by sampling.  Every family
    is a template in (T, sin), so its effective model has the closed form
    ``closed_form_averaged(fam)``.

    ``eps`` is the fast scale: every coefficient is evaluated at
    (x1/eps, x2), and ``basis`` is the one place in the package that
    evaluates the basis at x1/eps.  The catalog builds families at eps = 1
    (x1/1.0 is x1 to the bit); ``at(eps)`` gives the two-scale system at
    another scale.
    """
    family_id: str
    params: tuple
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


# ---------------------------------------------------------------------------
# Averaged (effective) model
# ---------------------------------------------------------------------------

@dataclass
class AveragedModel(TemplateCoefficients):
    """Effective coefficients; possibly discontinuous across {x1 = 0}.

    The family's templates evaluated on the limit basis: ``basis(x1)`` is
    ``(a_trans, a_sin)[0]`` for x1 > 0, ``[1]`` for x1 < 0 (and NaN), and
    the mean of the two at exactly x1 = 0.  There rho is the mean of the
    sides' rho, so a00 = 2/(rho- + rho+) and a1, b1 and the driver are the
    rho-weighted means of the sides': the FD row at the interface node
    lumps the speed measure of both sides over its cell (Etore, Electron.
    J. Probab. 2006), which makes the FD oracle second order in x1 there.
    The driver's y-shape is the family's.
    """
    fam: CoefficientFamily
    a_trans: tuple          # (plus, minus) limits of T
    a_sin: tuple            # (plus, minus) limits of sin
    label = "averaged"      # not a field
    eps = None              # not a field: the limit has no fast scale

    def basis(self, x1):
        """The one-sided limits of (T, sin) on the side of x1, and at
        exactly x1 = 0 their mean, (0, 0) in closed form."""
        x1 = np.asarray(x1, dtype=float)
        plus = x1 > 0
        out = np.where(plus, *self.a_trans), np.where(plus, *self.a_sin)
        for b, (p, m) in zip(out, (self.a_trans, self.a_sin)):
            b[x1 == 0] = 0.5 * (p + m)
        return out

    # -- serialization ------------------------------------------------------
    def to_json(self, x2_grid):
        """Branch tables on a 1-D x2 grid, for regression testing: each x2
        and ``b_bar`` as a one-element list, ``a_bar`` as the 2x2 diffusion
        block with ``a00`` and ``a1`` on its diagonal; ``side_convention``
        "mean": x1 = 0 takes the mean of the two branches' bases."""
        x2_grid = np.asarray(x2_grid, dtype=float)
        doc = {"format": "averaged-model", "version": 1, "d": self.d,
               "k": self.k, "side_convention": "mean",
               "x2_grid": x2_grid[:, None].tolist(),
               "y_grid": _Y_GRID.tolist(),
               "y_shape": self.fam.f_y_shape(_Y_GRID).tolist(),
               "branches": {}}
        for name, x1 in (("plus", 1.0), ("minus", -1.0)):
            drive = self.driver(x1, x2_grid)
            a_bar = np.zeros(x2_grid.shape + (2, 2))
            a_bar[:, 0, 0] = self.a00(x1, x2_grid)
            a_bar[:, 1, 1] = self.a1(x1, x2_grid)
            doc["branches"][name] = {
                "rho": self.rho(x1, x2_grid).tolist(),
                "b_bar": self.b1(x1, x2_grid)[:, None].tolist(),
                "a_bar": a_bar.tolist(),
                "f_bar_at_ygrid": np.stack(
                    [drive(y) for y in _Y_GRID], axis=-1).tolist(),
            }
        return doc


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
                f"basis running averages did not stabilize: residual "
                f"{res.residual:.4e} > tol {tol:g}")
        limits.append((res.g_plus, res.g_minus))
    return tuple(limits)


def closed_form_averaged(fam: CoefficientFamily) -> AveragedModel:
    """Effective model from the exact basis limits T -> +/-1, sin -> 0."""
    return AveragedModel(fam, (1.0, -1.0), (0.0, 0.0))


def _compare_models(num: AveragedModel, ref: AveragedModel):
    """Largest coefficient deviation of ``num`` from ``ref``."""
    x2g = np.linspace(-3.0, 3.0, 21)
    dev = 0.0
    for x1 in (-2.0, -1e-9, 0.0, 1e-9, 2.0):
        for name in ("rho", "b1", "a00", "a1"):
            dev = max(dev, float(np.max(np.abs(
                getattr(num, name)(x1, x2g) - getattr(ref, name)(x1, x2g)))))
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
    # Positivity at a probe set; failures point at (A3) violations.
    probe_x2 = np.linspace(-3.0, 3.0, 7)
    for x1 in (-1.0, 0.0, 1.0):
        if np.any(numeric.a1(x1, probe_x2) <= 0):
            raise AveragingError("averaged slow diffusion is not positive "
                                 "(upstream assumption violation)")
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
    zero = _const_w(0.0)
    return CoefficientFamily(
        family_id="const", params=(),
        rho_t=_Template(_const_w(1.0), zero, zero),
        rhob_t=_Template(zero, zero, zero),
        rhoa_t=_Template(_const_w(0.5), zero, zero),
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
    return CoefficientFamily(
        family_id="switch", params=tuple(params),
        rho_t=_Template(_const_w(r0), _const_w(r1), _const_w(0.0)),
        rhob_t=_Template(_const_w(1.0), _const_w(1.0), _const_w(0.3)),
        rhoa_t=_Template(_const_w(1.2), _const_w(0.4), _const_w(0.2)),
        rhof_t=_Template(_const_w(0.9), _const_w(0.3), _const_w(0.2)),
        f_shape=(1.0, 0.5),
        H=lambda x: np.tanh(x[..., 0]) + 0.5 * np.cos(x[..., 1]),
        bounds=dict(C1=1.0 / (r0 + abs(r1)), C2=1.0 / (r0 - abs(r1)),
                    C3=12.0, Lambda=2.0 * 0.6 / (r0 + abs(r1)), lip=3.0,
                    f_sup=1.5 * 1.4 / (r0 - abs(r1)), h_sup=1.5,
                    deriv_bound=3.0))


def _slowvary_family() -> CoefficientFamily:
    zero = _const_w(0.0)

    def b_w(x2):
        return 0.5 * np.tanh(x2)

    def aq_w(x2):                         # the weight of both rho*a1 and rho*f
        return 0.5 + 0.2 * np.cos(x2)

    return CoefficientFamily(
        family_id="slowvary", params=(),
        rho_t=_Template(_const_w(1.0), zero, zero),
        rhob_t=_Template(b_w, zero, zero),
        rhoa_t=_Template(aq_w, zero, zero),
        rhof_t=_Template(aq_w, zero, zero),
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

@dataclass
class AssumptionEntry:
    id: str
    status: str                  # verified-sampled | closed-form | violated
    residual: float
    witness: Optional[tuple] = None
    detail: str = ""


def _first_rise(values) -> Optional[int]:
    """The one trend rule: the index of the first value that rises above
    the one before it by more than 5 % of that value (plus 1e-12), or None
    when no value does."""
    values = np.asarray(values)
    ok = np.diff(values) <= 0.05 * values[:-1] + 1e-12
    bad = np.flatnonzero(~ok)
    return int(bad[0]) + 1 if bad.size else None


def nonincreasing(values) -> bool:
    """No value breaks the trend rule (``_first_rise``)."""
    return _first_rise(values) is None


def audit_assumptions(fam: CoefficientFamily, sample_spec: dict) -> dict:
    """Sampled audit of the structural assumptions; never a proof.

    ``sample_spec`` = {"box": [(lo, hi), ...] over (x1, x2[, y]),
    "n_samples": int, "seed": int}.  Returns {id: AssumptionEntry};
    violations carry a witness point.
    """
    box = np.asarray(sample_spec["box"], dtype=float)
    n = int(sample_spec["n_samples"])
    seed = int(sample_spec["seed"])
    if box.shape[0] < 2 or np.any(box[:, 1] <= box[:, 0]):
        raise ValueError("sample box must be nonempty over (x1, x2[, y])")
    from scipy.stats import qmc   # slow to import; only the audit uses it
    dims = box.shape[0]
    sob = qmc.Sobol(d=dims, scramble=True, seed=seed)
    pts = qmc.scale(sob.random(n), box[:, 0], box[:, 1])
    x1, x2 = pts[:, 0], pts[:, 1]
    y = pts[:, 2] if dims > 2 else np.zeros(n)
    b = fam.bounds

    # (A3): ellipticity window on a00 and the slow diffusion.
    a00 = fam.a00(x1, x2)
    res_a3 = np.maximum(b["C1"] - a00, a00 - b["C2"])
    a1_2 = 2.0 * fam.a1(x1, x2)
    res_a3 = np.maximum(res_a3, b["Lambda"] - a1_2)
    growth = (np.abs(a1_2) + a00 + fam.b1(x1, x2) ** 2
              - b["C3"] * (1.0 + x2 ** 2))
    res_a3 = np.maximum(res_a3, growth)
    i_a3 = int(np.argmax(res_a3))

    # (A1): sampled Lipschitz quotients of the Euler step's phi, b1, sigma1.
    rng = np.random.default_rng(seed + 1)
    j = rng.permutation(n)
    dx = np.sqrt((x1 - x1[j]) ** 2 + (x2 - x2[j]) ** 2)
    ok = dx > 1e-9
    def lip_of(v):
        return np.where(ok, np.abs(v - v[j]) / np.where(ok, dx, 1.0), 0.0)
    phi, b1, sigma1 = fam.forward(x1, x2)
    q = np.maximum(lip_of(phi), np.maximum(lip_of(b1), lip_of(sigma1)))
    res_a1 = q - b["lip"]
    i_a1 = int(np.argmax(res_a1))

    # (A2)/(C3): sampled second x2-differences bounded.
    h = 1e-3
    def d2_x2(fn):
        return np.abs(fn(x1, x2 + h) - 2.0 * fn(x1, x2) + fn(x1, x2 - h)).max() / h ** 2
    res_a2 = max(d2_x2(lambda a, c: fam.forward(a, c)[0]),
                 d2_x2(lambda a, c: fam.forward(a, c)[1])) \
        - b["deriv_bound"]
    res_c3 = d2_x2(lambda a, c: fam.rho_f_coef(a, c) * fam.f_y_shape(0.0)) \
        - b["deriv_bound"]

    # (C1): bounded driver and terminal condition.
    fv = np.abs(fam.driver(x1, x2)(y))
    res_c1 = float(np.max(fv) - b["f_sup"])
    hv = np.abs(fam.terminal(pts[:, :2]))
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
    x2_ref = np.zeros(1)
    avg = closed_form_averaged(fam)
    horizons = np.array([10.0, 1e2, 1e3, 1e4])
    # each remainder asks the family and its averaged model the same question
    for aid, g in (("B3", lambda model, t: model.rho(t, x2_ref)),
                   ("C2", lambda model, t: model.rho_f_coef(t, x2_ref)
                    * model.fam.f_y_shape(0.0))):
        # the running averages to rtol tol / 10 = 1e-6, on pi-wide panels
        res = cesaro_average(lambda t: g(fam, t), schedule=horizons,
                             tol=1e-5, max_panel=np.pi)
        # at x2 = 0 the remainder's norm 1 + |x2|^2 is 1
        rem = [np.abs(run - g(avg, side)[0]) for run, side in
               ((res.averages_plus, 1.0), (res.averages_minus, -1.0))]
        trend = np.maximum(*rem)
        rise = _first_rise(trend)   # the witness is where the rise lands
        entries[aid] = AssumptionEntry(
            aid, "verified-sampled" if rise is None else "violated",
            float(trend[-1]),
            None if rise is None else (float(horizons[rise]),),
            f"remainder along |x1|={list(horizons)}: {[float(t) for t in trend]}")
    return entries
