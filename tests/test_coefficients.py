import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homoglab as hl
from homoglab.families import (DEFAULT_SCHEDULE, AveragingError, FamilyError,
                               _Template, transition, cesaro_average)


# -- Cesaro engine ----------------------------------------------------------

def test_cesaro_constant():
    res = cesaro_average(lambda t: np.ones_like(t) * 3.5)
    assert res.converged
    assert res.g_plus == pytest.approx(3.5, abs=1e-10)
    assert res.g_minus == pytest.approx(3.5, abs=1e-10)


def test_cesaro_transition_limits():
    # closed form: (1/X) int_0^X (2/pi) atan = (2/pi)(atan X - log(1+X^2)/(2X))
    res = cesaro_average(transition, tol=1e-4)
    assert res.converged
    assert res.g_plus == pytest.approx(1.0, abs=1e-4)
    assert res.g_minus == pytest.approx(-1.0, abs=1e-4)
    X = DEFAULT_SCHEDULE[-1]
    ref = (2 / np.pi) * (np.arctan(X) - np.log1p(X ** 2) / (2 * X))
    assert res.averages_plus[-1] == pytest.approx(ref, rel=1e-6)


def test_cesaro_sin_vanishes():
    res = cesaro_average(np.sin, tol=1e-4)
    assert res.converged
    assert abs(res.g_plus) < 1e-4
    assert abs(res.g_minus) < 1e-4


def test_cesaro_nonconvergent_reported():
    # log t grows without a Cesaro limit; must be flagged, not extrapolated
    res = cesaro_average(lambda t: np.log1p(np.abs(t)))
    assert not res.converged
    assert res.residual > 1e-2


@settings(max_examples=20, deadline=None)
@given(a=st.floats(-2, 2), b=st.floats(-2, 2))
def test_cesaro_linearity(a, b):
    sched = 50.0 * 2.0 ** np.arange(5)
    g_t, g_sin, g_combo = (
        cesaro_average(g, schedule=sched).g_plus
        for g in (transition, np.sin,
                  lambda t: a * transition(t) + b * np.sin(t)))
    assert g_combo == pytest.approx(a * g_t + b * g_sin, abs=1e-10)


# -- catalog families -------------------------------------------------------

def test_catalog_ids():
    for fid in ("const", "switch", "slowvary"):
        fam = hl.make_family(fid)
        assert fam.family_id == fid
        assert fam.k == fam.d + 1
    with pytest.raises(FamilyError):
        hl.make_family("nope")
    with pytest.raises(FamilyError):
        hl.make_family("const", params=(1.0,))
    with pytest.raises(FamilyError):
        hl.make_family("switch", params=(1.0, 0.9))  # window too thin


def test_switch_pointwise_values(switch_family):
    x2 = np.zeros((1, 1))
    # at x1 = 0: T = 0, sin = 0 so rho = r0 = 2
    assert switch_family.rho(0.0, x2)[0] == pytest.approx(2.0)
    assert switch_family.a00(0.0, x2)[0] == pytest.approx(0.5)
    assert switch_family.forward(0.0, x2)[0][0] == pytest.approx(1.0)
    # consistency: f = (rho f)/rho
    v = switch_family.f(1.3, x2, 0.7)
    ref = switch_family.rho_f(1.3, x2, 0.7) / switch_family.rho(1.3, x2)
    assert v == pytest.approx(ref)


def test_averaged_switch_branches(switch_family, switch_avg):
    x2 = np.zeros((1, 1))
    assert switch_avg.rho(1.0, x2)[0] == pytest.approx(3.0, abs=1e-12)
    assert switch_avg.rho(-1.0, x2)[0] == pytest.approx(1.0, abs=1e-12)
    assert switch_avg.a00(1.0, x2)[0] == pytest.approx(1.0 / 3.0)
    assert switch_avg.a00(-1.0, x2)[0] == pytest.approx(1.0)
    # x1 = 0 takes the mean of the two sides' bases: rho = (1 + 3)/2
    assert switch_avg.a00(0.0, x2)[0] == pytest.approx(0.5)
    assert switch_avg.b1(1.0, x2)[0, 0] == pytest.approx(2.0 / 3.0)
    assert switch_avg.b1(-1.0, x2)[0, 0] == pytest.approx(0.0)
    assert switch_avg.f(1.0, x2, 0.0)[0] == pytest.approx(0.4)
    assert switch_avg.f(-1.0, x2, 0.0)[0] == pytest.approx(0.6)
    # every averaged coefficient at x1 = 0, of either sign, is the
    # templates' value on the mean basis (T, sin) = (0, 0), which is the
    # family's own at x1 = 0 (T(0) = sin(0) = 0)
    x2s = np.array([[0.0], [0.7], [-1.3]])
    for x1 in (0.0, -0.0):
        assert all(np.array_equal(b, 0.0) for b in switch_avg.basis(x1))
        for name in ("rho", "a00", "b1", "a1", "rho_f_coef"):
            assert np.array_equal(getattr(switch_avg, name)(x1, x2s),
                                  getattr(switch_family, name)(0.0, x2s)), \
                (name, x1)
        a = switch_avg.a(x1, x2s)
        assert np.array_equal(a[..., 0, 0], switch_family.a00(0.0, x2s))
        assert np.array_equal(a[..., 1, 1], switch_family.a1(0.0, x2s))
        for y in (0.0, 1.3):
            assert np.array_equal(switch_avg.f(x1, x2s, y),
                                  switch_family.f(0.0, x2s, y)), (y, x1)


def test_averaged_a00_is_inverse_mean_rho(switch_family, switch_avg):
    # quotient structure: a00 = 1 / rho on each side
    x2 = np.array([[0.7]])
    for x1 in (1.0, -1.0):
        assert switch_avg.a00(x1, x2)[0] == pytest.approx(
            1.0 / switch_avg.rho(x1, x2)[0])


def test_numeric_vs_closed_form_within_tol(switch_family):
    # re-run the numeric engine and compare against the closed form
    avg = hl.build_averaged(switch_family, tol=1e-4)
    # numeric path validated and replaced by closed form
    assert avg == hl.closed_form_averaged(switch_family)
    assert avg.fam is switch_family
    assert (avg.a_trans, avg.a_sin) == ((1.0, -1.0), (0.0, 0.0))


def test_family_holds_no_reference_cycle():
    # the closed form is built on demand, not stored on the family, so a
    # family is freed as soon as its last reference goes, without the
    # cycle collector
    import gc
    import weakref
    enabled = gc.isenabled()
    gc.disable()
    try:
        ref = weakref.ref(hl.make_family("switch"))
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_build_averaged_rejects_bad_closed_form(switch_family, monkeypatch):
    const = hl.closed_form_averaged(hl.make_family("const"))
    monkeypatch.setattr(hl.families, "closed_form_averaged", lambda fam: const)
    with pytest.raises(AveragingError):
        hl.build_averaged(switch_family)


@pytest.mark.parametrize("side", ["plus", "minus"])
def test_build_averaged_oracle_resolves_one_weight(switch_family, side,
                                                   monkeypatch):
    # one limit of the closed form (the T limit on one side, so with
    # r1 = 1 rho on that side) off by 2*tol is refused, off by tol/2 is
    # accepted: the numeric check resolves it
    import dataclasses
    tol = 1e-4
    exact = hl.closed_form_averaged(switch_family)
    i = 0 if side == "plus" else 1
    for delta, refused in ((2 * tol, True), (tol / 2, False)):
        a_trans = list(exact.a_trans)
        a_trans[i] += delta
        shifted = dataclasses.replace(exact, a_trans=tuple(a_trans))
        monkeypatch.setattr(hl.families, "closed_form_averaged",
                            lambda fam: shifted)
        x1 = 1.0 if side == "plus" else -1.0
        assert shifted.rho(x1, np.zeros((1, 1)))[0] == \
            pytest.approx(exact.rho(x1, np.zeros((1, 1)))[0] + delta)
        if refused:
            with pytest.raises(AveragingError):
                hl.build_averaged(switch_family, tol=tol)
        else:
            assert hl.build_averaged(switch_family, tol=tol) is shifted


def test_basis_limits_match_pi_start_reference():
    # each basis function is averaged on its own panel scale (T on 16
    # panels per horizon cell to start, sin on 5*pi panels); both limits
    # agree with those on pi-start panels to round-off, while a 4*pi start
    # for sin would move its limit by ~5e-13
    from homoglab.families import _basis_limits_numeric
    from homoglab.quadrature import cumulative
    schedule = np.asarray(DEFAULT_SCHEDULE)
    a_trans, a_sin = _basis_limits_numeric(1e-4)
    for i, sign in enumerate((1.0, -1.0)):
        grid = np.concatenate(([0.0], sign * schedule))
        for got, g in ((a_trans[i], transition), (a_sin[i], np.sin)):
            ref = cumulative(g, grid, rtol=1e-5, max_panel=np.pi)[-1] / grid[-1]
            assert abs(got - ref) <= 1e-13


def test_basis_running_averages_match_closed_form():
    # every horizon, both sides, each function on its own panel scale:
    # (1/X) int_0^X T = (2/pi)(atan X - log1p(X^2)/(2X)) and
    # (1/X) int_0^X sin = (1 - cos X)/X, for X of either sign
    from homoglab.families import _BASIS_PANELS
    exact = (lambda X: (2 / np.pi) * (np.arctan(X) - np.log1p(X ** 2) / (2 * X)),
             lambda X: (1.0 - np.cos(X)) / X)
    horizons = np.asarray(DEFAULT_SCHEDULE)
    residuals = []
    for (g, max_panel), ref in zip(_BASIS_PANELS, exact):
        res = cesaro_average(g, tol=1e-4, max_panel=max_panel)
        assert res.converged
        residuals.append(res.residual)
        for avgs, sign in ((res.averages_plus, 1.0), (res.averages_minus, -1.0)):
            assert np.max(np.abs(avgs - ref(sign * horizons))) <= 1e-9
    # T's residual is the one a tol below it is refused with
    assert residuals[0] == pytest.approx(7.0228e-5, rel=1e-4)


@pytest.mark.parametrize("eps", [1e-3, 1.0, 1e3])
def test_basis_primitives_match_quadrature(eps):
    # the closed forms, and the Taylor series below |X| = 0.01, against the
    # quadrature of (T - s, sin) and (X - u) (T - s, sin) over [0, X], at
    # X = x1/eps on both sides of 0 and of each switch (|X| = 0.01 and 1)
    from homoglab.quadrature import integrate
    X = np.array([-50.0, -3.0, -0.02, -0.005, 1e-6, 0.009, 0.011, 0.7, 1.3,
                  40.0])
    (a_t, a_sin), (m_t, m_sin) = _Template.averages(X * eps, eps)
    for i, x in enumerate(X):
        s = np.sign(x)

        basis = (lambda u: transition(u) - s, np.sin)
        ref = np.array(
            [integrate(b, 0.0, x, rtol=1e-12) / x for b in basis]
            + [integrate(lambda u: (x - u) * b(u), 0.0, x, rtol=1e-12) / (x * x)
               for b in basis])
        got = np.array([a_t[i], a_sin[i], m_t[i], m_sin[i]])
        assert np.max(np.abs(got - ref)) <= 1e-13, (x, got, ref)


def test_basis_primitives_finite_at_extreme_eps():
    # no overflow, division by zero or NaN where x1/eps overflows or
    # underflows (numpy's underflow to subnormals or 0 is harmless): at eps
    # 1e-310 the sin terms drop and A_T, M_T are of order eps*ln(1/eps), and
    # at eps 1e300 every primitive is its value at X = 0
    x1 = np.array([-2.0, -0.2, 0.2, 2.0])
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        (a_t, a_sin), (m_t, m_sin) = _Template.averages(x1, 1e-310)
        assert np.all(np.abs(np.stack([a_t, m_t])) < 1e-306)
        assert np.all(a_sin == 0.0) and np.all(np.isfinite(m_sin))
        (a_t, a_sin), (m_t, m_sin) = _Template.averages(x1, 1e300)
        assert np.array_equal(a_t, -np.sign(x1))
        assert np.array_equal(m_t, -0.5 * np.sign(x1))
        assert np.all(np.abs(np.stack([a_sin, m_sin])) < 1e-299)


@pytest.mark.parametrize("component", [0, 1])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_build_averaged_refuses_unsettled_component(switch_family, component,
                                                    sign, monkeypatch):
    # a basis function whose running average grows like log on one side
    # only: that component alone does not stabilize, and build_averaged
    # refuses rather than compare its last average to the closed form
    from homoglab import families
    panels = list(families._BASIS_PANELS)
    panels[component] = (lambda t: np.log1p(np.maximum(sign * t, 0.0)),
                         panels[component][1])
    monkeypatch.setattr(families, "_BASIS_PANELS", tuple(panels))
    with pytest.raises(AveragingError, match="did not stabilize"):
        hl.build_averaged(switch_family)


def test_basis_averaging_node_count(monkeypatch):
    # the integrand nodes the basis check evaluates (4,594,392): T on its
    # horizon-scaled panels and sin on its period, against 11,459,448 for
    # the stacked (T, sin) on 2*pi panels
    from homoglab import quadrature
    from homoglab.families import _basis_limits_numeric
    nodes = []
    panel_integrals = quadrature.panel_integrals

    def counted(g, edges, order=12):
        nodes.append((len(edges) - 1) * order)
        return panel_integrals(g, edges, order)
    monkeypatch.setattr(quadrature, "panel_integrals", counted)
    _basis_limits_numeric(1e-4)
    assert sum(nodes) <= 6_000_000


@pytest.mark.parametrize("fid", ["const", "switch", "slowvary"])
def test_forward_matches_per_coefficient(fid):
    # the Euler step's (phi, b1, sigma1) are the bits of sqrt(2/rho), b1()
    # and the square root of 2*a1(), for the family at two fast scales and
    # for its averaged model
    fam = hl.make_family(fid)
    rng = np.random.default_rng(4)
    x1 = np.concatenate([[0.0, -0.0], 5.0 * rng.normal(size=300)])
    x2 = rng.normal(size=x1.size)
    for model in (fam.at(1.0), fam.at(0.1), hl.closed_form_averaged(fam)):
        phi, b1, sigma1 = model.forward(x1, x2)
        assert np.array_equal(phi, np.sqrt(2.0 / model.rho(x1, x2)))
        assert np.array_equal(b1, model.b1(x1, x2))
        assert np.array_equal(sigma1, np.sqrt(2 * model.a1(x1, x2)))
        # the Euler step and the FD operator (which reads the model's a00,
        # a1 and b1) are one generator: a00 = phi^2/2 and a1 = sigma1^2/2
        # to rounding, the same drift b1
        assert np.allclose(model.a00(x1, x2), phi ** 2 / 2.0,
                           rtol=1e-15, atol=0.0)
        assert np.allclose(model.a1(x1, x2), sigma1 ** 2 / 2.0,
                           rtol=1e-15, atol=0.0)
        # every model of the family answers the family's terminal data
        x = np.stack([x1, x2], axis=-1)
        assert np.array_equal(model.terminal(x), fam.H(x))


def test_forward_refuses_negative_slow_diffusion(switch_family):
    # the switch family with its constant rho*a1 weight negated has a
    # negative slow diffusion everywhere; the Euler step's map refuses it
    # for the family at two fast scales and for its averaged model
    t = switch_family.rhoa_t
    fam = dataclasses.replace(
        switch_family, rhoa_t=_Template(lambda x2: -t.w0(x2), t.w1, t.w2))
    for model in (fam.at(1.0), fam.at(0.1), hl.closed_form_averaged(fam)):
        with pytest.raises(AveragingError):
            model.forward(0.3, np.zeros((1, 1)))


@pytest.mark.parametrize("fid", ["const", "switch", "slowvary"])
def test_family_at_eps_is_family_at_fast_argument(fid):
    # fam.at(eps) answers every coefficient question at (x1/eps, x2): the
    # bits of the unscaled family asked at x1/eps
    fam = hl.make_family(fid)
    assert fam.eps == 1.0
    rng = np.random.default_rng(6)
    x1 = np.concatenate([[0.0, -0.0], 3.0 * rng.normal(size=30)])
    x2 = rng.normal(size=(x1.size, fam.d))
    y = rng.normal(size=x1.size)
    for eps in (1.0, 0.3, 0.03):
        scaled = fam.at(eps)
        assert scaled.eps == eps and fam.eps == 1.0
        xf = x1 / eps
        for got, ref in zip(scaled.forward(x1, x2), fam.forward(xf, x2)):
            assert np.array_equal(got, ref), eps
        assert np.array_equal(scaled.driver(x1, x2)(y), fam.driver(xf, x2)(y))
        assert np.array_equal(scaled.rho_f_coef(x1, x2),
                              fam.rho_f_coef(xf, x2))
    for eps in (0.0, -1.0, float("nan")):
        with pytest.raises(FamilyError, match="eps must be positive"):
            fam.at(eps)


def _limit_basis(x1):
    """(T, sin) replaced by their one-sided limits: T = +1 for x1 > 0, -1
    for x1 < 0 and their mean 0 at x1 = 0 and -0.0, sin = 0."""
    x1 = np.asarray(x1, dtype=float)
    return (np.where(x1 > 0, 1.0, np.where(x1 < 0, -1.0, 0.0)),
            np.zeros(x1.shape))


@pytest.mark.parametrize("fid", ["const", "switch", "slowvary"])
def test_averaged_model_is_family_on_limit_basis(fid, monkeypatch):
    # one coefficient interface: every shared name of the averaged model
    # equals the family's own evaluated on the limit basis
    fam = hl.make_family(fid)
    avg = hl.closed_form_averaged(fam)
    rng = np.random.default_rng(9)
    x1 = np.concatenate([[0.0, -0.0, 1e-12, -1e-12], 3.0 * rng.normal(size=12)])
    x2 = rng.normal(size=(x1.size, fam.d))
    y = rng.normal(size=x1.size)
    calls = {name: (x1, x2) for name in ("forward", "rho", "rho_f_coef",
                                          "a00", "b1", "a1")}
    calls["rho_f"] = calls["f"] = (x1, x2, y)
    got = {name: getattr(avg, name)(*args) for name, args in calls.items()}
    monkeypatch.setattr(hl.families._Template, "basis",
                        staticmethod(_limit_basis))
    for name, args in calls.items():
        ref = getattr(fam, name)(*args)
        if name == "forward":
            assert all(np.array_equal(g, r) for g, r in zip(got[name], ref))
        else:
            assert np.array_equal(got[name], ref), name


@pytest.mark.parametrize("eps", [1.0, 0.1])
def test_flat_family_driver_equals_averaged_driver(switch_family, eps):
    # an x1-independent family with rho = 3: the two-scale and averaged
    # models share one driver, so they agree to the bit off rho = 1 too
    from homoglab.families import _const_w

    def no_fast(t, **w):
        # zero T and sin weights
        return dataclasses.replace(t, w1=lambda x2: 0.0 * t.w1(x2),
                                   w2=lambda x2: 0.0 * t.w2(x2), **w)
    flat = dataclasses.replace(
        switch_family, rho_t=no_fast(switch_family.rho_t, w0=_const_w(3.0)),
        rhob_t=no_fast(switch_family.rhob_t),
        rhoa_t=no_fast(switch_family.rhoa_t),
        rhof_t=no_fast(switch_family.rhof_t))
    fam, avg = flat.at(eps), hl.closed_form_averaged(flat)
    rng = np.random.default_rng(20)
    x1 = np.concatenate([[0.0, -0.0], 3.0 * rng.normal(size=2000)])
    x2 = rng.normal(size=(x1.size, 1))
    y = 2.0 * rng.normal(size=x1.size)
    assert np.all(fam.rho(x1, x2) == 3.0)
    assert np.array_equal(fam.driver(x1, x2)(y), avg.driver(x1, x2)(y))
    assert np.array_equal(fam.f(x1, x2, y), avg.f(x1, x2, y))


def _full_weights(fam):
    """The family with every template weight an array of x2's shape, as
    ``np.full`` builds it."""
    def full(t):
        return _Template(*(lambda x2, w=w: np.full(np.shape(x2), w(x2))
                           for w in (t.w0, t.w1, t.w2)))
    return dataclasses.replace(fam, rho_t=full(fam.rho_t),
                               rhob_t=full(fam.rhob_t),
                               rhoa_t=full(fam.rhoa_t),
                               rhof_t=full(fam.rhof_t))


def _full_reference(model, x1, x2, y):
    """Each coefficient of ``model`` written out term by term on its own
    basis, with np.full weights."""
    fam = _full_weights(model.fam)
    trans, sin = model.basis(x1)
    rho, rho_b, rho_a, rho_f = (t.w0(x2) + t.w1(x2) * trans + t.w2(x2) * sin
                                for t in (fam.rho_t, fam.rhob_t, fam.rhoa_t,
                                          fam.rhof_t))
    return {"rho": rho, "a00": 1.0 / rho, "b1": rho_b / rho,
            "a1": rho_a / rho,
            "forward": (np.sqrt(2.0 / rho), rho_b / rho,
                        np.sqrt(2.0 * rho_a / rho)),
            "driver": (rho_f / rho * fam.f_y_shape(y),)}


@pytest.mark.parametrize("fid", ["const", "switch", "slowvary"])
def test_coefficients_keep_bits_and_broadcast_shape(fid):
    # constant weights are floats: every coefficient still has the bits
    # and the broadcast shape of (x1, x2) that np.full weights give, for
    # scalar x1 with array x2 and array x1 with scalar x2 too
    fam = hl.make_family(fid)
    rng = np.random.default_rng(30)
    xs = np.concatenate([[0.0, -0.0], 2.0 * rng.normal(size=14)])
    x2s = rng.normal(size=xs.size)
    y = rng.normal(size=xs.size)
    for model in (fam, fam.at(0.1), hl.closed_form_averaged(fam)):
        for x1, x2 in ((xs, x2s), (0.7, x2s), (-0.3, x2s), (xs, 0.4)):
            ref = _full_reference(model, x1, x2, y)
            got = {"rho": model.rho(x1, x2), "a00": model.a00(x1, x2),
                   "b1": model.b1(x1, x2), "a1": model.a1(x1, x2),
                   "forward": model.forward(x1, x2),
                   "driver": (model.driver(x1, x2)(y),)}
            for name, values in got.items():
                if name not in ("forward", "driver"):
                    values, ref[name] = (values,), (ref[name],)
                for g, r in zip(values, ref[name], strict=True):
                    assert np.shape(g) == np.shape(r) == (xs.size,), name
                    assert np.asarray(g).tobytes() == r.tobytes(), name
    grid = np.linspace(-3.0, 3.0, 25)
    assert json.dumps(hl.closed_form_averaged(fam).to_json(grid)) == \
        json.dumps(hl.closed_form_averaged(_full_weights(fam)).to_json(grid))


def test_averaged_model_json_roundtrip(switch_avg, tmp_path):
    path = hl.write_json(tmp_path / "avg.json",
                         switch_avg.to_json(np.linspace(-2, 2, 9)))
    doc = json.loads(path.read_text())
    assert doc["format"] == "averaged-model"
    assert doc["side_convention"] == "mean"
    assert doc["branches"]["plus"]["rho"][0] == pytest.approx(3.0)
    assert doc["branches"]["minus"]["rho"][0] == pytest.approx(1.0)
    # the layout: d = 1, k = 2, each x2 and b_bar a one-element list and
    # a_bar the 2x2 block with a00 and a1 on its diagonal
    assert doc["d"] == 1 and doc["k"] == 2
    assert doc["x2_grid"] == [[x] for x in np.linspace(-2, 2, 9).tolist()]
    for side, x1 in (("plus", 1.0), ("minus", -1.0)):
        branch = doc["branches"][side]
        assert np.shape(branch["b_bar"]) == (9, 1)
        a_bar = np.array(branch["a_bar"])
        assert a_bar.shape == (9, 2, 2)
        assert np.all(a_bar[:, 0, 1] == 0.0) and np.all(a_bar[:, 1, 0] == 0.0)
        assert np.array_equal(a_bar[..., 1, 1], np.ravel(
            switch_avg.a1(x1, np.linspace(-2, 2, 9)[:, None])))


def test_f_bar_y_shape(switch_avg, switch_family):
    # the averaged driver carries the family's exact y-shape
    x2 = np.zeros((1, 1))
    assert switch_avg.f(1.0, x2, 1.3)[0] == pytest.approx(
        switch_avg.f(1.0, x2, 0.0)[0]
        * switch_family.f_y_shape(1.3) / switch_family.f_y_shape(0.0))


# -- assumption audit -------------------------------------------------------

def test_audit_clean_on_catalog(switch_family):
    rep = hl.audit_assumptions(
        switch_family,
        {"box": [(-5, 5), (-2, 2), (-2, 2)], "n_samples": 128, "seed": 1})
    assert all(e.status != "violated" for e in rep.values())
    assert rep["A3"].status == "verified-sampled"
    assert rep["B1"].status == "closed-form"


def test_nonincreasing_allows_a_five_percent_rise():
    # the one trend rule: a rise of at most 5 % of the value before it,
    # plus 1e-12, on both sides of each boundary
    from homoglab.families import nonincreasing
    assert nonincreasing([100.0, 105.0])
    assert not nonincreasing([100.0, 105.0 + 1e-9])
    assert nonincreasing([0.0, 1e-12])
    assert not nonincreasing([0.0, 2e-12])
    assert nonincreasing([3.0, 1.0, 1.04])
    assert not nonincreasing([3.0, 1.0, 1.06])
    assert nonincreasing([7.0])


def test_audit_trend_witness_is_the_breaking_rise(const_family, monkeypatch):
    # the B3/C2 verdict and its witness follow one rule: the trend
    # [1.0, 1.02, 0.5, 0.9] rises within 5 % at |x1| = 1e2 and breaks the
    # rule at 1e4, so 1e4 is the witness
    from homoglab import families
    trend = np.array([1.0, 1.02, 0.5, 0.9])

    def fake_cesaro(g, **kw):
        # the running averages of an x1-independent family are its value;
        # the plus side gets the trend added
        base = g(np.array([1.0]))[0]
        return dataclasses.replace(
            cesaro_average(g, **kw), averages_plus=base + trend,
            averages_minus=np.full(trend.size, base))
    monkeypatch.setattr(families, "cesaro_average", fake_cesaro)
    rep = hl.audit_assumptions(
        const_family,
        {"box": [(-5, 5), (-2, 2), (-2, 2)], "n_samples": 16, "seed": 2})
    for aid in ("B3", "C2"):
        assert rep[aid].status == "violated"
        assert rep[aid].witness == (1e4,)
        assert rep[aid].residual == pytest.approx(0.9)


def test_audit_catches_bound_violation(switch_family):
    import copy
    fam = copy.copy(switch_family)
    fam.bounds = dict(fam.bounds)
    fam.bounds["f_sup"] = 1e-6  # absurdly tight declared bound
    rep = hl.audit_assumptions(
        fam, {"box": [(-5, 5), (-2, 2), (-2, 2)], "n_samples": 64, "seed": 2})
    entry = rep["C1"]
    assert entry.status == "violated"
    assert entry.witness is not None
