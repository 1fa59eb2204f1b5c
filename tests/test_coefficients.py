import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homoglab as hl
from homoglab.families import (AveragingError, FamilyError, transition,
                               cesaro_average, geometric_schedule)


# -- Cesaro engine ----------------------------------------------------------

def test_cesaro_constant():
    res = cesaro_average(lambda t, _: np.ones_like(t)[:, None] * 3.5, None)
    assert res.converged
    assert res.g_plus[0] == pytest.approx(3.5, abs=1e-10)
    assert res.g_minus[0] == pytest.approx(3.5, abs=1e-10)


def test_cesaro_transition_limits():
    # closed form: (1/X) int_0^X (2/pi) atan = (2/pi)(atan X - log(1+X^2)/(2X))
    res = cesaro_average(lambda t, _: transition(t)[:, None], None, tol=1e-4)
    assert res.converged
    assert res.g_plus[0] == pytest.approx(1.0, abs=1e-4)
    assert res.g_minus[0] == pytest.approx(-1.0, abs=1e-4)
    X = res.horizons[-1]
    ref = (2 / np.pi) * (np.arctan(X) - np.log1p(X ** 2) / (2 * X))
    assert res.averages_plus[-1, 0] == pytest.approx(ref, rel=1e-6)


def test_cesaro_sin_vanishes():
    res = cesaro_average(lambda t, _: np.sin(t)[:, None], None, tol=1e-4)
    assert res.converged
    assert abs(res.g_plus[0]) < 1e-4
    assert abs(res.g_minus[0]) < 1e-4


def test_cesaro_nonconvergent_reported():
    # log t grows without a Cesaro limit; must be flagged, not extrapolated
    res = cesaro_average(lambda t, _: np.log1p(np.abs(t))[:, None], None)
    assert not res.converged
    assert res.residual > 1e-2


@settings(max_examples=20, deadline=None)
@given(a=st.floats(-2, 2), b=st.floats(-2, 2))
def test_cesaro_linearity(a, b):
    sched = geometric_schedule(50.0, 2.0, 5)
    res = cesaro_average(
        lambda t, _: np.stack(
            [transition(t), np.sin(t), a * transition(t) + b * np.sin(t)],
            axis=-1), None, schedule=sched)
    combo = a * res.g_plus[0] + b * res.g_plus[1]
    assert res.g_plus[2] == pytest.approx(combo, abs=1e-10)


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
    assert switch_family.phi(0.0, x2)[0] == pytest.approx(1.0)
    # consistency: f = (rho f)/rho
    v = switch_family.f(1.3, x2, 0.7)
    ref = switch_family.rho_f(1.3, x2, 0.7) / switch_family.rho(1.3, x2)
    assert v == pytest.approx(ref)


def test_averaged_switch_branches(switch_avg):
    x2 = np.zeros((1, 1))
    assert switch_avg.rho_plus(x2)[0] == pytest.approx(3.0, abs=1e-12)
    assert switch_avg.rho_minus(x2)[0] == pytest.approx(1.0, abs=1e-12)
    assert switch_avg.a00_bar(1.0, x2)[0] == pytest.approx(1.0 / 3.0)
    assert switch_avg.a00_bar(-1.0, x2)[0] == pytest.approx(1.0)
    # x1 = 0 belongs to the minus branch
    assert switch_avg.a00_bar(0.0, x2)[0] == pytest.approx(1.0)
    assert switch_avg.b_bar(1.0, x2)[0, 0] == pytest.approx(2.0 / 3.0)
    assert switch_avg.b_bar(-1.0, x2)[0, 0] == pytest.approx(0.0)
    assert switch_avg.f_bar(1.0, x2, 0.0)[0] == pytest.approx(0.4)
    assert switch_avg.f_bar(-1.0, x2, 0.0)[0] == pytest.approx(0.6)


def test_averaged_a00_is_inverse_mean_rho(switch_family, switch_avg):
    # quotient structure: a00_bar = 1 / rho_bar on each side
    x2 = np.array([[0.7]])
    for x1 in (1.0, -1.0):
        assert switch_avg.a00_bar(x1, x2)[0] == pytest.approx(
            1.0 / switch_avg.rho_pm(x1, x2)[0])


def test_numeric_vs_closed_form_within_tol(switch_family):
    # re-run the numeric engine and compare against the attached closed form
    avg = hl.build_averaged(switch_family, tol=1e-4)
    assert avg.exact  # numeric path validated and replaced by closed form


def test_build_averaged_rejects_bad_closed_form(switch_family):
    import copy
    fam = copy.copy(switch_family)
    fam.closed_form_limits = hl.closed_form_averaged(hl.make_family("const"))
    with pytest.raises(AveragingError):
        hl.build_averaged(fam)


@pytest.mark.parametrize("fid", ["switch", "slowvary"])
def test_weighted_matches_per_coefficient(fid):
    fam = hl.make_family(fid)
    rng = np.random.default_rng(4)
    x1 = 5.0 * rng.normal(size=300)
    x2 = rng.normal(size=(300, fam.d))
    rho, rho_b, rho_a = fam.weighted(x1, x2)
    assert np.array_equal(rho, fam.rho(x1, x2))
    assert np.array_equal(rho_b, fam.rho_b(x1, x2))
    assert np.array_equal(rho_a, fam.rho_a(x1, x2))


def test_averaged_model_json_roundtrip(switch_avg, tmp_path):
    path = tmp_path / "avg.json"
    switch_avg.save_json(path, np.linspace(-2, 2, 9))
    import json
    doc = json.loads(path.read_text())
    assert doc["format"] == "averaged-model"
    assert doc["branches"]["plus"]["rho"][0] == pytest.approx(3.0)
    assert doc["branches"]["minus"]["rho"][0] == pytest.approx(1.0)


def test_f_bar_y_shape(switch_avg, switch_family):
    # the averaged driver carries the family's exact y-shape
    x2 = np.zeros((1, 1))
    assert switch_avg.f_bar(1.0, x2, 1.3)[0] == pytest.approx(
        switch_avg.f_bar(1.0, x2, 0.0)[0]
        * switch_family.f_y_shape(1.3) / switch_family.f_y_shape(0.0))


# -- assumption audit -------------------------------------------------------

def test_audit_clean_on_catalog(switch_family):
    rep = hl.audit_assumptions(
        switch_family,
        {"box": [(-5, 5), (-2, 2), (-2, 2)], "n_samples": 128, "seed": 1})
    assert not rep.violated()
    assert rep["A3"].status == "verified-sampled"
    assert rep["B1"].status == "closed-form"


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
