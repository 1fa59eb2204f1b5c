import numpy as np
import pytest

import homoglab as hl
from homoglab.bsde import (BsdeSpec, _upcrossings_batch, feature_matrix,
                           upcrossings)


def ones_terminal(x):
    return np.ones(np.asarray(x).shape[:-1])


def test_feature_matrix_degrees():
    X = np.random.default_rng(0).normal(size=(50, 2))
    F = feature_matrix(X, 2, False)
    assert F.shape == (50, 6)      # 1, x1, x2, x1^2, x1 x2, x2^2
    Fs = feature_matrix(X, 2, True)
    assert Fs.shape == (50, 7)
    assert set(np.unique(Fs[:, -1])) <= {0.0, 1.0}


@pytest.mark.parametrize("nv", [2, 3, 4])
@pytest.mark.parametrize("sign_feature", [False, True])
def test_feature_matrix_matches_product_form(nv, sign_feature):
    # the power table must give the per-monomial np.prod(z ** p) bytes
    states = 3.0 * np.random.default_rng(nv).normal(size=(257, nv))
    states[::5, 0] = 0.0
    mu = states.mean(axis=0)
    sd = states.std(axis=0)
    z = (states - mu) / np.where(sd > 1e-12, sd, 1.0)
    for degree in range(7):
        cols = [np.prod(z ** np.asarray(p), axis=1)
                for p in hl.bsde._monomial_powers(nv, degree)]
        if sign_feature:
            cols.append((states[:, 0] > 0).astype(float))
        F = feature_matrix(states, degree, sign_feature)
        assert np.array_equal(F, np.column_stack(cols))
        assert F.flags.c_contiguous


def test_terminal_only_mean(const_family, small_grid):
    avg = hl.build_averaged(const_family)
    b = hl.simulate_avg(avg, [0.5, 0.0], small_grid, 500, seed=1)
    sol = hl.solve_bsde(b, BsdeSpec(terminal=ones_terminal,
                                    driver=lambda x1, x2, y: 0.0 * y,
                                    basis_degree=2))
    assert sol.Y0 == pytest.approx(1.0, abs=1e-12)
    assert abs(sol.cv) < 1e-8


def test_constant_driver_linear_value(const_family, small_grid):
    avg = hl.build_averaged(const_family)
    b = hl.simulate_avg(avg, [0.5, 0.0], small_grid, 500, seed=2)
    c = 0.7
    sol = hl.solve_bsde(b, BsdeSpec(
        terminal=lambda x: np.zeros(np.asarray(x).shape[:-1]),
        driver=lambda x1, x2, y: c + 0.0 * y, basis_degree=2))
    assert sol.Y0 == pytest.approx(c * small_grid.t_end, abs=1e-10)


def test_exponential_decay_driver(const_family, small_grid):
    avg = hl.build_averaged(const_family)
    b = hl.simulate_avg(avg, [0.5, 0.0], small_grid, 2000, seed=3)
    sol = hl.solve_bsde(b, BsdeSpec(terminal=ones_terminal,
                                    driver=lambda x1, x2, y: -y,
                                    basis_degree=2))
    t = small_grid.t_end
    assert sol.Y0 == pytest.approx(np.exp(-t),
                                   abs=3 * sol.Y0_stderr + 5 * small_grid.dt)


def test_y_bound_clipping(const_family, small_grid):
    avg = hl.build_averaged(const_family)
    b = hl.simulate_avg(avg, [0.5, 0.0], small_grid, 300, seed=4)
    sol = hl.solve_bsde(b, BsdeSpec(terminal=ones_terminal,
                                    driver=lambda x1, x2, y: 0.0 * y,
                                    basis_degree=2, y_bound=0.25))
    # regression outputs are clipped; the terminal slice is raw data
    assert np.max(np.abs(sol.Y[:, :-1])) <= 0.25 + 1e-12


def test_driver_argument_is_fast_variable(switch_family, switch_bundle):
    seen = {}

    def probe_driver(x1, x2, y):
        seen["max_abs_x1"] = max(seen.get("max_abs_x1", 0.0),
                                 float(np.max(np.abs(x1))))
        return 0.0 * y

    hl.solve_bsde(switch_bundle, BsdeSpec(
        terminal=switch_family.terminal, driver=probe_driver, basis_degree=2))
    # eps = 0.3 bundle: driver must see X1/eps, much larger than X1 itself
    assert seen["max_abs_x1"] > np.max(np.abs(switch_bundle.x1())) * 2


def test_solution_container_roundtrip(switch_family, switch_bundle, tmp_path):
    sol = hl.solve_bsde(switch_bundle, BsdeSpec(
        terminal=switch_family.terminal, driver=switch_family.f,
        basis_degree=2, include_sign_feature=True, y_bound=3.0))
    p = tmp_path / "sol.bin"
    sol.save(p, switch_bundle.grid.dt)
    assert p.read_bytes()[:5] == b"HMGS1"
    import json
    meta = json.loads((tmp_path / "sol.bin.json").read_text())
    assert meta["Y0"] == pytest.approx(sol.Y0)
    assert meta["eps"] == 0.3


def test_picard_residuals_contract(switch_family, switch_bundle):
    sol = hl.solve_bsde(switch_bundle, BsdeSpec(
        terminal=switch_family.terminal, driver=switch_family.f,
        basis_degree=3, include_sign_feature=True, n_picard=4, y_bound=3.0))
    r = sol.picard_residuals
    assert r[1] < r[0] and r[2] < r[1]


def test_conditional_variation_martingale_near_zero(const_family, small_grid):
    # Y from a zero-driver problem is a martingale: debiased CV ~ 0
    avg = hl.build_averaged(const_family)
    b = hl.simulate_avg(avg, [0.2, 0.1], small_grid, 3000, seed=7)
    sol = hl.solve_bsde(b, BsdeSpec(
        terminal=lambda x: np.tanh(x[..., 0]) + 0.2 * x[..., 1],
        driver=lambda x1, x2, y: 0.0 * y, basis_degree=3))
    assert sol.cv <= 3 * sol.cv_stderr + 0.02


def test_conditional_variation_detects_drift(const_family, small_grid):
    avg = hl.build_averaged(const_family)
    b = hl.simulate_avg(avg, [0.2, 0.1], small_grid, 3000, seed=8)
    sol = hl.solve_bsde(b, BsdeSpec(
        terminal=ones_terminal, driver=lambda x1, x2, y: 1.0 + 0.0 * y,
        basis_degree=2))
    # dY = -f dt along the solution: CV should see ~ t_end * |f| = 0.5
    assert sol.cv == pytest.approx(small_grid.t_end, rel=0.15)


def test_solve_bsde_factors_each_step_once(switch_family, switch_bundle,
                                           monkeypatch):
    # one feature build and one SVD per interior step serve the
    # continuation value, every Z column and the conditional variation
    counts = {"features": 0, "svd": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper
    monkeypatch.setattr(hl.bsde, "feature_matrix",
                        counted("features", feature_matrix))
    monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    hl.solve_bsde(switch_bundle, BsdeSpec(
        terminal=switch_family.terminal, driver=switch_family.f,
        basis_degree=2, include_sign_feature=True, y_bound=3.0))
    interior = switch_bundle.grid.n_steps - 1
    assert counts == {"features": interior, "svd": interior}


def test_upcrossings_scalar():
    path = [0.0, 1.2, -0.1, 0.5, 1.5, 0.9, -0.2, 1.1]
    assert upcrossings(np.array(path), 0.0, 1.0) == 3
    assert upcrossings(np.zeros(5), 0.0, 1.0) == 0
    with pytest.raises(ValueError):
        upcrossings(np.zeros(3), 1.0, 0.0)


def test_upcrossings_batch_matches_scalar():
    rng = np.random.default_rng(11)
    Y = np.cumsum(rng.normal(size=(40, 200)) * 0.3, axis=1)
    batch = _upcrossings_batch(Y, -0.5, 0.5)
    ref = np.mean([upcrossings(row, -0.5, 0.5) for row in Y])
    assert batch == pytest.approx(ref)


def test_tightness_certificate_structure(switch_family, switch_avg,
                                         small_grid):
    sols = []
    for eps in (1.0, 0.3):
        b = hl.simulate_eps(switch_family, eps, [0.5, 0.0], small_grid,
                            1000, seed=13)
        sols.append(hl.solve_bsde(b, BsdeSpec(
            terminal=switch_family.terminal, driver=switch_family.f,
            basis_degree=3, include_sign_feature=True, y_bound=3.0)))
    cert = hl.tightness_certificate(sols, bands=[(-0.5, 0.5)],
                                    dt=small_grid.dt)
    assert len(cert["rows"]) == 2
    assert cert["ratio_energy"] >= 1.0
    assert cert["ratio_cv_plus_sup"] >= 1.0
    assert "-0.5:0.5" in cert["ratio_upcrossings"]
