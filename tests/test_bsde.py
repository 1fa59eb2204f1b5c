import numpy as np
import pytest

import homoglab as hl
from homoglab.bsde import (BsdeSpec, _projector, _upcrossings_batch,
                           feature_matrix, upcrossings)


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
    # the power table is built by repeated multiplication; the features
    # match the per-monomial np.prod(z ** p) up to round-off
    states = 3.0 * np.random.default_rng(nv).normal(size=(257, nv))
    states[::5, 0] = 0.0
    mu = states.mean(axis=0)
    sd = states.std(axis=0)
    z = (states - mu) / np.where(sd > 1e-12, sd, 1.0)
    for degree in range(7):
        pows = [np.ones_like(z), z]
        for _ in range(2, degree + 1):
            pows.append(pows[-1] * z)
        cols, ref = [], []
        for p in hl.bsde._monomial_powers(nv, degree):
            col = pows[p[0]][:, 0]
            for v in range(1, nv):
                col = col * pows[p[v]][:, v]
            cols.append(col)
            ref.append(np.prod(z ** np.asarray(p), axis=1))
        if sign_feature:
            cols.append((states[:, 0] > 0).astype(float))
            ref.append(cols[-1])
        F = feature_matrix(states, degree, sign_feature)
        assert np.array_equal(F, np.column_stack(cols))
        ref = np.column_stack(ref)
        assert np.all(np.abs(F - ref) <= 1e-14 * np.abs(ref))
        assert F.flags.c_contiguous


def _svd_projector(F, step):
    # the projector before the Gram route, kept as the fallback's reference
    u, s, vt = np.linalg.svd(F, full_matrices=False)
    if s[0] <= 0:
        raise hl.bsde.RegressionError(f"zero feature matrix at step {step}")
    keep = s > hl.bsde._RCOND * s[0]
    cond = s[0] / s[keep][-1]
    uk, sk, vk = u[:, keep], s[keep], vt[keep]

    def fit(target):
        return F @ (vk.T @ ((uk.T @ target) / sk))
    return fit, cond


def _states(n, seed):
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.normal(0.5, 0.4, n), rng.normal(0.0, 1.0, n)])


def test_projector_gram_fit_matches_least_squares():
    X = _states(2000, 21)
    F = feature_matrix(X, 3, True)
    targets = np.column_stack([np.tanh(X[:, 0]) + X[:, 1] ** 2,
                               np.exp(-X[:, 0] ** 2), X[:, 0] * X[:, 1]])
    fit, cond = _projector(F, 1)
    assert cond < hl.bsde._GRAM_COND
    ref = F @ np.linalg.lstsq(F, targets, rcond=None)[0]
    scale = np.max(np.abs(ref), axis=0)
    assert np.all(np.abs(fit(targets) - ref) <= 1e-10 * scale)
    for c in range(targets.shape[1]):
        got = fit(targets[:, c])
        assert np.all(np.abs(got - ref[:, c]) <= 1e-10 * scale[c])
    s = np.linalg.svd(F, compute_uv=False)
    assert cond == pytest.approx(s[0] / s[-1], rel=1e-10)


def test_projector_rank_deficient_falls_back_to_svd(monkeypatch):
    # every path on one side: the sign column duplicates the constant one,
    # the Gram route refuses, and the truncated SVD gives today's bits
    X = _states(500, 22)
    X[:, 0] = np.abs(X[:, 0]) + 0.1
    F = feature_matrix(X, 3, True)
    target = np.sin(3 * X[:, 0]) + X[:, 1]
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *a, **kw: calls.append(1) or svd(*a, **kw))
    fit, cond = _projector(F, 1)
    assert calls == [1]
    ref_fit, ref_cond = _svd_projector(F, 1)
    assert cond == ref_cond
    assert np.array_equal(fit(target), ref_fit(target))


@pytest.mark.parametrize("gap", [1e-7, 1e-12])
def test_projector_refuses_only_zero_matrix(gap):
    # the kept singular values lie above _RCOND * s_max, so the reported
    # condition number stays below 1 / _RCOND however near-collinear F is
    # (at gap 1e-12 F's own is ~2e12 and its last direction is projected
    # out): a nonzero F is fitted, to the truncated SVD's bits, and only a
    # zero F is refused
    X = _states(400, 23)
    F = feature_matrix(X, 1, False)
    F[:, 2] = F[:, 1] + gap * F[:, 2]
    s = np.linalg.svd(F, compute_uv=False)
    assert s[0] / s[-1] > 1e6 > hl.bsde._GRAM_COND
    fit, cond = _projector(F, 4)
    ref_fit, ref_cond = _svd_projector(F, 4)
    assert cond == ref_cond < 1 / hl.bsde._RCOND
    target = X[:, 0] ** 2
    assert np.array_equal(fit(target), ref_fit(target))
    with pytest.raises(hl.bsde.RegressionError, match="zero feature"):
        _projector(np.zeros((10, 3)), 5)


def test_terminal_only_mean(const_family, small_grid):
    avg = hl.build_averaged(const_family)
    b = hl.simulate_avg(avg, [0.5, 0.0], small_grid, 500, seed=1)
    sol = hl.solve_bsde(b, BsdeSpec(terminal=ones_terminal,
                                    driver=lambda x1, x2: lambda y: 0.0 * y,
                                    basis_degree=2))
    assert sol.Y0 == pytest.approx(1.0, abs=1e-12)
    assert abs(sol.cv) < 1e-8


def test_constant_driver_linear_value(const_family, small_grid):
    avg = hl.build_averaged(const_family)
    b = hl.simulate_avg(avg, [0.5, 0.0], small_grid, 500, seed=2)
    c = 0.7
    sol = hl.solve_bsde(b, BsdeSpec(
        terminal=lambda x: np.zeros(np.asarray(x).shape[:-1]),
        driver=lambda x1, x2: lambda y: c + 0.0 * y, basis_degree=2))
    assert sol.Y0 == pytest.approx(c * small_grid.t_end, abs=1e-10)


def test_exponential_decay_driver(const_family, small_grid):
    avg = hl.build_averaged(const_family)
    b = hl.simulate_avg(avg, [0.5, 0.0], small_grid, 2000, seed=3)
    sol = hl.solve_bsde(b, BsdeSpec(terminal=ones_terminal,
                                    driver=lambda x1, x2: lambda y: -y,
                                    basis_degree=2))
    t = small_grid.t_end
    assert sol.Y0 == pytest.approx(np.exp(-t),
                                   abs=3 * sol.Y0_stderr + 5 * small_grid.dt)


def test_y_bound_clipping(const_family, small_grid):
    avg = hl.build_averaged(const_family)
    b = hl.simulate_avg(avg, [0.5, 0.0], small_grid, 300, seed=4)
    sol = hl.solve_bsde(b, BsdeSpec(terminal=ones_terminal,
                                    driver=lambda x1, x2: lambda y: 0.0 * y,
                                    basis_degree=2, y_bound=0.25))
    # regression outputs are clipped; the terminal slice is raw data
    assert np.max(np.abs(sol.Y[:, :-1])) <= 0.25 + 1e-12


def test_driver_gets_bundle_x1_and_model_scales_it(switch_family,
                                                   switch_bundle,
                                                   monkeypatch):
    # solve_bsde hands the driver the bundle's own X1, unchanged; the
    # driver of fam.at(eps) evaluates its basis at X1/eps
    seen = []

    def probe_driver(x1, x2):
        seen.append(np.array(x1))
        return lambda y: 0.0 * y

    hl.solve_bsde(switch_bundle, BsdeSpec(
        terminal=switch_family.terminal, driver=probe_driver, basis_degree=2))
    x1 = switch_bundle.x1()
    m = switch_bundle.grid.n_steps
    # steps m-1 .. 1 see every path, step 0 the shared start
    assert len(seen) == m
    for s, got in zip(range(m - 1, 0, -1), seen):
        assert np.array_equal(got, x1[:, s])
    assert np.array_equal(seen[-1], x1[0, 0])

    args = []
    basis = hl.families._Template.basis

    def recorded_basis(t):
        args.append(np.array(t))
        return basis(t)
    monkeypatch.setattr(hl.families._Template, "basis",
                        staticmethod(recorded_basis))
    eps = switch_bundle.eps
    switch_family.at(eps).driver(x1[:, 5], switch_bundle.x2()[:, 5])
    (got,) = args
    assert np.array_equal(got, x1[:, 5] / eps)
    assert np.max(np.abs(got)) > 2 * np.max(np.abs(x1[:, 5]))


def test_solution_container_roundtrip(switch_family, switch_bundle, tmp_path):
    sol = hl.solve_bsde(switch_bundle, BsdeSpec(
        terminal=switch_family.terminal,
        driver=switch_family.at(switch_bundle.eps).driver,
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
        terminal=switch_family.terminal,
        driver=switch_family.at(switch_bundle.eps).driver,
        basis_degree=3, include_sign_feature=True, n_picard=4, y_bound=3.0))
    r = sol.picard_residuals
    assert r[1] < r[0] and r[2] < r[1]


def test_conditional_variation_martingale_near_zero(const_family, small_grid):
    # Y from a zero-driver problem is a martingale: debiased CV ~ 0
    avg = hl.build_averaged(const_family)
    b = hl.simulate_avg(avg, [0.2, 0.1], small_grid, 3000, seed=7)
    sol = hl.solve_bsde(b, BsdeSpec(
        terminal=lambda x: np.tanh(x[..., 0]) + 0.2 * x[..., 1],
        driver=lambda x1, x2: lambda y: 0.0 * y, basis_degree=3))
    assert sol.cv <= 3 * sol.cv_stderr + 0.02


def test_conditional_variation_detects_drift(const_family, small_grid):
    avg = hl.build_averaged(const_family)
    b = hl.simulate_avg(avg, [0.2, 0.1], small_grid, 3000, seed=8)
    sol = hl.solve_bsde(b, BsdeSpec(
        terminal=ones_terminal, driver=lambda x1, x2: lambda y: 1.0 + 0.0 * y,
        basis_degree=2))
    # dY = -f dt along the solution: CV should see ~ t_end * |f| = 0.5
    assert sol.cv == pytest.approx(small_grid.t_end, rel=0.15)


def test_solve_bsde_factors_each_step_once(switch_family, switch_bundle,
                                           monkeypatch):
    # one feature build and one Gram eigendecomposition per interior step
    # serve the continuation value, every Z column and the conditional
    # variation; a step the Gram route refuses adds one SVD, nothing more
    calls = []

    def logged(key, fn):
        def wrapper(*args, **kwargs):
            calls.append(key)
            return fn(*args, **kwargs)
        return wrapper
    monkeypatch.setattr(hl.bsde, "feature_matrix",
                        logged("features", feature_matrix))
    monkeypatch.setattr(np.linalg, "eigh", logged("eigh", np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "svd", logged("svd", np.linalg.svd))
    hl.solve_bsde(switch_bundle, BsdeSpec(
        terminal=switch_family.terminal,
        driver=switch_family.at(switch_bundle.eps).driver,
        basis_degree=2, include_sign_feature=True, y_bound=3.0))
    steps = []
    for key in calls:
        if key == "features":
            steps.append([])
        else:
            steps[-1].append(key)
    assert len(steps) == switch_bundle.grid.n_steps - 1
    assert all(step in (["eigh"], ["eigh", "svd"]) for step in steps)
    # the first steps, with every path on one side, are rank-deficient
    assert 0 < calls.count("svd") < len(steps)


def test_solve_bsde_prepares_driver_once_per_step(switch_family,
                                                  switch_bundle, monkeypatch):
    # the driver's y-independent factors are prepared once per step, from
    # one evaluation of the fast basis, and serve all Picard iterations
    # and the rollout term
    counts = {"prepare": 0, "apply": 0, "basis": 0}
    basis = hl.families._Template.basis

    def counted_basis(x1):
        counts["basis"] += 1
        return basis(x1)

    scaled = switch_family.at(switch_bundle.eps)

    def driver(x1, x2):
        counts["prepare"] += 1
        drive = scaled.driver(x1, x2)

        def apply(y):
            counts["apply"] += 1
            return drive(y)
        return apply
    monkeypatch.setattr(hl.families._Template, "basis",
                        staticmethod(counted_basis))
    n_picard = 3
    hl.solve_bsde(switch_bundle, BsdeSpec(
        terminal=switch_family.terminal, driver=driver, basis_degree=2,
        include_sign_feature=True, n_picard=n_picard, y_bound=3.0))
    m = switch_bundle.grid.n_steps
    assert counts == {"prepare": m, "basis": m, "apply": n_picard * m + m}


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
            terminal=switch_family.terminal,
            driver=switch_family.at(eps).driver,
            basis_degree=3, include_sign_feature=True, y_bound=3.0)))
    cert = hl.tightness_certificate(sols, dt=small_grid.dt)
    assert len(cert["rows"]) == 2
    assert cert["ratio_energy"] >= 1.0
    assert cert["ratio_cv_plus_sup"] >= 1.0
    assert "-0.5:0.5" in cert["ratio_upcrossings"]


def _path_solution(path, eps):
    """A one-path solution whose Y is ``path``, for the certificate."""
    Y = np.asarray(path, dtype=float)[None, :]
    return hl.BsdeSolution(
        Y0=Y[0, 0], Y0_stderr=0.0, Y=Y, Z=np.zeros((1, Y.shape[1] - 1, 1)),
        picard_residuals=[], condition_numbers=np.zeros(0), cv=1.0,
        cv_stderr=0.0, sup_abs_y=1.0, eps=eps)


def test_tightness_upcrossing_ratio_unbounded_when_one_row_has_none():
    # counts 0 and 1: max/min is unbounded, not uniform (1.0), so the
    # ratio is None; rows that all have no up-crossings keep 1.0
    still = _path_solution([0.2, 0.2, 0.2], 1.0)
    cross = _path_solution([-1.0, 0.0, 1.0], 0.1)
    cert = hl.tightness_certificate([still, cross], dt=0.5)
    assert [r["upcrossings"]["-0.5:0.5"] for r in cert["rows"]] == [0.0, 1.0]
    assert cert["ratio_upcrossings"] == {"-0.5:0.5": None}
    assert cert["ratio_energy"] > 0 and cert["ratio_cv_plus_sup"] > 0
    cert = hl.tightness_certificate([still, still], dt=0.5)
    assert cert["ratio_upcrossings"] == {"-0.5:0.5": 1.0}
    cert = hl.tightness_certificate([cross, cross], dt=0.5)
    assert cert["ratio_upcrossings"] == {"-0.5:0.5": 1.0}
