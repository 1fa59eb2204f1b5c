"""Acceptance gate: one test per criterion, one printed verdict line each.

Each test prints "criterion NN PASS|FAIL: <summary>" on the real stdout
(bypassing capture) and then asserts.  Tolerances marked as frozen come
from tests/fixtures/reference_tolerances.json, produced by the documented
reference run recorded in that file's header.
"""

import json
import os
import sys
import time

import numpy as np
import pytest

import conftest
import homoglab as hl
from homoglab.bsde import BsdeSpec
from homoglab.families import _basis_limits_numeric, _compare_models
from homoglab.pde_fd import Grid2D, richardson_error, solve_pde

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
with open(os.path.join(FIXTURES, "reference_tolerances.json")) as _f:
    TOL = json.load(_f)

CATALOG_IDS = ("const", "switch", "slowvary")


def _verdict(num, ok, summary):
    line = f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {summary}"
    print(line, file=sys.__stdout__, flush=True)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def _config(**overrides):
    doc = {
        "family": {"id": "switch", "params": [], "d": 1, "k": 2},
        "x0": [0.5, 0.0],
        "t_end": 0.5,
        "eps_list": [1.0, 0.3, 0.1, 0.03],
        "mc": {"n_paths": 20000, "n_steps": 50, "seed": 20260824},
        "bsde": {"basis_degree": 3, "sign_feature": True, "n_picard": 3},
        "averaging": {"tol": 1e-4},
        "corrector": {"box": [[-2, 2], [-1, 1]], "y_box": [-1, 1],
                      "n_grid": [21, 9, 9]},
        "tolerances": {k: TOL[k] for k in
                       ("final_error", "drift_gap_factor", "decay_factor",
                        "occupation_slope", "tightness_ratio")},
        "outputs": {"dir": "out", "formats": ["csv", "json"]},
    }
    doc.update(overrides)
    return hl.ExperimentConfig.from_dict(doc)


@pytest.fixture(scope="module")
def main_report():
    """Shared switch-family sweep used by criteria 6 and 8."""
    return hl.run_convergence(_config())


def test_criterion_01_cesaro_oracle_suite():
    t0 = time.time()
    worst = 0.0
    a_trans, a_sin = _basis_limits_numeric(1e-4)
    for fid in CATALOG_IDS:
        fam = hl.make_family(fid)
        numeric = hl.AveragedModel(fam, a_trans, a_sin)
        dev = _compare_models(numeric, hl.closed_form_averaged(fam))
        worst = max(worst, dev)
    elapsed = time.time() - t0
    ok = worst <= 1e-4 and elapsed <= 30.0
    _verdict(1, ok, f"averaged coefficients vs closed form, max dev "
                    f"{worst:.2e} (tol 1e-4), {elapsed:.1f}s")


def test_criterion_02_identity_homogenization():
    t0 = time.time()
    cfg = _config(family={"id": "slowvary", "params": [], "d": 1, "k": 2},
                  eps_list=[1.0, 0.1, 0.01], corrector=None)
    rep = hl.run_convergence(cfg)
    margins = [(r["error"]["value"], 3 * r["error"]["stderr"])
               for r in rep.rows]
    elapsed = time.time() - t0
    ok = all(e <= m for e, m in margins) and elapsed <= 120.0
    worst = max(e / m for e, m in margins)
    _verdict(2, ok, f"x1-independent family: |Y0_eps - Y0| <= 3 stderr for "
                    f"all eps (worst ratio {worst:.2f}), {elapsed:.1f}s")


def test_criterion_03_bsde_closed_forms():
    const = hl.make_family("const")
    avg = hl.build_averaged(const)
    grid = hl.SimGrid(0.5, 50)
    b = hl.simulate_avg(avg, [0.5, 0.0], grid, 20000, seed=101)
    ones = lambda x: np.ones(np.asarray(x).shape[:-1])
    zero = lambda x: np.zeros(np.asarray(x).shape[:-1])
    t, dt = grid.t_end, grid.dt

    spec = BsdeSpec(basis_degree=2)

    s1 = hl.solve_bsde(b, conftest.problem(
        terminal=ones, driver=lambda x1, x2: lambda y: 0.0 * y), spec)
    ok1 = abs(s1.Y0 - 1.0) <= max(s1.Y0_stderr, 1e-12)

    c = 0.8
    s2 = hl.solve_bsde(b, conftest.problem(
        terminal=zero, driver=lambda x1, x2: lambda y: c + 0.0 * y), spec)
    ok2 = abs(s2.Y0 - c * t) <= 3 * s2.Y0_stderr + dt * abs(c)

    s3 = hl.solve_bsde(b, conftest.problem(
        terminal=ones, driver=lambda x1, x2: lambda y: -y), spec)
    ok3 = abs(s3.Y0 - np.exp(-t)) <= 3 * s3.Y0_stderr + 5 * dt

    ok = ok1 and ok2 and ok3
    _verdict(3, ok, f"closed-form values: Y0={s1.Y0:.6f} (1), "
                    f"{s2.Y0:.6f} ({c * t}), {s3.Y0:.6f} ({np.exp(-t):.6f})")


def test_criterion_04_corrector():
    results = []
    for fid in CATALOG_IDS:
        fam = hl.make_family(fid)
        avg = hl.build_averaged(fam)
        rep = hl.residual_check(fam.at(0.5), avg, {
            "box": [(-2, 2), (-1, 1), (-1, 1)], "n_samples": 40, "seed": 4})
        results.append(rep.passed)
    fam = hl.make_family("switch")
    avg = hl.build_averaged(fam)
    table = hl.decay_table(fam, [1.0, 0.3, 0.1, 0.03],
                           ((-2, 2), (-1, 1)), (-1, 1), n_grid=(21, 9, 9))
    sup = [r.sup_V for r in table.rows]
    decay_ok = table.monotone_V and sup[-1] <= TOL["decay_factor"] * sup[0]
    ok = all(results) and decay_ok
    _verdict(4, ok, f"residual_check on {CATALOG_IDS}: {results}; sup|V| "
                    f"{sup[0]:.3f} -> {sup[-1]:.3f} "
                    f"(factor {sup[-1] / sup[0]:.3f} <= {TOL['decay_factor']})")


def test_criterion_05_occupation_time_law():
    t0 = time.time()
    fam = hl.make_family("switch")
    avg = hl.build_averaged(fam)
    grid = hl.SimGrid(0.5, 50)
    b = hl.simulate_avg(avg, [0.5, 0.0], grid, 50000, seed=505)
    occ = hl.occupation_time(b, [1, 2, 4, 8, 16, 32])
    ns = np.array(list(occ))
    means = np.array([m for m, _ in occ.values()])
    slope = float(np.polyfit(np.log(ns), np.log(means), 1)[0])
    elapsed = time.time() - t0
    lo, hi = TOL["occupation_slope"]
    ok = lo <= slope <= hi and elapsed <= 120.0
    _verdict(5, ok, f"interface occupation log-log slope {slope:.3f} in "
                    f"[{lo}, {hi}], {elapsed:.1f}s")


def test_criterion_06_uniform_bound_certificates(main_report):
    cert = main_report.tightness
    r_energy = cert["ratio_energy"]
    r_cv = cert["ratio_cv_plus_sup"]
    ok = r_energy <= 2.0 and r_cv <= 2.0
    _verdict(6, ok, f"eps-uniform ratios: energy {r_energy:.3f}, "
                    f"cv+sup {r_cv:.3f} (both <= 2)")


def test_criterion_07_fd_bsde_oracle_triangle():
    t0 = time.time()
    fam = hl.make_family("switch")
    avg = hl.build_averaged(fam)
    grid = hl.SimGrid(0.5, 50)
    b = hl.simulate_avg(avg, [0.5, 0.0], grid, 20000, seed=707)
    sol = hl.solve_bsde(b, avg, BsdeSpec(
        basis_degree=3, include_sign_feature=True, y_bound=3.0))
    g = Grid2D(5.0, 5.0, 199, 199, 0.0125, 0.5)
    v_fd = solve_pde(avg, g).at(0.5, 0.0)
    coarse = Grid2D(5.0, 5.0, 99, 99, 0.025, 0.5)
    rich = richardson_error(solve_pde(avg, coarse),
                            solve_pde(avg, coarse.refined()))
    gap = abs(v_fd - sol.Y0)
    allow = 3 * sol.Y0_stderr + rich + 2 * grid.dt
    elapsed = time.time() - t0
    ok = gap <= allow and elapsed <= 180.0
    _verdict(7, ok, f"|v_FD - Y0| = {gap:.4f} <= {allow:.4f} "
                    f"(v_FD {v_fd:.4f}, Y0 {sol.Y0:.4f}), {elapsed:.1f}s")


def test_criterion_08_main_convergence(main_report):
    rep = main_report
    errs = [(r["error"]["value"], r["error"]["stderr"]) for r in rep.rows]
    mono = rep.flags["error_monotone"]
    final_ok = rep.flags["final_error_ok"]
    gaps = [g["gap"]["value"] for g in rep.drift_gap]
    halves = gaps[-1] <= 0.5 * gaps[0]
    ok = mono and final_ok and halves
    _verdict(8, ok, f"errors {[round(e, 4) for e, _ in errs]} monotone within "
                    f"1 stderr ({mono}), final <= {TOL['final_error']} "
                    f"({final_ok}); drift gap {gaps[0]:.4f} -> {gaps[-1]:.4f} "
                    f"halves ({halves})")


def test_criterion_09_continuity_spot_checks():
    cfg = _config(eps_list=[1.0], corrector=None)
    tab = conftest.flow_continuity_check(
        cfg, [[0.5, 0.0], [0.5, 0.5], [0.5, 0.75]])
    d1, d2 = tab[0]["dY0"], tab[1]["dY0"]
    shrink_ok = d2["value"] <= d1["value"] + \
        float(np.hypot(d1["stderr"], d2["stderr"]))
    cross = conftest.flow_continuity_check(
        cfg, [[-0.1, 0.0], [0.0, 0.0], [0.1, 0.0]])
    y0s = [(cross[0]["Y0_a"]["value"], cross[0]["Y0_a"]["stderr"]),
           (cross[0]["Y0_b"]["value"], cross[0]["Y0_b"]["stderr"]),
           (cross[1]["Y0_b"]["value"], cross[1]["Y0_b"]["stderr"])]
    k = TOL["interface_y0_spread_stderr"]
    # Y0 varies smoothly in x0, so the three values differ by O(|dx0|)
    # regardless of sample size; continuity across the interface means
    # no *jump*, i.e. the symmetric second difference is statistical noise
    jump = (y0s[2][0] - y0s[1][0]) - (y0s[1][0] - y0s[0][0])
    jump_se = float(np.sqrt(y0s[0][1] ** 2 + 4 * y0s[1][1] ** 2
                            + y0s[2][1] ** 2))
    cross_ok = abs(jump) <= k * jump_se
    ok = shrink_ok and cross_ok
    _verdict(9, ok, f"dY0 shrinks ({d1['value']:.4f} -> {d2['value']:.4f}); "
                    f"interface-crossing Y0 {[round(v, 4) for v, _ in y0s]} "
                    f"jump {jump:.4f} within {k} stderr ({cross_ok})")


def test_criterion_10_comparison_monotonicity():
    grid = hl.SimGrid(0.5, 50)
    summaries = []
    ok = True
    for fid in CATALOG_IDS:
        fam = hl.make_family(fid)
        avg = hl.build_averaged(fam)
        b = hl.simulate_avg(avg, [0.5, 0.0], grid, 10000,
                            seed=hl.split_seed(1000, "criterion10", fid))
        # sampled y-Lipschitz constant of the averaged driver
        ys = np.linspace(-2, 2, 81)
        fy = avg.driver(0.5, np.zeros((1, 1)))(ys[:, None])[:, 0]
        L = float(np.max(np.abs(np.diff(fy) / np.diff(ys))))
        spec = BsdeSpec(basis_degree=3, include_sign_feature=True)
        lifted = conftest.problem(
            avg, terminal=lambda x, H=avg.terminal: H(x) + 0.1)
        y0a = hl.solve_bsde(b, avg, spec)
        y0b = hl.solve_bsde(b, lifted, spec)
        dy = y0b.Y0 - y0a.Y0
        se = float(np.hypot(y0a.Y0_stderr, y0b.Y0_stderr))
        t = grid.t_end
        # 1e-9 slack: for a constant terminal with y-independent driver
        # both stderrs are exactly 0 and the bracket has zero width
        lo = 0.1 * np.exp(-L * t) - 3 * se - 1e-9
        hi = 0.1 * np.exp(L * t) + 3 * se + 1e-9
        ok = ok and lo <= dy <= hi
        summaries.append(f"{fid}:{dy:.4f}in[{lo:.3f},{hi:.3f}]")
    _verdict(10, ok, "H -> H + 0.1 raises Y0 within the comparison bracket; "
                     + " ".join(summaries))


def test_criterion_11_determinism(tmp_path):
    import filecmp
    doc_overrides = dict(eps_list=[1.0, 0.3],
                         mc={"n_paths": 1500, "n_steps": 25, "seed": 321},
                         corrector=None)
    cfg = _config(**doc_overrides)
    f1 = hl.emit(hl.run_convergence(cfg, n_workers=1), tmp_path / "t1",
                 ("csv", "json"))
    f2 = hl.emit(hl.run_convergence(cfg, n_workers=4), tmp_path / "t4",
                 ("csv", "json"))
    same = all(filecmp.cmp(a, b, shallow=False) for a, b in zip(f1, f2))
    _verdict(11, same, "1-worker and 4-worker reports byte-identical "
                       f"across {len(f1)} files")
