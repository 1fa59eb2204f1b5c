import numpy as np
import pytest

import homoglab as hl
from homoglab.corrector import (DecayTable, decay_table, residual_check,
                                second_difference)
from homoglab.families import nonincreasing
from homoglab.quadrature import integrate


def q(model, avg, t, x2, y):
    """The weighted driver gap rho * (f - fbar) at t of the two-scale
    ``model`` and its averaged model ``avg``."""
    t = np.asarray(t, dtype=float)
    return (model.rho_f_coef(t, x2) * model.f_y_shape(y)
            - model.rho(t, x2) * avg.driver(t, x2)(float(y)))


def corrector_value(pair, x1, x2, y):
    """The quadrature oracle of V(x1) = int_0^{x1} (x1 - t) q(t) dt for the
    ``(model, avg)`` pair, on panels of width pi * min(1, eps) to start,
    the t/eps oscillation scale."""
    if x1 == 0.0:
        return 0.0
    return integrate(lambda t: (x1 - t) * q(*pair, t, x2, y), 0.0, x1,
                     rtol=1e-8, max_panel=np.pi * min(1, pair[0].eps))


@pytest.fixture(scope="module")
def switch_pair(switch_family, switch_avg):
    return switch_family.at(0.5), switch_avg


def test_boundary_conditions(switch_pair):
    assert corrector_value(switch_pair, 0.0, [0.3], 0.2) == 0.0


def test_zero_for_fast_independent(slowvary_family):
    avg = hl.build_averaged(slowvary_family)
    pair = (slowvary_family.at(0.1), avg)
    # f depends on x1 only through nothing: q has no t-dependence beyond the
    # interpolation mismatch of the y-shape, which vanishes at grid y values
    for x1 in (0.5, -1.2):
        assert abs(corrector_value(pair, x1, [0.4], 0.0)) < 1e-10


def test_value_matches_brute_force_simpson(switch_family, switch_avg):
    # V(1) = int_0^1 (1 - t) q(t) dt on a fine Simpson grid
    from scipy.integrate import simpson
    pair = (switch_family.at(0.1), switch_avg)
    got = corrector_value(pair, 1.0, [0.0], 0.0)
    t = np.linspace(0.0, 1.0, 1_000_001)
    t[0] = 1e-13          # stay on the plus branch of fbar at the endpoint
    oracle = simpson((1.0 - t) * q(*pair, t, [0.0], 0.0), x=t)
    assert got == pytest.approx(oracle, rel=1e-6)


def test_value_decreases_with_eps(switch_family, switch_avg):
    vals = []
    for eps in (1.0, 0.1, 0.01):
        pair = (switch_family.at(eps), switch_avg)
        vals.append(abs(corrector_value(pair, 1.0, [0.0], 0.0)))
    assert vals[0] > vals[1] > vals[2]


def test_second_difference_approximates_ode_rhs(switch_pair):
    # a00 * V'' = f - fbar, so V'' should track q = rho (f - fbar)
    x1, y = 0.7, 0.2
    d2 = second_difference(*switch_pair, x1, [0.0], y, h=1e-4 * 0.5)
    q_x1 = float(q(*switch_pair, np.array([x1]), [0.0], y)[0])
    assert d2 == pytest.approx(q_x1, rel=1e-6, abs=1e-10)


def test_residual_check_passes_switch(switch_pair):
    rep = residual_check(*switch_pair, {
        "box": [(-2, 2), (-1, 1), (-1, 1)], "n_samples": 60, "seed": 5})
    assert rep.passed
    assert rep.max_residual <= 1e-4
    assert rep.n_points == 60


def test_residual_trivial_zero_driver(const_family):
    avg = hl.build_averaged(const_family)
    rep = residual_check(const_family.at(0.3), avg, {
        "box": [(-2, 2), (-1, 1), (-1, 1)], "n_samples": 20, "seed": 6})
    assert rep.max_residual <= 1e-10


def test_residual_second_order_in_h(switch_family, switch_avg):
    # at a large h truncation dominates the residual a00 * D2 V - (f - fbar)
    # at the 15 points residual_check samples for this box and seed, and
    # halving h quarters it
    model = switch_family.at(0.5)
    box = np.array([(0.5, 2), (-1, 1), (-1, 1)], dtype=float)
    pts = box[:, 0] + (box[:, 1] - box[:, 0]) \
        * np.random.default_rng(7).random((15, 3))

    def max_residual(h):
        return max(abs(model.a00(x1, x2)
                       * second_difference(model, switch_avg, x1, x2, y, h)
                       - (model.driver(x1, x2)(y)
                          - switch_avg.driver(x1, x2)(y)))
                   for x1, x2, y in pts)
    assert 3.0 <= max_residual(0.02) / max_residual(0.01) <= 5.0


def test_decay_table_switch(switch_family, switch_avg, tmp_path):
    table = decay_table(switch_family, [1.0, 0.3, 0.1, 0.03],
                        ((-2, 2), (-1, 1)), (-1, 1), n_grid=(21, 7, 7))
    table.to_csv(tmp_path / "decay.csv")
    assert isinstance(table, DecayTable)
    sup = [r.sup_V for r in table.rows]
    assert table.monotone_V
    assert sup[-1] <= 0.2 * sup[0]
    assert all(r.sup_beta >= 0 and r.sup_alpha >= 0 for r in table.rows)
    # beta remainder shrinks along the eps list (non-increasing within 5%)
    assert nonincreasing([r.sup_beta for r in table.rows])
    lines = (tmp_path / "decay.csv").read_text().splitlines()
    assert lines[0] == "eps,sup_V,sup_beta,sup_alpha,grid_spec"
    assert len(lines) == 5


def test_decay_table_zero_for_trivial(const_family, slowvary_family):
    # neither family's rho nor rho*f depends on x1, so every weight of the
    # driver gap and of the remainders is 0, and so is every cell
    for fam in (const_family, slowvary_family):
        table = decay_table(fam, [1.0, 0.1], ((-1, 1), (-1, 1)), (-1, 1),
                            n_grid=(11, 5, 5))
        for r in table.rows:
            assert (r.sup_V, r.sup_beta, r.sup_alpha) == (0.0, 0.0, 0.0), \
                (fam.family_id, r)


def test_decay_table_rejects_bad_eps_order(switch_family, switch_avg):
    with pytest.raises(ValueError):
        decay_table(switch_family, [0.1, 1.0],
                    ((-1, 1), (-1, 1)), (-1, 1), n_grid=(11, 5, 5))


def test_quadratic_growth_envelope(switch_family, switch_avg):
    # |V(x1)| <= C x1^2 (1 + |x2|^2 + |y|^2) with one fitted constant
    pair = (switch_family.at(0.5), switch_avg)
    pts = [(x1, x2, y) for x1 in (-2.0, -1.0, 0.5, 1.0, 2.0)
           for x2 in (-1.0, 0.5) for y in (-1.0, 0.8)]
    ratios = [abs(corrector_value(pair, x1, [x2], y))
              / (x1 ** 2 * (1 + x2 ** 2 + y ** 2)) for x1, x2, y in pts]
    C = max(ratios)
    assert np.isfinite(C) and C < 2.0


_GRID = dict(box=((-2, 2), (-1, 1)), y_box=(-1, 1), n_grid=(11, 5, 5))


def _grid_points():
    box, y_box, n_grid = _GRID["box"], _GRID["y_box"], _GRID["n_grid"]
    return (np.linspace(*box[0], n_grid[0]), np.linspace(*box[1], n_grid[1]),
            np.linspace(*y_box, n_grid[2]))


@pytest.mark.parametrize("eps", [1.0, 0.3, 0.1, 0.01, 1e-3])
def test_decay_table_sup_V_matches_corrector_value(switch_family, switch_avg,
                                                   eps):
    # the closed form of V against the quadrature of the iterated integral,
    # on the same (x1, x2, y) grid
    table = decay_table(switch_family, [eps], **_GRID)
    pair = (switch_family.at(eps), switch_avg)
    x1s, x2s, ys = _grid_points()
    ref = max(abs(corrector_value(pair, x1, x2, y))
              for x1 in x1s for x2 in x2s for y in ys)
    assert table.rows[0].sup_V == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("eps", [1.0, 0.3, 0.1, 0.01, 1e-3])
def test_decay_table_remainders_match_quadrature(switch_family, switch_avg,
                                                 eps):
    # sup_beta and sup_alpha against the quadrature of rho*f and rho from 0
    # to each far point |x1| >= sqrt(eps), over x1, less their Cesaro limits
    table = decay_table(switch_family, [eps], **_GRID)
    model = switch_family.at(eps)
    x1s, x2s, ys = _grid_points()
    shape = np.max(np.abs(switch_family.f_y_shape(ys)))
    sup_b = sup_a = 0.0
    for x1 in x1s[np.abs(x1s) >= np.sqrt(eps)]:
        for x2 in x2s:
            rhof, rho = (
                integrate(lambda t: g(t, x2), 0.0, x1, rtol=1e-8,
                          max_panel=np.pi * min(1, eps)) / x1
                for g in (model.rho_f_coef, model.rho))
            rhof_gap = rhof - switch_avg.rho_f_coef(x1, x2)
            sup_b = max(sup_b, shape * abs(rhof_gap))
            sup_a = max(sup_a, abs(rho - switch_avg.rho(x1, x2)))
    row = table.rows[0]
    assert row.sup_beta == pytest.approx(sup_b, rel=1e-12)
    assert row.sup_alpha == pytest.approx(sup_a, rel=1e-12)


def test_decay_table_tiny_eps_law(switch_family):
    # on the default block the rows stay finite and non-increasing down to
    # eps 1e-12, and sup V / eps grows like (2/pi) max|c1| max|shape| x_max
    # ln(1/eps): by 1.2144 from eps 1e-11 to 1e-12 (c1 = -0.3 on the minus
    # side, max|shape| = 1 + tanh(1)/2, x_max = 2)
    eps = [10.0 ** -k for k in range(13)]
    table = decay_table(switch_family, eps, ((-2, 2), (-1, 1)), (-1, 1),
                        n_grid=(21, 9, 9))
    for key in ("sup_V", "sup_beta", "sup_alpha"):
        col = [getattr(r, key) for r in table.rows]
        assert np.isfinite(col).all(), key
        assert nonincreasing(col), (key, col)
    sup_V = [r.sup_V for r in table.rows]
    step = (2.0 / np.pi) * 0.3 * (1.0 + 0.5 * np.tanh(1.0)) * 2.0 \
        * np.log(10.0)
    assert step == pytest.approx(1.2144, abs=1e-4)
    assert sup_V[12] / eps[12] - sup_V[11] / eps[11] == pytest.approx(
        step, abs=1e-3)
