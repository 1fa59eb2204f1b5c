import numpy as np
import pytest

import homoglab as hl
from homoglab.corrector import (CorrectorField, DecayTable, corrector_value,
                                decay_table, residual_check, second_difference)
from homoglab.families import nonincreasing


@pytest.fixture(scope="module")
def switch_field(switch_family, switch_avg):
    return CorrectorField(switch_family.at(0.5), switch_avg)


def test_boundary_conditions(switch_field):
    assert corrector_value(switch_field, 0.0, [0.3], 0.2) == 0.0


def test_zero_for_fast_independent(slowvary_family):
    avg = hl.build_averaged(slowvary_family)
    field = CorrectorField(slowvary_family.at(0.1), avg)
    # f depends on x1 only through nothing: q has no t-dependence beyond the
    # interpolation mismatch of the y-shape, which vanishes at grid y values
    for x1 in (0.5, -1.2):
        assert abs(corrector_value(field, x1, [0.4], 0.0)) < 1e-10


def test_value_matches_brute_force_simpson(switch_family, switch_avg):
    # V(1) = int_0^1 (1 - t) q(t) dt on a fine Simpson grid
    from scipy.integrate import simpson
    field = CorrectorField(switch_family.at(0.1), switch_avg)
    got = corrector_value(field, 1.0, [0.0], 0.0)
    t = np.linspace(0.0, 1.0, 1_000_001)
    t[0] = 1e-13          # stay on the plus branch of fbar at the endpoint
    oracle = simpson((1.0 - t) * field.q(t, [0.0], 0.0), x=t)
    assert got == pytest.approx(oracle, rel=1e-6)


def test_value_decreases_with_eps(switch_family, switch_avg):
    vals = []
    for eps in (1.0, 0.1, 0.01):
        f = CorrectorField(switch_family.at(eps), switch_avg)
        vals.append(abs(corrector_value(f, 1.0, [0.0], 0.0)))
    assert vals[0] > vals[1] > vals[2]


def test_second_difference_approximates_ode_rhs(switch_field):
    # a00 * V'' = f - fbar, so V'' should track q = rho (f - fbar)
    x1, y = 0.7, 0.2
    d2 = second_difference(switch_field, x1, [0.0], y, h=1e-4 * 0.5)
    q = float(switch_field.q(np.array([x1]), [0.0], y)[0])
    assert d2 == pytest.approx(q, rel=1e-6, abs=1e-10)


def test_residual_check_passes_switch(switch_field):
    rep = residual_check(switch_field, {
        "box": [(-2, 2), (-1, 1), (-1, 1)], "n_samples": 60, "seed": 5})
    assert rep.passed
    assert rep.max_residual <= 1e-4
    assert rep.n_points == 60


def test_residual_trivial_zero_driver(const_family):
    avg = hl.build_averaged(const_family)
    field = CorrectorField(const_family.at(0.3), avg)
    rep = residual_check(field, {
        "box": [(-2, 2), (-1, 1), (-1, 1)], "n_samples": 20, "seed": 6})
    assert rep.max_residual <= 1e-10


def test_residual_second_order_in_h(switch_family, switch_avg):
    # use a large h so truncation dominates, then halve it
    field = CorrectorField(switch_family.at(0.5), switch_avg)
    spec = {"box": [(0.5, 2), (-1, 1), (-1, 1)], "n_samples": 15, "seed": 7}
    r1 = residual_check(field, dict(spec, h=0.02))
    r2 = residual_check(field, dict(spec, h=0.01))
    assert 3.0 <= r1.max_residual / r2.max_residual <= 5.0


def test_decay_table_switch(switch_family, switch_avg, tmp_path):
    table = decay_table(switch_family, switch_avg, [1.0, 0.3, 0.1, 0.03],
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


def test_decay_table_zero_for_trivial(const_family):
    avg = hl.build_averaged(const_family)
    table = decay_table(const_family, avg, [1.0, 0.1], ((-1, 1), (-1, 1)),
                        (-1, 1), n_grid=(11, 5, 5))
    assert all(r.sup_V == 0.0 for r in table.rows)


def test_decay_table_rejects_bad_eps_order(switch_family, switch_avg):
    with pytest.raises(ValueError):
        decay_table(switch_family, switch_avg, [0.1, 1.0],
                    ((-1, 1), (-1, 1)), (-1, 1), n_grid=(11, 5, 5))


def test_quadratic_growth_envelope(switch_family, switch_avg):
    # |V(x1)| <= C x1^2 (1 + |x2|^2 + |y|^2) with one fitted constant
    field = CorrectorField(switch_family.at(0.5), switch_avg)
    pts = [(x1, x2, y) for x1 in (-2.0, -1.0, 0.5, 1.0, 2.0)
           for x2 in (-1.0, 0.5) for y in (-1.0, 0.8)]
    ratios = [abs(corrector_value(field, x1, [x2], y))
              / (x1 ** 2 * (1 + x2 ** 2 + y ** 2)) for x1, x2, y in pts]
    C = max(ratios)
    assert np.isfinite(C) and C < 2.0


@pytest.mark.parametrize("eps", [1.0, 0.3])
def test_decay_table_sup_V_matches_corrector_value(switch_family, switch_avg,
                                                   eps):
    # the two implementations of V: decay_table's cumulative x1*Q1 - Qt
    # and the pointwise iterated integral, on the same (x1, x2, y) grid
    box, y_box, n_grid = ((-2, 2), (-1, 1)), (-1, 1), (11, 5, 5)
    table = decay_table(switch_family, switch_avg, [eps], box, y_box,
                        n_grid=n_grid)
    field = CorrectorField(switch_family.at(eps), switch_avg)
    ref = max(abs(corrector_value(field, x1, [x2], y))
              for x1 in np.linspace(*box[0], n_grid[0])
              for x2 in np.linspace(*box[1], n_grid[1])
              for y in np.linspace(*y_box, n_grid[2]))
    assert table.rows[0].sup_V == pytest.approx(ref, rel=1e-9)
