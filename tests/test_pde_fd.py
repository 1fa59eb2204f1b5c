import dataclasses

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

import homoglab as hl
from homoglab import pde_fd
from homoglab.pde_fd import (Grid2D, PdeError, PdeModel, _assemble,
                             richardson_error, solve_pde)


def constant_driver(c):
    """The driver f = c, in ``PdeModel.driver``'s contract."""
    return lambda x1, x2: lambda v: c + 0 * v


def heat_model():
    return PdeModel(a00=lambda x1, x2: 0.5 + 0 * x1,
                    a11=lambda x1, x2: 0.5 + 0 * x1,
                    b1=lambda x1, x2: 0 * x1,
                    driver=constant_driver(0.0),
                    H=lambda x1, x2: np.exp(-(x1 ** 2 + x2 ** 2)),
                    label="heat")


def jump_model():
    # a00 jumps from 1 to 2 across x1 = 0 (value 1 on the interface)
    return PdeModel(a00=lambda x1, x2: np.where(x1 > 0, 2.0, 1.0),
                    a11=lambda x1, x2: 0.5 + 0.25 * x2,
                    b1=lambda x1, x2: 0.3 + 0 * x1,
                    driver=constant_driver(0.0),
                    H=lambda x1, x2: 0 * x1, label="jump")


@pytest.mark.parametrize("interface_we", [(9.0, 9.0)],
                         ids=["centered-interface_we0"])
def test_operator_rows(interface_we):
    # x1 nodes -1, -2/3, ..., 1 (h1 = 1/3), x2 nodes -1, -1/2, ..., 1
    # (h2 = 1/2).  At the interface node x1 = 0 the centered scheme uses
    # a00(0) / h1^2 = 9 on both sides, not a mean over the jump.
    g = Grid2D(1.0, 1.0, 5, 3, 0.01, 0.1)
    A, _, _ = _assemble(jump_model(), g)
    ny = g.n2 + 2
    for (i, j), (cw, ce) in (((3, 3), interface_we), ((1, 2), (9.0, 9.0))):
        a11 = 0.5 + 0.25 * g.x2[j]                  # 0.625, 0.5
        cs, cn = a11 * 4 - 0.3, a11 * 4 + 0.3       # a11/h2^2 -+ b1/(2 h2)
        r = i * ny + j
        row = A.getrow(r).toarray().ravel()
        expect = np.zeros_like(row)
        expect[[r - ny, r + ny, r - 1, r + 1, r]] = \
            [cw, ce, cs, cn, -(cw + ce) - 8 * a11]
        assert row == pytest.approx(expect, rel=1e-14, abs=1e-14), (i, j)


def test_dirichlet_step_rows(monkeypatch):
    # the matrix solve_pde factors, 7 x 5 nodes (flat index i * 5 + j):
    # each boundary row is the identity row (the node keeps its terminal
    # value), each interior row the row of I - dt*A
    g = Grid2D(1.0, 1.0, 5, 3, 0.01, 0.1)
    factored = []

    def capture(M, **kwargs):
        factored.append(M.toarray())
        return splu(M, **kwargs)
    monkeypatch.setattr(pde_fd, "splu", capture)
    solve_pde(jump_model(), g)
    (M,) = factored
    A = _assemble(jump_model(), g)[0].toarray()
    nx, ny = g.n1 + 2, g.n2 + 2
    for i in range(nx):
        for j in range(ny):
            r = i * ny + j
            expect = np.zeros(nx * ny)
            if 0 < i < nx - 1 and 0 < j < ny - 1:
                expect = -g.dt_fd * A[r]
            expect[r] += 1.0
            assert np.array_equal(M[r], expect), (i, j)


@pytest.mark.parametrize("g", [Grid2D(4.0, 4.0, 41, 21, 0.025, 0.5)],
                         ids=["centered-dirichlet"])
def test_fd_matches_colamd_reference(switch_avg, switch_family, g):
    # reference time loop: SuperLU's default COLAMD ordering and the full
    # driver f(x, v) on every step; solve_pde differs only in round-off
    m = PdeModel.from_averaged(switch_avg, switch_family.terminal)
    A, X1, X2 = _assemble(m, g)
    nx, ny = X1.shape
    lu = splu(sparse.identity(nx * ny, format="csc") - g.dt_fd * A,
              permc_spec="COLAMD")
    edge = np.ones((nx, ny), dtype=bool)
    edge[1:-1, 1:-1] = False
    v = h = m.H(X1, X2)
    for _ in range(20):
        rhs = v + g.dt_fd * switch_avg.f(X1, X2[..., None], v)
        rhs[edge] = h[edge]
        v = lu.solve(rhs.ravel()).reshape(nx, ny)
    got = solve_pde(m, g).values
    assert np.max(np.abs(got - v)) <= 1e-12 * np.max(np.abs(v))


def test_solve_pde_builds_driver_coefficient_once(switch_avg, switch_family):
    # the driver is prepared once per solve and applied once per step
    calls = {"prepare": 0, "apply": 0}
    m = PdeModel.from_averaged(switch_avg, switch_family.terminal)

    def counted_driver(x1, x2):
        calls["prepare"] += 1
        drive = m.driver(x1, x2)

        def apply(v):
            calls["apply"] += 1
            return drive(v)
        return apply
    solve_pde(dataclasses.replace(m, driver=counted_driver),
              Grid2D(2.0, 2.0, 11, 11, 0.02, 0.2))
    assert calls == {"prepare": 1, "apply": 10}


def test_grid_validation():
    with pytest.raises(PdeError):
        Grid2D(1.0, 1.0, 10, 11, 0.01, 1.0)       # even n1: no 0 node
    with pytest.raises(PdeError):
        Grid2D(1.0, 1.0, 11, 11, 0.5, 1.0)        # dt too large
    for n1 in (-1, -3):                            # odd, but no nodes
        with pytest.raises(PdeError, match="n1 must be at least 1"):
            Grid2D(1.0, 1.0, n1, 11, 0.01, 1.0)
    for args, message in (
            ((1.0, 1.0, 11, 2, 0.01, 1.0), "n2 must be at least 3"),
            ((0.0, 1.0, 11, 11, 0.01, 1.0), "L1 must be positive"),
            ((1.0, -1.0, 11, 11, 0.01, 1.0), "L2 must be positive"),
            ((1.0, 1.0, 11, 11, 0.03, 1.0), "dt_fd must divide t_end"),
            # t_end / dt_fd overflows to inf: no step count
            ((1.0, 1.0, 11, 11, 1e-320, 0.5), "dt_fd must give a finite"),
            ((1.0, 1.0, 11, 11, 1e-10, 1e308), "dt_fd must give a finite")):
        with pytest.raises(PdeError, match=message):
            Grid2D(*args)
    g = Grid2D(2.0, 1.0, 11, 5, 0.05, 1.0)
    assert 0.0 in g.x1
    assert g.x1.size == 13


def test_refined_grid_is_nested():
    g = Grid2D(2.0, 2.0, 11, 7, 0.05, 1.0)
    f = g.refined()
    assert f.n1 == 23 and f.n2 == 15
    assert np.allclose(f.x1[::2], g.x1)


def test_heat_kernel_oracle():
    # Gaussian bump H, constant isotropic diffusion: closed-form convolution
    t_end = 0.25
    g = Grid2D(4.0, 4.0, 199, 199, 0.0025, t_end)
    sol = solve_pde(heat_model(), g)
    s2 = 2 * 0.5 * t_end
    X1, X2 = np.meshgrid(g.x1, g.x2, indexing="ij")
    exact = (1 / (1 + 2 * s2)) * np.exp(-(X1 ** 2 + X2 ** 2) / (1 + 2 * s2))
    assert np.max(np.abs(sol.values - exact)) <= 1e-3


def test_maximum_principle():
    g = Grid2D(3.0, 3.0, 61, 61, 0.02, 0.4)
    sol = solve_pde(heat_model(), g)
    assert sol.values.min() >= -1e-12
    assert sol.values.max() <= 1.0 + 1e-12


def test_eps_form_equals_averaged_for_slow_family():
    # the eps problem through the one constructor: the family at its fast
    # scale, fam.at(eps), evaluated at (x1/eps, x2).  const and slowvary do
    # not depend on the fast variable, so it is the averaged problem, to
    # the bit
    g = Grid2D(3.0, 3.0, 51, 27, 0.025, 0.25)
    for fid in ("const", "slowvary"):
        fam = hl.make_family(fid)
        va = solve_pde(PdeModel.from_averaged(hl.build_averaged(fam),
                                              fam.terminal), g).values
        for eps in (1.0, 0.1):
            me = PdeModel.from_averaged(fam.at(eps), fam.terminal)
            assert np.array_equal(solve_pde(me, g).values, va), (fid, eps)


def test_richardson_second_order():
    m = heat_model()
    g = Grid2D(4.0, 4.0, 49, 49, 0.02, 0.2)
    e1 = richardson_error(m, solve_pde(m, g))
    e2 = richardson_error(m, solve_pde(m, g.refined()))
    assert e1 / e2 >= 3.0


def test_richardson_zero_for_constant_solution():
    m = PdeModel(a00=lambda x1, x2: 0.5 + 0 * x1,
                 a11=lambda x1, x2: 0.5 + 0 * x1,
                 b1=lambda x1, x2: 0 * x1,
                 driver=constant_driver(0.0),
                 H=lambda x1, x2: np.ones_like(x1), label="one")
    g = Grid2D(2.0, 2.0, 21, 21, 0.02, 0.2)
    assert richardson_error(m, solve_pde(m, g)) <= 1e-10


def test_averaged_switch_finite_richardson(switch_avg, switch_family):
    m = PdeModel.from_averaged(switch_avg, switch_family.terminal)
    g = Grid2D(4.0, 4.0, 81, 41, 0.025, 0.5)
    est = richardson_error(m, solve_pde(m, g))
    assert np.isfinite(est) and est > 0


def test_interface_slope_continuity_centered(switch_avg, switch_family):
    # the centered non-divergence scheme keeps dv/dx1 continuous at x1 = 0,
    # matching the time-changed-Brownian behaviour of the simulated limit
    m = PdeModel.from_averaged(switch_avg, switch_family.terminal)
    g = Grid2D(5.0, 5.0, 201, 101, 0.025, 0.5)
    sol = solve_pde(m, g)
    i0 = g.n1 // 2 + 1                     # the interface column x1 = 0
    assert abs(g.x1[i0]) <= 1e-12
    v = sol.values
    left = (v[i0] - v[i0 - 1]) / g.h1
    right = (v[i0 + 1] - v[i0]) / g.h1
    slope_scale = np.max(np.abs(np.gradient(v, axis=0))) / g.h1
    assert np.max(np.abs(right - left)) <= 0.05 * slope_scale


def test_csv_emit(switch_avg, switch_family, tmp_path):
    m = PdeModel.from_averaged(switch_avg, switch_family.terminal)
    g = Grid2D(2.0, 2.0, 11, 11, 0.02, 0.2)
    sol = solve_pde(m, g)
    p = tmp_path / "grid.csv"
    sol.save_csv(p)
    lines = p.read_text().splitlines()
    assert lines[0] == "x1,x2,v"
    assert len(lines) == 1 + 13 * 13
    import json
    hdr = json.loads((tmp_path / "grid.csv.json").read_text())
    assert hdr["scheme"] == "centered"


def test_bilinear_interpolation_consistency():
    g = Grid2D(2.0, 2.0, 21, 21, 0.02, 0.2)
    sol = solve_pde(heat_model(), g)
    i, j = 5, 7
    assert sol.at(g.x1[i], g.x2[j]) == pytest.approx(sol.values[i, j])


def test_at_refuses_points_outside_the_grid():
    # inside the closed box, corners included, at() interpolates; outside
    # it used to clip the cell index and extrapolate past the boundary
    g = Grid2D(2.0, 1.0, 21, 11, 0.02, 0.2)
    sol = solve_pde(heat_model(), g)
    assert sol.at(-2.0, -1.0) == sol.values[0, 0]
    assert sol.at(2.0, 1.0) == sol.values[-1, -1]
    for x1, x2 in ((2.5, 0.0), (-2.01, 0.0), (0.0, 1.5), (0.0, -3.0),
                   (float("nan"), 0.0)):
        with pytest.raises(PdeError, match="outside the grid box"):
            sol.at(x1, x2)
