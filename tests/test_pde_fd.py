import json
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

import homoglab as hl
from homoglab import pde_fd
from homoglab.pde_fd import (Grid2D, PdeError, _step_matrix, richardson_error,
                             solve_pde)
from conftest import problem

# fd_corrector's refined grid: 301 x 153 nodes, 46,053 unknowns
FD_CORRECTOR_FINE = Grid2D(5.0, 3.0, 149, 75, 0.0125, 0.5).refined()


def constant_driver(c):
    """The driver f = c, in ``TemplateCoefficients.driver``'s contract."""
    return lambda x1, x2: lambda v: c + 0 * v


def heat_model():
    return problem(a00=lambda x1, x2: 0.5 + 0 * x1,
                   a1=lambda x1, x2: 0.5 + 0 * x1,
                   b1=lambda x1, x2: 0 * x1,
                   driver=constant_driver(0.0),
                   terminal=lambda x: np.exp(-(x[..., 0] ** 2
                                               + x[..., 1] ** 2)),
                   label="heat")


def jump_model():
    # a00 jumps from 1 to 2 across x1 = 0 (value 1 on the interface)
    return problem(a00=lambda x1, x2: np.where(x1 > 0, 2.0, 1.0),
                   a1=lambda x1, x2: 0.5 + 0.25 * x2,
                   b1=lambda x1, x2: 0.3 + 0 * x1,
                   driver=constant_driver(0.0),
                   terminal=lambda x: 0 * x[..., 0], label="jump")


def drift_model():
    # on the 5 x 3 grid (h2 = 1/2) a1/h2^2 = b1/(2 h2) = 2: every south
    # entry cs is an exact 0, which M drops
    return problem(a00=lambda x1, x2: 1.0 + 0 * x1,
                   a1=lambda x1, x2: 0.5 + 0 * x1,
                   b1=lambda x1, x2: 2.0 + 0 * x1,
                   driver=constant_driver(0.0),
                   terminal=lambda x: 0 * x[..., 0], label="drift")


def reference_operator(model, grid):
    """The reference construction of the operator A: the 5-point stencil's
    COO triplets of every interior row, summed into CSC by scipy; the
    boundary rows are empty.  Returns A and the mesh."""
    x1, x2 = grid.x1, grid.x2
    nx, ny = x1.size, x2.size
    X1, X2 = np.meshgrid(x1, x2, indexing="ij")

    def interior(coeff):
        return np.broadcast_to(np.asarray(coeff(X1, X2), dtype=float),
                               X1.shape)[1:-1, 1:-1]
    a00, a1, b1 = interior(model.a00), interior(model.a1), interior(model.b1)
    h1, h2 = grid.h1, grid.h2

    cw = ce = a00 / h1 ** 2
    cs = a1 / h2 ** 2 - b1 / (2 * h2)
    cn = a1 / h2 ** 2 + b1 / (2 * h2)
    diag = -(cw + ce) - 2 * a1 / h2 ** 2
    # per interior node (i, j), flat index i * ny + j: the west, east,
    # south, north and centre entries of its row
    r = (np.arange(1, nx - 1)[:, None] * ny + np.arange(1, ny - 1))[..., None]
    cols = r + np.array([-ny, ny, -1, 1, 0])
    rows = np.broadcast_to(r, cols.shape)
    vals = np.stack([cw, ce, cs, cn, diag], axis=-1)
    A = sparse.csc_matrix(
        (vals.ravel(), (rows.ravel(), cols.ravel())), shape=(nx * ny, nx * ny))
    return A, X1, X2


def reference_step_matrix(model, grid):
    """scipy's ``identity - dt*A`` of the reference operator."""
    A = reference_operator(model, grid)[0]
    return sparse.identity(A.shape[0], format="csc") - grid.dt_fd * A


@pytest.mark.parametrize("grid", [Grid2D(1.0, 1.0, 5, 3, 0.01, 0.1),
                                  FD_CORRECTOR_FINE],
                         ids=["5x3", "fd_corrector-refined"])
def test_step_matrix_is_the_reference_construction(
        grid, switch_family, switch_avg, slowvary_family):
    # M is written in place, bit for bit the CSC arrays of scipy's
    # identity - dt*A: int32 indices, rows sorted within each column,
    # boundary columns holding only their 1.0, exact zeros dropped
    slowvary = hl.build_averaged(slowvary_family)
    for model in (jump_model(), heat_model(), drift_model(), switch_avg,
                  switch_family.at(0.1), slowvary):
        want, got = reference_step_matrix(model, grid), _step_matrix(model,
                                                                     grid)
        assert got.format == "csc" and got.shape == want.shape
        for name in ("indptr", "indices", "data"):
            a, b = getattr(want, name), getattr(got, name)
            assert b.dtype == a.dtype and np.array_equal(b, a), \
                (model.label, name)
        assert got.has_sorted_indices and np.all(got.data != 0)


@pytest.mark.parametrize("interface_we", [(9.0, 9.0)],
                         ids=["centered-interface_we0"])
def test_operator_rows(interface_we):
    # x1 nodes -1, -2/3, ..., 1 (h1 = 1/3), x2 nodes -1, -1/2, ..., 1
    # (h2 = 1/2).  At the interface node x1 = 0 the centered scheme uses
    # a00(0) / h1^2 = 9 on both sides, not a mean over the jump.  The row
    # of M = I - dt*A holds -dt times the stencil, and 1 - dt*centre
    g = Grid2D(1.0, 1.0, 5, 3, 0.01, 0.1)
    M = _step_matrix(jump_model(), g)
    ny = g.n2 + 2
    for (i, j), (cw, ce) in (((3, 3), interface_we), ((1, 2), (9.0, 9.0))):
        a11 = 0.5 + 0.25 * g.x2[j]                  # 0.625, 0.5
        cs, cn = a11 * 4 - 0.3, a11 * 4 + 0.3       # a11/h2^2 -+ b1/(2 h2)
        r = i * ny + j
        row = M.getrow(r).toarray().ravel()
        expect = np.zeros_like(row)
        expect[[r - ny, r + ny, r - 1, r + 1, r]] = \
            [cw, ce, cs, cn, -(cw + ce) - 8 * a11]
        expect = -g.dt_fd * expect
        expect[r] += 1.0
        assert row == pytest.approx(expect, rel=1e-14, abs=1e-14), (i, j)


def test_dirichlet_step_rows(monkeypatch):
    # the matrix solve_pde factors, 7 x 5 nodes (flat index i * 5 + j):
    # each boundary row is the identity row (the node keeps its terminal
    # value), each interior row the row of I - dt*A, A the reference
    # operator
    g = Grid2D(1.0, 1.0, 5, 3, 0.01, 0.1)
    factored = []

    def capture(M, **kwargs):
        factored.append(M.toarray())
        return splu(M, **kwargs)
    monkeypatch.setattr(pde_fd, "splu", capture)
    solve_pde(jump_model(), g)
    (M,) = factored
    A = reference_operator(jump_model(), g)[0].toarray()
    nx, ny = g.n1 + 2, g.n2 + 2
    for i in range(nx):
        for j in range(ny):
            r = i * ny + j
            expect = np.zeros(nx * ny)
            if 0 < i < nx - 1 and 0 < j < ny - 1:
                expect = -g.dt_fd * A[r]
            expect[r] += 1.0
            assert np.array_equal(M[r], expect), (i, j)


def test_factor_takes_the_panel_constant_with_the_operator_released(
        monkeypatch):
    # solve_pde factors the M that _step_matrix built, with the module's
    # small panel width (SuperLU's default of 20 holds a workspace 20
    # columns wide), and releases M after the factorization: no time step
    # runs with it alive
    built, seen, stepped = [], [], []

    def step_matrix(*args, _fn=_step_matrix):
        M = _fn(*args)
        built.append(weakref.ref(M))
        return M

    class Factor:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            stepped.append(built[0]())
            return self.lu.solve(rhs)

    def capture(M, **kwargs):
        seen.append((kwargs, M is built[0]()))
        return Factor(splu(M, **kwargs))
    monkeypatch.setattr(pde_fd, "_step_matrix", step_matrix)
    monkeypatch.setattr(pde_fd, "splu", capture)
    solve_pde(jump_model(), Grid2D(1.0, 1.0, 5, 3, 0.01, 0.1))
    assert pde_fd._PANEL in (1, 2, 4)
    assert seen == [({"permc_spec": "MMD_AT_PLUS_A",
                      "panel_size": pde_fd._PANEL}, True)]
    assert stepped == [None] * 10


def test_only_m_is_alive_at_the_factorization(monkeypatch, slowvary_family):
    # on fd_corrector's refined grid, traced from the start of solve_pde
    # to the splu call: what is alive at the call is M's three arrays
    # (within 2 %), and building M peaked at no more than twice M.  The
    # COO operator and scipy's identity - dt*A held 4.01 MiB at the call
    # and peaked at 13.15 MiB, against M's 2.77 MiB
    model = hl.build_averaged(slowvary_family)
    pde_fd.load_solver()
    seen = {}

    class Stop(Exception):
        pass

    def record(M, **kwargs):
        current, peak = tracemalloc.get_traced_memory()
        seen.update(current=current - base, peak=peak - base,
                    M=M.data.nbytes + M.indices.nbytes + M.indptr.nbytes)
        raise Stop
    monkeypatch.setattr(pde_fd, "splu", record)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        with pytest.raises(Stop):
            solve_pde(model, FD_CORRECTOR_FINE)
    finally:
        if started:
            tracemalloc.stop()
    assert seen["M"] > 2.5 * 2 ** 20, seen      # M holds 2.77 MiB
    assert abs(seen["current"] - seen["M"]) <= 0.02 * seen["M"], seen
    assert seen["peak"] <= 2 * seen["M"], seen


def test_nonfinite_step_names_the_model_and_step():
    # a driver that overflows: the march refuses it by model and step, and
    # numpy warns of nothing first (a RuntimeWarning raised as an error
    # would otherwise take the PdeError's place)
    blowup = problem(heat_model(), label="blowup",
                     driver=lambda x1, x2: lambda v: 1e300 * (1 + v * v))
    g = Grid2D(1.0, 1.0, 5, 3, 0.01, 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PdeError) as exc:
            solve_pde(blowup, g)
    assert str(exc.value) == ("blowup: non-finite values after implicit "
                              "step 2 of 10")


def test_factorization_peak_is_the_factor():
    # one solve on the fd_corrector benchmark's refined grid (301 x 153
    # nodes), in a fresh process: splu's peak above its input is the
    # factor's own resident growth plus at most MARGIN MB.  Measured, the
    # factor grows 21.3-22.5 MB and the peak exceeds it by -0.6 to +1.7 MB
    # at widths 1, 2 and 4, by 6.7 MB at width 8 and by 15.1 MB at
    # SuperLU's default width of 20 (36.4 MB above the input).  The peak is
    # the process's own high-water mark, VmHWM: a child's ru_maxrss starts
    # at the high-water mark of the process that spawned it (Linux carries
    # it over the exec), here the test runner's
    script = """
import json
import homoglab as hl
from homoglab import pde_fd

def status(key):
    # the /proc/self/status line of key, in MB
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1]) / 1024

fam = hl.make_family("slowvary")
model = hl.build_averaged(fam)
grid = pde_fd.Grid2D(5.0, 3.0, 149, 75, 0.0125, 0.5).refined()
seen, splu = {}, pde_fd.splu

def measured(M, **kwargs):
    before = status("VmRSS")
    lu = splu(M, **kwargs)
    seen.update(factor=status("VmRSS") - before,
                peak=status("VmHWM") - before)
    return lu
pde_fd.splu = measured
pde_fd.solve_pde(model, grid)
print(json.dumps(seen))
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hl.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    MARGIN = 3.0
    assert seen["factor"] > 15.0, seen      # the factor holds ~21 MB
    assert seen["peak"] <= seen["factor"] + MARGIN, seen


@pytest.mark.parametrize("g", [Grid2D(4.0, 4.0, 41, 21, 0.025, 0.5),
                               Grid2D(5.0, 3.0, 199, 99, 0.003125, 0.5)],
                         ids=["centered-dirichlet", "demo-refined"])
def test_fd_matches_colamd_reference(switch_avg, g):
    # reference time loop: SuperLU's default COLAMD ordering and panel
    # width and the full driver f(x, v) on every step; solve_pde differs
    # only in round-off, also on the demo benchmark's refined grid
    # (201 x 101 nodes, 160 steps)
    A, X1, X2 = reference_operator(switch_avg, g)
    nx, ny = X1.shape
    lu = splu(sparse.identity(nx * ny, format="csc") - g.dt_fd * A,
              permc_spec="COLAMD")
    edge = np.ones((nx, ny), dtype=bool)
    edge[1:-1, 1:-1] = False
    v = h = switch_avg.terminal(np.stack([X1, X2], axis=-1))
    for _ in range(g.n_steps):
        rhs = v + g.dt_fd * switch_avg.f(X1, X2, v)
        rhs[edge] = h[edge]
        v = lu.solve(rhs.ravel()).reshape(nx, ny)
    got = solve_pde(switch_avg, g).values
    assert np.max(np.abs(got - v)) <= 1e-12 * np.max(np.abs(v))


def test_solve_pde_builds_driver_coefficient_once(switch_avg):
    # the driver is prepared once per solve and applied once per step
    calls = {"prepare": 0, "apply": 0}

    def counted_driver(x1, x2):
        calls["prepare"] += 1
        drive = switch_avg.driver(x1, x2)

        def apply(v):
            calls["apply"] += 1
            return drive(v)
        return apply
    solve_pde(problem(switch_avg, driver=counted_driver),
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
    # the eps problem is the family at its fast scale, fam.at(eps),
    # evaluated at (x1/eps, x2).  const and slowvary do not depend on the
    # fast variable, so it is the averaged problem, to the bit
    g = Grid2D(3.0, 3.0, 51, 27, 0.025, 0.25)
    for fid in ("const", "slowvary"):
        fam = hl.make_family(fid)
        va = solve_pde(hl.build_averaged(fam), g).values
        for eps in (1.0, 0.1):
            assert np.array_equal(solve_pde(fam.at(eps), g).values, va), \
                (fid, eps)


def test_solve_pde_labels_the_model(switch_avg, switch_family, tmp_path):
    # the averaged model keeps "averaged" (the pde.csv.json bytes of the
    # FD stage); a family at its fast scale is named by its eps, in the
    # solution and in the sidecar save_csv writes
    assert switch_avg.label == "averaged"
    g = Grid2D(2.0, 2.0, 11, 5, 0.05, 0.5)
    for eps, label in ((0.1, "eps=0.1"), (1.0, "eps=1.0"), (0.03, "eps=0.03")):
        sol = solve_pde(switch_family.at(eps), g)
        assert sol.model_label == label
    path = tmp_path / "eps.csv"
    sol.save_csv(path)
    with open(str(path) + ".json") as fh:
        assert json.load(fh)["model"] == "eps=0.03"


def test_richardson_second_order():
    m = heat_model()
    g = Grid2D(4.0, 4.0, 49, 49, 0.02, 0.2)
    coarse, fine, finest = (solve_pde(m, grid) for grid in
                            (g, g.refined(), g.refined().refined()))
    e1 = richardson_error(coarse, fine)
    e2 = richardson_error(fine, finest)
    assert e1 / e2 >= 3.0


def test_richardson_zero_for_constant_solution():
    m = problem(a00=lambda x1, x2: 0.5 + 0 * x1,
                a1=lambda x1, x2: 0.5 + 0 * x1,
                b1=lambda x1, x2: 0 * x1,
                driver=constant_driver(0.0),
                terminal=lambda x: np.ones_like(x[..., 0]), label="one")
    g = Grid2D(2.0, 2.0, 21, 21, 0.02, 0.2)
    assert richardson_error(solve_pde(m, g),
                            solve_pde(m, g.refined())) <= 1e-10


def test_averaged_switch_finite_richardson(switch_avg):
    g = Grid2D(4.0, 4.0, 81, 41, 0.025, 0.5)
    est = richardson_error(solve_pde(switch_avg, g),
                           solve_pde(switch_avg, g.refined()))
    assert np.isfinite(est) and est > 0


def test_richardson_refuses_a_fine_solution_off_the_refined_grid():
    # a fine solution on any grid but coarse.grid.refined() is refused
    # naming both grids, where the comparison would raise a bare numpy
    # broadcast error or compare nodes that do not coincide
    m = heat_model()
    g = Grid2D(2.0, 2.0, 5, 5, 0.05, 0.5)
    coarse = solve_pde(m, g)
    for other in (g, Grid2D(2.0, 2.0, 13, 11, 0.0125, 0.5),
                  Grid2D(2.0, 2.0, 11, 11, 0.05, 0.5)):
        with pytest.raises(PdeError) as exc:
            richardson_error(coarse, solve_pde(m, other))
        assert repr(other) in str(exc.value) and repr(g) in str(exc.value)


def test_interface_slope_continuity_centered(switch_avg):
    # the centered non-divergence scheme keeps dv/dx1 continuous at x1 = 0,
    # matching the time-changed-Brownian behaviour of the simulated limit
    g = Grid2D(5.0, 5.0, 201, 101, 0.025, 0.5)
    sol = solve_pde(switch_avg, g)
    i0 = g.n1 // 2 + 1                     # the interface column x1 = 0
    assert abs(g.x1[i0]) <= 1e-12
    v = sol.values
    left = (v[i0] - v[i0 - 1]) / g.h1
    right = (v[i0 + 1] - v[i0]) / g.h1
    slope_scale = np.max(np.abs(np.gradient(v, axis=0))) / g.h1
    assert np.max(np.abs(right - left)) <= 0.05 * slope_scale


def test_csv_emit(switch_avg, tmp_path):
    g = Grid2D(2.0, 2.0, 11, 11, 0.02, 0.2)
    sol = solve_pde(switch_avg, g)
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
