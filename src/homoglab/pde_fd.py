"""Semi-implicit finite differences for the d = 1 parabolic problems.

Monte-Carlo-independent cross-check of the probabilistic solvers, run on
a model, the averaged one or a family at its fast scale ``fam.at(eps)``,
whose a00, a1, b1, driver, terminal and label it reads.  The averaged PDE has
discontinuous coefficients and is meant in the L^p-viscosity sense; it is
solved on one truncation, the Dirichlet box [-L1, L1] x [-L2, L2] whose
boundary holds the terminal data H for all time.  The operator matches the
generator of the simulated process,

    a00(x1, x2) d2/dx1^2 + a1(x1, x2) d2/dx2^2 + b1(x1, x2) d/dx2,

with no mixed term and no x1 drift (block diffusion structure).  Diffusion
and drift are implicit, the semi-linear driver explicit: the march is
IMEX-BDF2 (Ascher, Ruuth & Wetton, SIAM J. Numer. Anal. 1995), second order
in time, on the one step matrix M = I - tau*A, tau = 2*dt/3.  Its start is
three implicit Euler steps of tau on the same factor, which reach 2*dt
(``solve_pde``), so a solve takes n_steps + 1 pairs of triangular solves
and one factorization.  M (A's boundary rows are empty, so each boundary
row of M is the identity row) is written straight into CSC arrays, with no
A and no COO triplets formed (``_step_matrix``; its bits are those of
scipy's ``identity - tau*A``), and factored once, with a minimum-degree
ordering of M^T + M (the 5-point stencil is structurally symmetric but for
the boundary rows, and this ordering fills about half as much as SuperLU's
default COLAMD) and the diagonal pivot threshold ``_PIVOT`` = 0.1, a
constant, not a setting.  M is strictly row diagonally dominant where
a1/h2 >= |b1|/2, and there elimination needs no pivoting to be stable
(Higham, Accuracy and Stability of Numerical Algorithms, 2002, ch. 9).
The threshold keeps the diagonal pivot unless it is below a tenth of its
column's largest entry; strict pivoting, SuperLU's default, swaps rows
more often and fills more: on fd_corrector's refined grid (301 x 153
nodes) the factor holds 2.12M nonzeros at 0.1 against 2.54M strictly
pivoted, each solve is faster, and the solutions agree to round-off.
SuperLU factors a panel of columns at a time, with a workspace of about
16 bytes per unknown and panel column beside the growing factor.  At its
default width of 20, on a 301 x 153 node grid whose factor holds 21.3 MB,
the factorization peaked 36.4 MB above its input; at width 1, 21.4 MB.
Widths 1, 2 and 4 took the same time there and on 161k unknowns, and the
width moves the factor by round-off only (it reorders the column
updates), so it is the constant ``_PANEL``, not a setting.  The mesh on
which the coefficients are evaluated dies inside ``_step_matrix``, and M
is released after the factorization: while it runs, only M and the
growing factor are alive.  On that 301 x 153 grid, building M peaked at
4.8 MiB traced (M holds 2.77 MiB), against 13.2 MiB for the COO operator
and scipy's ``identity - tau*A``, which also kept 1.2 MiB besides M alive
through the factorization.
The driver is prepared once per solve (``model.driver`` evaluates its
x-dependent factor on the mesh and returns the map v -> f); each step
applies only that map.

Interface handling for discontinuous averaged a00 at x1 = 0: the centered
scheme discretizes the non-divergence operator directly, which enforces
continuity of dv/dx1 across the jump.  That is the behaviour of the
simulated process (a driftless diffusion is a time-changed Brownian
motion, so x itself is its scale function and harmonic profiles are linear
with matching slopes).  A conservation-form flux scheme would enforce
continuity of a00*dv/dx1 instead and would not match the Monte Carlo
representation when a00 jumps.  The row of the interface node reads the
averaged model at x1 = 0, where ``AveragedModel.basis`` takes the mean of
the two sides' bases: the row lumps the speed measure of both sides over
the node's cell (Etore, Electron. J. Probab. 2006), and the scheme is
second order in x1 there (with the node on either side alone it is first
order, its error set at that node).

SciPy (``scipy.sparse`` and its ``splu``) is this module's one dependency
beyond numpy, and it is imported on first use (``load_solver``), not with
the module: ``import homoglab`` loads numpy alone, and a config without an
fd block never loads SciPy.  ``ExperimentConfig.from_dict`` calls
``load_solver`` for a config with one, so such a run pays the import at
load, not inside its FD stage, and a missing SciPy is refused there.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np


# SuperLU's panel width: its workspace grows with the width, its speed did not
_PANEL = 1
# SuperLU's diagonal pivot threshold: the diagonal is the pivot while it is
# at least this fraction of its column's largest entry (1.0, the default,
# is strict partial pivoting, which fills more on the refined grids)
_PIVOT = 0.1


class PdeError(RuntimeError):
    """Grid construction or linear-solve failure."""


def load_solver():
    """``scipy.sparse``, with ``scipy.sparse.linalg`` imported (an
    ``ImportError`` when SciPy is missing or broken)."""
    import scipy.sparse.linalg
    return scipy.sparse


def splu(M, **kwargs):
    """``scipy.sparse.linalg.splu`` of M; ``solve_pde`` factors through
    this module-level name."""
    return load_solver().linalg.splu(M, **kwargs)


@dataclass(frozen=True)
class Grid2D:
    L1: float
    L2: float
    n1: int                  # interior nodes along x1 (odd, so 0 is a node)
    n2: int
    dt_fd: float
    t_end: float

    def __post_init__(self):
        # every grid rule; each message starts with the field it refuses
        if self.n1 < 1:
            raise PdeError(f"n1 must be at least 1, got {self.n1}")
        if self.n1 % 2 == 0:
            raise PdeError("n1 must be odd so that x1 = 0 is a grid node")
        if self.n2 < 3:
            raise PdeError(f"n2 must be at least 3, got {self.n2}")
        for name in ("L1", "L2"):
            if not getattr(self, name) > 0:
                raise PdeError(f"{name} must be positive")
        if not 0 < self.dt_fd <= self.t_end / 10:
            raise PdeError("dt_fd must be in (0, t_end / 10]")
        if not np.isfinite(self.t_end / self.dt_fd):
            raise PdeError("dt_fd must give a finite step count t_end / dt_fd")
        if abs(self.n_steps * self.dt_fd - self.t_end) > 1e-9 * self.t_end:
            raise PdeError("dt_fd must divide t_end")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt_fd))

    @property
    def x1(self) -> np.ndarray:
        return np.linspace(-self.L1, self.L1, self.n1 + 2)

    @property
    def x2(self) -> np.ndarray:
        return np.linspace(-self.L2, self.L2, self.n2 + 2)

    @property
    def h1(self) -> float:
        return 2.0 * self.L1 / (self.n1 + 1)

    @property
    def h2(self) -> float:
        return 2.0 * self.L2 / (self.n2 + 1)

    def contains(self, x1: float, x2: float) -> bool:
        """Whether (x1, x2) lies in the closed box [-L1, L1] x [-L2, L2]."""
        return bool(abs(x1) <= self.L1 and abs(x2) <= self.L2)

    def refined(self) -> "Grid2D":
        """Nested refinement by 2: old nodes are a subset of the new ones.

        h and dt halve.  The march is second order in time and the
        stencil in space, the interface node at x1 = 0 included, so both
        errors shrink by 4.  Measured over two refinements: on the demo
        benchmark's averaged switch model (99 x 49 nodes, dt 0.0125) the
        sup change falls from 8.25e-4 to 2.07e-4, an observed order of
        2.00 (2.01 at x0); on fd_corrector's slowvary grid (149 x 75) from
        2.96e-4 to 7.44e-5, order 1.99.  So the sup change is about 0.8 of
        the coarse grid's own sup error, 1/(1 + 2^-2).
        """
        return Grid2D(self.L1, self.L2, 2 * self.n1 + 1, 2 * self.n2 + 1,
                      self.dt_fd / 2, self.t_end)


@dataclass
class GridSolution:
    grid: Grid2D
    values: np.ndarray         # (n1+2, n2+2) final time slice
    model_label: str

    def at(self, x1: float, x2: float) -> float:
        """Bilinear interpolation inside the domain; a point outside it is
        refused, not extrapolated."""
        if not self.grid.contains(x1, x2):
            raise PdeError(f"({x1}, {x2}) lies outside the grid box "
                           f"[-{self.grid.L1}, {self.grid.L1}] x "
                           f"[-{self.grid.L2}, {self.grid.L2}]")
        xs, ys = self.grid.x1, self.grid.x2
        i = int(np.clip(np.searchsorted(xs, x1) - 1, 0, xs.size - 2))
        j = int(np.clip(np.searchsorted(ys, x2) - 1, 0, ys.size - 2))
        tx = (x1 - xs[i]) / (xs[i + 1] - xs[i])
        ty = (x2 - ys[j]) / (ys[j + 1] - ys[j])
        v = self.values
        return float((1 - tx) * (1 - ty) * v[i, j] + tx * (1 - ty) * v[i + 1, j]
                     + (1 - tx) * ty * v[i, j + 1] + tx * ty * v[i + 1, j + 1])

    def save_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x1", "x2", "v"])
            for i, a in enumerate(self.grid.x1):
                for j, b in enumerate(self.grid.x2):
                    w.writerow([f"{a:.10g}", f"{b:.10g}",
                                f"{self.values[i, j]:.12g}"])
        header = {"n1": self.grid.n1, "n2": self.grid.n2,
                  "L1": self.grid.L1, "L2": self.grid.L2,
                  "dt_fd": self.grid.dt_fd, "t_end": self.grid.t_end,
                  "boundary_mode": "dirichlet", "scheme": "centered",
                  "model": self.model_label}
        with open(str(path) + ".json", "w") as fh:
            json.dump(header, fh, sort_keys=True)


def _tau(grid: Grid2D) -> float:
    """The implicit coefficient of the BDF2 step, tau = 2*dt/3."""
    return 2.0 * grid.dt_fd / 3.0


def _step_matrix(model, grid: Grid2D):
    """The step matrix M = I - tau*A (``_tau``) over all nodes, in CSC,
    written in place: A's boundary rows are empty, so each boundary column
    of M holds only its identity 1.0.  Its bits are those of scipy's
    ``identity(N, format="csc") - tau * A`` for the CSC operator A of the
    5-point stencil: int32 indices, rows sorted within each column, exact
    zeros dropped.  The mesh dies here; only M leaves."""
    nx, ny = grid.n1 + 2, grid.n2 + 2
    X1, X2 = np.meshgrid(grid.x1, grid.x2, indexing="ij")

    def interior(coeff):
        return np.broadcast_to(np.asarray(coeff(X1, X2), dtype=float),
                               X1.shape)[1:-1, 1:-1]
    a00, a1, b1 = interior(model.a00), interior(model.a1), interior(model.b1)
    del X1, X2
    h1, h2 = grid.h1, grid.h2

    cw = ce = a00 / h1 ** 2
    cs = a1 / h2 ** 2 - b1 / (2 * h2)
    cn = a1 / h2 ** 2 + b1 / (2 * h2)
    diag = -(cw + ce) - 2 * a1 / h2 ** 2
    # column (i, j), flat index c = i * ny + j, holds rows c - ny, c - 1,
    # c, c + 1 and c + ny: the east, north, centre, south and west entries
    # of the interior rows among them (0 where the row is a boundary row)
    mtau = -_tau(grid)
    vals = np.zeros((nx, ny, 5))
    vals[2:, 1:-1, 0] = mtau * ce
    vals[1:-1, 2:, 1] = mtau * cn
    vals[:, :, 2] = 1.0
    vals[1:-1, 1:-1, 2] += mtau * diag
    vals[1:-1, :-2, 3] = mtau * cs
    vals[:-2, 1:-1, 4] = mtau * cw
    del cw, ce, cs, cn, diag
    n = nx * ny
    vals = vals.reshape(n, 5)
    keep = vals != 0
    # M's data is taken while vals and the coefficients are alive, so it
    # cannot fill the space they leave: it is mapped on its own and goes
    # back to the system when M dies, and SuperLU's allocations reuse that
    # space instead (fd_corrector's peak read 90.4-90.5 MB this way, 91.0-
    # 91.1 MB with the coefficients released first)
    data = vals[keep]
    del vals, a00, a1, b1
    offsets = np.array([-ny, -1, 0, 1, ny], dtype=np.int32)
    indices = (np.arange(n, dtype=np.int32)[:, None] + offsets)[keep]
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=1, dtype=np.int32), out=indptr[1:])
    return load_solver().csc_matrix((data, indices, indptr), shape=(n, n))


def solve_pde(model, grid: Grid2D) -> GridSolution:
    """March the terminal-value problem of ``model`` backward over
    [0, t_end].

    In the time-to-maturity variable the problem is a forward heat flow
    from v(0) = H (``model.terminal``); the reported slice is remaining
    time t_end, so values[i, j] ~ v(0, x) for terminal data at t_end.
    The boundary nodes keep H throughout.  The march is IMEX-BDF2 on the
    one factor of M = I - tau*A, tau = 2*dt/3: three implicit Euler steps
    of tau reach t = 2*dt (3*tau = 2*dt), v(dt) is the mean of the first
    two (dt = 1.5*tau is their midpoint), and from there

        M v^{n+1} = (4 v^n - v^{n-1})/3 + tau*(2 f(v^n) - f(v^{n-1})),

    n_steps + 1 solves in all.  M is the only array alive while ``splu``
    factors it, and it is released after; the mesh the terminal data and
    driver read is built after the factorization.  A solve whose values
    are not all finite is refused with a ``PdeError`` naming the model and
    the step of dt that the solve lands in.
    """
    M = _step_matrix(model, grid)
    try:
        lu = splu(M, permc_spec="MMD_AT_PLUS_A", panel_size=_PANEL,
                  diag_pivot_thresh=_PIVOT)
    except RuntimeError as exc:
        raise PdeError(f"implicit-step factorization failed: {exc}") from exc
    del M

    X1, X2 = np.meshgrid(grid.x1, grid.x2, indexing="ij")
    nx, ny = X1.shape
    v = np.asarray(model.terminal(np.stack([X1, X2], axis=-1)), dtype=float)
    drive = model.driver(X1, X2)
    del X1, X2
    boundary = np.ones((nx, ny), dtype=bool)
    boundary[1:-1, 1:-1] = False
    bidx = np.flatnonzero(boundary)
    bvals = v.ravel()[bidx]
    tau = _tau(grid)

    def solve(rhs, k):
        rhs = rhs.ravel()
        rhs[bidx] = bvals
        out = lu.solve(rhs).reshape(nx, ny)
        if not np.all(np.isfinite(out)):
            raise PdeError(f"{model.label}: non-finite values after "
                           f"implicit step {k} of {grid.n_steps}")
        return out

    # an overflowing driver is refused by the finiteness check, by name,
    # not first warned about by numpy
    with np.errstate(over="ignore", invalid="ignore"):
        # the start's three Euler steps land at 2/3, 4/3 and 2 dt (steps 1,
        # 2 and 2); v(dt), at 1.5 tau, is the mean of the first two
        w1 = solve(v + tau * drive(v), 1)
        w2 = solve(w1 + tau * drive(w1), 2)
        prev, v = 0.5 * (w1 + w2), solve(w2 + tau * drive(w2), 2)
        del w1, w2
        f_prev = drive(prev)
        for k in range(3, grid.n_steps + 1):
            f = drive(v)
            rhs = (4.0 * v - prev) / 3.0 + tau * (2.0 * f - f_prev)
            prev, f_prev = v, f
            v = solve(rhs, k)
    return GridSolution(grid=grid, values=v, model_label=model.label)


def richardson_error(coarse: GridSolution, fine: GridSolution) -> float:
    """Sup-norm change under one nested refinement by 2 (``Grid2D.refined``:
    h and dt halve), over the coarse grid's nodes: ``fine`` is the
    solution on ``coarse.grid.refined()``.  Nothing is solved here."""
    if fine.grid != coarse.grid.refined():
        raise PdeError(f"the fine solution's grid {fine.grid} is not the "
                       f"refinement of the coarse grid {coarse.grid}")
    return float(np.max(np.abs(coarse.values - fine.values[::2, ::2])))
