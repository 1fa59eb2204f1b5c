"""Semi-implicit finite differences for the d = 1 parabolic problems.

Monte-Carlo-independent cross-check of the probabilistic solvers, run on
the averaged model (``PdeModel.from_averaged``).  The operator matches the
generator of the simulated process,

    a00(x1, x2) d2/dx1^2 + a11(x1, x2) d2/dx2^2 + b1(x1, x2) d/dx2,

with no mixed term and no x1 drift (block diffusion structure).  Diffusion
and drift are implicit, the semi-linear driver explicit.  The step matrix
M = I - dt*A is built once in CSC and factored once, with a minimum-degree
ordering of M^T + M (the 5-point stencil is structurally symmetric but for
the boundary rows, and this ordering fills about half as much as SuperLU's
default COLAMD); every time step is then one pair of triangular solves.
The driver is prepared once per solve (``PdeModel.driver`` evaluates its
x-dependent factor on the mesh and returns the map v -> f); each step
applies only that map.

Interface handling for discontinuous averaged a00 at x1 = 0: the default
"centered" scheme discretizes the non-divergence operator directly, which
enforces continuity of dv/dx1 across the jump.  That is the behaviour of
the simulated process (a driftless diffusion is a time-changed Brownian
motion, so x itself is its scale function and harmonic profiles are linear
with matching slopes).  A conservation-form "harmonic" flux scheme is kept
as an option for comparison; it enforces continuity of a00*dv/dx1 instead
and does NOT match the Monte Carlo representation when a00 jumps.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu


class PdeError(RuntimeError):
    """Grid construction or linear-solve failure."""


@dataclass(frozen=True)
class Grid2D:
    L1: float
    L2: float
    n1: int                  # interior nodes along x1 (odd, so 0 is a node)
    n2: int
    dt_fd: float
    t_end: float

    def __post_init__(self):
        if self.n1 < 1:
            raise PdeError(f"n1 must be at least 1, got {self.n1}")
        if self.n1 % 2 == 0:
            raise PdeError("n1 must be odd so that x1 = 0 is a grid node")
        if not (self.L1 > 0 and self.L2 > 0 and self.n2 >= 3):
            raise PdeError("bad domain spec")
        if not 0 < self.dt_fd <= self.t_end / 10:
            raise PdeError("need 0 < dt_fd <= t_end / 10")

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

    def refined(self, factor: int = 2) -> "Grid2D":
        """Nested refinement: old nodes are a subset of the new ones.

        dt shrinks by factor^2 so the first-order time error refines at
        the same rate as the second-order spatial error.
        """
        return Grid2D(self.L1, self.L2,
                      factor * (self.n1 + 1) - 1, factor * (self.n2 + 1) - 1,
                      self.dt_fd / factor ** 2, self.t_end)


@dataclass
class PdeModel:
    """Coefficient callables on (x1, x2) meshes.

    ``driver(x1, x2)`` returns the map ``v -> f`` on that mesh, as
    ``BsdeSpec.driver``.  ``from_averaged`` builds the averaged model's.
    """
    a00: Callable
    a11: Callable
    b1: Callable
    driver: Callable
    H: Callable
    label: str = "custom"

    @classmethod
    def from_averaged(cls, avg, H) -> "PdeModel":
        if avg.d != 1:
            raise PdeError("FD solver is d = 1 only")

        def pack(x1, x2):
            return x1, x2[..., None]

        return cls(
            a00=lambda x1, x2: avg.a00(*pack(x1, x2)),
            a11=lambda x1, x2: avg.a1(*pack(x1, x2))[..., 0, 0],
            b1=lambda x1, x2: avg.b1(*pack(x1, x2))[..., 0],
            driver=lambda x1, x2: avg.driver(*pack(x1, x2)),
            H=lambda x1, x2: H(np.stack([x1, x2], axis=-1)),
            label="averaged")


@dataclass
class GridSolution:
    grid: Grid2D
    values: np.ndarray         # (n1+2, n2+2) final time slice
    boundary_mode: str
    scheme: str
    model_label: str

    def at(self, x1: float, x2: float) -> float:
        """Bilinear interpolation inside the domain."""
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
                  "boundary_mode": self.boundary_mode, "scheme": self.scheme,
                  "model": self.model_label}
        with open(str(path) + ".json", "w") as fh:
            json.dump(header, fh, sort_keys=True)


def _assemble(model: PdeModel, grid: Grid2D, scheme: str):
    """Sparse operator A (CSC) over all nodes, boundary rows left empty."""
    x1, x2 = grid.x1, grid.x2
    nx, ny = x1.size, x2.size
    X1, X2 = np.meshgrid(x1, x2, indexing="ij")

    def on(coeff, M1, M2):
        return np.broadcast_to(np.asarray(coeff(M1, M2), dtype=float),
                               M1.shape)
    a00 = on(model.a00, X1, X2)
    a11 = on(model.a11, X1, X2)[1:-1, 1:-1]
    b1 = on(model.b1, X1, X2)[1:-1, 1:-1]
    h1, h2 = grid.h1, grid.h2

    if scheme == "harmonic":
        # conservation-form x1 flux with harmonic half-node coefficients
        ah = on(model.a00, *np.meshgrid(0.5 * (x1[:-1] + x1[1:]), x2,
                                        indexing="ij"))
        num = 2.0 * a00[:-1] * a00[1:]
        den = a00[:-1] + a00[1:]
        ah = np.where(den > 0, num / den, ah)
        cw, ce = ah[:-1, 1:-1] / h1 ** 2, ah[1:, 1:-1] / h1 ** 2
    elif scheme == "centered":
        cw = ce = a00[1:-1, 1:-1] / h1 ** 2
    else:
        raise PdeError(f"unknown interface scheme {scheme!r}")

    cs = a11 / h2 ** 2 - b1 / (2 * h2)
    cn = a11 / h2 ** 2 + b1 / (2 * h2)
    diag = -(cw + ce) - 2 * a11 / h2 ** 2
    # per interior node (i, j), flat index i * ny + j: the west, east,
    # south, north and centre entries of its row
    r = (np.arange(1, nx - 1)[:, None] * ny + np.arange(1, ny - 1))[..., None]
    cols = r + np.array([-ny, ny, -1, 1, 0])
    rows = np.broadcast_to(r, cols.shape)
    vals = np.stack([cw, ce, cs, cn, diag], axis=-1)
    A = sparse.csc_matrix((vals.ravel(), (rows.ravel(), cols.ravel())),
                          shape=(nx * ny, nx * ny))
    return A, X1, X2


def _step_matrix(A, dt: float, nx: int, ny: int, boundary_mode: str):
    """``I - dt*A`` in CSC with the boundary rows of ``boundary_mode``.

    A's boundary rows are empty, so each boundary row of ``I - dt*A`` is
    1 on its own node: the Dirichlet row.  A Neumann row also gets -1 on
    the inward neighbour (zero normal slope).  A corner takes its
    x1-inward neighbour.
    """
    M = sparse.identity(nx * ny, format="csc") - dt * A
    if boundary_mode == "dirichlet":
        return M
    if boundary_mode != "neumann":
        raise PdeError(f"unknown boundary mode {boundary_mode!r}")
    node = np.arange(nx * ny).reshape(nx, ny)
    inward = np.full((nx, ny), -1)
    inward[1:-1, 0], inward[1:-1, -1] = node[1:-1, 1], node[1:-1, -2]
    inward[0, :], inward[-1, :] = node[1, :], node[-2, :]
    rows = node[inward >= 0]
    return M + sparse.csc_matrix(
        (np.full(rows.size, -1.0), (rows, inward[inward >= 0])),
        shape=M.shape)


def solve_pde(model: PdeModel, grid: Grid2D, boundary_mode: str = "dirichlet",
              scheme: str = "centered") -> GridSolution:
    """March the terminal-value problem backward over [0, t_end].

    In the time-to-maturity variable the problem is a forward heat flow
    from v(0) = H; the reported slice is remaining time t_end, so
    values[i, j] ~ v(0, x) for terminal data at t_end.
    """
    A, X1, X2 = _assemble(model, grid, scheme)
    nx, ny = X1.shape
    M = _step_matrix(A, grid.dt_fd, nx, ny, boundary_mode)
    try:
        lu = splu(M, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise PdeError(f"implicit-step factorization failed: {exc}") from exc

    n_steps = int(round(grid.t_end / grid.dt_fd))
    if abs(n_steps * grid.dt_fd - grid.t_end) > 1e-9 * grid.t_end:
        raise PdeError("dt_fd must divide t_end")
    v = np.asarray(model.H(X1, X2), dtype=float)
    drive = model.driver(X1, X2)
    boundary = np.ones((nx, ny), dtype=bool)
    boundary[1:-1, 1:-1] = False
    bidx = np.flatnonzero(boundary)
    # boundary right-hand side: the terminal data (Dirichlet) or zero
    # slope (Neumann), the same on every step
    bvals = v.ravel()[bidx] if boundary_mode == "dirichlet" else 0.0
    for _ in range(n_steps):
        rf = (v + grid.dt_fd * np.asarray(drive(v), dtype=float)).ravel()
        rf[bidx] = bvals
        v = lu.solve(rf).reshape(nx, ny)
        if not np.all(np.isfinite(v)):
            raise PdeError("non-finite values after implicit step")
    return GridSolution(grid=grid, values=v, boundary_mode=boundary_mode,
                        scheme=scheme, model_label=model.label)


def richardson_error(model: PdeModel, coarse: GridSolution,
                     refinement: int = 2) -> float:
    """Sup-norm change under nested space-time refinement (common nodes).

    ``coarse`` is the caller's solution on the coarse grid; only the
    refined grid is solved here, with the boundary mode and scheme of
    ``coarse``.
    """
    fine = solve_pde(model, coarse.grid.refined(refinement),
                     coarse.boundary_mode, coarse.scheme)
    return float(np.max(np.abs(
        coarse.values - fine.values[::refinement, ::refinement])))

