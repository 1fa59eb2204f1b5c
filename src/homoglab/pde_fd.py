"""Semi-implicit finite differences for the d = 1 parabolic problems.

Monte-Carlo-independent cross-check of the probabilistic solvers, run on
the averaged model (``PdeModel.from_averaged``, which also takes a family
at its fast scale, ``fam.at(eps)``).  The averaged PDE has
discontinuous coefficients and is meant in the L^p-viscosity sense; it is
solved on one truncation, the Dirichlet box [-L1, L1] x [-L2, L2] whose
boundary holds the terminal data H for all time.  The operator matches the
generator of the simulated process,

    a00(x1, x2) d2/dx1^2 + a11(x1, x2) d2/dx2^2 + b1(x1, x2) d/dx2,

with no mixed term and no x1 drift (block diffusion structure).  Diffusion
and drift are implicit, the semi-linear driver explicit.  The step matrix
M = I - dt*A (A's boundary rows are empty, so each boundary row of M is the
identity row) is built once in CSC and factored once, with a minimum-degree
ordering of M^T + M (the 5-point stencil is structurally symmetric but for
the boundary rows, and this ordering fills about half as much as SuperLU's
default COLAMD); every time step is then one pair of triangular solves.
The driver is prepared once per solve (``PdeModel.driver`` evaluates its
x-dependent factor on the mesh and returns the map v -> f); each step
applies only that map.

Interface handling for discontinuous averaged a00 at x1 = 0: the centered
scheme discretizes the non-divergence operator directly, which enforces
continuity of dv/dx1 across the jump.  That is the behaviour of the
simulated process (a driftless diffusion is a time-changed Brownian
motion, so x itself is its scale function and harmonic profiles are linear
with matching slopes).  A conservation-form flux scheme would enforce
continuity of a00*dv/dx1 instead and would not match the Monte Carlo
representation when a00 jumps.

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
from typing import Callable

import numpy as np


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

        h halves and dt shrinks by 4.  Where the coefficients are smooth the
        spatial error is second order and the time error first order, so
        both shrink by 4.  At the a00 jump on x1 = 0 the spatial error is
        only first order: on the shipped demo's averaged model the sup
        change falls from 0.00306 to 0.00166 over two refinements, an
        observed order of 0.88 set at an interface node; at x0 the order
        is 1.38.
        """
        return Grid2D(self.L1, self.L2, 2 * self.n1 + 1, 2 * self.n2 + 1,
                      self.dt_fd / 4, self.t_end)


@dataclass
class PdeModel:
    """Coefficient callables on (x1, x2) meshes.

    ``driver(x1, x2)`` returns the map ``v -> f`` on that mesh, as
    ``BsdeSpec.driver``.  ``from_averaged`` builds the averaged model's,
    or that of any d = 1 ``TemplateCoefficients`` model, such as a family
    at its fast scale, ``fam.at(eps)``, and takes the model's label
    (``"averaged"``, or ``"eps=0.1"`` for ``fam.at(0.1)``).
    """
    a00: Callable
    a11: Callable
    b1: Callable
    driver: Callable
    H: Callable
    label: str = "custom"

    @classmethod
    def from_averaged(cls, model, H) -> "PdeModel":
        if model.d != 1:
            raise PdeError("FD solver is d = 1 only")

        def pack(x1, x2):
            return x1, x2[..., None]

        return cls(
            a00=lambda x1, x2: model.a00(*pack(x1, x2)),
            a11=lambda x1, x2: model.a1(*pack(x1, x2))[..., 0, 0],
            b1=lambda x1, x2: model.b1(*pack(x1, x2))[..., 0],
            driver=lambda x1, x2: model.driver(*pack(x1, x2)),
            H=lambda x1, x2: H(np.stack([x1, x2], axis=-1)),
            label=model.label)


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


def _assemble(model: PdeModel, grid: Grid2D):
    """Sparse operator A (CSC) over all nodes, boundary rows left empty."""
    x1, x2 = grid.x1, grid.x2
    nx, ny = x1.size, x2.size
    X1, X2 = np.meshgrid(x1, x2, indexing="ij")

    def interior(coeff):
        return np.broadcast_to(np.asarray(coeff(X1, X2), dtype=float),
                               X1.shape)[1:-1, 1:-1]
    a00, a11, b1 = interior(model.a00), interior(model.a11), interior(model.b1)
    h1, h2 = grid.h1, grid.h2

    cw = ce = a00 / h1 ** 2
    cs = a11 / h2 ** 2 - b1 / (2 * h2)
    cn = a11 / h2 ** 2 + b1 / (2 * h2)
    diag = -(cw + ce) - 2 * a11 / h2 ** 2
    # per interior node (i, j), flat index i * ny + j: the west, east,
    # south, north and centre entries of its row
    r = (np.arange(1, nx - 1)[:, None] * ny + np.arange(1, ny - 1))[..., None]
    cols = r + np.array([-ny, ny, -1, 1, 0])
    rows = np.broadcast_to(r, cols.shape)
    vals = np.stack([cw, ce, cs, cn, diag], axis=-1)
    A = load_solver().csc_matrix(
        (vals.ravel(), (rows.ravel(), cols.ravel())), shape=(nx * ny, nx * ny))
    return A, X1, X2


def solve_pde(model: PdeModel, grid: Grid2D) -> GridSolution:
    """March the terminal-value problem backward over [0, t_end].

    In the time-to-maturity variable the problem is a forward heat flow
    from v(0) = H; the reported slice is remaining time t_end, so
    values[i, j] ~ v(0, x) for terminal data at t_end.  The boundary
    nodes keep H throughout.
    """
    A, X1, X2 = _assemble(model, grid)
    nx, ny = X1.shape
    M = load_solver().identity(nx * ny, format="csc") - grid.dt_fd * A
    try:
        lu = splu(M, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise PdeError(f"implicit-step factorization failed: {exc}") from exc

    v = np.asarray(model.H(X1, X2), dtype=float)
    drive = model.driver(X1, X2)
    boundary = np.ones((nx, ny), dtype=bool)
    boundary[1:-1, 1:-1] = False
    bidx = np.flatnonzero(boundary)
    bvals = v.ravel()[bidx]
    for _ in range(grid.n_steps):
        rf = (v + grid.dt_fd * np.asarray(drive(v), dtype=float)).ravel()
        rf[bidx] = bvals
        v = lu.solve(rf).reshape(nx, ny)
        if not np.all(np.isfinite(v)):
            raise PdeError("non-finite values after implicit step")
    return GridSolution(grid=grid, values=v, model_label=model.label)


def richardson_error(model: PdeModel, coarse: GridSolution) -> float:
    """Sup-norm change under one nested refinement by 2 (``Grid2D.refined``:
    h halves, dt quarters), over the coarse grid's nodes.

    ``coarse`` is the caller's solution on the coarse grid; only the
    refined grid is solved here.
    """
    fine = solve_pde(model, coarse.grid.refined())
    return float(np.max(np.abs(coarse.values - fine.values[::2, ::2])))

