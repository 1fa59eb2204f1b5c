"""Euler-Maruyama simulation of the two-scale and averaged forward SDEs.

The state is X = (X1, X2) with X1 scalar (fast when eps is small) and X2
d-dimensional slow.  The driving Brownian motion B = (W, Wtilde) has
dimension k = d + 1 and the diffusion matrix keeps the block structure:
X1 sees only column 0, X2 only columns 1..k-1.

Randomness is counter-based: each path owns a Philox stream keyed by
(seed, path_index), so the ensemble is bitwise reproducible whatever the
block size, and the eps sweep may run its simulations on several threads
(``harness.Stages.sweep``).  A stream drawn in chunks yields the same
numbers as one whole-path draw, so each block keeps its paths' generators
alive and draws the normals of ``max(1, n_steps // substeps)`` coarse steps
at a time: the normals buffer holds at most
``block_size * max(n_steps, substeps) * k`` doubles, about the size of the
block's stored increments, whatever eps and substeps are.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .families import AveragedModel, CoefficientFamily, _sym_sqrt

_MAGIC = b"HMGB1"
_VERSION = 1
_HEADER = "<5sIQQQQQdd"


class SimulationError(RuntimeError):
    """Non-finite state or invalid simulation parameters."""


@dataclass(frozen=True)
class SimGrid:
    t_end: float
    n_steps: int

    def __post_init__(self):
        if not self.t_end > 0:
            raise SimulationError("t_end must be positive")
        if self.n_steps < 2:
            raise SimulationError("n_steps must be at least 2")

    @property
    def dt(self) -> float:
        return self.t_end / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end, self.n_steps + 1)


@dataclass
class PathBundle:
    n_paths: int
    grid: SimGrid
    X: np.ndarray          # (n_paths, n_steps+1, d+1)
    dB: np.ndarray         # (n_paths, n_steps, k)
    seed: int
    eps: Optional[float]   # None for averaged-model paths

    @property
    def d(self) -> int:
        return self.X.shape[2] - 1

    @property
    def k(self) -> int:
        return self.dB.shape[2]

    def x1(self):
        return self.X[:, :, 0]

    def x2(self):
        return self.X[:, :, 1:]

    # -- binary container ----------------------------------------------------
    def save(self, path):
        header = struct.pack(
            _HEADER, _MAGIC, _VERSION, self.n_paths, self.grid.n_steps,
            self.d, self.k, self.seed & 0xFFFFFFFFFFFFFFFF,
            float("nan") if self.eps is None else self.eps, self.grid.t_end)
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(np.ascontiguousarray(self.X, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(self.dB, dtype="<f8").tobytes())
        sidecar = {"magic": _MAGIC.decode(), "version": _VERSION,
                   "n_paths": self.n_paths, "n_steps": self.grid.n_steps,
                   "d": self.d, "k": self.k, "seed": self.seed,
                   "eps": self.eps, "t_end": self.grid.t_end}
        with open(str(path) + ".json", "w") as fh:
            json.dump(sidecar, fh, sort_keys=True)

    @classmethod
    def load(cls, path):
        with open(path, "rb") as fh:
            raw = fh.read()
        size = struct.calcsize(_HEADER)
        if len(raw) < size:
            raise SimulationError(
                f"container header is {len(raw)} bytes, expected {size}")
        magic, version, n_paths, n_steps, d, k, seed, eps, t_end = \
            struct.unpack_from(_HEADER, raw)
        if magic != _MAGIC or version != _VERSION:
            raise SimulationError(f"bad container header {magic!r} v{version}")
        nX = n_paths * (n_steps + 1) * (d + 1)
        expected = 8 * (nX + n_paths * n_steps * k)
        if len(raw) - size != expected:
            raise SimulationError(
                f"container payload is {len(raw) - size} bytes, "
                f"expected {expected}")
        X = np.frombuffer(raw, "<f8", count=nX, offset=size).reshape(
            n_paths, n_steps + 1, d + 1).copy()
        dB = np.frombuffer(raw, "<f8", offset=size + 8 * nX).reshape(
            n_paths, n_steps, k).copy()
        return cls(n_paths=int(n_paths), grid=SimGrid(t_end, int(n_steps)),
                   X=X, dB=dB, seed=int(seed),
                   eps=None if np.isnan(eps) else float(eps))


def _path_streams(seed: int, path_indices) -> list:
    """One Philox generator per path, keyed by (seed, path index)."""
    s = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    return [np.random.Generator(np.random.Philox(
        key=np.array([s, np.uint64(p)], dtype=np.uint64)))
        for p in path_indices]


def _path_normals(gens, n_fine: int, k: int, scale: float) -> np.ndarray:
    """The next ``n_fine`` normal k-vectors of each generator's stream,
    scaled by ``scale``; one row per generator."""
    out = np.empty((len(gens), n_fine, k))
    for gen, row in zip(gens, out):
        gen.standard_normal(out=row)
    out *= scale
    return out


def _run_blocks(weighted, x0, grid, n_paths, seed, substeps, d,
                block_size):
    """Euler-Maruyama paths in blocks.  ``weighted(x1, x2)`` gives the
    ``(rho, rho_b, rho_a)`` of the system being simulated; every fine step
    turns them into phi = sqrt(2/rho), b1 = rho_b/rho and
    sigma1 = sqrt(2*rho_a/rho)."""
    for name, value in (("block_size", block_size), ("substeps", substeps)):
        if value < 1:
            raise SimulationError(f"{name} must be at least 1, got {value}")
    x0 = np.asarray(x0, dtype=float).reshape(d + 1)
    dt_f = grid.t_end / (grid.n_steps * substeps)
    sq = np.sqrt(dt_f)
    k = d + 1
    # coarse steps per draw: at most max(n_steps, substeps) fine steps
    chunk = max(1, grid.n_steps // substeps)
    X = np.empty((n_paths, grid.n_steps + 1, d + 1))
    dB = np.empty((n_paths, grid.n_steps, k))

    for lo in range(0, n_paths, block_size):
        hi = min(lo + block_size, n_paths)
        gens = _path_streams(seed, range(lo, hi))
        x1 = np.full(hi - lo, x0[0])
        x2 = np.tile(x0[1:], (hi - lo, 1))
        X[lo:hi, 0, 0] = x1
        X[lo:hi, 0, 1:] = x2
        for c0 in range(0, grid.n_steps, chunk):
            c1 = min(c0 + chunk, grid.n_steps)
            dW = _path_normals(gens, (c1 - c0) * substeps, k, sq)
            for cs in range(c0, c1):
                f0 = (cs - c0) * substeps
                for fs in range(f0, f0 + substeps):
                    rho, rho_b, rho_a = weighted(x1, x2)
                    phi = np.sqrt(2.0 / rho)
                    b1 = rho_b / rho[:, None]
                    s1 = _sym_sqrt(2.0 * rho_a / rho[:, None, None])
                    x1 = x1 + phi * dW[:, fs, 0]
                    x2 = x2 + b1 * dt_f + np.einsum("pij,pj->pi", s1,
                                                    dW[:, fs, 1:])
                if not (np.all(np.isfinite(x1)) and np.all(np.isfinite(x2))):
                    bad = np.flatnonzero(~(np.isfinite(x1) & np.all(
                        np.isfinite(x2), axis=-1)))[0]
                    raise SimulationError(f"non-finite state at step "
                                          f"{cs + 1}, path {lo + int(bad)}")
                X[lo:hi, cs + 1, 0] = x1
                X[lo:hi, cs + 1, 1:] = x2
                dB[lo:hi, cs] = dW[:, f0:f0 + substeps].sum(axis=1)
    return X, dB


def simulate_eps(fam: CoefficientFamily, eps: float, x0, grid: SimGrid,
                 n_paths: int, seed: int, substeps: int = 1,
                 block_size: int = 4096) -> PathBundle:
    """Two-scale Euler-Maruyama: coefficients evaluated at (X1/eps, X2).

    ``substeps`` refines the integration grid without growing the stored
    arrays; stored Brownian increments are aggregated over substeps.
    """
    if not eps > 0:
        raise SimulationError("eps must be positive")
    X, dB = _run_blocks(lambda x1, x2: fam.weighted(x1 / eps, x2), x0, grid,
                        n_paths, seed, substeps, fam.d, block_size)
    return PathBundle(n_paths=n_paths, grid=grid, X=X, dB=dB, seed=seed,
                      eps=eps)


def simulate_avg(avg: AveragedModel, x0, grid: SimGrid, n_paths: int,
                 seed: int, substeps: int = 1,
                 block_size: int = 4096) -> PathBundle:
    """Euler-Maruyama under the averaged coefficients (minus branch at x1=0)."""
    X, dB = _run_blocks(avg.weighted, x0, grid, n_paths, seed, substeps,
                        avg.d, block_size)
    return PathBundle(n_paths=n_paths, grid=grid, X=X, dB=dB, seed=seed,
                      eps=None)


# ---------------------------------------------------------------------------
# Path diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OccupationEstimate:
    n: int
    mean_occupation: float
    std_error: float


def occupation_time(bundle: PathBundle, n_list: Sequence[int]):
    """Estimates of the expected time X1 spends within 1/n of the interface."""
    if bundle.n_paths == 0:
        raise SimulationError("empty bundle")
    dt = bundle.grid.dt
    x1 = np.abs(bundle.x1()[:, :-1])   # left endpoints of each step
    out = []
    for n in n_list:
        occ = dt * np.sum(x1 <= 1.0 / n, axis=1)
        out.append(OccupationEstimate(
            n=int(n), mean_occupation=float(np.mean(occ)),
            std_error=float(np.std(occ) / np.sqrt(bundle.n_paths))))
    return out


def moment_report(bundle: PathBundle, k_list: Sequence[int]):
    """E sup_s (|X1_s|^{2k} + |X2_s|^{2k}) per k, with standard errors."""
    x1 = np.abs(bundle.x1())
    x2n = np.linalg.norm(bundle.x2(), axis=2)
    table = {}
    for kk in k_list:
        sup = np.max(x1 ** (2 * kk) + x2n ** (2 * kk), axis=1)
        table[int(kk)] = (float(np.mean(sup)),
                          float(np.std(sup) / np.sqrt(bundle.n_paths)))
    return table
