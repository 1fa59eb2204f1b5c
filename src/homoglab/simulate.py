"""Euler-Maruyama simulation of the two-scale and averaged forward SDEs.

The state is X = (X1, X2) with X1 scalar (fast when eps is small) and X2
d-dimensional slow.  The driving Brownian motion B = (W, Wtilde) has
dimension k = d + 1 and the diffusion matrix keeps the block structure:
X1 sees only column 0, X2 only columns 1..k-1.

Randomness is counter-based: each path owns a Philox stream keyed by
(seed, path_index), so the ensemble is bitwise reproducible whatever the
block size, and the eps sweep may run its simulations on several forked
worker processes (``harness.Stages.sweep``).  A stream is a pure function
of its key and counter, so a stream drawn in chunks yields the same
numbers as one whole-path draw.  Each block draws the normals of
``max(1, n_steps // substeps)`` coarse steps at a time: the normals buffer
holds at most ``block_size * max(n_steps, substeps) * k`` doubles, about
the size of the block's stored increments, whatever eps and substeps are.

How a block reaches its streams depends on its chunk count.  When each
path is drawn in one chunk (``substeps`` 1), the block re-keys one shared
generator to each path's fresh stream through ``bit_generator.state``,
several times cheaper than building a generator per path.  Paths drawn in
several chunks keep one live generator each, which carries its stream
position from chunk to chunk.  Every chunk is drawn by ``_path_normals``
either way.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .families import AveragedModel, CoefficientFamily

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
        # each message starts with the field it refuses
        if not self.t_end > 0:
            raise SimulationError("t_end must be positive")
        if self.n_steps < 2:
            raise SimulationError("n_steps must be at least 2")

    @property
    def dt(self) -> float:
        return self.t_end / self.n_steps


@dataclass
class PathBundle:
    grid: SimGrid
    X: np.ndarray          # (n_paths, n_steps+1, d+1)
    dB: np.ndarray         # (n_paths, n_steps, k)
    seed: int
    eps: Optional[float]   # None for averaged-model paths

    @property
    def n_paths(self) -> int:
        return self.X.shape[0]

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
        return cls(grid=SimGrid(t_end, int(n_steps)), X=X, dB=dB,
                   seed=int(seed), eps=None if np.isnan(eps) else float(eps))


class _Rekeyed:
    """The Philox streams of a block's paths on one shared generator, for
    paths drawn in one chunk: iterating yields the generator re-keyed to
    each path's fresh stream in turn."""

    def __init__(self, keys):
        self.keys = keys

    def __len__(self):
        return len(self.keys)

    def __iter__(self):
        gen = np.random.Generator(np.random.Philox(key=self.keys[0]))
        state = gen.bit_generator.state
        for key in self.keys:
            state["state"]["key"] = key
            gen.bit_generator.state = state
            yield gen


def _path_streams(seed: int, path_indices, one_chunk: bool):
    """The Philox streams of the given paths, keyed by (seed, path index):
    a ``_Rekeyed`` set when each path is drawn in ``one_chunk``, else one
    live generator per path."""
    keys = np.empty((len(path_indices), 2), dtype=np.uint64)
    keys[:, 0] = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    keys[:, 1] = np.asarray(path_indices, dtype=np.uint64)
    if one_chunk:
        return _Rekeyed(keys)
    return [np.random.Generator(np.random.Philox(key=key)) for key in keys]


def _path_normals(gens, n_fine: int, k: int, scale: float) -> np.ndarray:
    """The next ``n_fine`` normal k-vectors of each path's stream, scaled
    by ``scale``; one row per path of ``gens`` (from ``_path_streams``)."""
    out = np.empty((len(gens), n_fine, k))
    for gen, row in zip(gens, out):
        gen.standard_normal(out=row)
    out *= scale
    return out


def _run_blocks(model, x0, grid, n_paths, seed, substeps, block_size):
    """Euler-Maruyama paths of ``model`` in blocks, as a ``PathBundle`` of
    the model's ``eps``: every fine step takes its (phi, b1, sigma1) from
    ``model.forward(x1, x2)``."""
    for name, value in (("block_size", block_size), ("substeps", substeps)):
        if value < 1:
            raise SimulationError(f"{name} must be at least 1, got {value}")
    d = model.d
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
        gens = _path_streams(seed, range(lo, hi), chunk == grid.n_steps)
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
                    phi, b1, s1 = model.forward(x1, x2)
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
                # the substeps summed left to right in a contiguous copy:
                # the bits of dW[:, f0:f0 + substeps].sum(axis=1), at about
                # a third of its cost for 50 substeps
                acc = dW[:, f0].copy()
                for fs in range(f0 + 1, f0 + substeps):
                    acc += dW[:, fs]
                dB[lo:hi, cs] = acc
    return PathBundle(grid=grid, X=X, dB=dB, seed=seed, eps=model.eps)


def simulate_eps(fam: CoefficientFamily, eps: float, x0, grid: SimGrid,
                 n_paths: int, seed: int, substeps: int = 1,
                 block_size: int = 4096) -> PathBundle:
    """Two-scale Euler-Maruyama under ``fam.at(eps)``: coefficients
    evaluated at (X1/eps, X2).

    ``substeps`` refines the integration grid without growing the stored
    arrays; stored Brownian increments are aggregated over substeps.
    """
    return _run_blocks(fam.at(eps), x0, grid, n_paths, seed, substeps,
                       block_size)


def simulate_avg(avg: AveragedModel, x0, grid: SimGrid, n_paths: int,
                 seed: int, substeps: int = 1,
                 block_size: int = 4096) -> PathBundle:
    """Euler-Maruyama under the averaged coefficients (minus branch at x1=0)."""
    return _run_blocks(avg, x0, grid, n_paths, seed, substeps, block_size)


# ---------------------------------------------------------------------------
# Path diagnostics
# ---------------------------------------------------------------------------

def mean_stderr(sample):
    """(mean, standard error) of a per-path sample: the one Monte Carlo
    stderr rule, ``np.std(sample) / sqrt(n)``."""
    return (float(np.mean(sample)),
            float(np.std(sample) / np.sqrt(len(sample))))


def occupation_time(bundle: PathBundle, n_list: Sequence[int]):
    """{n: (mean, stderr)} of the time X1 spends within 1/n of the
    interface."""
    if bundle.n_paths == 0:
        raise SimulationError("empty bundle")
    dt = bundle.grid.dt
    x1 = np.abs(bundle.x1()[:, :-1])   # left endpoints of each step
    return {int(n): mean_stderr(dt * np.sum(x1 <= 1.0 / n, axis=1))
            for n in n_list}


def moment_report(bundle: PathBundle, k_list: Sequence[int]):
    """{k: (mean, stderr)} of sup_s (|X1_s|^{2k} + |X2_s|^{2k})."""
    x1 = np.abs(bundle.x1())
    x2n = np.linalg.norm(bundle.x2(), axis=2)
    return {int(kk): mean_stderr(np.max(x1 ** (2 * kk) + x2n ** (2 * kk),
                                        axis=1))
            for kk in k_list}
