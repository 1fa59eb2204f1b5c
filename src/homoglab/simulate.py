"""Euler-Maruyama simulation of the two-scale and averaged forward SDEs.

The state is X = (X1, X2) with X1 fast when eps is small and X2 slow, both
scalar.  The driving Brownian motion B = (W, Wtilde) has two columns and
the diffusion keeps the block structure: X1 sees only column 0, X2 only
column 1.

Randomness is counter-based: each path owns a Philox stream keyed by
(seed, path_index), so the ensemble is bitwise reproducible whatever the
block size, and the eps sweep may run its simulations on several forked
worker processes (``harness.Stages.sweep``).  A stream is a pure function
of its key and counter, so a stream drawn in chunks yields the same
numbers as one whole-path draw.  Each block draws the normals of as
many coarse steps at a time as fit the budget ``_NORMALS`` (2**20
doubles, 8 MiB), and of at least one: the normals buffer holds at most
``max(_NORMALS, block_size * substeps * k)`` doubles whatever eps is.  The
Euler loop reads one coarse step's normals at a time, copied fine step
first.

How a block reaches its streams depends on its chunk count.  When each
path is drawn in one chunk, the block re-keys one shared generator to
each path's fresh stream through ``bit_generator.state``, several times
cheaper than building a generator per path.  Paths drawn in several
chunks keep one live generator each, which carries its stream position
from chunk to chunk.  Every chunk is drawn by ``_path_normals`` either
way.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .families import AveragedModel, CoefficientFamily
from .quadrature import _VALUES

# the normals a block draws at a time, in doubles (8 MiB), unless one
# coarse step's draws need more
_NORMALS = 1 << 20

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
    X: np.ndarray          # (n_paths, n_steps+1, d+1); d = 1 when simulated
    dB: np.ndarray         # (n_paths, n_steps, k); k = 2 when simulated
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
        return self.X[:, :, 1]

    # -- binary container ----------------------------------------------------
    def save(self, path):
        header = struct.pack(
            _HEADER, _MAGIC, _VERSION, self.n_paths, self.grid.n_steps,
            self.d, self.k, self.seed & 0xFFFFFFFFFFFFFFFF,
            float("nan") if self.eps is None else self.eps, self.grid.t_end)
        write_container(path, header, (self.X, self.dB), {
            "magic": _MAGIC.decode(), "version": _VERSION,
            "n_paths": self.n_paths, "n_steps": self.grid.n_steps,
            "d": self.d, "k": self.k, "seed": self.seed, "eps": self.eps,
            "t_end": self.grid.t_end})

    @classmethod
    def load(cls, path):
        """The bundle saved at ``path``; refuses a bad header, a payload of
        the wrong size and a file whose sha256 is not its sidecar's."""
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
        with open(str(path) + ".json") as fh:
            recorded = json.load(fh).get("sha256")
        digest = _sha256([raw])
        if digest != recorded:
            raise SimulationError(f"{path} has sha256 {digest}, but its "
                                  f"sidecar records {recorded}")
        X = np.frombuffer(raw, "<f8", count=nX, offset=size).reshape(
            n_paths, n_steps + 1, d + 1).copy()
        dB = np.frombuffer(raw, "<f8", offset=size + 8 * nX).reshape(
            n_paths, n_steps, k).copy()
        return cls(grid=SimGrid(t_end, int(n_steps)), X=X, dB=dB,
                   seed=int(seed), eps=None if np.isnan(eps) else float(eps))


def write_container(path, header: bytes, arrays, sidecar: dict) -> None:
    """A binary container: ``header`` then each array as little-endian
    doubles at ``path``, and at ``path.json`` the ``sidecar`` with the
    file's sha256."""
    parts = [header] + [np.ascontiguousarray(a, dtype="<f8") for a in arrays]
    with open(path, "wb") as fh:
        for part in parts:
            fh.write(part)
    with open(str(path) + ".json", "w") as fh:
        json.dump({**sidecar, "sha256": _sha256(parts)}, fh, sort_keys=True)


def _sha256(parts) -> str:
    """The sha256 of the concatenated ``parts`` (bytes or arrays)."""
    # imported on use: OpenSSL loaded while the package still compiles its
    # modules raised the peak RSS of `import homoglab.cli` by ~0.35 MB
    import hashlib
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


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
    x0 = np.asarray(x0, dtype=float).reshape(2)
    # every block starts at x0, so one check refuses, before any step, a
    # fast start x0[0]/eps that overflows (Python floats: inf, no warning)
    if model.eps is not None:
        eps, start = float(model.eps), float(x0[0])
        if not np.isfinite(start / eps):
            raise SimulationError(f"eps = {eps}: the fast start x0[0]/eps "
                                  f"= {start}/{eps} overflows")
    dt_f = grid.t_end / (grid.n_steps * substeps)
    sq = np.sqrt(dt_f)
    k = model.k
    X = np.empty((n_paths, grid.n_steps + 1, 2))
    dB = np.empty((n_paths, grid.n_steps, k))

    run = "" if model.eps is None else f"eps = {float(model.eps)}: "
    # a state past the float range (x1/eps at a tiny eps) is refused by the
    # finiteness check after its coarse step, with no numpy warning first
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n_paths, block_size):
            hi = min(lo + block_size, n_paths)
            # coarse steps per draw: the budget's worth, at least one
            chunk = max(1, _NORMALS // ((hi - lo) * substeps * k))
            gens = _path_streams(seed, range(lo, hi), chunk >= grid.n_steps)
            x1 = np.full(hi - lo, x0[0])
            x2 = np.full(hi - lo, x0[1])
            X[lo:hi, 0] = x0
            for c0 in range(0, grid.n_steps, chunk):
                c1 = min(c0 + chunk, grid.n_steps)
                dW = _path_normals(gens, (c1 - c0) * substeps, k, sq)
                for cs in range(c0, c1):
                    # the coarse step's normals fine step first, so that each
                    # step reads two contiguous columns (dW0, dW1)
                    f0 = (cs - c0) * substeps
                    steps = dW[:, f0:f0 + substeps].transpose(1, 2, 0).copy()
                    for dw0, dw1 in steps:
                        # in place on forward's fresh arrays: x1 + phi dW0 and
                        # (x2 + b1 dt) + sigma1 dW1
                        phi, b1, s1 = model.forward(x1, x2)
                        phi *= dw0
                        x1 += phi
                        b1 *= dt_f
                        x2 += b1
                        s1 *= dw1
                        x2 += s1
                    finite = np.isfinite(x1) & np.isfinite(x2)
                    if not finite.all():
                        bad = np.flatnonzero(~finite)[0]
                        raise SimulationError(
                            f"{run}non-finite state at step {cs + 1}, "
                            f"path {lo + int(bad)}")
                    X[lo:hi, cs + 1, 0] = x1
                    X[lo:hi, cs + 1, 1] = x2
                    # summed over the leading axis, left to right: the bits of
                    # dW[:, f0:f0 + substeps].sum(axis=1)
                    dB[lo:hi, cs] = steps.sum(axis=0).T
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


def _column_blocks(paths: np.ndarray) -> list:
    """Column slices that cut an ``(n_paths, n_cols)`` path array into
    blocks of at most ``quadrature._VALUES`` values (and at least one
    column), so a reduction over the paths holds no full-size temporary."""
    n_paths, n_cols = paths.shape
    width = max(1, _VALUES // max(n_paths, 1))
    return [slice(c, min(c + width, n_cols)) for c in range(0, n_cols, width)]


def occupation_time(bundle: PathBundle, n_list: Sequence[int]):
    """{n: (mean, stderr)} of the time X1 spends within 1/n of the
    interface."""
    if bundle.n_paths == 0:
        raise SimulationError("empty bundle")
    x1 = bundle.x1()[:, :-1]   # left endpoints of each step
    counts = {int(n): np.zeros(bundle.n_paths, dtype=int) for n in n_list}
    for cols in _column_blocks(x1):
        near = np.abs(x1[:, cols])
        for n, count in counts.items():
            count += np.sum(near <= 1.0 / n, axis=1)
    return {n: mean_stderr(bundle.grid.dt * count)
            for n, count in counts.items()}


def moment_report(bundle: PathBundle, k_list: Sequence[int]):
    """{k: (mean, stderr)} of sup_s (|X1_s|^{2k} + |X2_s|^{2k})."""
    sups = {int(kk): np.full(bundle.n_paths, -np.inf) for kk in k_list}
    for cols in _column_blocks(bundle.x1()):
        x1 = np.abs(bundle.x1()[:, cols])
        x2 = np.abs(bundle.x2()[:, cols])
        for kk, sup in sups.items():
            np.maximum(sup, np.max(x1 ** (2 * kk) + x2 ** (2 * kk), axis=1),
                       out=sup)
    return {kk: mean_stderr(sup) for kk, sup in sups.items()}


def drift_gap(bundle: PathBundle, Y: np.ndarray, model: CoefficientFamily,
              avg: AveragedModel):
    """(mean, stderr) of sup_s |int_0^s (f - fbar)(X1_u, X2_u, Y_u) du|, the
    gap between the drivers of ``model`` (the bundle's eps model) and of
    the averaged model along the paths and the backward solution ``Y``,
    integrated by left endpoints.

    The running integral and its running sup go a column block at a time:
    each block's first column adds the integral so far, so the sums run
    left to right as ``np.cumsum(axis=1)`` does, to the bit."""
    integral, sup = 0.0, np.zeros(bundle.n_paths)
    for cols in _column_blocks(Y[:, :-1]):
        x1, x2, y = bundle.x1()[:, cols], bundle.x2()[:, cols], Y[:, cols]
        gap = model.driver(x1, x2)(y) - avg.driver(x1, x2)(y)
        gap *= bundle.grid.dt
        gap[:, 0] += integral
        np.cumsum(gap, axis=1, out=gap)
        integral = gap[:, -1].copy()
        np.maximum(sup, np.max(np.abs(gap), axis=1), out=sup)
    return mean_stderr(sup)
