"""Catalog of the benchmark's metrics and of what each should move.

``END_TO_END`` and ``PER_LAYER`` are the source of the metric lists in
``BENCHMARK.json`` (``python3 perfbench/run.py --print-spec`` prints them).
Each per-layer entry names the end-to-end metrics it should move and the
workloads on which it should move them (and those on which it should stay
flat), so a later performance change can cite its claim from here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def valid_name(name: str) -> bool:
    return bool(NAME_RE.match(name))


def valid_unit(unit: str) -> bool:
    return bool(UNIT_RE.match(unit))


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    moves: tuple        # end-to-end metrics it should move
    on: tuple           # workloads where it should move them
    flat_on: tuple      # workloads where it should stay flat


END_TO_END = (
    # median wall time of one in-process cli.main converge call after set-up
    EndToEnd("wall_s", "s", "lower", 0.25),
    # median of interpreter start -> import homoglab.cli ->
    # ExperimentConfig.load -> cfg.family(), one per child process
    EndToEnd("setup_s", "s", "lower", 0.25),
    # median peak resident set of the child that ran one converge call
    EndToEnd("peak_rss_mb", "MB", "lower", 0.05),
    # wall_s x (sigma_max / 1e-3)^2, sigma_max the largest Y0 stderr over
    # the eps rows and the averaged row: projected time to stderr 1e-3
    EndToEnd("t_se1e-3_s", "s", "lower", 0.25),
)

_ALL = ("demo", "fast_scale", "fd_corrector")
_BSDE = dict(moves=("wall_s", "t_se1e-3_s"), on=("demo",),
             flat_on=("fd_corrector",))
_SIM = dict(moves=("wall_s", "peak_rss_mb"), on=("fast_scale",),
            flat_on=("fd_corrector",))
_FD = dict(moves=("wall_s", "peak_rss_mb"), on=("fd_corrector",),
           flat_on=("fast_scale",))
_QUAD = dict(moves=("wall_s",), on=("fd_corrector",), flat_on=("demo",))
_FAM = dict(moves=("wall_s",), on=_ALL, flat_on=())
_TOP = dict(moves=("wall_s",), on=_ALL, flat_on=())

PER_LAYER = (
    Layer("bsde.solve_bsde.s", "s", "lower", **_BSDE),
    Layer("bsde.solve_bsde.calls", "count", "lower", **_BSDE),
    Layer("bsde.feature_matrix.s", "s", "lower", **_BSDE),
    Layer("bsde.feature_matrix.calls", "count", "lower", **_BSDE),
    Layer("bsde.svd.s", "s", "lower", **_BSDE),
    Layer("bsde.svd.calls", "count", "lower", **_BSDE),
    Layer("bsde.conditional_variation.s", "s", "lower", **_BSDE),
    Layer("bsde.tightness_certificate.s", "s", "lower", **_BSDE),
    Layer("bsde.max_cond", "ratio", "lower", **_BSDE),
    Layer("bsde.picard_residual_max", "1", "lower", **_BSDE),
    Layer("simulate.simulate_eps.s", "s", "lower", **_SIM),
    Layer("simulate.simulate_avg.s", "s", "lower", **_SIM),
    Layer("simulate.path_steps", "count", "lower", **_SIM),
    Layer("simulate.path_steps_per_s", "1/s", "higher", **_SIM),
    Layer("simulate.normals_bytes", "bytes", "lower", **_SIM),
    Layer("pde_fd.solve_pde.s", "s", "lower", **_FD),
    Layer("pde_fd.solve_pde.calls", "count", "lower", **_FD),
    Layer("pde_fd.richardson_error.s", "s", "lower", **_FD),
    Layer("pde_fd.splu.s", "s", "lower", **_FD),
    Layer("pde_fd.node_steps", "count", "lower", **_FD),
    Layer("pde_fd.node_steps_per_s", "1/s", "higher", **_FD),
    Layer("quadrature.panel_integrals.s", "s", "lower", **_QUAD),
    Layer("quadrature.panel_integrals.calls", "count", "lower", **_QUAD),
    Layer("quadrature.nodes", "count", "lower", **_QUAD),
    Layer("corrector.decay_table.s", "s", "lower", **_QUAD),
    Layer("families.build_averaged.s", "s", "lower", **_FAM),
    Layer("families.cesaro_average.calls", "count", "lower", **_FAM),
    Layer("harness.run_convergence.s", "s", "lower", **_TOP),
    Layer("harness.run_convergence.self_s", "s", "lower", **_TOP),
    Layer("harness.emit.s", "s", "lower", **_TOP),
    Layer("harness.emit.bytes", "bytes", "lower", **_TOP),
    Layer("cli.main.s", "s", "lower", **_TOP),
    Layer("trace.overhead_frac", "ratio", "lower", moves=(), on=_ALL,
          flat_on=()),
)

# Counts that must repeat exactly between two traced runs of one config.
EXACT_COUNTS = ("simulate.path_steps", "pde_fd.node_steps",
                "quadrature.nodes", "bsde.svd.calls",
                "bsde.feature_matrix.calls")
