"""Span tracing of homoglab's layers from outside the package.

A :class:`Tracer` wraps the public functions named in :data:`PROBES` and
records one span per call: name, start, end, parent span, thread id and run
id, plus counts taken from the call's arguments or result.  Spans stay in
memory; :meth:`Tracer.dump` hands them out at the end of the run and
:func:`layer_metrics` turns them into the per-layer metrics.

``harness`` imports ``solve_bsde``, ``simulate_eps`` and friends by name, so
patching one module attribute is not enough: :meth:`Tracer.install` rebinds
every attribute of every loaded ``homoglab`` module that holds the original
function object.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    run: str
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_list(self) -> list:
        return [self.sid, self.name, self.start, self.end, self.parent,
                self.thread, self.run, self.counts]

    @classmethod
    def from_list(cls, row) -> "Span":
        return cls(*row)


# ---------------------------------------------------------------------------
# Counts taken at the layer boundaries (from arguments or results only, so
# they repeat exactly for the same config).
# ---------------------------------------------------------------------------

def _panel_nodes(a, result):
    return {"nodes": (len(a["edges"]) - 1) * int(a["order"])}


def _path_steps(a, result):
    return {"path_steps": int(a["n_paths"]) * a["grid"].n_steps
            * int(a["substeps"])}


def _normals_bytes(a, result):
    return {"bytes": int(result.nbytes)}


def _bsde_limits(a, result):
    conds = result.condition_numbers
    return {"max_cond": float(conds.max()) if conds.size else 0.0,
            "picard_max": max(result.picard_residuals, default=0.0)}


def _node_steps(a, result):
    g = a["grid"]
    return {"node_steps": (g.n1 + 2) * (g.n2 + 2)
            * int(round(g.t_end / g.dt_fd))}


def _emit_bytes(a, result):
    return {"bytes": sum(os.path.getsize(p) for p in result)}


@dataclass(frozen=True)
class Probe:
    """One traced function: ``module.attr`` recorded under ``name``."""
    name: str
    module: str
    attr: str
    counts: Optional[Callable] = None


PROBES = (
    Probe("quadrature.panel_integrals", "homoglab.quadrature",
          "panel_integrals", _panel_nodes),
    Probe("families.build_averaged", "homoglab.families", "build_averaged"),
    Probe("families.cesaro_average", "homoglab.families", "cesaro_average"),
    Probe("simulate.simulate_eps", "homoglab.simulate", "simulate_eps",
          _path_steps),
    Probe("simulate.simulate_avg", "homoglab.simulate", "simulate_avg",
          _path_steps),
    Probe("simulate._path_normals", "homoglab.simulate", "_path_normals",
          _normals_bytes),
    Probe("bsde.solve_bsde", "homoglab.bsde", "solve_bsde", _bsde_limits),
    Probe("bsde.feature_matrix", "homoglab.bsde", "feature_matrix"),
    Probe("bsde.conditional_variation", "homoglab.bsde",
          "conditional_variation"),
    Probe("bsde.tightness_certificate", "homoglab.bsde",
          "tightness_certificate"),
    Probe("numpy.linalg.svd", "numpy.linalg", "svd"),
    Probe("corrector.decay_table", "homoglab.corrector", "decay_table"),
    Probe("pde_fd.solve_pde", "homoglab.pde_fd", "solve_pde", _node_steps),
    Probe("pde_fd.richardson_error", "homoglab.pde_fd", "richardson_error"),
    Probe("pde_fd.splu", "homoglab.pde_fd", "splu"),
    Probe("harness.run_convergence", "homoglab.harness", "run_convergence"),
    Probe("harness.emit", "homoglab.harness", "emit", _emit_bytes),
    Probe("cli.main", "homoglab.cli", "main"),
)


class Tracer:
    """Records spans for the functions of :data:`PROBES` while installed."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, probe: Probe, fn: Callable) -> Callable:
        sig = inspect.signature(fn) if probe.counts else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                self.spans.append(Span(sid, probe.name, start,
                                       time.perf_counter(), parent,
                                       threading.get_ident(), self.run_id))
                raise
            end = time.perf_counter()
            stack.pop()
            counts = {}
            if probe.counts is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counts = probe.counts(bound.arguments, result)
            self.spans.append(Span(sid, probe.name, start, end, parent,
                                   threading.get_ident(), self.run_id, counts))
            return result

        return traced

    def install(self) -> None:
        """Rebind every attribute of the probe's module and of the loaded
        homoglab modules that holds a probed function (so ``splu`` is
        traced only as ``pde_fd`` binds it, ``svd`` wherever it is
        called through ``numpy.linalg``)."""
        homoglab = [m for name, m in sorted(sys.modules.items())
                    if name == "homoglab" or name.startswith("homoglab.")]
        for probe in PROBES:
            owner = importlib.import_module(probe.module)
            original = getattr(owner, probe.attr)
            wrapper = self.wrap(probe, original)
            for mod in [owner] + [m for m in homoglab if m is not owner]:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._undo):
            setattr(mod, key, original)
        self._undo.clear()

    def dump(self) -> list:
        return [s.to_list() for s in self.spans]


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part covered by its children that ran
    on the same thread (clipped to the parent's interval)."""
    by_id = {s.sid: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        p = by_id.get(s.parent)
        if p is not None and p.thread == s.thread:
            children[p.sid].append((max(s.start, p.start), min(s.end, p.end)))
    return {s.sid: s.duration - _covered(
        [(lo, hi) for lo, hi in children[s.sid] if hi > lo])
        for s in spans}


def _ancestors(span, by_id):
    p = by_id.get(span.parent)
    while p is not None:
        yield p
        p = by_id.get(p.parent)


def layer_metrics(spans) -> dict:
    """Per-layer metric name -> value (see perfbench/layers.py)."""
    by_id = {s.sid: s for s in spans}
    named = defaultdict(list)
    for s in spans:
        # a span nested in a span of the same name on its own thread is
        # already inside the outer one's time
        if not any(a.name == s.name for a in _ancestors(s, by_id)):
            named[s.name].append(s)

    def busy(name):
        return sum(s.duration for s in named[name])

    def calls(name):
        return len([s for s in spans if s.name == name])

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in spans if s.name == name)

    def peak(name, key):
        return max((s.counts.get(key, 0.0) for s in spans if s.name == name),
                   default=0.0)

    svd = [s for s in spans if s.name == "numpy.linalg.svd" and any(
        a.name == "bsde.solve_bsde" for a in _ancestors(s, by_id))]
    selfs = self_times(spans)
    sim_s = busy("simulate.simulate_eps") + busy("simulate.simulate_avg")
    path_steps = total("simulate.simulate_eps", "path_steps") + \
        total("simulate.simulate_avg", "path_steps")
    node_steps = total("pde_fd.solve_pde", "node_steps")
    fd_s = busy("pde_fd.solve_pde")

    m = {}
    for name in ("bsde.solve_bsde", "bsde.feature_matrix"):
        m[name + ".s"] = busy(name)
        m[name + ".calls"] = calls(name)
    m["bsde.svd.s"] = sum(s.duration for s in svd)
    m["bsde.svd.calls"] = len(svd)
    m["bsde.conditional_variation.s"] = busy("bsde.conditional_variation")
    m["bsde.tightness_certificate.s"] = busy("bsde.tightness_certificate")
    m["bsde.max_cond"] = peak("bsde.solve_bsde", "max_cond")
    m["bsde.picard_residual_max"] = peak("bsde.solve_bsde", "picard_max")
    m["simulate.simulate_eps.s"] = busy("simulate.simulate_eps")
    m["simulate.simulate_avg.s"] = busy("simulate.simulate_avg")
    m["simulate.path_steps"] = path_steps
    m["simulate.path_steps_per_s"] = path_steps / sim_s if sim_s > 0 else 0.0
    m["simulate.normals_bytes"] = int(peak("simulate._path_normals", "bytes"))
    m["pde_fd.solve_pde.s"] = fd_s
    m["pde_fd.solve_pde.calls"] = calls("pde_fd.solve_pde")
    m["pde_fd.richardson_error.s"] = busy("pde_fd.richardson_error")
    m["pde_fd.splu.s"] = busy("pde_fd.splu")
    m["pde_fd.node_steps"] = node_steps
    m["pde_fd.node_steps_per_s"] = node_steps / fd_s if fd_s > 0 else 0.0
    m["quadrature.panel_integrals.s"] = busy("quadrature.panel_integrals")
    m["quadrature.panel_integrals.calls"] = calls("quadrature.panel_integrals")
    m["quadrature.nodes"] = total("quadrature.panel_integrals", "nodes")
    m["corrector.decay_table.s"] = busy("corrector.decay_table")
    m["families.build_averaged.s"] = busy("families.build_averaged")
    m["families.cesaro_average.calls"] = calls("families.cesaro_average")
    m["harness.run_convergence.s"] = busy("harness.run_convergence")
    m["harness.run_convergence.self_s"] = sum(
        selfs[s.sid] for s in named["harness.run_convergence"])
    m["harness.emit.s"] = busy("harness.emit")
    m["harness.emit.bytes"] = total("harness.emit", "bytes")
    m["cli.main.s"] = busy("cli.main")
    return m
