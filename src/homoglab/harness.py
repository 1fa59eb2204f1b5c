"""Experiment orchestration: config parsing, the eps-sweep convergence
pipeline with its drift-gap check, and deterministic report emission.

All randomness flows from the single config seed through sha256 key
splitting per (stage, index), so re-running a config is byte-identical
regardless of worker count: the sweep may run its runs (each eps row and,
last, the averaged model, all on one path) on forked worker processes,
but each run owns an independent counter-based stream and assembly is
ordered.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import sys
import threading
import warnings
from dataclasses import asdict, dataclass, field
from functools import cached_property, partial
from typing import Optional

import numpy as np

from . import corrector as corr
from . import families, pde_fd
from .bsde import BsdeSpec, solve_bsde, tightness_certificate, tightness_row
from .simulate import PathBundle, SimGrid, SimulationError, mean_stderr, \
    moment_report, occupation_time, simulate_avg, simulate_eps


class ConfigError(ValueError):
    """Malformed or incomplete experiment configuration."""


class PipelineError(RuntimeError):
    """A pipeline stage failed; carries stage provenance."""

    def __init__(self, stage, cause):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


class EmitError(RuntimeError):
    """Report emission refused (NaN cell or I/O failure)."""


def split_seed(seed: int, *labels) -> int:
    """Independent 63-bit stream key derived from the master seed."""
    text = "|".join([str(int(seed))] + [str(l) for l in labels])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "little") & 0x7FFFFFFFFFFFFFFF


def _is_int(value) -> bool:
    """An integer, not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """An int or float that is a finite float: no NaN, inf or huge int."""
    return (_is_int(value) or isinstance(value, float)) \
        and abs(value) <= sys.float_info.max


def _is_list_of(value, ok, n=None) -> bool:
    """A list of ``n`` items, or of any number when n is None, that each
    pass ``ok``."""
    return isinstance(value, (list, tuple)) and n in (None, len(value)) \
        and all(map(ok, value))


def _is_eps_ladder(value) -> bool:
    """At least one positive number, strictly decreasing."""
    return _is_list_of(value, _is_number) and len(value) >= 1 \
        and min(value) > 0 and all(b < a for a, b in zip(value, value[1:]))


# rules: (check, what the check asks for)
_INTEGER = (_is_int, "an integer")
_COUNT = (lambda v: _is_int(v) and v >= 1, "at least 1 and an integer")
_NUMBER = (_is_number, "a finite number")
_POSITIVE = (lambda v: _is_number(v) and v > 0, "a positive finite number")
_STRING = (lambda v: isinstance(v, str), "a string")
_BOOL = (lambda v: isinstance(v, bool), "true or false")
_PAIR = (lambda v: _is_list_of(v, _is_number, 2), "one finite [lo, hi] pair")
_NUMBERS = (lambda v: _is_list_of(v, _is_number), "a list of finite numbers")
_EPS_LADDER = (_is_eps_ladder,
               "a positive, strictly decreasing list of finite numbers")
_BOX = (lambda v: _is_list_of(v, _PAIR[0], 2), "two finite [lo, hi] pairs")
_N_GRID = (lambda v: _is_list_of(v, _COUNT[0], 3),
           "three integers of at least 1")
_FORMATS = (lambda v: _is_list_of(v, lambda f: f in ("csv", "json"))
            and len(v) > 0, 'a non-empty list of "csv" and "json"')

_REQUIRED = object()   # the default of a key that every config must give

# key -> (rule, default) of the config and, nested, of each of its blocks;
# a block's rule is its own table.  An absent key takes its default.  An
# absent or null fd or corrector block is None, and its stage does not run;
# a None default inside a block means "not set".  The ranges of t_end,
# mc.n_steps, the bsde knobs and the fd grid are not here: the objects that
# use them own them (see ``_OWNED``), as the family catalog owns which
# family blocks it can build.
_SCHEMA = {
    "family": ({"id": (_STRING, _REQUIRED), "params": (_NUMBERS, ()),
                "d": (_INTEGER, 1), "k": (_INTEGER, 2)}, _REQUIRED),
    "x0": (_NUMBERS, _REQUIRED),
    "t_end": (_NUMBER, _REQUIRED),
    "eps_list": (_EPS_LADDER, _REQUIRED),
    "mc": ({"n_paths": (_COUNT, _REQUIRED), "n_steps": (_INTEGER, _REQUIRED),
            "seed": (_INTEGER, _REQUIRED), "block_size": (_COUNT, 4096),
            "substeps_cap": (_COUNT, 64)}, _REQUIRED),
    "bsde": ({"basis_degree": (_INTEGER, 3), "sign_feature": (_BOOL, True),
              "n_picard": (_INTEGER, 3)}, {}),
    "averaging": ({"tol": (_POSITIVE, 1e-4)}, {}),
    "fd": ({"L1": (_NUMBER, _REQUIRED), "L2": (_NUMBER, _REQUIRED),
            "n1": (_INTEGER, _REQUIRED), "n2": (_INTEGER, _REQUIRED),
            "dt_fd": (_NUMBER, _REQUIRED)}, None),
    "corrector": ({"box": (_BOX, ((-2, 2), (-1, 1))),
                   "y_box": (_PAIR, (-1, 1)), "n_grid": (_N_GRID, (21, 9, 9)),
                   "n_samples": (_COUNT, 50)}, None),
    "tolerances": ({"final_error": (_NUMBER, None),
                    "drift_gap_factor": (_NUMBER, None),
                    "decay_factor": (_NUMBER, None),
                    "tightness_ratio": (_NUMBER, None),
                    "occupation_slope": (_PAIR, None)}, {}),
    "outputs": ({"dir": (_STRING, "out"),
                 "formats": (_FORMATS, ("csv", "json"))}, {}),
}


def _resolve(path: str, block, schema: dict) -> dict:
    """``block`` checked against ``schema``, with its defaults filled in.

    Refuses by name a block that is not an object, an unknown key, a
    missing required key and a value that fails its rule.
    """
    def name(key):
        return f"{path}.{key}" if path else key

    if not isinstance(block, dict):
        raise ConfigError(f"{path or 'config'} must be an object, "
                          f"got {block!r}")
    for key in block:
        if key not in schema:
            raise ConfigError(f"unknown config key {name(key)!r}")
    out = {}
    for key, (rule, default) in schema.items():
        value = block.get(key, default)
        if value is _REQUIRED:
            raise ConfigError(f"missing config key {name(key)!r}")
        if isinstance(rule, dict):
            # a block; an absent or null fd or corrector block stays None
            if value is not None or default is not None:
                value = _resolve(name(key), value, rule)
        elif key in block and not rule[0](value):
            raise ConfigError(f"{name(key)} must be {rule[1]}, "
                              f"got {value!r}")
        out[key] = value
    return out


# The largest path array, FD march and corrector quadrature a config may
# ask for: at most this many path states, mc.n_paths * (mc.n_steps + 1)
# (each d + 1 doubles, with k more for the increments), at most this many
# FD node-steps, (fd.n1 + 2) * (fd.n2 + 2) * (t_end / fd.dt_fd), and at most
# this many starting panels over the decay table's x1 range at the smallest
# eps (``corrector.start_panels``).
MAX_COUNT = 10 ** 8


def _decay_within_bound(corrector: dict, eps_list) -> None:
    """Refuse a decay table on the corrector block ``corrector`` whose
    starting panel count at the smallest eps exceeds ``MAX_COUNT``."""
    if corr.start_panels(corrector["box"], eps_list[-1]) > MAX_COUNT:
        raise ConfigError(
            f"decay-table starting panels |corrector.box x1 range| / "
            f"(pi * min(1, smallest eps)) exceed the bound {MAX_COUNT:.0e} "
            f"(config keys 'eps_list', 'corrector.box')")


# the config key of each field whose rule SimGrid, BsdeSpec or Grid2D owns
_OWNED = {"t_end": "t_end", "n_steps": "mc.n_steps",
          "basis_degree": "bsde.basis_degree", "n_picard": "bsde.n_picard",
          **{f: f"fd.{f}" for f in ("L1", "L2", "n1", "n2", "dt_fd")}}


@dataclass
class ExperimentConfig:
    """One experiment: each block of the config document checked against
    ``_SCHEMA`` and completed with its defaults, and the document itself,
    which ``digest`` hashes.  ``fd`` is the FD grid of the fd block."""
    family_block: dict
    x0: np.ndarray
    t_end: float
    eps_list: list
    mc: dict
    bsde: dict
    averaging: dict
    fd: Optional[pde_fd.Grid2D]
    corrector: Optional[dict]
    tolerances: dict
    outputs: dict
    raw: dict

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        c = _resolve("", doc, _SCHEMA)
        c["x0"] = np.asarray(c["x0"], dtype=float)
        if c["x0"].shape != (c["family"]["d"] + 1,):
            raise ConfigError(f"x0 must have {c['family']['d'] + 1} "
                              f"components")
        c["t_end"] = float(c["t_end"])
        c["eps_list"] = [float(e) for e in c["eps_list"]]
        cfg = cls(family_block=c.pop("family"), raw=doc, **c)
        # refuse up front what the pipeline objects would refuse mid-run
        try:
            cfg.family()
        except families.FamilyError as exc:
            raise ConfigError(f"{exc} (config key 'family')") from exc
        fd = cfg.fd
        if fd is not None:
            # the FD solve's sparse LU: a run that solves the PDE pays the
            # import here, and a run without an fd block never loads SciPy
            try:
                pde_fd.load_solver()
            except ImportError as exc:
                raise ConfigError(f"the FD solve needs scipy.sparse: {exc} "
                                  f"(config key 'fd')") from exc
        try:
            # each of these messages starts with the field it refuses
            cfg.grid()
            BsdeSpec(None, None, cfg.bsde["basis_degree"],
                     n_picard=cfg.bsde["n_picard"])
            if fd is not None:
                cfg.fd = pde_fd.Grid2D(float(fd["L1"]), float(fd["L2"]),
                                       fd["n1"], fd["n2"],
                                       float(fd["dt_fd"]), cfg.t_end)
        except (SimulationError, pde_fd.PdeError, ValueError) as exc:
            key = _OWNED[str(exc).split(" ", 1)[0]]
            raise ConfigError(f"{exc} (config key {key!r})") from exc
        grid = cfg.fd
        for what, count, keys in (
                ("path states mc.n_paths * (mc.n_steps + 1)",
                 cfg.mc["n_paths"] * (cfg.mc["n_steps"] + 1),
                 "'mc.n_paths', 'mc.n_steps'"),
                ("FD node-steps (fd.n1 + 2) * (fd.n2 + 2) * (t_end / fd.dt_fd)",
                 0 if grid is None else
                 (grid.n1 + 2) * (grid.n2 + 2) * grid.n_steps,
                 "'fd.n1', 'fd.n2', 'fd.dt_fd'")):
            if count > MAX_COUNT:
                raise ConfigError(f"{what} exceed the bound {MAX_COUNT:.0e} "
                                  f"(config keys {keys})")
        if cfg.corrector is not None:
            _decay_within_bound(cfg.corrector, cfg.eps_list)
        if cfg.fd is not None and not cfg.fd.contains(*cfg.x0):
            # the FD value at x0 would be extrapolated past the boundary
            raise ConfigError(
                f"x0 = {cfg.x0.tolist()} lies outside the fd box "
                f"[-{cfg.fd.L1}, {cfg.fd.L1}] x [-{cfg.fd.L2}, {cfg.fd.L2}] "
                f"(config key 'x0')")
        return cfg

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(self.raw, sort_keys=True).encode()).hexdigest()[:16]

    def grid(self) -> SimGrid:
        return SimGrid(self.t_end, self.mc["n_steps"])

    def family(self):
        fb = self.family_block
        return families.make_family(fb["id"], fb["params"], fb["d"], fb["k"])


def _fast_dependent(fam) -> bool:
    x2 = np.zeros((1, fam.d))
    v0, v1 = ([*fam.forward(x1, x2), fam.rho_f_coef(x1, x2)]
              for x1 in (np.array([0.0]), np.array([7.0])))
    return any(np.max(np.abs(b - a)) > 1e-12 for a, b in zip(v0, v1))


def _y_bound(fam, t_end: float) -> float:
    b = fam.bounds
    return float(b["h_sup"] + t_end * b["f_sup"])


def _cell(value, stderr=None):
    if stderr is None:
        return {"value": float(value), "tag": "exact"}
    return {"value": float(value), "stderr": float(stderr)}


# ---------------------------------------------------------------------------
# Pipeline stages
# ---------------------------------------------------------------------------

class Stages:
    """The pipeline stages of one config.

    Every entry point (``run_convergence`` and each CLI subcommand) takes
    the family, the averaged model, the backward spec, the stage seeds,
    the substep counts, the FD problem and the corrector table from here,
    so they all run the same computation.
    The averaged model is built on first use; a bad ``averaging`` block
    fails there.
    """

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.fam = cfg.family()
        self._fast = _fast_dependent(self.fam)

    @cached_property
    def avg(self):
        try:
            return families.build_averaged(
                self.fam, tol=float(self.cfg.averaging["tol"]))
        except families.AveragingError as exc:
            raise families.AveragingError(
                f"{exc} (config key 'averaging.tol')") from exc

    @cached_property
    def corrector(self) -> dict:
        """The corrector block, or its defaults when the config has none."""
        return self.cfg.corrector or _resolve("corrector", {},
                                              _SCHEMA["corrector"][0])

    def spec(self, driver) -> BsdeSpec:
        b = self.cfg.bsde
        return BsdeSpec(terminal=self.fam.terminal, driver=driver,
                        basis_degree=b["basis_degree"],
                        include_sign_feature=b["sign_feature"],
                        n_picard=b["n_picard"],
                        y_bound=_y_bound(self.fam, self.cfg.t_end))

    def substeps(self, eps: float) -> int:
        """Euler substeps resolving the fast scale: dt_fine <= eps^2 / 2,
        capped at ``mc.substeps_cap`` (with a warning when the cap binds)."""
        if not self._fast:
            return 1
        cap = self.cfg.mc["substeps_cap"]
        half_sq = 0.5 * eps * eps
        # an eps whose square underflows to 0 needs more than any cap
        need = np.ceil(self.cfg.grid().dt / half_sq) if half_sq > 0 else np.inf
        if need > cap:
            warnings.warn(
                f"eps = {eps} needs {need:.0f} substeps but substeps_cap = "
                f"{cap}; the fast scale is under-resolved", RuntimeWarning)
        return int(min(cap, max(1, need)))

    @cached_property
    def row_substeps(self) -> list:
        """``substeps`` of each run, worked out once, so a binding cap warns
        once per eps: each eps row's, then the averaged model's 1."""
        return [self.substeps(eps) for eps in self.cfg.eps_list] + [1]

    @property
    def names(self) -> list:
        """Each run's file stem: ``eps{i}`` of each eps row, then ``avg``."""
        return [f"eps{i}" for i in range(len(self.cfg.eps_list))] + ["avg"]

    def paths(self, i: int) -> PathBundle:
        """Forward paths of run i: of ``eps_list[i]``, or of the averaged
        model for i = len(eps_list)."""
        cfg, mc = self.cfg, self.cfg.mc
        args = (cfg.x0, cfg.grid(), mc["n_paths"])
        kw = {"substeps": self.row_substeps[i], "block_size": mc["block_size"]}
        if i == len(cfg.eps_list):
            return simulate_avg(self.avg, *args,
                                seed=split_seed(mc["seed"], "avg"), **kw)
        return simulate_eps(self.fam, cfg.eps_list[i], *args,
                            seed=split_seed(mc["seed"], "eps", i), **kw)

    def run(self, i: int):
        """(paths, backward solution) of run i."""
        bundle = self.paths(i)
        model = self.avg if bundle.eps is None else self.fam.at(bundle.eps)
        return bundle, solve_bsde(bundle, self.spec(model.driver))

    def sweep(self, job, n_workers: int = 1) -> list:
        """``job(self, i)`` of every run i, the eps rows then the averaged run.

        A row job reduces its run where it runs, so only its result, never
        the run's paths or solution, reaches the caller.  With
        ``n_workers`` > 1 and the ``fork`` start method, the runs go to
        min(n_workers, runs) forked worker processes, which inherit this
        ``Stages`` (its averaged model built first) and ``job``; neither is
        pickled.  The runs are submitted longest first, by substeps, so the
        averaged run, of one substep, goes last.  Otherwise, and when the
        caller runs other threads (a fork copies any lock one of them
        holds), they run here, one after the other.  Stage seeds make the
        result independent of ``n_workers``.
        """
        steps = self.row_substeps   # here, so a cap warning reaches the caller
        n = len(steps)
        if min(n_workers, n) < 2 or threading.active_count() > 1 \
                or not hasattr(os, "fork"):
            return [job(self, i) for i in range(n)]
        self.avg   # built before the fork, so that no worker builds it
        # imported here, so a run on one worker never loads multiprocessing
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(
            min(n_workers, n), mp_context=multiprocessing.get_context("fork"),
            initializer=_adopt_job, initargs=(partial(job, self),))
        try:
            jobs = {i: pool.submit(_row_job, i)
                    for i in sorted(range(n), key=lambda i: -steps[i])}
            return [jobs[i].result() for i in range(n)]
        finally:
            # on a failure the runs not yet started are dropped
            pool.shutdown(cancel_futures=True)

    def fd(self):
        """The averaged FD solve on the config's grid: (solution, its value
        at x0, its Richardson estimate)."""
        cfg = self.cfg
        if cfg.fd is None:
            raise ConfigError("the FD problem needs an fd block in the config")
        model = pde_fd.PdeModel.from_averaged(self.avg, self.fam.terminal)
        sol = pde_fd.solve_pde(model, cfg.fd)
        return (sol, sol.at(cfg.x0[0], cfg.x0[1]),
                pde_fd.richardson_error(model, sol))

    def decay(self) -> corr.DecayTable:
        """Corrector decay table over ``eps_list``, on the block or its
        defaults, each held to the load-time panel bound."""
        cc = self.corrector
        _decay_within_bound(cc, self.cfg.eps_list)
        return corr.decay_table(
            self.fam, self.avg, self.cfg.eps_list, cc["box"], cc["y_box"],
            n_grid=tuple(cc["n_grid"]))

    def residual(self) -> corr.ResidualReport:
        """Corrector residual check at the largest eps."""
        cfg = self.cfg
        field = corr.CorrectorField(self.fam.at(cfg.eps_list[0]), self.avg)
        cc = self.corrector
        return corr.residual_check(field, {
            "box": [*cc["box"], cc["y_box"]], "n_samples": cc["n_samples"],
            "seed": split_seed(cfg.mc["seed"], "corrector")})


# a sweep worker's row job, bound to its Stages by the sweep
_worker_job = None


def _adopt_job(job) -> None:
    global _worker_job
    _worker_job = job


def _row_job(i: int):
    """Run i of the worker's job; only its result goes back to the caller."""
    return _worker_job(i)


def _report_row(st: Stages, i: int) -> dict:
    """The report's row job.  An eps row is reduced to its report row (all
    but ``error``, which needs the averaged run), its drift-gap row (the
    estimate of E sup_s |int_0^s (f(X1/eps, X2, Y) - fbar(X1, X2, Y)) du|)
    and its ``tightness_row``; the averaged run to the report's
    ``averaged`` cells (Y0 and moments) and its ``occupation``."""
    bundle, sol = st.run(i)
    eps, dt = bundle.eps, bundle.grid.dt
    y0 = _cell(sol.Y0, sol.Y0_stderr)
    moments = {str(k): _cell(m, s)
               for k, (m, s) in moment_report(bundle, [1, 2]).items()}
    if eps is None:
        occ = occupation_time(bundle, [1, 2, 4, 8, 16, 32])
        pos = [(n, m) for n, (m, _) in occ.items() if m > 0]
        if len(pos) >= 3:
            ns, means = zip(*pos)
            slope = _cell(np.polyfit(np.log(ns), np.log(means), 1)[0])
        else:
            # fewer than 3 interface bands were visited: no law to fit
            slope = {"value": None, "tag": "insufficient_data"}
        return {"averaged": {"Y0": y0, "moments": moments},
                "occupation": {"estimates": [{"n": n, "mean": _cell(m, s)}
                                             for n, (m, s) in occ.items()],
                               "slope": slope}}
    x1, x2, y = bundle.x1()[:, :-1], bundle.x2()[:, :-1], sol.Y[:, :-1]
    gap = st.fam.at(eps).driver(x1, x2)(y) - st.avg.driver(x1, x2)(y)
    integral = np.cumsum(gap * dt, axis=1)
    return {"row": {"eps": eps, "Y0": y0, "cv": _cell(sol.cv, sol.cv_stderr),
                    "sup_abs_y": _cell(*mean_stderr(
                        np.max(np.abs(sol.Y), axis=1))),
                    "moments": moments},
            "drift_gap": {"eps": eps, "gap": _cell(*mean_stderr(
                np.max(np.abs(integral), axis=1)))},
            "tightness": tightness_row(sol, dt)}


@dataclass
class ConvergenceReport:
    """The report of one sweep; ``run_convergence`` creates it empty and
    its stages fill it in."""
    report_version: int = field(default=1, init=False)
    config_digest: str
    rows: list = field(default_factory=list)
    averaged: dict = field(default_factory=dict)
    drift_gap: list = field(default_factory=list)
    decay: Optional[dict] = None
    occupation: Optional[dict] = None
    tightness: Optional[dict] = None
    flags: dict = field(default_factory=dict)
    incomplete: bool = False
    stage_error: Optional[str] = None

    def all_pass(self) -> bool:
        return not self.incomplete and all(self.flags.values())

    def to_dict(self) -> dict:
        return asdict(self)


def run_convergence(cfg: ExperimentConfig, n_workers: int = 1):
    """Full eps-sweep pipeline; see module docstring for the seed scheme.
    The sweep runs on ``n_workers`` worker processes (``Stages.sweep``).

    Stage errors abort with provenance (PipelineError); the partial report
    assembled so far is attached to the error as ``.partial`` with the
    incomplete marker set.
    """
    report = ConvergenceReport(cfg.digest())
    stage = "setup"
    try:
        st = Stages(cfg)
        stage = "average"
        st.avg   # built here, so that its failure names this stage

        stage = "eps-sweep"
        *records, last = st.sweep(_report_row, n_workers)
        report.averaged, report.occupation = \
            last["averaged"], last["occupation"]

        stage = "assemble-rows"
        y0_bar = report.averaged["Y0"]
        for rec in records:
            y0 = rec["row"]["Y0"]
            err = abs(y0["value"] - y0_bar["value"])
            comb = float(np.hypot(y0["stderr"], y0_bar["stderr"]))
            report.rows.append({**rec["row"], "error": _cell(err, comb)})
            report.drift_gap.append(rec["drift_gap"])

        stage = "fd-crosscheck"
        if cfg.fd is not None:
            _, v_fd, v_fd_error = st.fd()
            report.averaged["v_fd"] = _cell(v_fd, v_fd_error)

        stage = "corrector-decay"
        if cfg.corrector is not None:
            table = st.decay()
            report.decay = {
                "grid_spec": table.grid_spec,
                "monotone_V": table.monotone_V,
                "rows": [{"eps": r.eps, "sup_V": _cell(r.sup_V),
                          "sup_beta": _cell(r.sup_beta),
                          "sup_alpha": _cell(r.sup_alpha)}
                         for r in table.rows]}

        stage = "tightness"
        report.tightness = tightness_certificate(
            [rec["tightness"] for rec in records])

        stage = "flags"
        report.flags = _compute_flags(cfg, report)
    except Exception as exc:
        report.incomplete = True
        report.stage_error = stage
        err = PipelineError(stage, exc)
        err.partial = report
        raise err from exc
    return report


def _no_rise(cells) -> bool:
    """No cell of a ladder exceeds the one before it by more than their
    combined stderr, hypot(s1, s2)."""
    return all(b["value"] <= a["value"] + np.hypot(a["stderr"], b["stderr"])
               for a, b in zip(cells, cells[1:]))


def _compute_flags(cfg, report):
    tol = cfg.tolerances
    flags = {}
    flags["error_monotone"] = _no_rise([r["error"] for r in report.rows])
    if tol["final_error"] is not None:
        flags["final_error_ok"] = \
            report.rows[-1]["error"]["value"] <= float(tol["final_error"])
    flags["drift_gap_monotone"] = _no_rise(
        [g["gap"] for g in report.drift_gap])
    gaps = [g["gap"]["value"] for g in report.drift_gap]
    gses = [g["gap"]["stderr"] for g in report.drift_gap]
    if tol["drift_gap_factor"] is not None and gaps and gaps[0] > 0:
        flags["drift_gap_factor_ok"] = \
            gaps[-1] <= float(tol["drift_gap_factor"]) * gaps[0] + 2 * gses[-1]
    if report.decay is not None:
        sup = [r["sup_V"]["value"] for r in report.decay["rows"]]
        flags["decay_monotone"] = report.decay["monotone_V"]
        if tol["decay_factor"] is not None and sup and sup[0] > 0:
            flags["decay_factor_ok"] = \
                sup[-1] <= float(tol["decay_factor"]) * sup[0]
    if report.occupation is not None and tol["occupation_slope"] is not None:
        lo, hi = tol["occupation_slope"]
        s = report.occupation["slope"]["value"]
        flags["occupation_slope_ok"] = s is not None and bool(lo <= s <= hi)
    if report.tightness is not None and tol["tightness_ratio"] is not None:
        r = float(tol["tightness_ratio"])
        flags["tightness_ok"] = (
            report.tightness["ratio_energy"] <= r
            and report.tightness["ratio_cv_plus_sup"] <= r)
    return flags


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def _scan_nan(node, path):
    if isinstance(node, dict):
        for key in node:
            _scan_nan(node[key], f"{path}.{key}")
    elif isinstance(node, (list, tuple)):
        for i, v in enumerate(node):
            _scan_nan(v, f"{path}[{i}]")
    elif isinstance(node, float) and not np.isfinite(node):
        raise EmitError(f"non-finite cell at {path}")


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def write_json(path, doc) -> str:
    """The JSON layout of ``report.json`` and of every CLI summary: sorted
    keys, indent 1, a final newline.  Returns ``path``."""
    with open(path, "w", newline="") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return path


def emit(report: ConvergenceReport, out_dir, formats=("csv", "json")) -> list:
    """Write the report; deterministic bytes, NaN cells are refused."""
    doc = report.to_dict()
    _scan_nan(doc, "report")
    os.makedirs(out_dir, exist_ok=True)
    written = []
    if "json" in formats:
        written.append(write_json(os.path.join(out_dir, "report.json"), doc))
    if "csv" in formats:
        path = os.path.join(out_dir, "convergence.csv")
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["eps", "Y0", "Y0_stderr", "error", "error_stderr",
                        "cv", "sup_abs_y"])
            for r in doc["rows"]:
                w.writerow([_fmt(r["eps"]),
                            _fmt(r["Y0"]["value"]), _fmt(r["Y0"]["stderr"]),
                            _fmt(r["error"]["value"]),
                            _fmt(r["error"]["stderr"]),
                            _fmt(r["cv"]["value"]),
                            _fmt(r["sup_abs_y"]["value"])])
        written.append(path)
        path = os.path.join(out_dir, "drift_gap.csv")
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["eps", "gap", "gap_stderr"])
            for g in doc["drift_gap"]:
                w.writerow([_fmt(g["eps"]), _fmt(g["gap"]["value"]),
                            _fmt(g["gap"]["stderr"])])
        written.append(path)
    return written
