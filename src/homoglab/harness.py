"""Experiment orchestration: config parsing, the eps-sweep convergence
pipeline, drift-gap and flow-continuity checks, and deterministic report
emission.

All randomness flows from the single config seed through sha256 key
splitting per (stage, index), so re-running a config is byte-identical
regardless of thread count: stages run in parallel but each owns an
independent counter-based stream and assembly is ordered.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

import numpy as np

from . import corrector as corr
from . import families, pde_fd
from .bsde import BsdeSpec, BsdeSolution, solve_bsde, tightness_certificate
from .simulate import PathBundle, SimGrid, occupation_time, moment_report, \
    simulate_avg, simulate_eps


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


@dataclass
class ExperimentConfig:
    family_id: str
    family_params: tuple
    d: int
    k: int
    x0: np.ndarray
    t_end: float
    eps_list: list
    n_paths: int
    n_steps: int
    seed: int
    basis_degree: int = 3
    sign_feature: bool = True
    n_picard: int = 3
    avg_tol: float = 1e-4
    avg_schedule: Optional[list] = None
    block_size: int = 4096
    substeps_cap: int = 64
    fd: Optional[dict] = None
    corrector: Optional[dict] = None
    tolerances: dict = field(default_factory=dict)
    out_dir: str = "out"
    formats: tuple = ("csv", "json")
    raw: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        try:
            famb = doc["family"]
            mc = doc["mc"]
            eps_list = [float(e) for e in doc["eps_list"]]
            cfg = cls(
                family_id=famb["id"],
                family_params=tuple(famb.get("params", [])),
                d=int(famb.get("d", 1)), k=int(famb.get("k", 2)),
                x0=np.asarray(doc["x0"], dtype=float),
                t_end=float(doc["t_end"]), eps_list=eps_list,
                n_paths=int(mc["n_paths"]), n_steps=int(mc["n_steps"]),
                seed=int(mc["seed"]),
                basis_degree=int(doc.get("bsde", {}).get("basis_degree", 3)),
                sign_feature=bool(doc.get("bsde", {}).get("sign_feature", True)),
                n_picard=int(doc.get("bsde", {}).get("n_picard", 3)),
                avg_tol=float(doc.get("averaging", {}).get("tol", 1e-4)),
                avg_schedule=doc.get("averaging", {}).get("schedule"),
                block_size=int(mc.get("block_size", 4096)),
                substeps_cap=int(mc.get("substeps_cap", 64)),
                fd=doc.get("fd"), corrector=doc.get("corrector"),
                tolerances=dict(doc.get("tolerances", {})),
                out_dir=doc.get("outputs", {}).get("dir", "out"),
                formats=tuple(doc.get("outputs", {}).get("formats",
                                                         ["csv", "json"])),
                raw=doc)
        except KeyError as exc:
            raise ConfigError(f"missing config key {exc}") from exc
        for key in ("n_paths", "block_size", "substeps_cap"):
            if getattr(cfg, key) < 1:
                raise ConfigError(f"mc.{key} must be at least 1, "
                                  f"got {getattr(cfg, key)}")
        cc = cfg.corrector or {}
        if "n_grid" in cc and not (isinstance(cc["n_grid"], (list, tuple))
                                   and len(cc["n_grid"]) == 3
                                   and all(map(_is_count, cc["n_grid"]))):
            raise ConfigError("corrector.n_grid must be three integers of "
                              f"at least 1, got {cc['n_grid']!r}")
        if "n_samples" in cc and not _is_count(cc["n_samples"]):
            raise ConfigError("corrector.n_samples must be an integer of "
                              f"at least 1, got {cc['n_samples']!r}")
        if not eps_list or any(e <= 0 for e in eps_list) or \
                any(b >= a for a, b in zip(eps_list, eps_list[1:])):
            raise ConfigError("eps_list must be positive, strictly decreasing")
        if cfg.x0.shape != (cfg.d + 1,):
            raise ConfigError(f"x0 must have {cfg.d + 1} components")
        if not set(cfg.formats) <= {"csv", "json"}:
            raise ConfigError(f"unknown output formats {cfg.formats}")
        return cfg

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(self.raw, sort_keys=True).encode()).hexdigest()[:16]

    def grid(self) -> SimGrid:
        return SimGrid(self.t_end, self.n_steps)

    def family(self):
        return families.make_family(self.family_id, self.family_params,
                                    self.d, self.k)


def _is_count(value) -> bool:
    """An integer (not a bool) of at least 1."""
    return isinstance(value, int) and not isinstance(value, bool) \
        and value >= 1


def _fast_dependent(fam) -> bool:
    x2 = np.zeros((1, fam.d))
    for fn in (lambda a: fam.rho(a, x2), lambda a: fam.rho_b(a, x2),
               lambda a: fam.rho_a(a, x2),
               lambda a: fam.rho_f(a, x2, 0.3)):
        v0 = np.asarray(fn(np.array([0.0])))
        v1 = np.asarray(fn(np.array([7.0])))
        if np.max(np.abs(v1 - v0)) > 1e-12:
            return True
    return False


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

    Every entry point (``run_convergence``, each CLI subcommand and the
    stand-alone checks) takes the family, the averaged model, the backward
    spec, the stage seeds, the substep counts, the FD problem and the
    corrector table from here, so they all run the same computation.
    The averaged model is built on first use; a bad ``averaging`` block
    fails there.
    """

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.fam = cfg.family()
        self._fast = _fast_dependent(self.fam)

    @cached_property
    def avg(self):
        cfg = self.cfg
        return families.build_averaged(
            self.fam, tol=cfg.avg_tol,
            schedule=np.asarray(cfg.avg_schedule, dtype=float)
            if cfg.avg_schedule else None)

    def spec(self, driver) -> BsdeSpec:
        cfg = self.cfg
        return BsdeSpec(terminal=self.fam.terminal, driver=driver,
                        basis_degree=cfg.basis_degree,
                        include_sign_feature=cfg.sign_feature,
                        n_picard=cfg.n_picard,
                        y_bound=_y_bound(self.fam, cfg.t_end))

    def substeps(self, eps: float) -> int:
        """Euler substeps resolving the fast scale: dt_fine <= eps^2 / 2,
        capped at ``mc.substeps_cap`` (with a warning when the cap binds)."""
        if not self._fast:
            return 1
        cap = self.cfg.substeps_cap
        need = np.ceil(self.cfg.grid().dt / (0.5 * eps * eps))
        if need > cap:
            warnings.warn(
                f"eps = {eps} needs {need:.0f} substeps but substeps_cap = "
                f"{cap}; the fast scale is under-resolved", RuntimeWarning)
        return int(min(cap, max(1, need)))

    def eps_paths(self, i: int) -> PathBundle:
        """Two-scale forward paths for ``eps_list[i]``."""
        cfg = self.cfg
        eps = cfg.eps_list[i]
        return simulate_eps(
            self.fam, eps, cfg.x0, cfg.grid(), cfg.n_paths,
            seed=split_seed(cfg.seed, "eps", i),
            substeps=self.substeps(eps), block_size=cfg.block_size)

    def avg_paths(self) -> PathBundle:
        """Forward paths of the averaged model."""
        cfg = self.cfg
        return simulate_avg(self.avg, cfg.x0, cfg.grid(), cfg.n_paths,
                            seed=split_seed(cfg.seed, "avg"),
                            block_size=cfg.block_size)

    def eps_run(self, i: int):
        """(paths, backward solution) for ``eps_list[i]``."""
        bundle = self.eps_paths(i)
        return bundle, solve_bsde(bundle, self.spec(self.fam.driver))

    def avg_run(self):
        """(paths, backward solution) of the averaged model."""
        bundle = self.avg_paths()
        return bundle, solve_bsde(bundle, self.spec(self.avg.driver))

    def sweep(self, n_threads: int = 1) -> list:
        """``eps_run`` over every eps, in eps order; stage seeds make the
        result independent of ``n_threads``."""
        idx = range(len(self.cfg.eps_list))
        if n_threads > 1:
            with ThreadPoolExecutor(max_workers=n_threads) as ex:
                return list(ex.map(self.eps_run, idx))
        return [self.eps_run(i) for i in idx]

    def fd(self):
        """(model, grid, scheme) of the averaged FD problem."""
        fd = self.cfg.fd
        if fd is None:
            raise ConfigError("the FD problem needs an fd block in the config")
        grid = pde_fd.Grid2D(float(fd["L1"]), float(fd["L2"]),
                             int(fd["n1"]), int(fd["n2"]),
                             float(fd["dt_fd"]), self.cfg.t_end)
        model = pde_fd.PdeModel.from_averaged(self.avg, self.fam.terminal)
        return model, grid, fd.get("scheme", "centered")

    def decay(self, csv_path=None) -> corr.DecayTable:
        """Corrector decay table over ``eps_list``."""
        cc = self.cfg.corrector or {}
        return corr.decay_table(
            self.fam, self.avg, self.cfg.eps_list,
            cc.get("box", [[-2, 2], [-1, 1]]), cc.get("y_box", [-1, 1]),
            n_grid=tuple(cc.get("n_grid", [21, 9, 9])), csv_path=csv_path)

    def residual(self) -> corr.ResidualReport:
        """Corrector residual check at the largest eps."""
        cfg = self.cfg
        field = corr.CorrectorField(self.fam, self.avg, cfg.eps_list[0])
        return corr.residual_check(field, {
            "box": [[-2, 2]] + [[-1, 1]] * self.fam.d + [[-1, 1]],
            "n_samples": int((cfg.corrector or {}).get("n_samples", 50)),
            "seed": split_seed(cfg.seed, "corrector")})


def _drift_gap_row(st: Stages, bundle: PathBundle, sol: BsdeSolution):
    """E sup_s |int_0^s (f(X1/eps, X2, Y) - fbar(X1, X2, Y)) du| estimate."""
    eps = bundle.eps
    x1 = bundle.x1()[:, :-1]
    x2 = bundle.x2()[:, :-1]
    y = sol.Y[:, :-1]
    gap = st.fam.driver(x1 / eps, x2)(y) - st.avg.driver(x1, x2)(y)
    integral = np.cumsum(gap * bundle.grid.dt, axis=1)
    sup = np.max(np.abs(integral), axis=1)
    return {"eps": eps,
            "gap": _cell(np.mean(sup), np.std(sup) / np.sqrt(bundle.n_paths))}


@dataclass
class ConvergenceReport:
    report_version: int
    config_digest: str
    rows: list
    averaged: dict
    drift_gap: list
    decay: Optional[dict]
    occupation: Optional[dict]
    tightness: Optional[dict]
    flags: dict
    incomplete: bool = False
    stage_error: Optional[str] = None

    def all_pass(self) -> bool:
        return not self.incomplete and all(self.flags.values())

    def to_dict(self) -> dict:
        return {"report_version": self.report_version,
                "config_digest": self.config_digest,
                "rows": self.rows, "averaged": self.averaged,
                "drift_gap": self.drift_gap, "decay": self.decay,
                "occupation": self.occupation, "tightness": self.tightness,
                "flags": self.flags, "incomplete": self.incomplete,
                "stage_error": self.stage_error}


def run_convergence(cfg: ExperimentConfig, n_threads: int = 1):
    """Full eps-sweep pipeline; see module docstring for the seed scheme.

    Stage errors abort with provenance (PipelineError); the partial report
    assembled so far is attached to the error as ``.partial`` with the
    incomplete marker set.
    """
    done = {"rows": [], "averaged": {}, "drift_gap": [], "decay": None,
            "occupation": None, "tightness": None}
    stage = "setup"
    try:
        st = Stages(cfg)
        stage = "average"
        st.avg   # built here, so that its failure names this stage

        stage = "eps-sweep"
        results = st.sweep(n_threads)

        stage = "averaged-run"
        avg_bundle, avg_sol = st.avg_run()
        y0_bar, y0_bar_se = avg_sol.Y0, avg_sol.Y0_stderr

        stage = "assemble-rows"
        for i, (bundle, sol) in enumerate(results):
            err = abs(sol.Y0 - y0_bar)
            comb = float(np.hypot(sol.Y0_stderr, y0_bar_se))
            done["rows"].append({
                "eps": cfg.eps_list[i],
                "Y0": _cell(sol.Y0, sol.Y0_stderr),
                "error": _cell(err, comb),
                "cv": _cell(sol.cv, sol.cv_stderr),
                "sup_abs_y": _cell(sol.sup_abs_y,
                                   sol.sup_abs_y / np.sqrt(cfg.n_paths)),
                "moments": {str(k): _cell(m, s) for k, (m, s)
                            in moment_report(bundle, [1, 2]).items()},
            })

        stage = "averaged-record"
        done["averaged"] = {"Y0": _cell(y0_bar, y0_bar_se),
                            "moments": {str(k): _cell(m, s) for k, (m, s)
                                        in moment_report(avg_bundle, [1, 2]).items()}}

        stage = "fd-crosscheck"
        if cfg.fd is not None:
            model, grid, scheme = st.fd()
            fd_sol = pde_fd.solve_pde(model, grid, scheme=scheme)
            done["averaged"]["v_fd"] = _cell(
                fd_sol.at(cfg.x0[0], cfg.x0[1]),
                pde_fd.richardson_error(model, fd_sol))

        stage = "drift-gap"
        for bundle, sol in results:
            done["drift_gap"].append(_drift_gap_row(st, bundle, sol))

        stage = "corrector-decay"
        if cfg.corrector is not None:
            table = st.decay()
            done["decay"] = {
                "grid_spec": table.grid_spec,
                "monotone_V": table.monotone_V,
                "rows": [{"eps": r.eps, "sup_V": _cell(r.sup_V),
                          "sup_beta": _cell(r.sup_beta),
                          "sup_alpha": _cell(r.sup_alpha)}
                         for r in table.rows]}

        stage = "occupation"
        ns = [1, 2, 4, 8, 16, 32]
        occ = occupation_time(avg_bundle, ns)
        pos = [(o.n, o.mean_occupation, o.std_error) for o in occ
               if o.mean_occupation > 0]
        if len(pos) >= 3:
            slope = _cell(np.polyfit(np.log([p[0] for p in pos]),
                                     np.log([p[1] for p in pos]), 1)[0])
        else:
            # fewer than 3 interface bands were visited: no law to fit
            slope = {"value": None, "tag": "insufficient_data"}
        done["occupation"] = {
            "estimates": [{"n": n, "mean": _cell(m, s)} for n, m, s in
                          ((o.n, o.mean_occupation, o.std_error) for o in occ)],
            "slope": slope}

        stage = "tightness"
        done["tightness"] = tightness_certificate(
            [sol for _, sol in results], bands=[(-0.5, 0.5)],
            dt=cfg.grid().dt)

        stage = "flags"
        flags = _compute_flags(cfg, done)
    except Exception as exc:
        partial = ConvergenceReport(
            report_version=1, config_digest=cfg.digest(),
            rows=done["rows"], averaged=done["averaged"],
            drift_gap=done["drift_gap"], decay=done["decay"],
            occupation=done["occupation"], tightness=done["tightness"],
            flags={}, incomplete=True, stage_error=stage)
        err = PipelineError(stage, exc)
        err.partial = partial
        raise err from exc

    return ConvergenceReport(
        report_version=1, config_digest=cfg.digest(),
        rows=done["rows"], averaged=done["averaged"],
        drift_gap=done["drift_gap"], decay=done["decay"],
        occupation=done["occupation"], tightness=done["tightness"],
        flags=flags)


def _compute_flags(cfg, done):
    tol = cfg.tolerances
    flags = {}
    errs = [(r["error"]["value"], r["error"]["stderr"]) for r in done["rows"]]
    flags["error_monotone"] = all(
        e2 <= e1 + np.hypot(s1, s2)
        for (e1, s1), (e2, s2) in zip(errs, errs[1:]))
    if "final_error" in tol:
        flags["final_error_ok"] = errs[-1][0] <= float(tol["final_error"])
    gaps = [g["gap"]["value"] for g in done["drift_gap"]]
    gses = [g["gap"]["stderr"] for g in done["drift_gap"]]
    flags["drift_gap_monotone"] = all(
        b <= a + np.hypot(sa, sb) for a, b, sa, sb in
        zip(gaps, gaps[1:], gses, gses[1:]))
    if "drift_gap_factor" in tol and gaps and gaps[0] > 0:
        flags["drift_gap_factor_ok"] = \
            gaps[-1] <= float(tol["drift_gap_factor"]) * gaps[0] + 2 * gses[-1]
    if done["decay"] is not None:
        sup = [r["sup_V"]["value"] for r in done["decay"]["rows"]]
        flags["decay_monotone"] = done["decay"]["monotone_V"]
        if "decay_factor" in tol and sup and sup[0] > 0:
            flags["decay_factor_ok"] = \
                sup[-1] <= float(tol["decay_factor"]) * sup[0]
    if done["occupation"] is not None and "occupation_slope" in tol:
        lo, hi = tol["occupation_slope"]
        s = done["occupation"]["slope"]["value"]
        flags["occupation_slope_ok"] = s is not None and bool(lo <= s <= hi)
    if done["tightness"] is not None and "tightness_ratio" in tol:
        r = float(tol["tightness_ratio"])
        flags["tightness_ok"] = (
            done["tightness"]["ratio_energy"] <= r
            and done["tightness"]["ratio_cv_plus_sup"] <= r)
    return flags


# ---------------------------------------------------------------------------
# Stand-alone checks
# ---------------------------------------------------------------------------

def monte_carlo_drift_gap(cfg: ExperimentConfig, eps_list=None) -> list:
    """Driver-gap table along fresh eps-simulations (Y from the BSDE)."""
    if eps_list is not None:
        cfg = replace(cfg, eps_list=list(eps_list))
    st = Stages(cfg)
    return [_drift_gap_row(st, *st.eps_run(i))
            for i in range(len(cfg.eps_list))]


def flow_continuity_check(cfg: ExperimentConfig, x0_list) -> list:
    """Continuity of the averaged flow in the initial point.

    Runs the averaged model from each x0 with common random numbers, then
    reports per consecutive pair the KS distances of the X_{t_end}
    marginals and the Y0 difference with combined stderr.
    """
    from scipy import stats   # slow to import; only this check uses it
    st = Stages(cfg)
    spec = st.spec(st.avg.driver)
    runs = []
    for x0 in x0_list:
        x0 = np.asarray(x0, dtype=float)
        bundle = simulate_avg(st.avg, x0, cfg.grid(), cfg.n_paths,
                              seed=split_seed(cfg.seed, "flow"),
                              block_size=cfg.block_size)
        runs.append((x0, bundle, solve_bsde(bundle, spec)))
    table = []
    for (x0a, ba, sa), (x0b, bb, sb) in zip(runs, runs[1:]):
        ks = max(float(stats.ks_2samp(ba.X[:, -1, c], bb.X[:, -1, c]).statistic)
                 for c in range(ba.X.shape[2]))
        table.append({
            "x0_a": x0a.tolist(), "x0_b": x0b.tolist(),
            "dx0": float(np.linalg.norm(x0b - x0a)),
            "ks_distance": _cell(ks),
            "Y0_a": _cell(sa.Y0, sa.Y0_stderr),
            "Y0_b": _cell(sb.Y0, sb.Y0_stderr),
            "dY0": _cell(abs(sb.Y0 - sa.Y0),
                         float(np.hypot(sa.Y0_stderr, sb.Y0_stderr)))})
    return table


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


def emit(report: ConvergenceReport, out_dir, formats=("csv", "json")) -> list:
    """Write the report; deterministic bytes, NaN cells are refused."""
    doc = report.to_dict()
    _scan_nan(doc, "report")
    os.makedirs(out_dir, exist_ok=True)
    written = []
    if "json" in formats:
        path = os.path.join(out_dir, "report.json")
        with open(path, "w", newline="") as fh:
            json.dump(doc, fh, sort_keys=True, indent=1)
            fh.write("\n")
        written.append(path)
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
