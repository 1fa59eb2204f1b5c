"""The benchmark's workloads: generated configs, thread settings and the
checks every run's report must pass.

Each workload is a closed loop with one client: ``homoglab converge`` runs
back to back, each call in a fresh child process.  The seed from the
command line replaces ``mc.seed``; the program sees only the generated
config file.

The sizes are scaled down from the shapes they copy (the shipped demo, a
substep-heavy forward sweep, an FD/corrector-heavy slowvary run) so that
one call takes a few seconds and one benchmark run holds several calls.
Each workload keeps the layer mix of its full-size shape.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

# |averaged Y0 - reference| must stay within this many combined stderrs.
Y0_SIGMAS = 4.0
# |v_fd - averaged Y0| <= FD_SIGMAS * stderr + richardson error + 2 dt, the
# form of acceptance criterion 07.
FD_SIGMAS = 4.0

# Thread caps for the child's numeric libraries: pipeline threads x BLAS
# threads stays within the core count.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    threads: int
    build: Callable[[str, int], dict]     # (repo root, seed) -> config doc
    # seed-independent reference for the averaged Y0: (value, stderr)
    reference: tuple


def _shipped_demo(root: str) -> dict:
    with open(os.path.join(root, "configs", "switch_demo.json")) as fh:
        return json.load(fh)


def _demo(root: str, seed: int) -> dict:
    doc = _shipped_demo(root)
    doc["mc"]["seed"] = seed
    doc["mc"]["n_paths"] = 2500
    doc["fd"].update({"n1": 99, "n2": 49})
    return doc


def _fast_scale(root: str, seed: int) -> dict:
    demo = _shipped_demo(root)
    return {
        "family": dict(demo["family"]),
        "x0": list(demo["x0"]), "t_end": demo["t_end"],
        "eps_list": [0.1, 0.05, 0.03, 0.02],
        "mc": {"n_paths": 2048, "n_steps": demo["mc"]["n_steps"],
               "seed": seed, "block_size": 4096, "substeps_cap": 64},
        "bsde": {"basis_degree": 2, "sign_feature": True, "n_picard": 3},
        "averaging": dict(demo["averaging"]),
        "tolerances": dict(demo["tolerances"]),
        "outputs": {"dir": "out/fast_scale", "formats": ["csv", "json"]},
    }


def _fd_corrector(root: str, seed: int) -> dict:
    demo = _shipped_demo(root)
    fd = dict(demo["fd"])
    fd.update({"n1": 149, "n2": 75})
    return {
        "family": {"id": "slowvary", "params": [], "d": 1, "k": 2},
        "x0": list(demo["x0"]), "t_end": demo["t_end"],
        "eps_list": [1.0, 0.5, 0.25],
        "mc": {"n_paths": 1024, "n_steps": demo["mc"]["n_steps"],
               "seed": seed, "block_size": 4096, "substeps_cap": 64},
        "bsde": dict(demo["bsde"]),
        "averaging": dict(demo["averaging"]),
        "fd": fd,
        "corrector": {"box": [[-2, 2], [-1, 1]], "y_box": [-1, 1],
                      "n_grid": [61, 21, 21]},
        "tolerances": dict(demo["tolerances"]),
        "outputs": {"dir": "out/fd_corrector", "formats": ["csv", "json"]},
    }


WORKLOADS = {w.name: w for w in (
    Workload("demo", "shipped switch demo, MC paths and FD grid scaled: "
             "regression Monte Carlo dominates; single-threaded baseline",
             1, _demo, (1.0222, 0.0015)),
    Workload("fast_scale", "small eps, substeps up to 50, no fd/corrector, "
             "2 threads: forward paths dominate time and memory",
             2, _fast_scale, (1.0222, 0.0015)),
    Workload("fd_corrector", "slowvary family, fine FD grid and corrector "
             "table, light Monte Carlo: deterministic solvers dominate",
             1, _fd_corrector, (0.74676, 0.00144)),
)}


# ---------------------------------------------------------------------------
# Output check
# ---------------------------------------------------------------------------

def check_report(workload: Workload, config: dict, report) -> list:
    """Problems with one run's parsed ``report.json`` (empty when correct).

    Flags are not gated: they are recorded per run by the caller.
    """
    problems = []
    if not isinstance(report, dict):
        return ["report is not a JSON object"]
    rows = report.get("rows") or []
    eps = [r.get("eps") for r in rows]
    if eps != [float(e) for e in config["eps_list"]]:
        problems.append(f"eps rows {eps} != eps_list {config['eps_list']}")
    for r in rows:
        se = r.get("Y0", {}).get("stderr")
        if not (isinstance(se, float) and se > 0 and math.isfinite(se)):
            problems.append(f"row eps={r.get('eps')} has no Y0 stderr")
    avg = report.get("averaged", {}).get("Y0", {})
    y0, se = avg.get("value"), avg.get("stderr")
    if not (isinstance(y0, float) and isinstance(se, float) and se > 0):
        return problems + ["averaged Y0 missing"]
    ref, ref_se = workload.reference
    allow = Y0_SIGMAS * math.hypot(se, ref_se)
    if abs(y0 - ref) > allow:
        problems.append(f"averaged Y0 {y0:.5f} misses reference {ref} "
                        f"by more than {allow:.5f}")
    vfd = report["averaged"].get("v_fd")
    if config.get("fd") is not None:
        if vfd is None:
            problems.append("fd block configured but v_fd missing")
        else:
            dt = config["t_end"] / config["mc"]["n_steps"]
            allow = FD_SIGMAS * se + vfd["stderr"] + 2 * dt
            if abs(vfd["value"] - y0) > allow:
                problems.append(f"v_fd {vfd['value']:.5f} disagrees with "
                                f"averaged Y0 {y0:.5f} (allow {allow:.5f})")
    return problems


def sigma_max(report: dict) -> float:
    """Largest Y0 stderr over the eps rows and the averaged row."""
    return max([r["Y0"]["stderr"] for r in report["rows"]]
               + [report["averaged"]["Y0"]["stderr"]])
