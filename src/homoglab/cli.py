"""Command-line front end.

Every subcommand takes a single positional config path (the JSON schema of
harness.ExperimentConfig) plus --out / --seed-override / --threads, and
runs its stages through harness.Stages, so each one sees the same
averaged model, seeds and substeps as ``converge``.

Exit codes: 0 all pass flags true, 2 completed with failing flags,
1 pipeline error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import families, pde_fd
from .harness import ConfigError, ExperimentConfig, PipelineError, Stages, \
    emit, run_convergence, split_seed


def _load(args) -> ExperimentConfig:
    cfg = ExperimentConfig.load(args.config)
    if args.seed_override is not None:
        cfg.seed = int(args.seed_override)
    if args.out is not None:
        cfg.out_dir = args.out
    os.makedirs(cfg.out_dir, exist_ok=True)
    return cfg


def _stages(args) -> Stages:
    st = Stages(_load(args))
    st.avg   # a bad averaging block fails every subcommand, as in converge
    return st


def _out(st, name):
    return os.path.join(st.cfg.out_dir, name)


def _write_json(st, name, doc):
    path = _out(st, name)
    with open(path, "w", newline="") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(path)
    return path


def cmd_average(args) -> int:
    st = _stages(args)
    st.avg.save_json(_out(st, "averaged.json"), np.linspace(-3.0, 3.0, 25))
    print(_out(st, "averaged.json"))
    return 0


def cmd_simulate(args) -> int:
    st = _stages(args)
    for i in range(len(st.cfg.eps_list)):
        st.eps_paths(i).save(_out(st, f"paths_eps{i}.bin"))
    st.avg_paths().save(_out(st, "paths_avg.bin"))
    print(st.cfg.out_dir)
    return 0


def cmd_bsde(args) -> int:
    st = _stages(args)
    dt = st.cfg.grid().dt
    summary = {"eps": []}
    for i, (_, sol) in enumerate(st.sweep(args.threads)):
        sol.save(_out(st, f"bsde_eps{i}.bin"), dt)
        summary["eps"].append({"eps": st.cfg.eps_list[i], "Y0": sol.Y0,
                               "stderr": sol.Y0_stderr})
    _, sol = st.avg_run()
    sol.save(_out(st, "bsde_avg.bin"), dt)
    summary["averaged"] = {"Y0": sol.Y0, "stderr": sol.Y0_stderr}
    _write_json(st, "bsde_summary.json", summary)
    return 0


def cmd_corrector(args) -> int:
    st = _stages(args)
    table = st.decay(csv_path=_out(st, "decay.csv"))
    rep = st.residual()
    _write_json(st, "corrector.json", {
        "decay": [{"eps": r.eps, "sup_V": r.sup_V, "sup_beta": r.sup_beta,
                   "sup_alpha": r.sup_alpha} for r in table.rows],
        "monotone_V": table.monotone_V,
        "residual": {"max": rep.max_residual, "scaled": rep.max_scaled,
                     "n_failed": rep.n_failed, "h": rep.h}})
    return 0 if rep.passed and table.monotone_V else 2


def cmd_pde(args) -> int:
    st = _stages(args)
    model, grid, scheme = st.fd()
    sol = pde_fd.solve_pde(model, grid, scheme=scheme)
    sol.save_csv(_out(st, "pde.csv"))
    x0 = st.cfg.x0
    _write_json(st, "pde_summary.json",
                {"value_at_x0": sol.at(x0[0], x0[1]),
                 "richardson_error": pde_fd.richardson_error(model, sol)})
    return 0


def cmd_converge(args) -> int:
    cfg = _load(args)
    report = run_convergence(cfg, n_threads=args.threads)
    emit(report, cfg.out_dir, cfg.formats)
    print(os.path.join(cfg.out_dir, "report.json"))
    return 0 if report.all_pass() else 2


def cmd_audit(args) -> int:
    st = _stages(args)
    box = [[-5.0, 5.0]] + [[-2.0, 2.0]] * st.fam.d + [[-2.0, 2.0]]
    rep = families.audit_assumptions(
        st.fam, {"box": box, "n_samples": 256,
                 "seed": split_seed(st.cfg.seed, "audit")})
    doc = {aid: {"status": e.status, "residual": e.residual,
                 "witness": list(e.witness) if e.witness else None,
                 "detail": e.detail}
           for aid, e in rep.entries.items()}
    _write_json(st, "audit.json", doc)
    return 0 if not rep.violated() else 2


_COMMANDS = {"average": cmd_average, "simulate": cmd_simulate,
             "bsde": cmd_bsde, "corrector": cmd_corrector, "pde": cmd_pde,
             "converge": cmd_converge, "audit": cmd_audit}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="homoglab",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("config", help="path to the JSON experiment config")
        sp.add_argument("--out", default=None, help="output directory override")
        sp.add_argument("--seed-override", default=None, type=int)
        sp.add_argument("--threads", default=1, type=int)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (PipelineError, ConfigError, OSError, ValueError,
            RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
