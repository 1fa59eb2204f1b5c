"""Command-line front end.

Every subcommand takes a single positional config path (the JSON schema of
harness.ExperimentConfig) plus --out and the flags it reads (``_COMMANDS``),
and runs its stages through harness.Stages, so each one sees the same
averaged model, seeds and substeps as ``converge``.

Exit codes: 0 all pass flags true, 2 completed with failing flags,
1 pipeline or usage error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import families
from .harness import ConfigError, ExperimentConfig, PipelineError, Stages, \
    emit, run_convergence, split_seed, write_json


def _load(args) -> ExperimentConfig:
    cfg = ExperimentConfig.load(args.config)
    if getattr(args, "seed_override", None) is not None:
        # the override is part of the config, so of its digest
        cfg = ExperimentConfig.from_dict(
            {**cfg.raw, "mc": {**cfg.raw["mc"], "seed": args.seed_override}})
    if args.out is not None:
        cfg.outputs["dir"] = args.out
    return cfg


def _stages(args) -> Stages:
    st = Stages(_load(args))
    st.avg   # a bad averaging block fails every subcommand, as in converge
    return st


def _out(st, name):
    """The path of output ``name``; the directory is made at the first
    output, so a run that fails before it leaves none."""
    os.makedirs(st.cfg.outputs["dir"], exist_ok=True)
    return os.path.join(st.cfg.outputs["dir"], name)


def cmd_average(args) -> int:
    st = _stages(args)
    print(write_json(_out(st, "averaged.json"),
                     st.avg.to_json(np.linspace(-3.0, 3.0, 25))))
    return 0


def cmd_simulate(args) -> int:
    st = _stages(args)
    for i, name in enumerate(st.names):
        st.paths(i).save(_out(st, f"paths_{name}.bin"))
    print(st.cfg.outputs["dir"])
    return 0


def _bsde_row(st, i) -> dict:
    """The sweep's row job for ``bsde``: run i's solution is saved as
    ``bsde_{name}.bin`` where it runs; only its Y0 and stderr go back."""
    _, sol = st.run(i)
    sol.save(_out(st, f"bsde_{st.names[i]}.bin"), st.cfg.grid().dt)
    return {"Y0": sol.Y0, "stderr": sol.Y0_stderr}


def cmd_bsde(args) -> int:
    st = _stages(args)
    *rows, averaged = st.sweep(_bsde_row, args.threads)
    summary = {"eps": [{"eps": eps, **row}
                       for eps, row in zip(st.cfg.eps_list, rows)],
               "averaged": averaged}
    print(write_json(_out(st, "bsde_summary.json"), summary))
    return 0


def cmd_corrector(args) -> int:
    st = _stages(args)
    table = st.decay()
    table.to_csv(_out(st, "decay.csv"))
    rep = st.residual()
    print(write_json(_out(st, "corrector.json"), {
        "decay": [{"eps": r.eps, "sup_V": r.sup_V, "sup_beta": r.sup_beta,
                   "sup_alpha": r.sup_alpha} for r in table.rows],
        "monotone_V": table.monotone_V,
        "residual": {"max": rep.max_residual, "scaled": rep.max_scaled,
                     "n_failed": rep.n_failed, "h": rep.h}}))
    return 0 if rep.passed and table.monotone_V else 2


def cmd_pde(args) -> int:
    st = _stages(args)
    sol, value, error = st.fd()
    sol.save_csv(_out(st, "pde.csv"))
    print(write_json(_out(st, "pde_summary.json"),
                     {"value_at_x0": value, "richardson_error": error}))
    return 0


def cmd_converge(args) -> int:
    cfg = _load(args)
    report = run_convergence(cfg, n_workers=args.threads)
    for path in emit(report, cfg.outputs["dir"], cfg.outputs["formats"]):
        print(path)
    return 0 if report.all_pass() else 2


def cmd_audit(args) -> int:
    st = _stages(args)
    box = [[-5.0, 5.0]] + [[-2.0, 2.0]] * st.fam.d + [[-2.0, 2.0]]
    entries = families.audit_assumptions(
        st.fam, {"box": box, "n_samples": 256,
                 "seed": split_seed(st.cfg.mc["seed"], "audit")})
    doc = {aid: {"status": e.status, "residual": e.residual,
                 "witness": list(e.witness) if e.witness else None,
                 "detail": e.detail}
           for aid, e in entries.items()}
    print(write_json(_out(st, "audit.json"), doc))
    return 2 if any(e.status == "violated" for e in entries.values()) else 0


# each subcommand with the flags it reads besides --out
_COMMANDS = {"average": (cmd_average, ()),
             "simulate": (cmd_simulate, ("--seed-override",)),
             "bsde": (cmd_bsde, ("--seed-override", "--threads")),
             "corrector": (cmd_corrector, ("--seed-override",)),
             "pde": (cmd_pde, ()),
             "converge": (cmd_converge, ("--seed-override", "--threads")),
             "audit": (cmd_audit, ("--seed-override",))}


def worker_count(text) -> int:
    """A ``--threads`` value: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


_FLAGS = {"--seed-override": {"default": None, "type": int},
          "--threads": {"default": 1, "type": worker_count,
                        "help": "worker processes for the eps sweep "
                                "(same bytes for every count)"}}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="homoglab",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("config", help="path to the JSON experiment config")
        sp.add_argument("--out", default=None, help="output directory override")
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag])
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # --help exits 0; a usage error exits 1, as a bad config does
        return 0 if exc.code == 0 else 1
    try:
        return _COMMANDS[args.command][0](args)
    except (PipelineError, ConfigError, OSError, ValueError,
            RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
