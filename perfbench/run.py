"""homoglab benchmark: ``homoglab converge`` end to end, and per layer.

    python3 perfbench/run.py --workload demo --seed 1 --seconds 40 --trace 0

Runs the workload's generated config through ``homoglab.cli.main`` back to
back, each call in a fresh child process (see ``child.py``), until
``--seconds`` have passed (at least three calls).  Every call's
``report.json`` is checked; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of ``layers.END_TO_END``.
``--trace 1`` alternates untraced and traced calls and reports the
per-layer metrics of ``layers.PER_LAYER`` (medians over the traced calls)
and ``trace.overhead_frac``; the traced and untraced reports must be
byte-identical and the exact counts must repeat between traced calls.

Must run from a checkout that holds ``src/homoglab`` and ``configs``;
elsewhere it exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
from spans import Span, layer_metrics  # noqa: E402
from workloads import (BLAS_ENV, WORKLOADS, check_report,  # noqa: E402
                       sigma_max)

MIN_CALLS = 3
HARD_STOP_S = 160.0     # every call ends by then, so a run exits within 180 s


def spec() -> dict:
    """The contents of BENCHMARK.json, from the catalogs."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 40,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in layers.END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in layers.PER_LAYER],
    }


def _commit(root: str):
    """HEAD commit read from .git without running git (None outside git)."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


class Run:
    """The calls of one benchmark invocation and their checks."""

    def __init__(self, root, workload, seed, work):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = work
        self.config = workload.build(root, seed)
        self.config_path = os.path.join(work, "config.json")
        with open(self.config_path, "w") as fh:
            json.dump(self.config, fh, indent=1)
        self.calls = []

    def call(self, traced: bool, timeout: float) -> dict:
        i = len(self.calls)
        out = os.path.join(self.work, f"out-{i}")
        result_path = os.path.join(self.work, f"result-{i}.json")
        env = dict(os.environ)
        env.update(BLAS_ENV)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        rec = {"traced": traced, "problems": []}
        with open(os.path.join(self.work, f"log-{i}.txt"), "w") as log:
            spawn_t = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "child.py"),
                 repr(spawn_t), self.config_path, out,
                 str(self.workload.threads), "1" if traced else "0",
                 result_path],
                env=env, cwd=self.work, stdin=subprocess.DEVNULL,
                stdout=log, stderr=subprocess.STDOUT)
            try:
                proc.wait(timeout=max(timeout, 1.0))
            except subprocess.TimeoutExpired:
                pass
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        rec["elapsed_s"] = time.monotonic() - spawn_t
        self.calls.append(rec)
        if proc.returncode != 0 or not os.path.exists(result_path):
            rec["problems"].append(f"child exited {proc.returncode}")
            return rec
        with open(result_path) as fh:
            res = json.load(fh)
        rec.update(res)
        if res["error"] is not None:
            rec["problems"].append("converge raised: "
                                   + res["error"].strip().splitlines()[-1])
            return rec
        if res["exit_code"] not in (0, 2):
            rec["problems"].append(f"converge exited {res['exit_code']}")
            return rec
        try:
            with open(os.path.join(out, "report.json"), "rb") as fh:
                rec["report_bytes"] = fh.read()
            report = json.loads(rec["report_bytes"])
        except (OSError, ValueError) as exc:
            rec["problems"].append(f"report.json unreadable: {exc}")
            return rec
        rec["problems"] += check_report(self.workload, self.config, report)
        if not rec["problems"]:
            rec["flags"] = report.get("flags", {})
            rec["t_se"] = rec["wall_s"] * (sigma_max(report) / 1e-3) ** 2
        return rec

    def ok(self):
        return [c for c in self.calls if not c["problems"]]


def _median(values):
    return statistics.median(values) if values else 0.0


def _measure(run: Run, seconds: float, trace: bool) -> None:
    """Back-to-back calls until ``seconds`` are used (at least MIN_CALLS);
    traced runs go untraced, traced, traced, then alternate."""
    start = time.monotonic()
    while True:
        n = len(run.calls)
        traced = trace and (n in (1, 2) or
                            (n > 2 and not run.calls[-1]["traced"]))
        run.call(traced, timeout=start + HARD_STOP_S - time.monotonic())
        elapsed = time.monotonic() - start
        typical = _median([c["elapsed_s"] for c in run.calls])
        if elapsed + typical > HARD_STOP_S or (
                len(run.calls) >= MIN_CALLS and elapsed + typical > seconds):
            return


def _determinism(run: Run, trace: bool) -> list:
    problems = []
    good = run.ok()
    if len({c["report_bytes"] for c in good}) > 1:
        problems.append("report.json bytes differ between calls with "
                        "the same seed")
    if trace:
        counts = [tuple(c["layers"][k] for k in layers.EXACT_COUNTS)
                  for c in good if c["traced"]]
        if len(set(counts)) > 1:
            problems.append(f"exact counts differ between traced calls: "
                            f"{layers.EXACT_COUNTS} {counts}")
        if not any(c["traced"] for c in good) or \
                all(c["traced"] for c in good):
            problems.append("need a good traced and a good untraced call")
    return problems


def _print_env(run: Run, trace: bool) -> None:
    first = next((c for c in run.calls if "env" in c), {})
    env = {"commit": _commit(run.root), "seed": run.seed,
           "workload": run.workload.name,
           "config_digest": first.get("digest"),
           "nproc": os.cpu_count(), **first.get("env", {}),
           "blas_threads": BLAS_ENV, "threads": run.workload.threads,
           "trace": int(trace)}
    print("env " + json.dumps(env, sort_keys=True))


def _report(run: Run, trace: bool, problems: list) -> dict:
    good = run.ok()
    attempted = len(run.calls)
    failed = attempted - len(good)
    for i, c in enumerate(run.calls):
        state = "ok" if not c["problems"] else "FAILED " + "; ".join(
            c["problems"])
        flags = c.get("flags")
        off = sorted(k for k, v in (flags or {}).items() if not v)
        print(f"call {i} {'traced' if c['traced'] else 'untraced'} "
              f"child {c['elapsed_s']:.3f} s converge "
              f"{c.get('wall_s', 0):.3f} s {state}"
              + (f" flags_false={off}" if flags is not None else ""))
    for p in problems:
        print(f"check FAILED {p}")
    untraced = [c for c in good if not c["traced"]]
    traced = [c for c in good if c["traced"]]
    if trace:
        catalog = layers.PER_LAYER
        samples = {m.name: [c["layers"][m.name] for c in traced]
                   for m in catalog if m.name != "trace.overhead_frac"}
        base = _median([c["wall_s"] for c in untraced])
        samples["trace.overhead_frac"] = [
            _median([c["wall_s"] for c in traced]) / base - 1.0] \
            if base > 0 and traced else []
    else:
        catalog = layers.END_TO_END
        samples = {"wall_s": [c["wall_s"] for c in untraced],
                   "setup_s": [c["setup_s"] for c in run.calls
                               if c.get("setup_s") is not None],
                   "peak_rss_mb": [c["peak_rss_mb"] for c in untraced],
                   "t_se1e-3_s": [c["t_se"] for c in untraced]}
    metrics = {}
    for m in catalog:
        value = _median(samples[m.name])
        metrics[m.name] = {"value": value, "unit": m.unit}
        print(f"{m.name:<34} {value:14.6g} {m.unit:<6} "
              f"median of {len(samples[m.name])}")
    print(f"{'fail_frac':<34} {failed / max(attempted, 1):14.6g} ratio  "
          f"{failed} failed of {attempted}")
    return {"correct": failed == 0 and not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--print-spec", action="store_true",
                    help="print the BENCHMARK.json this catalog defines")
    args = ap.parse_args(argv)
    if args.print_spec:
        print(json.dumps(spec(), indent=2))
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    root = os.path.dirname(HERE)
    for need in ("src/homoglab/cli.py", "configs/switch_demo.json"):
        if not os.path.isfile(os.path.join(root, need)):
            print(f"error: {need} not found under {root}; run from a "
                  "homoglab checkout", file=sys.stderr)
            return 2

    trace = bool(args.trace)
    work = os.path.join(root, ".bench_work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        run = Run(root, WORKLOADS[args.workload], args.seed, work)
        _measure(run, args.seconds, trace)
        for c in run.calls:
            if c.get("spans") is not None and not c["problems"]:
                c["layers"] = layer_metrics(
                    [Span.from_list(s) for s in c["spans"]])
        _print_env(run, trace)
        result = _report(run, trace, _determinism(run, trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
