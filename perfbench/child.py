"""One benchmark sample, run in a fresh interpreter.

    python3 perfbench/child.py SPAWN_T CONFIG OUT_DIR THREADS TRACE RESULT

``SPAWN_T`` is the parent's ``time.monotonic()`` just before it started
this process, so set-up time covers interpreter start, ``import
homoglab.cli``, ``ExperimentConfig.load`` and ``cfg.family()``.  Then one
``homoglab.cli.main(["converge", ...])`` call is timed.  The result (set-up
and call times, exit code, peak RSS, spans when traced, environment) goes
to the JSON file ``RESULT``.
"""

import json
import resource
import sys
import time
import traceback


def main(argv) -> int:
    spawn_t, config, out_dir, threads, trace, result_path = argv
    import homoglab.cli
    from homoglab.harness import ExperimentConfig
    try:
        cfg = ExperimentConfig.load(config)
        cfg.family()
        setup_s, digest = time.monotonic() - float(spawn_t), cfg.digest()
    except ValueError:
        # the converge call below reports the bad config (exit code 1)
        setup_s = digest = None

    tracer = None
    if trace == "1":
        from spans import Tracer
        tracer = Tracer(run_id=out_dir)
        tracer.install()
    error = None
    start = time.perf_counter()
    try:
        code = homoglab.cli.main(["converge", config, "--out", out_dir,
                                  "--threads", threads])
    except Exception:
        code = None
        error = traceback.format_exc()
    wall_s = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()

    import numpy
    import scipy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get(
        "blas", {})
    result = {
        "setup_s": setup_s, "wall_s": wall_s, "exit_code": code,
        "error": error, "digest": digest,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": tracer.dump() if tracer is not None else None,
        "env": {"python": sys.version.split()[0],
                "numpy": numpy.__version__, "scipy": scipy.__version__,
                "blas": f"{blas.get('name')} {blas.get('version')}"},
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
