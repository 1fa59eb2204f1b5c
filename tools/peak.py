"""Print the peak resident memory of one in-process ``homoglab converge``:
the caller's (``RUSAGE_SELF``) and that of its largest child
(``RUSAGE_CHILDREN``: the sweep's workers, if it forked any), in MB.

The config is a benchmark workload's, generated by
``perfbench/workloads.py`` at seed 1, so the caller's peak is the one the
benchmark's ``peak_rss_mb`` reads and the workers' is the one it cannot
see.  A peak is a high-water mark of the process, so each call measures
one run in a fresh interpreter.

Usage: ``python3 tools/peak.py WORKLOAD THREADS`` from the checkout root,
with ``homoglab`` importable (installed, or ``PYTHONPATH=src``).
"""

import contextlib
import io
import json
import os
import resource
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    workload, threads = argv
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import BLAS_ENV, WORKLOADS
    os.environ.update(BLAS_ENV)   # before numpy loads, as the benchmark
    from homoglab.cli import main as homoglab
    doc = WORKLOADS[workload].build(str(ROOT), 1)
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "config.json")
        with open(config, "w") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(io.StringIO()):   # written paths
            code = homoglab(["converge", config, "--threads", threads,
                             "--out", os.path.join(tmp, "out")])
    mb = {who: resource.getrusage(getattr(resource, who)).ru_maxrss / 1024.0
          for who in ("RUSAGE_SELF", "RUSAGE_CHILDREN")}
    print(f"{workload} --threads {threads}: exit {code}, caller "
          f"{mb['RUSAGE_SELF']:.1f} MB, largest child "
          f"{mb['RUSAGE_CHILDREN']:.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
