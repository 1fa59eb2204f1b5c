"""Self-tests of the benchmark (not part of the package's test suite).

    python3 perfbench/selftest.py
"""

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import run  # noqa: E402
from spans import Span, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, Workload, check_report  # noqa: E402


class MetricNames(unittest.TestCase):
    def test_grammar(self):
        for good in ("wall_s", "t_se1e-3_s", "bsde.svd.calls", "9x"):
            self.assertTrue(layers.valid_name(good), good)
        for bad in ("", "_x", ".x", "a b", "a/b", "x" * 65, "é"):
            self.assertFalse(layers.valid_name(bad), bad)
        self.assertTrue(layers.valid_unit("1/s"))
        self.assertFalse(layers.valid_unit("per second"))

    def test_catalog_names_valid_and_unique(self):
        names = [m.name for m in layers.END_TO_END + layers.PER_LAYER]
        names += list(WORKLOADS)
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertTrue(layers.valid_name(n), n)
        for m in layers.END_TO_END + layers.PER_LAYER:
            self.assertTrue(layers.valid_unit(m.unit), m.unit)
            self.assertIn(m.better, ("lower", "higher"))

    def test_benchmark_json_matches_catalog(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            self.assertEqual(json.load(fh), run.spec())

    def test_layer_metrics_cover_catalog(self):
        produced = set(layer_metrics([])) | {"trace.overhead_frac"}
        self.assertEqual(produced, {m.name for m in layers.PER_LAYER})
        self.assertLessEqual(set(layers.EXACT_COUNTS), produced)


def _span(sid, name, start, end, parent=None, thread=1, **counts):
    return Span(sid, name, start, end, parent, thread, "r", counts)


class SelfTime(unittest.TestCase):
    def test_two_thread_tree(self):
        # thread 1: root [0, 10] with children [1, 3] and [2, 5] (overlap)
        # and a grandchild [1.5, 2.5]; thread 2: a child of root [4, 9]
        # that must not be subtracted, with its own child [5, 6].
        spans = [_span(1, "root", 0.0, 10.0),
                 _span(2, "a", 1.0, 3.0, parent=1),
                 _span(3, "b", 2.0, 5.0, parent=1),
                 _span(4, "c", 1.5, 2.5, parent=2),
                 _span(5, "w", 4.0, 9.0, parent=1, thread=2),
                 _span(6, "x", 5.0, 6.0, parent=5, thread=2)]
        st = self_times(spans)
        self.assertAlmostEqual(st[1], 10.0 - 4.0)   # union [1, 5]
        self.assertAlmostEqual(st[2], 2.0 - 1.0)
        self.assertAlmostEqual(st[3], 3.0)
        self.assertAlmostEqual(st[4], 1.0)
        self.assertAlmostEqual(st[5], 5.0 - 1.0)
        self.assertAlmostEqual(st[6], 1.0)

    def test_layer_aggregation(self):
        spans = [_span(1, "harness.run_convergence", 0.0, 10.0),
                 _span(2, "bsde.solve_bsde", 1.0, 4.0, parent=1,
                       max_cond=5.0, picard_max=0.1),
                 _span(3, "numpy.linalg.svd", 1.0, 1.5, parent=2),
                 _span(4, "numpy.linalg.svd", 6.0, 6.5, parent=1),
                 _span(5, "bsde.solve_bsde", 5.0, 5.5, parent=1, thread=2,
                       max_cond=7.0, picard_max=0.05),
                 _span(6, "quadrature.panel_integrals", 7.0, 8.0, parent=1,
                       nodes=24),
                 _span(7, "quadrature.panel_integrals", 7.2, 7.4, parent=6,
                       nodes=12)]
        m = layer_metrics(spans)
        self.assertEqual(m["bsde.svd.calls"], 1)     # only under solve_bsde
        self.assertAlmostEqual(m["bsde.svd.s"], 0.5)
        self.assertAlmostEqual(m["bsde.solve_bsde.s"], 3.5)
        self.assertEqual(m["bsde.solve_bsde.calls"], 2)
        self.assertEqual(m["bsde.max_cond"], 7.0)
        self.assertEqual(m["bsde.picard_residual_max"], 0.1)
        self.assertAlmostEqual(m["quadrature.panel_integrals.s"], 1.0)
        self.assertEqual(m["quadrature.panel_integrals.calls"], 2)
        self.assertEqual(m["quadrature.nodes"], 36)
        # same-thread children: [1, 4], [6, 6.5], [7, 8]; thread 2 is not
        self.assertAlmostEqual(m["harness.run_convergence.self_s"], 5.5)


class Tracing(unittest.TestCase):
    def test_install_rebinds_every_alias_and_uninstalls(self):
        import homoglab.harness
        import homoglab.simulate
        import homoglab.quadrature as q
        original = homoglab.simulate.simulate_eps
        tracer = Tracer("t")
        tracer.install()
        try:
            self.assertIs(homoglab.harness.simulate_eps,
                          homoglab.simulate.simulate_eps)
            self.assertIsNot(homoglab.harness.simulate_eps, original)
            q.integrate(lambda t: t * t, 0.0, 1.0)
        finally:
            tracer.uninstall()
        self.assertIs(homoglab.harness.simulate_eps, original)
        names = {s.name for s in tracer.spans}
        self.assertEqual(names, {"quadrature.panel_integrals"})
        nodes = [s.counts["nodes"] for s in tracer.spans]
        self.assertTrue(all(n > 0 and n % 12 == 0 for n in nodes))


def _report(y0=1.0222, se=0.002, eps=(1.0, 0.5), v_fd=None):
    rep = {"rows": [{"eps": e, "Y0": {"value": y0, "stderr": se}}
                    for e in eps],
           "averaged": {"Y0": {"value": y0, "stderr": se}}}
    if v_fd is not None:
        rep["averaged"]["v_fd"] = {"value": v_fd, "stderr": 0.001}
    return rep


class OutputCheck(unittest.TestCase):
    wl = Workload("w", "test", 1, None, (1.0222, 0.0015))
    cfg = {"eps_list": [1.0, 0.5], "t_end": 0.5, "mc": {"n_steps": 50},
           "fd": None}

    def test_good_report(self):
        self.assertEqual(check_report(self.wl, self.cfg, _report()), [])

    def test_missing_row(self):
        self.assertTrue(check_report(self.wl, self.cfg, _report(eps=(1.0,))))

    def test_y0_off_reference(self):
        self.assertTrue(check_report(self.wl, self.cfg, _report(y0=1.05)))

    def test_fd_disagrees(self):
        cfg = dict(self.cfg, fd={"n1": 9})
        self.assertEqual(check_report(self.wl, cfg,
                                      _report(v_fd=1.03)), [])
        self.assertTrue(check_report(self.wl, cfg, _report(v_fd=1.10)))
        self.assertTrue(check_report(self.wl, cfg, _report()))


class FailFrac(unittest.TestCase):
    def test_forced_failure_is_counted(self):
        def bad_x0(root, seed):
            doc = WORKLOADS["demo"].build(root, seed)
            doc["x0"] = [0.5, 0.0, 0.0]        # wrong length: exit code 1
            return doc

        wl = Workload("bad", "forced failure", 1, bad_x0, (1.0222, 0.0015))
        work = tempfile.mkdtemp(dir=HERE, prefix=".selftest-")
        try:
            r = run.Run(ROOT, wl, 5, work)
            rec = r.call(traced=False, timeout=60.0)
            self.assertEqual(rec["problems"], ["converge exited 1"])
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                res = run._report(r, False, run._determinism(r, False))
        finally:
            shutil.rmtree(work)
        self.assertEqual((res["attempted"], res["failed"], res["correct"]),
                         (1, 1, False))
        self.assertRegex(out.getvalue(), r"fail_frac +1 ratio")


class TracedReport(unittest.TestCase):
    def test_medians_overhead_and_count_check(self):
        def call(traced, wall, svd_calls=980):
            c = {"traced": traced, "problems": [], "wall_s": wall,
                 "elapsed_s": wall + 1.0, "report_bytes": b"{}"}
            if traced:
                c["layers"] = dict(layer_metrics([]), **{
                    "bsde.svd.calls": svd_calls, "bsde.solve_bsde.s": wall})
            return c

        r = run.Run.__new__(run.Run)
        r.calls = [call(False, 4.0), call(True, 4.4), call(True, 4.6),
                   call(False, 4.0)]
        with contextlib.redirect_stdout(io.StringIO()):
            res = run._report(r, True, run._determinism(r, True))
        self.assertTrue(res["correct"])
        m = res["metrics"]
        self.assertEqual(set(m), {x.name for x in layers.PER_LAYER})
        self.assertAlmostEqual(m["bsde.solve_bsde.s"]["value"], 4.5)
        self.assertAlmostEqual(m["trace.overhead_frac"]["value"], 0.125)
        r.calls[2] = call(True, 4.6, svd_calls=979)
        self.assertTrue(run._determinism(r, True))


if __name__ == "__main__":
    unittest.main()
