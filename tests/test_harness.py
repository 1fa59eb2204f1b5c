import concurrent.futures
import filecmp
import glob
import ast
import importlib.util
import inspect
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

import homoglab as hl
import homoglab.harness
from homoglab import pde_fd
from homoglab.cli import main as cli_main
from homoglab.families import AveragingError
from homoglab.harness import (ConfigError, EmitError, Stages, _cell,
                              _no_rise, _report_row, _scan_nan, emit,
                              split_seed)
from homoglab.simulate import SimulationError
from conftest import base_config, flow_continuity_check

DEMO = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                    "switch_demo.json")


# -- config -----------------------------------------------------------------

def test_config_parsing(config_doc):
    cfg = hl.ExperimentConfig.from_dict(config_doc)
    assert cfg.family_block["id"] == "switch"
    assert cfg.eps_list == [1.0, 0.3]
    assert cfg.mc["seed"] == 42
    assert cfg.digest() == hl.ExperimentConfig.from_dict(config_doc).digest()


@pytest.mark.parametrize("family, x0", [
    ({"id": "nope"}, [0.5, 0.0]),
    ({"id": "switch", "d": 2}, [0.5, 0.0, 0.0]),
    ({"id": "switch", "params": [1.0]}, [0.5, 0.0])])
def test_config_refuses_bad_family(config_doc, family, x0):
    # refused at load with the key named, not first in the set-up stage
    config_doc["family"], config_doc["x0"] = family, x0
    with pytest.raises(ConfigError, match=r"\(config key 'family'\)"):
        hl.ExperimentConfig.from_dict(config_doc)


def test_resolved_config_loads_back():
    # the demo config with every default filled in survives a JSON round
    # trip: a null "not set" tolerance loads, and resolving the loaded
    # document again gives the same JSON
    with open(DEMO) as fh:
        doc = json.load(fh)
    resolved = json.dumps(homoglab.harness._resolve(
        "", doc, homoglab.harness._SCHEMA), sort_keys=True)
    again = json.loads(resolved)
    hl.ExperimentConfig.from_dict(again)
    assert json.dumps(homoglab.harness._resolve(
        "", again, homoglab.harness._SCHEMA), sort_keys=True) == resolved


def test_config_rejects_bad_eps(config_doc):
    config_doc["eps_list"] = [0.3, 1.0]
    with pytest.raises(ConfigError):
        hl.ExperimentConfig.from_dict(config_doc)
    config_doc["eps_list"] = [1.0, -0.5]
    with pytest.raises(ConfigError):
        hl.ExperimentConfig.from_dict(config_doc)


def test_config_requires_seed(config_doc):
    del config_doc["mc"]["seed"]
    with pytest.raises(ConfigError, match="seed"):
        hl.ExperimentConfig.from_dict(config_doc)


@pytest.mark.parametrize("key,value", [("n_paths", 0), ("n_paths", -5),
                                       ("block_size", 0), ("block_size", -4),
                                       ("substeps_cap", 0)])
def test_config_rejects_nonpositive_mc_sizes(config_doc, key, value):
    config_doc["mc"][key] = value
    with pytest.raises(ConfigError, match=f"mc.{key} must be at least 1"):
        hl.ExperimentConfig.from_dict(config_doc)


def test_config_rejects_bad_x0(config_doc):
    config_doc["x0"] = [1.0, 2.0, 3.0]
    with pytest.raises(ConfigError):
        hl.ExperimentConfig.from_dict(config_doc)


def test_shipped_and_benchmark_configs_parse(monkeypatch):
    # unknown keys and bad values are refused: every shipped config, and the
    # config each benchmark workload builds, must still load
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(root, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    shipped = glob.glob(os.path.join(root, "configs", "*.json"))
    assert shipped
    for path in shipped:
        hl.ExperimentConfig.load(path)
    for wl in workloads.WORKLOADS.values():
        for seed in (3, 5):
            cfg = hl.ExperimentConfig.from_dict(wl.build(root, seed))
            assert cfg.mc["seed"] == seed, wl.name


def test_benchmark_probes_name_live_targets(monkeypatch):
    # every function the benchmark's tracer wraps exists, and each count
    # it takes from a call's arguments names parameters of its target (the
    # tracer binds them by name), so a renamed target or parameter fails
    # here rather than in a traced benchmark run after the whole suite
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", os.path.join(root, "perfbench", "spans.py"))
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    read = {}
    for probe in spans.PROBES:
        owner = importlib.import_module(probe.module)
        assert hasattr(owner, probe.attr), probe
        if probe.counts is None:
            continue
        target = getattr(owner, probe.attr)
        # the argument names the count reads: a["name"]
        tree = ast.parse(textwrap.dedent(inspect.getsource(probe.counts)))
        names = {node.slice.value for node in ast.walk(tree)
                 if isinstance(node, ast.Subscript)
                 and isinstance(node.value, ast.Name)
                 and node.value.id == "a"
                 and isinstance(node.slice, ast.Constant)}
        params = inspect.signature(target).parameters
        assert names <= set(params), (probe.name, names, list(params))
        read[probe.attr] = names
    assert read["simulate_eps"] == read["simulate_avg"] == \
        {"n_paths", "grid", "substeps"}
    assert read["panel_integrals"] == {"edges", "order"}
    assert read["solve_pde"] == {"grid"}


def _demo_doc():
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    with open(os.path.join(root, "configs", "switch_demo.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name,value", [
    ("mc.n_steps", 10 ** 12), ("mc.n_paths", 10 ** 12),
    ("fd.n1", 10 ** 9 + 1), ("fd.dt_fd", 1e-300),
    pytest.param("fd.n1", 10 ** 400 + 1, id="fd.n1-1e400"),
    ("corrector.n_grid", [100000, 1000, 1000])])
def test_config_refuses_unrunnable_sizes(name, value):
    # each of these demo copies used to load: 2e16 path states, 5e13, 1e11
    # FD unknowns per step, ~5e299 FD steps, 1e11 decay-table points;
    # refused at load by key, and no run is started
    doc = _demo_doc()
    block, key = name.split(".")
    doc[block][key] = value
    with pytest.raises(ConfigError, match="exceed the bound 1e\\+08") as exc:
        hl.ExperimentConfig.from_dict(doc)
    assert repr(name) in str(exc.value)


def test_config_size_bound_is_inclusive():
    # the demo and the 100k-path reference run load, and so do a path
    # array, an FD march and a decay grid of exactly MAX_COUNT = 1e8; one
    # more is refused.
    # The FD count is that of the largest solve, on the fd grid refined by
    # 2, which has about 4 times the nodes and 4 times the steps
    from homoglab.harness import MAX_COUNT
    assert MAX_COUNT == 10 ** 8
    hl.ExperimentConfig.from_dict(_demo_doc())
    doc = _demo_doc()
    doc["mc"]["n_paths"] = 100000
    hl.ExperimentConfig.from_dict(doc)
    # 2e6 paths of 50 states; the refinement of a 311 x 311 grid over
    # t_end / dt_fd = 64 steps has (2 * 311 + 3) ** 2 nodes over 256 steps
    fine = pde_fd.Grid2D(2.0, 2.0, 311, 311, 0.5 / 64, 0.5).refined()
    assert (fine.n1 + 2) * (fine.n2 + 2) * fine.n_steps == MAX_COUNT
    for changes, key in (({"mc": {"n_steps": 49, "n_paths": 2000000}},
                          ("mc", "n_paths")),
                         ({"fd": {"n1": 311, "n2": 311, "dt_fd": 0.5 / 64}},
                          ("fd", "n2"))):
        doc = _demo_doc()
        for block, values in changes.items():
            doc[block].update(values)
        hl.ExperimentConfig.from_dict(doc)
        doc[key[0]][key[1]] += 1
        with pytest.raises(ConfigError, match=f"'{key[0]}.{key[1]}'"):
            hl.ExperimentConfig.from_dict(doc)
    # 1000 x 1000 x 100 decay-table points; the config is only loaded
    doc = _demo_doc()
    doc["corrector"]["n_grid"] = [1000, 1000, 100]
    hl.ExperimentConfig.from_dict(doc)
    doc["corrector"]["n_grid"][2] += 1
    with pytest.raises(ConfigError, match="'corrector.n_grid'"):
        hl.ExperimentConfig.from_dict(doc)


def test_split_seed_stable_and_distinct():
    a = split_seed(7, "eps", 0)
    assert a == split_seed(7, "eps", 0)
    assert a != split_seed(7, "eps", 1)
    assert a != split_seed(8, "eps", 0)
    assert 0 <= a < 2 ** 63


# -- pipeline ---------------------------------------------------------------

@pytest.fixture(scope="module")
def small_report():
    doc = base_config()
    doc["mc"] = {"n_paths": 800, "n_steps": 25, "seed": 314}
    doc["tolerances"] = {"final_error": 0.2}
    cfg = hl.ExperimentConfig.from_dict(doc)
    return cfg, hl.run_convergence(cfg)


def test_report_structure(small_report):
    cfg, rep = small_report
    assert rep.report_version == 1
    assert len(rep.rows) == 2
    for row in rep.rows:
        assert {"value", "stderr"} <= set(row["Y0"])
        assert {"value", "stderr"} <= set(row["error"])
    assert "Y0" in rep.averaged
    assert not rep.incomplete


def test_report_flags_present(small_report):
    _, rep = small_report
    assert "error_monotone" in rep.flags
    assert "final_error_ok" in rep.flags
    assert "drift_gap_monotone" in rep.flags


def test_trivial_driver_y0_one(const_family):
    doc = base_config(family={"id": "const", "params": [], "d": 1, "k": 2})
    doc["mc"] = {"n_paths": 500, "n_steps": 25, "seed": 5}
    rep = hl.run_convergence(hl.ExperimentConfig.from_dict(doc))
    for row in rep.rows:
        assert row["Y0"]["value"] == pytest.approx(1.0, abs=1e-10)
    assert rep.averaged["Y0"]["value"] == pytest.approx(1.0, abs=1e-10)
    for g in rep.drift_gap:
        assert g["gap"]["value"] <= 5 * max(g["gap"]["stderr"], 1e-12) + 1e-12


@pytest.mark.parametrize("n_workers", [1, 2])
def test_pipeline_error_carries_stage(config_doc, monkeypatch, n_workers):
    # a bad grid is refused at load, so the FD solve itself fails here; on
    # a pool it fails in a worker, as a job of the sweep, and still fails
    # the fd-crosscheck stage, not the eps-sweep, with its own exception
    config_doc["fd"] = {"L1": 1.0, "L2": 1.0, "n1": 11, "n2": 11,
                        "dt_fd": 0.01}
    config_doc["mc"] = {"n_paths": 200, "n_steps": 25, "seed": 6}
    cfg = hl.ExperimentConfig.from_dict(config_doc)

    def fail(*args, **kwargs):
        raise pde_fd.PdeError("implicit-step factorization failed")
    monkeypatch.setattr(pde_fd, "solve_pde", fail)
    with pytest.raises(hl.PipelineError) as exc:
        hl.run_convergence(cfg, n_workers)
    assert exc.value.stage == "fd-crosscheck"
    assert type(exc.value.cause) is pde_fd.PdeError
    assert str(exc.value.cause) == "implicit-step factorization failed"
    partial = exc.value.partial
    assert partial.incomplete
    # earlier stages preserved: the rows with their drift gaps and the
    # averaged run's occupation estimates are taken before the FD solve
    assert len(partial.rows) == 2
    assert [g["eps"] for g in partial.drift_gap] == [1.0, 0.3]
    assert [e["n"] for e in partial.occupation["estimates"]] == \
        [1, 2, 4, 8, 16, 32]
    assert multiprocessing.active_children() == []


def test_occupation_slope_insufficient_data(tmp_path):
    # started far from the interface, fewer than 3 bands |x1| <= 1/n are
    # ever visited: the slope is an explicit insufficient-data cell, the
    # report is still written and the slope flag is false
    doc = base_config(x0=[6.0, 0.0])
    doc["mc"] = {"n_paths": 200, "n_steps": 10, "seed": 42}
    doc["tolerances"] = {"occupation_slope": [-1.5, -0.5]}
    rep = hl.run_convergence(hl.ExperimentConfig.from_dict(doc))
    emit(rep, tmp_path, ("json",))
    written = json.loads((tmp_path / "report.json").read_text())
    assert written["occupation"]["slope"] == {"value": None,
                                              "tag": "insufficient_data"}
    assert written["flags"]["occupation_slope_ok"] is False


@pytest.fixture(scope="module")
def half_ladder():
    # the shipped demo on eps [1.0, 0.5] at 2000 paths, its own seed
    doc = _demo_doc()
    doc["eps_list"] = [1.0, 0.5]
    doc["mc"]["n_paths"] = 2000
    doc["fd"] = doc["corrector"] = None
    cfg = hl.ExperimentConfig.from_dict(doc)
    return cfg, hl.run_convergence(cfg)


def test_sup_abs_y_stderr_is_standard_error(half_ladder):
    # each row's sup|Y| stderr is std / sqrt(n) of the per-path sup|Y|
    cfg, report = half_ladder
    st = Stages(cfg)
    for i, row in enumerate(report.rows):
        sup = np.max(np.abs(st.run(i)[1].Y), axis=1)
        assert row["sup_abs_y"] == {
            "value": float(np.mean(sup)),
            "stderr": float(np.std(sup) / np.sqrt(cfg.mc["n_paths"]))}


def test_drift_gap_rise_at_half_stays_visible(half_ladder):
    # the switch family's drift gap rises from eps = 1 to eps = 0.5 by
    # ~2.9 combined stderrs, and the flag says so
    _, report = half_ladder
    a, b = (g["gap"] for g in report.drift_gap)
    rise = (b["value"] - a["value"]) / np.hypot(a["stderr"], b["stderr"])
    assert 2.5 < rise < 3.5
    assert report.flags["drift_gap_monotone"] is False


def test_no_rise_allows_the_combined_stderr():
    # hypot(3, 4) = 5: a rise of exactly 5 passes, a larger one fails
    assert _no_rise([_cell(0.0, 3.0), _cell(5.0, 4.0)])
    assert not _no_rise([_cell(0.0, 3.0), _cell(5.0 + 1e-9, 4.0)])
    assert _no_rise([_cell(9.0, 0.0), _cell(1.0, 0.0), _cell(6.0, 5.0)])
    assert not _no_rise([_cell(9.0, 0.0), _cell(1.0, 0.0),
                         _cell(6.0 + 1e-9, 5.0)])
    assert _no_rise([_cell(1.0, 0.1)])


def test_run_convergence_solves_each_fd_grid_once(tmp_path, monkeypatch):
    # the Richardson estimate compares the cross-check's coarse solution
    # with one solve on the refined grid: each grid is solved once, the
    # refined one first, in the averaged run's job before its paths.  On
    # one worker that job runs first, so each factor is freed before any
    # path array is allocated: with the averaged job last, the benchmark's
    # demo workload peaked at 82.6 MB where it peaks at 75.6 MB.  Each
    # process appends its calls to one log.
    doc = _tiny_doc()
    del doc["corrector"]
    cfg = hl.ExperimentConfig.from_dict(doc)
    for module, name in ((pde_fd, "solve_pde"),
                         (homoglab.harness, "simulate_eps"),
                         (homoglab.harness, "simulate_avg")):
        def logged(*args, _fn=getattr(module, name), _name=name, **kwargs):
            with open(tmp_path / "calls.log", "a") as fh:
                fh.write(f"{_name} n1={args[1].n1}\n"
                         if _name == "solve_pde" else f"{_name}\n")
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, logged)
    fine, coarse = f"solve_pde n1={cfg.fd.refined().n1}", \
        f"solve_pde n1={cfg.fd.n1}"
    for n_workers in (1, 2):
        rep = hl.run_convergence(cfg, n_workers)
        assert "v_fd" in rep.averaged
        calls = (tmp_path / "calls.log").read_text().splitlines()
        (tmp_path / "calls.log").unlink()
        order = [fine, coarse, "simulate_avg", "simulate_eps", "simulate_eps"]
        assert sorted(calls) == sorted(order)
        if n_workers == 1:
            assert calls == order
    assert multiprocessing.active_children() == []


def test_substeps_warn_when_cap_binds():
    doc = base_config()
    doc["mc"] = {"n_paths": 10, "n_steps": 50, "seed": 1}   # dt = 0.01
    st = Stages(hl.ExperimentConfig.from_dict(doc))
    with pytest.warns(RuntimeWarning, match=r"eps = 0.01 needs 200 "
                                            r"substeps but substeps_cap = 64"):
        assert st.substeps(0.01) == 64
    # a sweep on worker processes works the substeps out in the caller,
    # so the caller sees the warning, once per capped eps
    doc["eps_list"] = [0.3, 0.01]
    doc["mc"]["n_paths"] = 200
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        hl.run_convergence(hl.ExperimentConfig.from_dict(doc), n_workers=2)
    capped = [str(w.message) for w in caught if w.category is RuntimeWarning
              and "substeps_cap" in str(w.message)]
    assert capped == ["eps = 0.01 needs 200 substeps but substeps_cap = 64; "
                      "the fast scale is under-resolved"]
    assert multiprocessing.active_children() == []


def test_substeps_quiet_on_demo():
    st = Stages(hl.ExperimentConfig.load(DEMO))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [st.substeps(eps) for eps in st.cfg.eps_list]
    assert got == [1, 1, 1, 2]


# an fd block small enough for the sweep tests
_FD_BLOCK = {"L1": 2.0, "L2": 2.0, "n1": 11, "n2": 11, "dt_fd": 0.05}


def _sweep_doc():
    # substeps 1, 4 and 16 on dt = 0.02
    doc = base_config()
    doc["eps_list"] = [1.0, 0.1, 0.05]
    doc["mc"] = {"n_paths": 200, "n_steps": 25, "seed": 8}
    return doc


def _results(handles) -> list:
    """The result of each of a sweep's handles, every one a ``Future``."""
    assert all(isinstance(h, concurrent.futures.Future) for h in handles)
    return [h.result() for h in handles]


def test_sweep_on_workers_matches_in_process(monkeypatch):
    # the jobs are runs only, and they go to the workers in start order:
    # the averaged run, whose job holds the FD solve when the config has an
    # fd block, then the eps rows longest first by substeps; the sweep
    # returns one Future per run, in run order (the eps rows, then the
    # averaged run), and each result equals the in-process sweep's; no
    # worker outlives the sweep
    submitted = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def submit(self, fn, *args):
            submitted.append(args[1])
            return super().submit(fn, *args)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    for fd in (None, _FD_BLOCK):
        submitted.clear()
        _sweep_matches_in_process(
            Stages(hl.ExperimentConfig.from_dict({**_sweep_doc(), "fd": fd})),
            submitted)


def _sweep_matches_in_process(st, submitted):
    order = [3, 2, 1, 0]
    assert st.row_substeps == [1, 4, 16, 1]
    here = _results(st.sweep(_report_row, 1))
    assert submitted == []
    assert [r["row"]["eps"] for r in here[:-1]] == [1.0, 0.1, 0.05]
    assert set(here[-1]) == {"averaged", "occupation"} | (
        set() if st.cfg.fd is None else {"v_fd"})
    for n_workers in (2, 4):
        assert _results(st.sweep(_report_row, n_workers)) == here
    assert submitted == order * 2
    assert multiprocessing.active_children() == []
    # called beside another thread, the sweep does not fork
    with concurrent.futures.ThreadPoolExecutor(max_workers=1) as ex:
        beside = ex.submit(st.sweep, _report_row, 2).result()
    assert submitted == order * 2
    assert _results(beside) == here
    # converge submits its runs in the same order
    submitted.clear()
    hl.run_convergence(st.cfg, 2)
    assert submitted == order


def test_one_worker_sweep_runs_every_job_in_list_order():
    # at one worker the sweep has called every job, in start order, before
    # it returns: the averaged run, then the eps rows longest first by
    # substeps; it returns one Future per run, in run order, and each
    # holds its job's result or exception, and only its own result() raises
    # that exception
    st = Stages(hl.ExperimentConfig.from_dict({**_sweep_doc(),
                                               "fd": _FD_BLOCK}))
    called = []

    def job(_, i):
        called.append(i)
        if i == 1:
            raise SimulationError("run 1 failed")
        return i
    order = [3, 2, 1, 0]
    handles = st.sweep(job, 1)
    assert called == order
    assert all(isinstance(h, concurrent.futures.Future) for h in handles)
    assert len(handles) == 4
    for i, handle in enumerate(handles):
        if i == 1:
            with pytest.raises(SimulationError, match="run 1 failed"):
                handle.result()
        else:
            assert handle.result() == i
    assert called == order


def _full_array_cells(bundle, sol, st):
    """The full-array formulas of a row's path reductions, the bit oracle
    of the column-blocked ones: the drift gap sup_s |cumsum of the gap dt|,
    the moments' and sup|Y|'s running max, and the occupation counts."""
    dt = bundle.grid.dt
    x1, x2 = np.abs(bundle.x1()), np.abs(bundle.x2())
    cells = {
        "moments": {k: hl.simulate.mean_stderr(
            np.max(x1 ** (2 * k) + x2 ** (2 * k), axis=1)) for k in (1, 2)},
        "occupation": {n: hl.simulate.mean_stderr(
            dt * np.sum(x1[:, :-1] <= 1.0 / n, axis=1))
            for n in (1, 2, 4, 8, 16, 32)},
        "sup_y": np.max(np.abs(sol.Y), axis=1)}
    if bundle.eps is not None:
        a, b, y = bundle.x1()[:, :-1], bundle.x2()[:, :-1], sol.Y[:, :-1]
        gap = st.fam.at(bundle.eps).driver(a, b)(y) - st.avg.driver(a, b)(y)
        cells["gap"] = hl.simulate.mean_stderr(
            np.max(np.abs(np.cumsum(gap * dt, axis=1)), axis=1))
    return cells


def test_column_blocked_reductions_keep_the_full_array_bits():
    # 3000 paths take 21-column blocks of quadrature._VALUES = 65536
    # values: the 51 path columns are blocks of 21, 21 and a ragged 9, and
    # the 50 step columns 21, 21 and 8.  Every reduced cell equals the
    # full-array formula to the bit
    doc = base_config(eps_list=[0.5])
    doc["mc"] = {"n_paths": 3000, "n_steps": 50, "seed": 17}
    st = Stages(hl.ExperimentConfig.from_dict(doc))
    runs = {i: st.run(i) for i in (0, 1)}
    st.run = runs.__getitem__
    bundle = runs[0][0]
    assert [c.stop - c.start for c in hl.simulate._column_blocks(
        bundle.x1())] == [21, 21, 9]
    assert [c.stop - c.start for c in hl.simulate._column_blocks(
        bundle.x1()[:, :-1])] == [21, 21, 8]
    for i, rec in ((i, _report_row(st, i)) for i in (0, 1)):
        bundle, sol = runs[i]
        want = _full_array_cells(bundle, sol, st)
        assert np.array_equal(sol.sup_y, want["sup_y"])
        assert hl.simulate.moment_report(bundle, [1, 2]) == want["moments"]
        assert hl.simulate.occupation_time(bundle, [1, 2, 4, 8, 16, 32]) \
            == want["occupation"]
        moments = {str(k): _cell(*ms) for k, ms in want["moments"].items()}
        if bundle.eps is None:
            assert rec["averaged"]["moments"] == moments
            assert rec["occupation"]["estimates"] == [
                {"n": n, "mean": _cell(*ms)}
                for n, ms in want["occupation"].items()]
            continue
        assert rec["row"]["moments"] == moments
        assert rec["row"]["sup_abs_y"] == _cell(
            *hl.simulate.mean_stderr(want["sup_y"]))
        assert rec["drift_gap"]["gap"] == _cell(*want["gap"])
        assert rec["tightness"]["energy"] == \
            float(np.mean(want["sup_y"] ** 2)) \
            + float(np.mean(np.sum(sol.Z ** 2, axis=(1, 2))) * bundle.grid.dt)


def test_report_row_record_holds_no_array():
    # a run's record is built of plain dicts, lists and Python scalars, so
    # no array of the run travels back from a worker; it pickles to under
    # 2 KB whatever n_paths is (one demo-size row's arrays pickle to ~54 MB)
    st = Stages(hl.ExperimentConfig.from_dict(_sweep_doc()))

    def leaves(node):
        if isinstance(node, dict):
            assert all(type(k) is str for k in node)
            node = list(node.values())
        if isinstance(node, list):
            return [leaf for v in node for leaf in leaves(v)]
        return [node]
    rec = _report_row(st, 2)
    assert set(rec) == {"row", "drift_gap", "tightness"}
    assert {type(v) for v in leaves(rec)} == {float}
    assert len(pickle.dumps(rec)) < 2048
    # the averaged run's record: its report cells, the occupation estimates
    # with their n and the slope's tag among them; with an fd block, its
    # job also solves the FD problem, and only the v_fd cell comes back
    rec = _report_row(st, 3)
    assert set(rec) == {"averaged", "occupation"}
    assert {type(v) for v in leaves(rec)} == {float, int, str}
    assert len(pickle.dumps(rec)) < 2048
    st = Stages(hl.ExperimentConfig.from_dict({**_sweep_doc(),
                                               "fd": _FD_BLOCK}))
    rec = _report_row(st, 3)
    assert set(rec) == {"averaged", "occupation", "v_fd"}
    assert set(rec["v_fd"]) == {"value", "stderr"}
    assert {type(v) for v in leaves(rec)} == {float, int, str}
    assert len(pickle.dumps(rec)) < 2048


@pytest.mark.parametrize("n_workers", [1, 2])
def test_sweep_failure_names_stage_and_cause(monkeypatch, n_workers):
    # a row that fails in a worker fails the eps-sweep stage with the
    # worker's exception; the pool is shut down and no worker is left
    def fail(*args, **kwargs):
        raise SimulationError("non-finite state at step 3, path 7")
    monkeypatch.setattr(homoglab.harness, "simulate_eps", fail)
    with pytest.raises(hl.PipelineError) as exc:
        hl.run_convergence(hl.ExperimentConfig.from_dict(_sweep_doc()),
                           n_workers=n_workers)
    assert exc.value.stage == "eps-sweep"
    assert type(exc.value.cause) is SimulationError
    assert str(exc.value.cause) == "non-finite state at step 3, path 7"
    assert str(exc.value) == ("stage 'eps-sweep' failed: non-finite state "
                              "at step 3, path 7")
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("n_workers", [1, 2])
def test_averaged_run_failure_names_stage_and_cause(monkeypatch, n_workers):
    # the averaged run is the sweep's first run: its failure, in process or
    # in a worker, fails the eps-sweep stage with its own exception, and no
    # worker is left
    def fail(*args, **kwargs):
        raise SimulationError("non-finite state at step 5, path 2")
    monkeypatch.setattr(homoglab.harness, "simulate_avg", fail)
    with pytest.raises(hl.PipelineError) as exc:
        hl.run_convergence(hl.ExperimentConfig.from_dict(_sweep_doc()),
                           n_workers=n_workers)
    assert exc.value.stage == "eps-sweep"
    assert type(exc.value.cause) is SimulationError
    assert str(exc.value.cause) == "non-finite state at step 5, path 2"
    assert multiprocessing.active_children() == []


def test_pooled_sweep_builds_averaged_model_once_in_caller(monkeypatch):
    # a pooled sweep on fresh stages builds the averaged model before it
    # forks, so the workers inherit it and none builds its own
    pids = []

    def counted(*args, _fn=homoglab.families.build_averaged, **kwargs):
        pids.append(os.getpid())
        return _fn(*args, **kwargs)
    monkeypatch.setattr(homoglab.families, "build_averaged", counted)
    st = Stages(hl.ExperimentConfig.from_dict(_sweep_doc()))
    assert pids == []
    records = _results(st.sweep(_report_row, 2))
    assert pids == [os.getpid()]
    assert multiprocessing.active_children() == []
    # one Future per run, in run order
    assert [r["row"]["eps"] for r in records[:-1]] == st.cfg.eps_list
    assert set(records[-1]) == {"averaged", "occupation"}


def test_averaging_tol_below_residual_names_key():
    # T's Cesaro residual is 7.0228e-5: a tol below it can never pass, and
    # the refusal names the key, its value and the residual
    doc = base_config()
    doc["averaging"] = {"tol": 1e-6}
    st = Stages(hl.ExperimentConfig.from_dict(doc))
    with pytest.raises(AveragingError) as exc:
        st.avg
    assert str(exc.value) == (
        "basis running averages did not stabilize: residual 7.0228e-05 > "
        "tol 1e-06 (config key 'averaging.tol')")


def test_monte_carlo_drift_gap_scaling():
    doc = base_config()
    doc["eps_list"] = [0.3]
    doc["mc"] = {"n_paths": 1000, "n_steps": 25, "seed": 777}
    t1 = hl.run_convergence(hl.ExperimentConfig.from_dict(doc)).drift_gap
    doc["mc"]["n_paths"] = 4000
    t2 = hl.run_convergence(hl.ExperimentConfig.from_dict(doc)).drift_gap
    r = t1[0]["gap"]["stderr"] / t2[0]["gap"]["stderr"]
    assert r == pytest.approx(2.0, rel=0.2)    # 1/sqrt(N) scaling


def test_flow_continuity_identical_points():
    doc = base_config()
    doc["mc"] = {"n_paths": 400, "n_steps": 25, "seed": 17}
    cfg = hl.ExperimentConfig.from_dict(doc)
    tab = flow_continuity_check(cfg, [[0.5, 0.0], [0.5, 0.0]])
    assert tab[0]["ks_distance"]["value"] == 0.0
    assert tab[0]["dY0"]["value"] == 0.0


def test_flow_continuity_shrinks():
    doc = base_config()
    doc["mc"] = {"n_paths": 4000, "n_steps": 25, "seed": 18}
    cfg = hl.ExperimentConfig.from_dict(doc)
    tab = flow_continuity_check(
        cfg, [[0.5, 0.0], [0.5, 0.5], [0.5, 0.75]])
    d1, d2 = tab[0]["dY0"], tab[1]["dY0"]
    assert d2["value"] <= d1["value"] + np.hypot(d1["stderr"], d2["stderr"])


# -- emit -------------------------------------------------------------------

def test_emit_is_deterministic(small_report, tmp_path):
    _, rep = small_report
    f1 = emit(rep, tmp_path / "a", ("csv", "json"))
    f2 = emit(rep, tmp_path / "b", ("csv", "json"))
    for a, b in zip(f1, f2):
        assert filecmp.cmp(a, b, shallow=False)


def test_emit_refuses_nan(small_report, tmp_path):
    _, rep = small_report
    import copy
    bad = copy.deepcopy(rep)
    bad.rows[1]["Y0"]["value"] = float("nan")
    with pytest.raises(EmitError) as exc:
        emit(bad, tmp_path / "c", ("json",))
    assert "rows[1].Y0.value" in str(exc.value)


def test_emit_empty_report(tmp_path):
    rep = hl.ConvergenceReport(
        config_digest="0" * 16, rows=[], averaged={},
        drift_gap=[], decay=None, occupation=None, tightness=None, flags={})
    files = emit(rep, tmp_path / "d", ("csv", "json"))
    csvs = [f for f in files if f.endswith("convergence.csv")]
    with open(csvs[0]) as f:
        lines = f.read().splitlines()
    assert lines[0].startswith("eps,Y0,Y0_stderr")
    assert len(lines) == 1


def test_scan_nan_names_nested_cell():
    with pytest.raises(EmitError) as exc:
        _scan_nan({"a": [{"b": float("inf")}]}, "r")
    assert "r.a[0].b" in str(exc.value)


# -- CLI --------------------------------------------------------------------

def _write_cfg(tmp_path, doc):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    return str(p)


def test_cli_converge_roundtrip(tmp_path, capsys):
    doc = base_config()
    doc["mc"] = {"n_paths": 1000, "n_steps": 25, "seed": 9}
    doc["tolerances"] = {"final_error": 0.5}
    code = cli_main(["converge", _write_cfg(tmp_path, doc),
                     "--out", str(tmp_path / "out")])
    assert code == 0
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert rep["report_version"] == 1
    assert (tmp_path / "out" / "convergence.csv").exists()


def test_cli_converge_prints_written_paths(tmp_path, capsys):
    # with csv only, converge prints the two CSVs, not a report.json it
    # never wrote
    doc = _tiny_doc()
    del doc["fd"], doc["corrector"]
    doc["outputs"]["formats"] = ["csv"]
    out = tmp_path / "out"
    assert cli_main(["converge", _write_cfg(tmp_path, doc),
                     "--out", str(out)]) in (0, 2)
    printed = capsys.readouterr().out.split()
    assert sorted(printed) == [str(out / "convergence.csv"),
                               str(out / "drift_gap.csv")]
    assert all(os.path.exists(p) for p in printed)


def test_cli_exit_two_on_failed_flags(tmp_path):
    doc = base_config()
    doc["mc"] = {"n_paths": 400, "n_steps": 25, "seed": 9}
    doc["tolerances"] = {"final_error": 1e-12}   # unreachable
    code = cli_main(["converge", _write_cfg(tmp_path, doc),
                     "--out", str(tmp_path / "out2")])
    assert code == 2


def test_cli_exit_one_on_bad_config(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{}")
    assert cli_main(["converge", str(p)]) == 1


@pytest.mark.parametrize("text", [b'{"family": ', b'{"x0": "\xff\xfe"}'],
                         ids=["truncated", "not-utf8"])
def test_cli_config_not_json_names_its_file(tmp_path, capsys, text):
    # a truncated file and one whose bytes are not UTF-8 are refused by the
    # file's name; json.load's message alone named a line and column, or a
    # codec, but not the file
    p = tmp_path / "broken.json"
    p.write_bytes(text)
    out = tmp_path / "out"
    assert cli_main(["average", str(p), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {p} is not a JSON config: "), err
    assert not out.exists()


def test_cli_seed_override_changes_output(tmp_path):
    doc = base_config()
    doc["mc"] = {"n_paths": 300, "n_steps": 25, "seed": 10}
    cfgp = _write_cfg(tmp_path, doc)
    cli_main(["converge", cfgp, "--out", str(tmp_path / "s1")])
    cli_main(["converge", cfgp, "--out", str(tmp_path / "s2"),
              "--seed-override", "11"])
    a = (tmp_path / "s1" / "convergence.csv").read_text()
    b = (tmp_path / "s2" / "convergence.csv").read_text()
    assert a != b
    # the override is part of the config: its report, digest included, is
    # the report of the same config with the seed written in the file
    doc["mc"]["seed"] = 11
    (tmp_path / "seed11").mkdir()
    cli_main(["converge", _write_cfg(tmp_path / "seed11", doc),
              "--out", str(tmp_path / "s3")])
    r2, r3 = (json.loads((tmp_path / s / "report.json").read_text())
              for s in ("s2", "s3"))
    assert r2["config_digest"] == r3["config_digest"]
    assert r2 == r3


def test_cli_audit_and_average(tmp_path):
    doc = base_config()
    cfgp = _write_cfg(tmp_path, doc)
    assert cli_main(["audit", cfgp, "--out", str(tmp_path / "a")]) == 0
    assert (tmp_path / "a" / "audit.json").exists()
    assert cli_main(["average", cfgp, "--out", str(tmp_path / "b")]) == 0
    text = (tmp_path / "b" / "averaged.json").read_text()
    assert json.loads(text)["format"] == "averaged-model"
    assert text.endswith("}\n")   # the layout of write_json


@pytest.mark.parametrize("argv, flag", [
    (["converge", "--bogus"], "--bogus"),
    (["pde", "--threads", "2"], "--threads"),
    (["average", "--seed-override", "5"], "--seed-override"),
    (["converge", "--threads", "0"], "--threads")])
def test_cli_usage_error_exits_one(tmp_path, capsys, argv, flag):
    # a flag the subcommand does not read, or a worker count below 1, is
    # a usage error: exit 1, the flag on stderr, no output directory
    out = tmp_path / "out"
    argv = [argv[0], _write_cfg(tmp_path, _tiny_doc()), "--out", str(out),
            *argv[1:]]
    assert cli_main(argv) == 1
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_cli_help_exits_zero(capsys):
    assert cli_main(["converge", "--help"]) == 0
    assert "--threads" in capsys.readouterr().out


def test_golden_csv_fixture(tmp_path):
    # reference config + fixed seed: byte-identical CSV vs checked-in fixture
    doc = base_config()
    doc["mc"] = {"n_paths": 200, "n_steps": 20, "seed": 20260824}
    doc["eps_list"] = [1.0, 0.3]
    cfg = hl.ExperimentConfig.from_dict(doc)
    rep = hl.run_convergence(cfg)
    files = emit(rep, tmp_path / "golden", ("csv",))
    fixture = os.path.join(os.path.dirname(__file__), "fixtures",
                           "golden_convergence.csv")
    with open(files[0], "rb") as f, open(fixture, "rb") as ref:
        assert f.read() == ref.read()


def _tiny_doc():
    doc = base_config()
    doc["mc"] = {"n_paths": 60, "n_steps": 10, "seed": 12}
    doc["fd"] = {"L1": 2.0, "L2": 2.0, "n1": 11, "n2": 11, "dt_fd": 0.05}
    doc["corrector"] = {"n_grid": [11, 3, 3], "n_samples": 4}
    return doc


def test_converge_does_not_import_scipy_stats(tmp_path):
    # scipy.stats costs ~0.4 s of start-up; neither the set-up of a run nor
    # a converge with fd and corrector blocks may load it.  Nor may a
    # one-worker converge load multiprocessing, which only the sweep's
    # worker pool needs
    cfgp = _write_cfg(tmp_path, _tiny_doc())
    script = (
        "import sys\n"
        "import homoglab.cli\n"
        "from homoglab.harness import ExperimentConfig\n"
        f"ExperimentConfig.load({DEMO!r}).family()\n"
        "assert 'scipy.stats' not in sys.modules, 'set-up'\n"
        f"code = homoglab.cli.main(['converge', {cfgp!r}, '--out', "
        f"{str(tmp_path / 'out')!r}])\n"
        "assert code in (0, 2), code\n"
        "assert 'scipy.stats' not in sys.modules, 'converge'\n"
        "assert 'multiprocessing' not in sys.modules, 'converge'\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(hl.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_fd_less_run_never_loads_scipy(tmp_path):
    # import homoglab loads numpy alone: a config without an fd block loads
    # no SciPy module in set-up, nor in converge on one or two workers, and
    # the tracer's getattr(pde_fd, "splu") resolves without loading it; a
    # config with an fd block imports the sparse LU at load, before any
    # stage runs
    doc = _tiny_doc()
    del doc["fd"]
    bare = str(tmp_path / "bare.json")
    (tmp_path / "bare.json").write_text(json.dumps(doc))
    with_fd = _write_cfg(tmp_path, _tiny_doc())
    out = str(tmp_path / "out")
    script = (
        "import sys\n"
        "def scipy_modules():\n"
        "    return [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "import homoglab.cli\n"
        "import homoglab.pde_fd\n"
        "from homoglab.harness import ExperimentConfig\n"
        "assert callable(getattr(homoglab.pde_fd, 'splu'))\n"
        "assert not scipy_modules(), ('import', scipy_modules())\n"
        f"ExperimentConfig.load({bare!r}).family()\n"
        "assert not scipy_modules(), ('set-up', scipy_modules())\n"
        "for n in ('1', '2'):\n"
        f"    code = homoglab.cli.main(['converge', {bare!r}, '--out', "
        f"{out!r} + n, '--threads', n])\n"
        "    assert code in (0, 2), code\n"
        "    assert not scipy_modules(), ('converge', n, scipy_modules())\n"
        f"ExperimentConfig.load({with_fd!r})\n"
        "assert 'scipy.sparse.linalg' in sys.modules, 'fd load'\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(hl.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_refused_scipy_fails_fd_config_at_load(tmp_path, monkeypatch, capsys):
    # a missing or broken SciPy: a config with an fd block is refused at
    # load naming fd, before any output; one without still loads and runs
    monkeypatch.setitem(sys.modules, "scipy.sparse.linalg", None)
    with pytest.raises(ImportError):
        pde_fd.load_solver()
    with pytest.raises(ConfigError, match=r"\(config key 'fd'\)"):
        hl.ExperimentConfig.from_dict(_tiny_doc())
    out = tmp_path / "fd"
    assert cli_main(["converge", _write_cfg(tmp_path, _tiny_doc()),
                     "--out", str(out)]) == 1
    assert "(config key 'fd')" in capsys.readouterr().err
    assert not out.exists()
    doc = _tiny_doc()
    del doc["fd"]
    assert cli_main(["converge", _write_cfg(tmp_path, doc),
                     "--out", str(tmp_path / "bare")]) in (0, 2)


def test_cli_tiny_eps_corrector_runs(tmp_path):
    # the decay table is in closed form, so `corrector` runs at eps 1e-200
    # and at eps 1e-310, where x1/eps overflows: each row is finite and
    # non-negative, no remainder rises from eps 1 to the tiny eps, and
    # nothing warns
    doc = _tiny_doc()
    for tiny in (1e-200, 1e-310):
        doc["eps_list"] = [1.0, tiny]
        out = tmp_path / f"out{tiny}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main(["corrector", _write_cfg(tmp_path, doc),
                             "--out", str(out)]) == 0
        rows = json.loads((out / "corrector.json").read_text())["decay"]
        assert [r["eps"] for r in rows] == [1.0, tiny]
        for key in ("sup_V", "sup_beta", "sup_alpha"):
            first, last = (r[key] for r in rows)
            assert np.isfinite([first, last]).all(), key
            assert 0.0 <= last <= first, (key, first, last)


@pytest.mark.parametrize("cmd", ["simulate", "bsde", "converge"])
def test_cli_overflowing_fast_start_fails_naming_eps(tmp_path, capsys, cmd):
    # at eps 1e-310 the fast start x0[0]/eps overflows: each subcommand that
    # steps the paths exits 1 naming eps before the row's first Euler step,
    # where it failed with "non-finite state at step 1, path 0" after numpy's
    # overflow and invalid-value warnings; the one warning left is the
    # substeps cap's (`corrector` runs on this ladder, see above)
    doc = _tiny_doc()
    doc["eps_list"] = [1.0, 1e-310]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli_main([cmd, _write_cfg(tmp_path, doc),
                         "--out", str(tmp_path / "out")]) == 1
    assert "eps = 1e-310: the fast start x0[0]/eps = 0.5/1e-310 overflows" \
        in capsys.readouterr().err
    assert [str(w.message) for w in caught] == [
        "eps = 1e-310 needs inf substeps but substeps_cap = 64; the fast "
        "scale is under-resolved"]


def test_cli_subcommands_smoke(tmp_path):
    cfgp = _write_cfg(tmp_path, _tiny_doc())
    expect = {
        "simulate": ["paths_avg.bin", "paths_avg.bin.json", "paths_eps0.bin",
                     "paths_eps0.bin.json", "paths_eps1.bin",
                     "paths_eps1.bin.json"],
        "bsde": ["bsde_eps0.bin", "bsde_eps1.bin.json", "bsde_avg.bin",
                 "bsde_summary.json"],
        "corrector": ["decay.csv", "corrector.json"],
        "pde": ["pde.csv", "pde.csv.json", "pde_summary.json"],
    }
    for cmd, files in expect.items():
        out = tmp_path / cmd
        assert cli_main([cmd, cfgp, "--out", str(out)]) == 0, cmd
        for name in files:
            assert (out / name).stat().st_size > 0, (cmd, name)
    # simulate writes one container and its sidecar per run, each eps row
    # and then the averaged model, and nothing else
    assert sorted(os.listdir(tmp_path / "simulate")) == expect["simulate"]
    summary = json.loads((tmp_path / "bsde" / "bsde_summary.json").read_text())
    assert [r["eps"] for r in summary["eps"]] == [1.0, 0.3]
    assert cli_main(["bsde", cfgp, "--out", str(tmp_path / "bsde2"),
                     "--threads", "2"]) == 0
    for name in expect["bsde"]:
        assert filecmp.cmp(tmp_path / "bsde" / name,
                           tmp_path / "bsde2" / name, shallow=False), name


def test_cli_sweep_worker_count_keeps_the_bytes(tmp_path):
    # converge and bsde on 1 and 2 worker processes write the same files,
    # byte for byte (bsde writes each run's container in the worker that
    # solves it, and converge's averaged job solves the FD problem when the
    # config has an fd block); the smallest eps takes several substeps
    for fd in (None, _FD_BLOCK):
        _worker_count_keeps_the_bytes(tmp_path / f"fd{fd is not None}",
                                      {**_sweep_doc(), "fd": fd})


def _worker_count_keeps_the_bytes(tmp_path, doc):
    tmp_path.mkdir()
    assert Stages(hl.ExperimentConfig.from_dict(doc)).row_substeps[-2] > 1
    cfgp = _write_cfg(tmp_path, doc)
    for cmd, count in (("converge", 3), ("bsde", 9)):
        outs = [tmp_path / f"{cmd}{n}" for n in (1, 2)]
        for n, out in zip((1, 2), outs):
            code = cli_main([cmd, cfgp, "--out", str(out), "--threads", str(n)])
            assert code in (0, 2), (cmd, n)
        names = sorted(os.listdir(outs[0]))
        assert len(names) == count, names
        assert sorted(os.listdir(outs[1])) == names
        for name in names:
            assert filecmp.cmp(outs[0] / name, outs[1] / name,
                               shallow=False), (cmd, name)


def test_cli_simulate_matches_converge_paths(tmp_path, monkeypatch):
    # the paths `simulate` saves are the ones `converge` runs on, including
    # the substeps of the eps = 0.3 row
    doc = _tiny_doc()
    del doc["fd"], doc["corrector"]
    cfgp = _write_cfg(tmp_path, doc)
    seen = {}
    for name in ("simulate_eps", "simulate_avg"):
        def record(*args, _fn=getattr(homoglab.harness, name), **kwargs):
            bundle = _fn(*args, **kwargs)
            seen[bundle.eps] = bundle
            return bundle
        monkeypatch.setattr(homoglab.harness, name, record)
    assert cli_main(["converge", cfgp, "--out", str(tmp_path / "c")]) in (0, 2)
    monkeypatch.undo()
    assert cli_main(["simulate", cfgp, "--out", str(tmp_path / "s")]) == 0
    for name, eps in (("paths_eps0.bin", 1.0), ("paths_eps1.bin", 0.3),
                      ("paths_avg.bin", None)):
        saved = hl.PathBundle.load(tmp_path / "s" / name)
        assert np.array_equal(saved.X, seen[eps].X), name
        assert np.array_equal(saved.dB, seen[eps].dB), name


def test_cli_tiny_eps_takes_the_cap(tmp_path, monkeypatch):
    # 1e-200 ** 2 underflows to 0: the eps takes substeps_cap with the
    # under-resolved warning, where it raised ZeroDivisionError, and its
    # paths stay finite
    doc = base_config()
    doc["eps_list"] = [1.0, 1e-200]
    doc["mc"] = {"n_paths": 200, "n_steps": 25, "seed": 3}
    cfgp = _write_cfg(tmp_path, doc)
    substeps = []

    def record(*args, _fn=homoglab.harness.simulate_eps, **kwargs):
        substeps.append(kwargs["substeps"])
        return _fn(*args, **kwargs)
    monkeypatch.setattr(homoglab.harness, "simulate_eps", record)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli_main(["simulate", cfgp, "--out", str(tmp_path / "s")]) == 0
    assert [str(w.message) for w in caught] == [
        "eps = 1e-200 needs inf substeps but substeps_cap = 64; the fast "
        "scale is under-resolved"]
    assert substeps == [1, 64]
    saved = hl.PathBundle.load(tmp_path / "s" / "paths_eps1.bin")
    assert np.isfinite(saved.X).all()


@pytest.mark.parametrize("cmd", ["average", "simulate", "bsde", "corrector",
                                 "pde", "converge", "audit"])
def test_cli_bad_schedule_fails_every_subcommand(tmp_path, capsys, cmd):
    # averaging.schedule is no longer a key: every family is averaged on
    # DEFAULT_SCHEDULE, and a config that sets one, even that one, is
    # refused by name before any output
    doc = _tiny_doc()
    doc["averaging"]["schedule"] = list(hl.DEFAULT_SCHEDULE)
    out = tmp_path / "out"
    code = cli_main([cmd, _write_cfg(tmp_path, doc), "--out", str(out)])
    assert code == 1
    assert "unknown config key 'averaging.schedule'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n1", [-1, -3])
def test_cli_pde_rejects_nonpositive_n1(tmp_path, capsys, n1):
    # odd but negative: the grid would have no interior nodes
    doc = _tiny_doc()
    doc["fd"]["n1"] = n1
    out = tmp_path / "out"
    code = cli_main(["pde", _write_cfg(tmp_path, doc), "--out", str(out)])
    assert code == 1
    assert f"error: n1 must be at least 1, got {n1} (config key 'fd.n1')" \
        in capsys.readouterr().err
    assert not out.exists()


def test_pde_and_converge_share_the_fd_stage(tmp_path):
    # pde_summary.json holds the very value at x0 and Richardson estimate
    # that report.json records as v_fd (JSON floats round-trip exactly)
    doc = _tiny_doc()
    del doc["corrector"]
    cfgp = _write_cfg(tmp_path, doc)
    assert cli_main(["converge", cfgp, "--out", str(tmp_path / "c")]) in (0, 2)
    assert cli_main(["pde", cfgp, "--out", str(tmp_path / "p")]) == 0
    report = json.loads((tmp_path / "c" / "report.json").read_text())
    summary = json.loads((tmp_path / "p" / "pde_summary.json").read_text())
    v_fd = report["averaged"]["v_fd"]
    assert summary == {"value_at_x0": v_fd["value"],
                       "richardson_error": v_fd["stderr"]}


@pytest.mark.parametrize("family, x0", [
    ({"id": "nope"}, [0.5, 0.0]),
    ({"id": "switch", "d": 2}, [0.5, 0.0, 0.0])])
def test_cli_setup_failure_leaves_no_out_dir(tmp_path, capsys, family, x0):
    # a family the catalog refuses (an unknown id, a d that does not match)
    # fails in set-up; the output directory is made at the first output
    doc = _tiny_doc()
    doc["family"], doc["x0"] = family, x0
    cfgp = _write_cfg(tmp_path, doc)
    for cmd in ("converge", "pde"):
        out = tmp_path / cmd
        assert cli_main([cmd, cfgp, "--out", str(out)]) == 1
        assert "family" in capsys.readouterr().err
        assert not out.exists()


def test_residual_samples_the_corrector_box(monkeypatch):
    # the residual check samples corrector.box x corrector.y_box, the box
    # of the decay table
    doc = _tiny_doc()
    doc["corrector"].update({"box": [[-3, 1], [-0.5, 2]], "y_box": [-2, 0.5]})
    specs = []
    monkeypatch.setattr(hl.corrector, "residual_check",
                        lambda field, spec: specs.append(spec))
    Stages(hl.ExperimentConfig.from_dict(doc)).residual()
    assert [s["box"] for s in specs] == [[[-3, 1], [-0.5, 2], [-2, 0.5]]]


def test_cli_pde_without_fd_block_leaves_no_out_dir(tmp_path, capsys):
    # refused after set-up, before the first output is written
    doc = _tiny_doc()
    del doc["fd"]
    out = tmp_path / "out"
    assert cli_main(["pde", _write_cfg(tmp_path, doc), "--out", str(out)]) == 1
    assert "needs an fd block" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key,value", [("n_grid", [11, -3, 3]),
                                       ("n_grid", [11, 3, 0]),
                                       ("n_grid", [11, 3]),
                                       ("n_samples", -2),
                                       ("n_samples", 0),
                                       ("y_box", [1]),
                                       ("box", [[-2, 2]]),
                                       ("box", [[-2, 2], [-1, "1"]])])
def test_cli_corrector_rejects_bad_sizes(tmp_path, capsys, key, value):
    # refused by name before any output: -2 samples used to fail after
    # decay.csv was written, 0 samples to pass a check over no points, a
    # one-number y_box with an IndexError traceback and a one-pair box with
    # an unnamed unpacking error
    doc = _tiny_doc()
    doc["corrector"][key] = value
    out = tmp_path / "out"
    code = cli_main(["corrector", _write_cfg(tmp_path, doc),
                     "--out", str(out)])
    assert code == 1
    assert f"error: corrector.{key} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cmd,name,value", [
    ("pde", "fd.dt_fd", None),           # None: the key is missing
    ("pde", "fd.n1", 21.7),
    ("pde", "fd.L2", "2.0"),
    ("simulate", "mc.n_paths", 200.9),
    ("bsde", "mc.n_steps", 10.5),
    ("converge", "mc.block_size", 64.0),
    ("converge", "mc", 5),
    ("average", "fd", 5),
    ("average", "corrector", [11, 3, 3]),
    ("average", "family", 5),
    ("average", "bsde", 5),
    ("average", "averaging", 5),
    ("average", "outputs", 5),
    ("average", "tolerances", 5),
    ("average", "mc.seed", 7.9),
    ("average", "bsde.basis_degree", 2.5),
    ("average", "bsde.n_picard", 2.5),
    ("average", "bsde.sign_feature", "false"),
    ("average", "family.d", 1.5),
    ("average", "outputs.formats", "csv"),
    ("average", "tolerances.final_error", "0.03"),
    ("average", "eps_list", 5),
    ("average", "t_end", "0.5"),
    ("average", "x0", ["a", 0.0]),
    ("average", "fd.scheme", "centered"),
    ("average", "averaging.schedule", []),
    ("average", "eps_lst", [1.0]),
    ("average", "family.dim", 1),
    ("average", "mc.n_path", 100),
    ("average", "bsde.basis_degre", 2),
    ("average", "averaging.tolerance", 1e-4),
    ("average", "fd.L3", 1.0),
    ("average", "corrector.n_grids", [11, 3, 3]),
    ("average", "tolerances.final", 0.03),
    ("average", "outputs.format", ["csv"]),
    ("bsde", "mc.n_steps", 1),
    ("converge", "bsde.basis_degree", 9),
    ("converge", "bsde.n_picard", 0),
    ("converge", "t_end", -0.5),
    ("converge", "fd.n1", -1),
    ("converge", "fd.n1", 10),
    ("converge", "fd.n2", 2),
    ("converge", "fd.L1", 0.0),
    ("converge", "fd.dt_fd", 0.3),
    ("converge", "fd.dt_fd", 0.03),
    ("average", "outputs.formats", []),
    ("converge", "x0", [float("nan"), 0.0]),
    ("converge", "fd.L1", float("inf")),
    ("average", "averaging.tol", float("nan")),
    ("converge", "tolerances.final_error", float("nan")),
    ("corrector", "corrector.box", [[float("-inf"), 2], [-1, 1]]),
    pytest.param("converge", "t_end", 10 ** 400, id="converge-t_end-1e400"),
    ("converge", "fd.dt_fd", 1e-320),
    ("average", "averaging.tol", 0),
    ("converge", "x0", [0.5, 2.5]),
    ("converge", "mc.n_steps", 10 ** 12),
    ("converge", "tolerances.occupation_slope", [0.6, 0.4]),
    ("corrector", "corrector.box", [[0, 0], [-1, 1]]),
    ("corrector", "corrector.y_box", [1, -1]),
    ("average", "bsde.n_picard", 10 ** 6)])
def test_cli_rejects_malformed_blocks(tmp_path, capsys, cmd, name, value):
    # refused by name before any output: a missing fd key or a block that
    # is not an object used to escape main as a KeyError, TypeError or
    # AttributeError, a fractional size, seed or degree was truncated
    # silently, a string flag or tolerance was read as its truth value
    # or parsed, a misspelt key was ignored, an empty schedule meant the
    # default one and no output format let converge write nothing and
    # exit 0.  fd.scheme is no longer a key: the one FD scheme is the
    # centered one, and a config that still names it is refused.  A value
    # out of the range that SimGrid, BsdeSpec or Grid2D owns (a basis
    # degree of 9, no Picard sweep, a negative horizon, a grid with no x1
    # node at 0 or a dt_fd that does not divide t_end) used to fail only
    # in the stage that built the object, after the averaging stage or
    # the whole eps sweep, and left the output directory behind.  A NaN or
    # infinite number (which json.load reads) or an integer too large for a
    # float failed late, in a quadrature or at the FD stage, turned a flag
    # false or went unnoticed; a dt_fd so small that t_end / dt_fd
    # overflows, and a 401-digit t_end, escaped the loader as an
    # OverflowError traceback; an averaging.tol of 0, which no Cesaro check
    # can meet, failed in stage 'average' without naming the key; an x0
    # outside the fd box gave a v_fd extrapolated past its boundary; a
    # [lo, hi] pair whose lo was not below hi gave an all-zero decay table
    # or an occupation_slope_ok that could never be true
    doc = _tiny_doc()
    *block, key = name.split(".")
    node = doc[block[0]] if block else doc
    if value is None:
        del node[key]
    else:
        node[key] = value
    out = tmp_path / "out"
    code = cli_main([cmd, _write_cfg(tmp_path, doc), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and name in err
    assert not out.exists()
