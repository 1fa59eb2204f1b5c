import filecmp
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import homoglab as hl
import homoglab.harness
from homoglab import pde_fd
from homoglab.cli import main as cli_main
from homoglab.harness import (ConfigError, EmitError, Stages, _scan_nan,
                              emit, split_seed)
from conftest import base_config

DEMO = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                    "switch_demo.json")


# -- config -----------------------------------------------------------------

def test_config_parsing(config_doc):
    cfg = hl.ExperimentConfig.from_dict(config_doc)
    assert cfg.family_id == "switch"
    assert cfg.eps_list == [1.0, 0.3]
    assert cfg.seed == 42
    assert cfg.digest() == hl.ExperimentConfig.from_dict(config_doc).digest()


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


def test_pipeline_error_carries_stage(config_doc):
    config_doc["fd"] = {"L1": 1.0, "L2": 1.0, "n1": 10, "n2": 10,
                        "dt_fd": 0.01}   # even n1 -> Grid2D rejects
    config_doc["mc"] = {"n_paths": 200, "n_steps": 25, "seed": 6}
    cfg = hl.ExperimentConfig.from_dict(config_doc)
    with pytest.raises(hl.PipelineError) as exc:
        hl.run_convergence(cfg)
    assert exc.value.stage == "fd-crosscheck"
    assert exc.value.partial.incomplete
    assert len(exc.value.partial.rows) == 2   # earlier stages preserved


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


def test_run_convergence_solves_each_fd_grid_once(tmp_path, monkeypatch):
    # the Richardson estimate reuses the cross-check's coarse solution
    doc = _tiny_doc()
    del doc["corrector"]
    calls = []

    def counted(*args, _fn=pde_fd.solve_pde, **kwargs):
        calls.append(args[1])
        return _fn(*args, **kwargs)
    monkeypatch.setattr(pde_fd, "solve_pde", counted)
    rep = hl.run_convergence(hl.ExperimentConfig.from_dict(doc))
    assert "v_fd" in rep.averaged
    assert len(calls) == 2 and calls[1] == calls[0].refined(2)


def test_substeps_warn_when_cap_binds():
    doc = base_config()
    doc["mc"] = {"n_paths": 10, "n_steps": 50, "seed": 1}   # dt = 0.01
    st = Stages(hl.ExperimentConfig.from_dict(doc))
    with pytest.warns(RuntimeWarning, match=r"eps = 0.01 needs 200 "
                                            r"substeps but substeps_cap = 64"):
        assert st.substeps(0.01) == 64


def test_substeps_quiet_on_demo():
    st = Stages(hl.ExperimentConfig.load(DEMO))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [st.substeps(eps) for eps in st.cfg.eps_list]
    assert got == [1, 1, 1, 2]


def test_monte_carlo_drift_gap_scaling():
    doc = base_config()
    doc["eps_list"] = [0.3]
    doc["mc"] = {"n_paths": 1000, "n_steps": 25, "seed": 777}
    t1 = hl.monte_carlo_drift_gap(hl.ExperimentConfig.from_dict(doc))
    doc["mc"]["n_paths"] = 4000
    t2 = hl.monte_carlo_drift_gap(hl.ExperimentConfig.from_dict(doc))
    r = t1[0]["gap"]["stderr"] / t2[0]["gap"]["stderr"]
    assert r == pytest.approx(2.0, rel=0.2)    # 1/sqrt(N) scaling


def test_flow_continuity_identical_points():
    doc = base_config()
    doc["mc"] = {"n_paths": 400, "n_steps": 25, "seed": 17}
    cfg = hl.ExperimentConfig.from_dict(doc)
    tab = hl.flow_continuity_check(cfg, [[0.5, 0.0], [0.5, 0.0]])
    assert tab[0]["ks_distance"]["value"] == 0.0
    assert tab[0]["dY0"]["value"] == 0.0


def test_flow_continuity_shrinks():
    doc = base_config()
    doc["mc"] = {"n_paths": 4000, "n_steps": 25, "seed": 18}
    cfg = hl.ExperimentConfig.from_dict(doc)
    tab = hl.flow_continuity_check(
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
        report_version=1, config_digest="0" * 16, rows=[], averaged={},
        drift_gap=[], decay=None, occupation=None, tightness=None, flags={})
    files = emit(rep, tmp_path / "d", ("csv", "json"))
    csvs = [f for f in files if f.endswith("convergence.csv")]
    assert (open(csvs[0]).read().splitlines()[0]
            .startswith("eps,Y0,Y0_stderr"))
    assert len(open(csvs[0]).read().splitlines()) == 1


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


def test_cli_audit_and_average(tmp_path):
    doc = base_config()
    cfgp = _write_cfg(tmp_path, doc)
    assert cli_main(["audit", cfgp, "--out", str(tmp_path / "a")]) == 0
    assert (tmp_path / "a" / "audit.json").exists()
    assert cli_main(["average", cfgp, "--out", str(tmp_path / "b")]) == 0
    doc2 = json.loads((tmp_path / "b" / "averaged.json").read_text())
    assert doc2["format"] == "averaged-model"


def test_golden_csv_fixture(tmp_path):
    # reference config + fixed seed: byte-identical CSV vs checked-in fixture
    doc = base_config()
    doc["mc"] = {"n_paths": 200, "n_steps": 20, "seed": 20260824}
    doc["eps_list"] = [1.0, 0.3]
    cfg = hl.ExperimentConfig.from_dict(doc)
    rep = hl.run_convergence(cfg)
    files = emit(rep, tmp_path / "golden", ("csv",))
    got = open(files[0], "rb").read()
    fixture = os.path.join(os.path.dirname(__file__), "fixtures",
                           "golden_convergence.csv")
    assert got == open(fixture, "rb").read()


def _tiny_doc():
    doc = base_config()
    doc["mc"] = {"n_paths": 60, "n_steps": 10, "seed": 12}
    doc["fd"] = {"L1": 2.0, "L2": 2.0, "n1": 11, "n2": 11, "dt_fd": 0.05}
    doc["corrector"] = {"n_grid": [11, 3, 3], "n_samples": 4}
    return doc


def test_converge_does_not_import_scipy_stats(tmp_path):
    # scipy.stats costs ~0.4 s of start-up; neither the set-up of a run nor
    # a converge with fd and corrector blocks may load it
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
        "assert 'scipy.stats' not in sys.modules, 'converge'\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(hl.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_cli_subcommands_smoke(tmp_path):
    cfgp = _write_cfg(tmp_path, _tiny_doc())
    expect = {
        "simulate": ["paths_eps0.bin", "paths_eps0.bin.json",
                     "paths_eps1.bin", "paths_avg.bin"],
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
    summary = json.loads((tmp_path / "bsde" / "bsde_summary.json").read_text())
    assert [r["eps"] for r in summary["eps"]] == [1.0, 0.3]
    assert cli_main(["bsde", cfgp, "--out", str(tmp_path / "bsde2"),
                     "--threads", "2"]) == 0
    for name in expect["bsde"]:
        assert filecmp.cmp(tmp_path / "bsde" / name,
                           tmp_path / "bsde2" / name, shallow=False), name


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


@pytest.mark.parametrize("cmd", ["average", "simulate", "bsde", "corrector",
                                 "pde", "converge", "audit"])
def test_cli_bad_schedule_fails_every_subcommand(tmp_path, capsys, cmd):
    doc = _tiny_doc()
    doc["averaging"]["schedule"] = [100.0, 1000.0]   # needs >= 4 horizons
    code = cli_main([cmd, _write_cfg(tmp_path, doc),
                     "--out", str(tmp_path / "out")])
    assert code == 1
    assert "schedule" in capsys.readouterr().err


@pytest.mark.parametrize("n1", [-1, -3])
def test_cli_pde_rejects_nonpositive_n1(tmp_path, capsys, n1):
    # odd but negative: the grid would have no interior nodes
    doc = _tiny_doc()
    doc["fd"]["n1"] = n1
    code = cli_main(["pde", _write_cfg(tmp_path, doc),
                     "--out", str(tmp_path / "out")])
    assert code == 1
    assert f"error: n1 must be at least 1, got {n1}" in capsys.readouterr().err


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
    ("average", "x0", ["a", 0.0])])
def test_cli_rejects_malformed_blocks(tmp_path, capsys, cmd, name, value):
    # refused by name before any output: a missing fd key or a block that
    # is not an object used to escape main as a KeyError, TypeError or
    # AttributeError, a fractional size, seed or degree was truncated
    # silently, and a string flag or tolerance was read as its truth value
    # or parsed
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
