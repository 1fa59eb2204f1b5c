from types import SimpleNamespace

import numpy as np
import pytest

import homoglab as hl
from homoglab.harness import Stages, _cell


@pytest.fixture(scope="session")
def switch_family():
    return hl.make_family("switch")


@pytest.fixture(scope="session")
def switch_avg(switch_family):
    return hl.build_averaged(switch_family)


@pytest.fixture(scope="session")
def const_family():
    return hl.make_family("const")


@pytest.fixture(scope="session")
def slowvary_family():
    return hl.make_family("slowvary")


@pytest.fixture(scope="session")
def small_grid():
    return hl.SimGrid(0.5, 40)


@pytest.fixture(scope="session")
def switch_bundle(switch_family, small_grid):
    return hl.simulate_eps(switch_family, 0.3, [0.5, 0.0], small_grid,
                           n_paths=2000, seed=11, substeps=2)


@pytest.fixture(scope="session")
def avg_bundle(switch_avg, small_grid):
    return hl.simulate_avg(switch_avg, [0.5, 0.0], small_grid,
                           n_paths=2000, seed=12)


def problem(model=None, **parts):
    """A fake model: an object with the attributes the solvers read,
    ``a00``, ``a1``, ``b1``, ``driver``, ``terminal`` and ``label``, taken
    from ``model`` unless given in ``parts``."""
    names = ("a00", "a1", "b1", "driver", "terminal", "label")
    base = {} if model is None else {n: getattr(model, n) for n in names}
    return SimpleNamespace(**{**base, **parts})


def base_config(**overrides):
    doc = {
        "family": {"id": "switch", "params": [], "d": 1, "k": 2},
        "x0": [0.5, 0.0],
        "t_end": 0.5,
        "eps_list": [1.0, 0.3],
        "mc": {"n_paths": 1000, "n_steps": 25, "seed": 42},
        "bsde": {"basis_degree": 3, "sign_feature": True, "n_picard": 3},
        "averaging": {"tol": 1e-4},
        "tolerances": {},
        "outputs": {"dir": "out", "formats": ["csv", "json"]},
    }
    doc.update(overrides)
    return doc


@pytest.fixture()
def config_doc():
    return base_config()


def flow_continuity_check(cfg, x0_list) -> list:
    """Continuity of the averaged flow in the initial point (criterion 09).

    Runs the averaged model from each x0 with common random numbers, then
    reports per consecutive pair the KS distances of the X_{t_end}
    marginals and the Y0 difference with combined stderr.
    """
    from scipy import stats
    st = Stages(cfg)
    runs = []
    for x0 in x0_list:
        x0 = np.asarray(x0, dtype=float)
        bundle = hl.simulate_avg(st.avg, x0, cfg.grid(), cfg.mc["n_paths"],
                                 seed=hl.split_seed(cfg.mc["seed"], "flow"),
                                 block_size=cfg.mc["block_size"])
        sol = hl.solve_bsde(bundle, st.avg, st.spec)
        runs.append((x0, bundle, sol))
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


# one pass/fail line per acceptance criterion, shown after the test summary
# (fd-level capture would otherwise swallow prints from passing tests)
ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
