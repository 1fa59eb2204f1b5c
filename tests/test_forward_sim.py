import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homoglab as hl
from homoglab.simulate import SimulationError


def test_grid_validation():
    with pytest.raises(SimulationError):
        hl.SimGrid(-1.0, 10)
    with pytest.raises(SimulationError):
        hl.SimGrid(1.0, 1)
    g = hl.SimGrid(1.0, 4)
    assert g.dt == 0.25
    assert g.times[-1] == 1.0


def test_bundle_shapes(switch_bundle):
    b = switch_bundle
    assert b.X.shape == (2000, 41, 2)
    assert b.dB.shape == (2000, 40, 2)
    assert b.d == 1 and b.k == 2
    assert np.all(b.X[:, 0, 0] == 0.5)
    assert np.all(b.X[:, 0, 1] == 0.0)


def test_brownian_increment_statistics(avg_bundle):
    dB = avg_bundle.dB
    dt = avg_bundle.grid.dt
    assert dB.mean() == pytest.approx(0.0, abs=4 * np.sqrt(dt / dB.size))
    assert dB.var() == pytest.approx(dt, rel=0.05)
    # independent columns
    corr = np.corrcoef(dB[:, :, 0].ravel(), dB[:, :, 1].ravel())[0, 1]
    assert abs(corr) < 0.02


def test_seed_reproducibility(switch_family, small_grid):
    a = hl.simulate_eps(switch_family, 0.5, [0.0, 0.0], small_grid, 100, seed=3)
    b = hl.simulate_eps(switch_family, 0.5, [0.0, 0.0], small_grid, 100, seed=3)
    c = hl.simulate_eps(switch_family, 0.5, [0.0, 0.0], small_grid, 100, seed=4)
    assert np.array_equal(a.X, b.X)
    assert not np.array_equal(a.X, c.X)


def test_block_and_thread_invariance(switch_family, small_grid):
    a = hl.simulate_eps(switch_family, 0.5, [0.0, 0.0], small_grid, 500,
                        seed=9, block_size=500)
    b = hl.simulate_eps(switch_family, 0.5, [0.0, 0.0], small_grid, 500,
                        seed=9, block_size=77, n_jobs=3)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.dB, b.dB)


def test_path_prefix_stability(switch_family, small_grid):
    # per-path streams: the first paths do not change when more are added
    a = hl.simulate_eps(switch_family, 0.5, [0.0, 0.0], small_grid, 50, seed=5)
    b = hl.simulate_eps(switch_family, 0.5, [0.0, 0.0], small_grid, 200, seed=5)
    assert np.array_equal(a.X, b.X[:50])


def test_substeps_aggregate_dB(switch_family, small_grid):
    b = hl.simulate_eps(switch_family, 0.5, [0.0, 0.0], small_grid, 400,
                        seed=6, substeps=4)
    assert b.dB.var() == pytest.approx(small_grid.dt, rel=0.1)


def test_container_roundtrip(switch_bundle, tmp_path):
    p = tmp_path / "paths.bin"
    switch_bundle.save(p)
    # sidecar exists and binary magic is in place
    raw = p.read_bytes()
    assert raw[:5] == b"HMGB1"
    assert (tmp_path / "paths.bin.json").exists()
    b2 = hl.PathBundle.load(p)
    assert np.array_equal(b2.X, switch_bundle.X)
    assert np.array_equal(b2.dB, switch_bundle.dB)
    assert b2.eps == switch_bundle.eps
    assert b2.seed == switch_bundle.seed


def test_container_rejects_bad_magic(switch_bundle, tmp_path):
    p = tmp_path / "paths.bin"
    switch_bundle.save(p)
    raw = bytearray(p.read_bytes())
    raw[:5] = b"WRONG"
    p.write_bytes(bytes(raw))
    with pytest.raises(SimulationError):
        hl.PathBundle.load(p)


@pytest.fixture(scope="module")
def small_container(tmp_path_factory):
    grid = hl.SimGrid(0.5, 3)
    b = hl.simulate_eps(hl.make_family("switch"), 0.5, [0.0, 0.0], grid, 4,
                        seed=8)
    path = tmp_path_factory.mktemp("container") / "paths.bin"
    b.save(path)
    return path, path.read_bytes()


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_container_rejects_truncation_and_trailing_bytes(small_container,
                                                         data):
    path, raw = small_container
    if data.draw(st.booleans(), label="truncate"):
        cut = data.draw(st.integers(0, len(raw) - 1), label="offset")
        bad = raw[:cut]
    else:
        bad = raw + data.draw(st.binary(min_size=1, max_size=64),
                              label="suffix")
    broken = path.with_name("broken.bin")
    broken.write_bytes(bad)
    with pytest.raises(SimulationError, match="bytes, expected"):
        hl.PathBundle.load(broken)


def test_avg_bundle_eps_is_none(avg_bundle, tmp_path):
    assert avg_bundle.eps is None
    p = tmp_path / "avg.bin"
    avg_bundle.save(p)
    assert hl.PathBundle.load(p).eps is None


def test_x1_independent_matches_avg(slowvary_family, small_grid):
    # for a fast-independent family the eps dynamics equal the averaged ones
    avg = hl.build_averaged(slowvary_family)
    a = hl.simulate_eps(slowvary_family, 0.01, [0.3, -0.2], small_grid, 300,
                        seed=21)
    b = hl.simulate_avg(avg, [0.3, -0.2], small_grid, 300, seed=21)
    assert np.allclose(a.X, b.X, atol=1e-12)


def test_occupation_time_decreases_with_n(avg_bundle):
    out = hl.occupation_time(avg_bundle, [1, 4, 16])
    means = [o.mean_occupation for o in out]
    assert means[0] > means[1] > means[2] > 0
    assert all(o.std_error > 0 for o in out)


def test_moment_report_monotone_in_k(avg_bundle):
    table = hl.moment_report(avg_bundle, [1, 2])
    m1, s1 = table[1]
    m2, s2 = table[2]
    assert m1 > 0 and s1 > 0
    # sup |X|^4-type moments exist and are finite
    assert np.isfinite(m2)


def test_martingale_mean_x1(switch_avg, small_grid):
    # averaged X1 is driftless: terminal mean stays near x0 within stderr
    b = hl.simulate_avg(switch_avg, [0.4, 0.0], small_grid, 8000, seed=33)
    x1T = b.X[:, -1, 0]
    assert abs(x1T.mean() - 0.4) < 4 * x1T.std() / np.sqrt(x1T.size)
