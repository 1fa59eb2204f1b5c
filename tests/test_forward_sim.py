import hashlib
import json
import warnings
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import homoglab as hl
from homoglab import simulate
from homoglab.simulate import SimulationError


def test_grid_validation():
    with pytest.raises(SimulationError):
        hl.SimGrid(-1.0, 10)
    with pytest.raises(SimulationError):
        hl.SimGrid(1.0, 1)
    g = hl.SimGrid(1.0, 4)
    assert g.dt == 0.25


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
    # other block sizes give the same paths, also when three callers
    # run simulate_eps at once in one process
    def run(block_size):
        return hl.simulate_eps(switch_family, 0.5, [0.0, 0.0], small_grid,
                               500, seed=9, block_size=block_size)
    a = run(500)
    with ThreadPoolExecutor(max_workers=3) as ex:
        runs = list(ex.map(run, [77, 64, 1000]))
    for b in runs:
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.dB, b.dB)


@pytest.mark.parametrize("name,value", [("block_size", 0),
                                        ("block_size", -4),
                                        ("substeps", 0)])
def test_nonpositive_block_size_or_substeps_refused(switch_family, switch_avg,
                                                    small_grid, name, value):
    # a negative block size would leave the path buffer uninitialised
    for simulate_fn, args in ((hl.simulate_eps, (switch_family, 0.5)),
                              (hl.simulate_avg, (switch_avg,))):
        with pytest.raises(SimulationError,
                           match=f"{name} must be at least 1, got {value}"):
            simulate_fn(*args, [0.0, 0.0], small_grid, 10, seed=1,
                        **{name: value})


def test_overflowing_fast_start_refused_before_stepping(monkeypatch,
                                                         switch_family,
                                                         small_grid):
    # x0[0]/eps overflows at eps 1e-310: the run is refused before its first
    # Euler step, naming eps, with no numpy warning; it failed at step 1 as
    # a non-finite state, after overflow and invalid-value warnings.  At
    # x0[0] = 0 the start is finite and the run is not refused here
    steps = []
    forward = hl.CoefficientFamily.forward
    monkeypatch.setattr(hl.CoefficientFamily, "forward",
                        lambda *a: steps.append(1) or forward(*a))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SimulationError, match=r"^eps = 1e-310: the fast "
                           r"start x0\[0\]/eps = 0.5/1e-310 overflows$"):
            hl.simulate_eps(switch_family, 1e-310, [0.5, 0.0], small_grid, 10,
                            seed=1, block_size=4)
    assert steps == []
    b = hl.simulate_eps(switch_family, 1e-300, [0.0, 0.0], small_grid, 3,
                        seed=1)
    assert np.all(b.X[:, 0] == 0.0)


def test_overflowing_fast_state_refused_naming_eps():
    # from a start on the interface at eps 1e-310, X1/eps overflows at the
    # first step away from 0: the coarse step's finiteness check refuses
    # the run, naming eps, with no numpy overflow or invalid-value warning
    # before it.  A run of a model with no eps (the averaged one) is
    # refused by the same check, named by its step and path alone
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SimulationError) as exc:
            hl.simulate_eps(hl.make_family("switch"), 1e-310, [0.0, 0.0],
                            hl.SimGrid(0.5, 10), 20, seed=1)
        assert str(exc.value) == \
            "eps = 1e-310: non-finite state at step 2, path 0"

        def forward(x1, x2):
            return np.full(x1.shape, np.inf), np.zeros(x1.shape), \
                np.zeros(x1.shape)
        model = SimpleNamespace(eps=None, k=2, forward=forward)
        with pytest.raises(SimulationError) as exc:
            simulate._run_blocks(model, [0.0, 0.0], hl.SimGrid(0.5, 10), 5,
                                 seed=1, substeps=1, block_size=4)
        assert str(exc.value) == "non-finite state at step 1, path 0"


def test_path_prefix_stability(switch_family, small_grid):
    # per-path streams: the first paths do not change when more are added
    a = hl.simulate_eps(switch_family, 0.5, [0.0, 0.0], small_grid, 50, seed=5)
    b = hl.simulate_eps(switch_family, 0.5, [0.0, 0.0], small_grid, 200, seed=5)
    assert np.array_equal(a.X, b.X[:50])


def _averaged_branch(tmpl, x1, x2):
    """A template's averaged value from its weights at T = +1 (x1 > 0),
    T = -1 (x1 < 0) or their mean T = 0 (x1 = 0), sin = 0."""
    w0, w1, w2 = tmpl.w0(x2), tmpl.w1(x2), tmpl.w2(x2)
    trans = np.where(x1 > 0, 1.0, np.where(x1 < 0, -1.0, 0.0)).reshape(
        x1.shape + (1,) * (np.ndim(w0) - 1))
    return w0 + w1 * trans + w2 * 0.0


def _whole_path_reference(fam, eps, x0, grid, n_paths, seed, substeps):
    """Euler paths from one whole-path draw per Philox stream and one call
    per coefficient: the family's at x1/eps or, for ``eps=None``, its
    averaged model's from the template weights."""
    def coeffs(x1, x2):
        if eps is None:
            return tuple(_averaged_branch(t, x1, x2)
                         for t in (fam.rho_t, fam.rhob_t, fam.rhoa_t))
        xf = x1 / eps
        return fam.rho_t(xf, x2), fam.rhob_t(xf, x2), fam.rhoa_t(xf, x2)

    dt_f = grid.t_end / (grid.n_steps * substeps)
    n_fine = grid.n_steps * substeps
    dW = np.stack([np.random.Generator(np.random.Philox(key=[seed, p]))
                   .standard_normal((n_fine, fam.k))
                   for p in range(n_paths)]) * np.sqrt(dt_f)
    x1 = np.full(n_paths, float(x0[0]))
    x2 = np.full(n_paths, float(x0[1]))
    X = np.empty((n_paths, grid.n_steps + 1, fam.d + 1))
    dB = np.empty((n_paths, grid.n_steps, fam.k))
    X[:, 0, 0], X[:, 0, 1] = x1, x2
    for cs in range(grid.n_steps):
        for fs in range(cs * substeps, (cs + 1) * substeps):
            rho, rho_b, rho_a = coeffs(x1, x2)
            phi = np.sqrt(2.0 / rho)
            b1 = rho_b / rho
            s1 = np.sqrt(2.0 * rho_a / rho)
            x1 = x1 + phi * dW[:, fs, 0]
            x2 = x2 + b1 * dt_f + s1 * dW[:, fs, 1]
        X[:, cs + 1, 0], X[:, cs + 1, 1] = x1, x2
        dB[:, cs] = dW[:, cs * substeps:(cs + 1) * substeps].sum(axis=1)
    return X, dB


@pytest.mark.parametrize("substeps", [23, 50])
def test_stored_increments_keep_the_summed_bits(switch_family, substeps):
    # the stored dB of each coarse step has the bits of the substeps'
    # dW[:, f0:f0 + substeps].sum(axis=1), at the fast_scale benchmark's
    # 2048 paths; the draws are rebuilt one coarse step per chunk (a
    # stream gives the same numbers however it is chunked)
    grid = hl.SimGrid(0.5, 5)
    b = hl.simulate_eps(switch_family, 0.05, [0.5, 0.0], grid, 2048,
                        seed=23, substeps=substeps)
    assert max(1, grid.n_steps // substeps) == 1
    gens = simulate._path_streams(23, range(2048), one_chunk=False)
    sq = np.sqrt(grid.t_end / (grid.n_steps * substeps))
    for cs in range(grid.n_steps):
        dW = simulate._path_normals(gens, substeps, 2, sq)
        assert b.dB[:, cs].tobytes() == dW.sum(axis=1).tobytes(), cs


def _record_draws(monkeypatch):
    """Patch ``simulate._path_normals`` to record, per draw, whether it
    reads live generators and the bytes it returns."""
    draws = []
    draw = simulate._path_normals

    def recorded(gens, *args):
        out = draw(gens, *args)
        draws.append((isinstance(gens, list), out.nbytes))
        return out
    monkeypatch.setattr(simulate, "_path_normals", recorded)
    return draws


@pytest.mark.parametrize("substeps", [1, 2, 3, 4, 50])
@pytest.mark.parametrize("block_size", [23, 7])
@pytest.mark.parametrize("n_threads", [1, 2])
def test_streams_match_whole_path_draws(monkeypatch, switch_family,
                                        switch_avg, substeps, block_size,
                                        n_threads):
    # chunked draws give the whole-path streams, also with n_threads
    # simulations running at once.  The budget of 23 * 11 * 2 normals
    # draws a 23-path block of substeps 1 in one chunk, from re-keyed
    # streams; more substeps draw it in several chunks from live
    # generators: on 10 steps 2, 4, 5 and 10 chunks, the last short for
    # substeps 3 (3,3,3,1); on 11 steps 3, 4, 6 and 11 chunks, the last
    # short for substeps 2 (5,5,1), 3 (3,3,3,2) and 4.  Blocks of 7 and 2
    # paths fit more coarse steps into the same budget.  The averaged
    # paths start on the interface, whose first step takes the mean of the
    # two sides.
    budget = 23 * 11 * 2
    monkeypatch.setattr(simulate, "_NORMALS", budget)
    draws = _record_draws(monkeypatch)
    kw = dict(seed=17, substeps=substeps, block_size=block_size)
    blocks = [min(block_size, 23 - lo) for lo in range(0, 23, block_size)]
    for n_steps in (10, 11):
        grid = hl.SimGrid(0.5, n_steps)
        for eps, x0, simulate_fn in (
                (0.3, [0.5, 0.0],
                 lambda: hl.simulate_eps(switch_family, 0.3, [0.5, 0.0],
                                         grid, 23, **kw)),
                (None, [0.0, 0.0],
                 lambda: hl.simulate_avg(switch_avg, [0.0, 0.0], grid, 23,
                                         **kw))):
            with ThreadPoolExecutor(max_workers=n_threads) as ex:
                bundles = list(ex.map(lambda _: simulate_fn(),
                                      range(n_threads)))
            X, dB = _whole_path_reference(switch_family, eps, x0, grid, 23,
                                          17, substeps)
            for b in bundles:
                assert np.array_equal(b.X, X), (n_steps, eps)
                assert np.array_equal(b.dB, dB), (n_steps, eps)
    # live generators exactly for the blocks drawn in several chunks
    live = {max(1, budget // (n * substeps * 2)) < n_steps
            for n in blocks for n_steps in (10, 11)}
    assert {is_live for is_live, _ in draws} == live
    if block_size == 23:
        assert live == {substeps > 1}


@pytest.mark.parametrize("substeps", [23, 50])
def test_fast_scale_draws_match_whole_path_draws(monkeypatch, switch_family,
                                                 substeps):
    # the fast_scale benchmark's shape at the module's budget: 2048 paths
    # of 12 steps draw in chunks of 11 coarse steps (11,1) at substeps 23
    # and of 5 (5,5,2) at 50, each within the budget
    draws = _record_draws(monkeypatch)
    grid = hl.SimGrid(0.5, 12)
    b = hl.simulate_eps(switch_family, 0.05, [0.5, 0.0], grid, 2048,
                        seed=29, substeps=substeps)
    X, dB = _whole_path_reference(switch_family, 0.05, [0.5, 0.0], grid,
                                  2048, 29, substeps)
    assert np.array_equal(b.X, X)
    assert np.array_equal(b.dB, dB)
    chunk = {23: 11, 50: 5}[substeps]
    assert [nbytes for _, nbytes in draws] == [
        2048 * min(chunk, 12 - c0) * substeps * 2 * 8
        for c0 in range(0, 12, chunk)]
    assert all(is_live for is_live, _ in draws)


@pytest.mark.parametrize("n_steps,substeps", [(10, 1), (10, 3), (4, 50),
                                              (40, 40)])
@pytest.mark.parametrize("block_size", [64, 9])
def test_normals_buffer_is_bounded(monkeypatch, switch_family, switch_avg,
                                   n_steps, substeps, block_size):
    # each draw holds at most the budget of normals, or one coarse step's
    # draws where that is larger (here at substeps 50 and 40)
    budget = 500
    monkeypatch.setattr(simulate, "_NORMALS", budget)
    draws = _record_draws(monkeypatch)
    grid = hl.SimGrid(0.5, n_steps)
    n_paths, k = 40, switch_family.k
    hl.simulate_eps(switch_family, 0.3, [0.5, 0.0], grid, n_paths, seed=1,
                    substeps=substeps, block_size=block_size)
    hl.simulate_avg(switch_avg, [0.5, 0.0], grid, n_paths, seed=1,
                    substeps=substeps, block_size=block_size)
    block = min(block_size, n_paths)
    assert draws
    assert max(nbytes for _, nbytes in draws) <= \
        max(budget, block * substeps * k) * 8


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


def test_container_refuses_a_flipped_payload_byte(switch_bundle, tmp_path):
    # the sidecar holds the sha256 of the whole file; one flipped payload
    # byte keeps the header and the size, and is refused naming the file
    # and both digests
    p = tmp_path / "paths.bin"
    switch_bundle.save(p)
    raw = bytearray(p.read_bytes())
    recorded = json.loads((tmp_path / "paths.bin.json").read_text())["sha256"]
    assert recorded == hashlib.sha256(raw).hexdigest()
    raw[len(raw) // 2] ^= 0x01
    p.write_bytes(bytes(raw))
    flipped = hashlib.sha256(raw).hexdigest()
    with pytest.raises(SimulationError) as exc:
        hl.PathBundle.load(p)
    assert str(exc.value) == (f"{p} has sha256 {flipped}, but its sidecar "
                              f"records {recorded}")


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


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_container_roundtrip_hypothesis(tmp_path_factory, data):
    n_paths = data.draw(st.integers(0, 4), label="n_paths")
    n_steps = data.draw(st.integers(2, 5), label="n_steps")
    d = data.draw(st.integers(1, 3), label="d")
    finite = st.floats(allow_nan=False, allow_infinity=False)
    bundle = hl.PathBundle(
        grid=hl.SimGrid(data.draw(st.floats(1e-3, 1e3), label="t_end"),
                        n_steps),
        X=data.draw(hnp.arrays(np.float64, (n_paths, n_steps + 1, d + 1),
                               elements=finite), label="X"),
        dB=data.draw(hnp.arrays(np.float64, (n_paths, n_steps, d + 1),
                                elements=finite), label="dB"),
        seed=data.draw(st.integers(0, 2 ** 64 - 1), label="seed"),
        eps=data.draw(st.none() | st.floats(1e-6, 10.0), label="eps"))
    path = tmp_path_factory.mktemp("roundtrip") / "paths.bin"
    bundle.save(path)
    back = hl.PathBundle.load(path)
    assert back.n_paths == bundle.n_paths
    assert back.grid == bundle.grid
    assert np.array_equal(back.X, bundle.X)
    assert np.array_equal(back.dB, bundle.dB)
    assert back.seed == bundle.seed
    assert back.eps == bundle.eps


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
    means = [out[n][0] for n in (1, 4, 16)]
    assert means[0] > means[1] > means[2] > 0
    assert all(se > 0 for _, se in out.values())


def test_mean_stderr_is_the_inline_rule():
    # the same bits as np.std(x) / sqrt(n), here on an odd-length sample
    from homoglab.simulate import mean_stderr
    x = np.random.default_rng(3).normal(size=7)
    assert mean_stderr(x) == (float(np.mean(x)),
                              float(np.std(x) / np.sqrt(7)))
    assert mean_stderr(np.full(5, 2.5)) == (2.5, 0.0)


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
