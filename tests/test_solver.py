import importlib.util
import pathlib
import sys
import tracemalloc

import numpy as np
import pytest
from oracles import (
    closed_form_duhamel_map,
    lawson_rk4_frames,
    plane_wave,
    rotated_from_grid,
    rotated_to_grid,
)
from test_nonlinear import naive_jacobian

from spintorus import nonlinear as nl
from spintorus import solver
from spintorus.clifford import GammaSet, build_gamma
from spintorus.nonlinear import (
    PowerSeriesNonlinearity,
    bundled_cubic,
    bundled_geometric,
    evaluate,
    evaluate_coefficients,
    padded_grid_size,
)
from spintorus.norms import solution_norm
from spintorus.solver import (
    PicardError,
    SolveConfig,
    _duhamel_map,
    _propagator_tables,
    _second_order_rhs,
    dirac_residual,
    evolve_dirac_rk4,
    evolve_klein_gordon,
    gaussian_data,
    half_wave,
    kg_energy,
    picard_solve,
    second_order_data,
    sobolev_monitor,
    split,
)
from spintorus.spectral import (
    FrequencyLattice,
    SpinorField,
    Trajectory,
    apply_constant,
    from_grid,
    japanese_bracket,
    project_dirac,
    projector_symbol,
    random_field,
    to_grid,
)


@pytest.fixture
def rng():
    return np.random.default_rng(17)


G1 = build_gamma(1)
LAT16 = FrequencyLattice(1, 16)


def _sup_dist(a: Trajectory, b: Trajectory) -> float:
    m = a.n_frames
    return float(
        np.linalg.norm((a.frames - b.frames).reshape(m, -1), axis=1).max()
    )


# ---------------------------------------------------------------------------
# splitting and the free flow


def test_split_reconstructs_and_projects(rng):
    psi0 = random_field(LAT16, 2, rng)
    st = split(psi0, G1)
    assert (st.plus + st.minus - psi0).l2_norm() <= 1e-12 * psi0.l2_norm()
    again = split(st.plus, G1)
    assert (again.plus - st.plus).l2_norm() <= 1e-12 * psi0.l2_norm()
    assert again.minus.l2_norm() <= 1e-12 * psi0.l2_norm()


def test_split_of_eigen_data_has_no_minus_branch(rng):
    xi0 = [3]
    v = projector_symbol(G1, xi0, +1) @ np.array([1.0, 0.3 - 0.2j])
    psi0 = plane_wave(LAT16, 2, xi0, v)
    st = split(psi0, G1)
    assert st.minus.l2_norm() <= 1e-12 * psi0.l2_norm()


def test_half_wave_basics(rng):
    f = random_field(LAT16, 2, rng)
    assert (half_wave(f, 0.0, +1) - f).l2_norm() == 0.0
    a = half_wave(half_wave(f, 0.4, +1), 0.35, +1)
    b = half_wave(f, 0.75, +1)
    assert (a - b).l2_norm() <= 1e-12 * f.l2_norm()
    for t in (-2.3, 0.11, 17.0):
        assert abs(half_wave(f, t, -1).l2_norm() - f.l2_norm()) <= 1e-13 * f.l2_norm()


# ---------------------------------------------------------------------------
# Duhamel quadrature


def _step(g, lattice, dt):
    """U(dt) = cos(dt lam) + sin(dt lam) (-i S), from the residual's tables
    at the one time dt."""
    isym, cos_t, sin_t = _propagator_tables(g, lattice, np.array([dt]), 1.0)
    return cos_t[0][..., None, None] * np.eye(g.d0) + sin_t[0][..., None, None] * isym


def _picard_map(F, g, lattice, step, dt, psi0, psi):
    """The fixed-point map of ``picard_solve``: the Duhamel map of the
    integrand i beta F(psi)."""
    f = apply_constant(1j * g.beta, evaluate_coefficients(F, psi, lattice))
    return _duhamel_map(f, step, dt, psi0)


def _constant_psi_image(F, psi_c, m, dt):
    """The Duhamel map's image at the last of m frames for psi constant in
    time and psi0 = 0: the quadrature of the nonlinear term alone."""
    frames = np.repeat(psi_c.coeffs[None], m, axis=0)
    step = _step(G1, LAT16, dt)
    return _picard_map(F, G1, LAT16, step, dt, np.zeros_like(psi_c.coeffs), frames)[-1]


@pytest.mark.parametrize("d, radius", [(1, 16), (2, 5), (3, 2)])
def test_duhamel_map_matches_closed_form(d, radius):
    # The recursion is the closed-form trapezoid reordered, so only rounding
    # separates them: checked with data psi0 and with psi0 = 0 (the Duhamel
    # integral alone), on an iterate whose frames are independent draws.
    g = build_gamma(d)
    lat = FrequencyLattice(d, radius)
    F = bundled_cubic(g.d0)
    dt, m = 1.0 / 32.0, 33
    psi = np.stack([gaussian_data(lat, g.d0, 0.05, d / 2.0, seed=k).coeffs for k in range(m)])
    step = _step(g, lat, dt)
    for psi0 in (psi[0], np.zeros_like(psi[0])):
        expected = closed_form_duhamel_map(F, g, lat, dt, psi0, psi)
        got = _picard_map(F, g, lat, step, dt, psi0, psi)
        scale = np.abs(expected).max()
        assert np.abs(got - expected).max() <= 1e-13 * scale


def test_duhamel_constant_integrand_closed_form(rng):
    # psi constant in s: the integral is the sum over both branches of
    # i (1 - e^{-/+ i t <xi>}) / (+/- i <xi>) Pi_pm beta F^
    F = bundled_cubic(2)
    psi_c = gaussian_data(LAT16, 2, 0.05, 0.5, seed=4)
    g0 = evaluate_coefficients(F, psi_c.coeffs, LAT16)
    g0 = SpinorField(LAT16, 2, np.einsum("ab,...b->...a", G1.beta, g0))
    t = 0.5
    bracket = LAT16.bracket[..., None]
    exact = 0.0
    for sign in (+1, -1):
        kernel = 1j * (1.0 - np.exp(-1j * sign * t * bracket)) / (1j * sign * bracket)
        exact = exact + kernel * project_dirac(G1, g0, sign).coeffs
    errs = [np.abs(_constant_psi_image(F, psi_c, int(round(t / dt)) + 1, dt) - exact).max()
            for dt in (0.05, 0.025)]
    # halving dt shrinks the trapezoid error by ~4
    assert errs[1] <= errs[0] / 3.0 + 1e-18


# ---------------------------------------------------------------------------
# Picard iteration


def test_free_solve_is_exact_split_flow():
    psi0 = gaussian_data(LAT16, 2, 1e-3, 0.5, seed=6)
    st = split(psi0, G1)
    # no nonlinearity and the empty series both leave the free flow
    for F in (None, PowerSeriesNonlinearity(2, {})):
        cfg = SolveConfig(d=1, radius=16, dt=0.02, horizon=1.0, epsilon=1e-3,
                          nonlinearity=F, monitor_solution_norm=False)
        res = picard_solve(cfg, psi0)
        assert res.diagnostics["iterations"] == 1
        assert res.diagnostics["distances"] == [0.0]
        err = 0.0
        for k, t in enumerate(res.trajectory.times):
            exact = half_wave(st.plus, float(t), +1) + half_wave(st.minus, float(t), -1)
            err = max(err, (res.trajectory.frame(k) - exact).l2_norm())
        assert err <= 1e-12 * psi0.l2_norm()


def test_long_free_solve_stays_on_split_flow():
    # The free solve is U(dt) applied k times, so the rounding of U(dt)
    # accumulates along the frames; over 4097 desk-lattice frames it stays
    # within 1e-12 of |psi0| of the reference flow.
    lat = FrequencyLattice(1, 32)
    psi0 = gaussian_data(lat, 2, 1e-3, 0.5, seed=6)
    cfg = SolveConfig(d=1, radius=32, dt=1.0 / 256.0, horizon=16.0, epsilon=1e-3,
                      monitor_solution_norm=False)
    res = picard_solve(cfg, psi0)
    assert res.trajectory.n_frames == 4097
    st = split(psi0, G1)
    err = max((res.trajectory.frame(k) - half_wave(st.plus, float(t), +1)
               - half_wave(st.minus, float(t), -1)).l2_norm()
              for k, t in enumerate(res.trajectory.times))
    assert err <= 1e-12 * psi0.l2_norm()


def test_cubic_solve_contracts_and_matches_oracle():
    F = bundled_cubic(2)
    psi0 = gaussian_data(LAT16, 2, 1e-3, 0.5, seed=7)
    cfg = SolveConfig(d=1, radius=16, dt=1.0 / 128.0, horizon=1.0, epsilon=1e-3,
                      nonlinearity=F, monitor_solution_norm=False)
    res = picard_solve(cfg, psi0)
    assert all(r < 0.5 for r in res.diagnostics["ratios"])
    assert res.diagnostics["duhamel_residual"] <= 1e-8
    assert res.diagnostics["projector_range_defect"] <= 1e-12
    oracle = evolve_dirac_rk4(psi0, F, G1, 1.0 / 128.0, 1.0)
    assert _sup_dist(res.trajectory, oracle) <= 1e-6


def _check_benchmark_sets(monkeypatch, name, seeds):
    """Run perfbench workload ``name`` on the input sets ``seeds`` against its
    reference fingerprints and its output checks (for ``kg_d3`` the distance
    to the Picard trajectory too); the workload module is imported
    read-only, with no bytecode cache."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    ref = workloads.load_reference(name)["inputs"]
    for seed in seeds:
        inputs = workloads.build(name, seed)
        out = workloads.run_op(inputs)
        fp = workloads.library_fingerprint(name, out)
        assert workloads.compare(fp, ref[str(seed)]) == []
        assert workloads.library_checks(name, out) == []
        if name == "kg_d3":
            assert workloads.kg_cross_check(inputs, out) == []


def test_solve_matches_benchmark_fingerprints(monkeypatch):
    # perfbench pins D = trajectory - free flow to 1e-6 of |D| on each input
    # set.  Sets 15 and 23 drift most (1.6e-7 of |D|), 6 and 28 are where
    # cli_desk once sat at the tolerance.
    _check_benchmark_sets(monkeypatch, "picard_d3", (6, 15, 23, 28))


def test_rk4_matches_benchmark_fingerprints(monkeypatch):
    # The half-step frame moves D by rounding only, but over 2,000 steps:
    # of the 32 rk4_long_d1 sets, 14 drifts most (2.7e-7 of |D|), then 4
    # (1.4e-7), against the 1e-6 tolerance.
    _check_benchmark_sets(monkeypatch, "rk4_long_d1", (14, 4))


def test_klein_gordon_matches_benchmark_fingerprints(monkeypatch):
    # kg_d3 is the one workload no benchmark gate runs.  Of its 32 sets, 10
    # and 3 drift most from the reference (2.0e-8 of |D|).
    _check_benchmark_sets(monkeypatch, "kg_d3", (10, 3))


def _map_case():
    F = bundled_cubic(2)
    psi0 = gaussian_data(LAT16, 2, 0.05, 0.5, seed=13)
    cfg = SolveConfig(d=1, radius=16, dt=0.05, horizon=1.0, epsilon=0.05,
                      nonlinearity=F, picard_tol=1e-6, monitor_solution_norm=False)
    return F, psi0, cfg


def test_solve_applies_the_map_once_per_iteration(monkeypatch):
    F, psi0, cfg = _map_case()
    calls = []
    monkeypatch.setattr(solver, "_duhamel_map",
                        lambda *args: calls.append(1) or _duhamel_map(*args))
    res = picard_solve(cfg, psi0)
    diag = res.diagnostics
    assert diag["iterations"] == 3
    # once for the free flow, the map of a zero integrand, then once per iteration
    assert len(calls) == diag["iterations"] + 1
    assert diag["duhamel_residual"] == diag["distances"][-1]
    # the map rebuilt here from the free flow (the rule on a zero integrand):
    # the returned frames are its image of the last iterate, at the reported
    # residual from it, and move less than that under one more application
    step = _step(G1, LAT16, cfg.dt)

    def duhamel_map(psi):
        return _picard_map(F, G1, LAT16, step, cfg.dt, psi0.coeffs, psi)

    def sup(x):
        return np.linalg.norm(x.reshape(x.shape[0], -1), axis=1).max()

    iterate = _duhamel_map(np.zeros_like(res.trajectory.frames), step, cfg.dt, psi0.coeffs)
    for _ in range(diag["iterations"] - 1):
        iterate = duhamel_map(iterate)
    image = duhamel_map(iterate)
    frames = res.trajectory.frames
    assert sup(image - frames) <= 1e-15 * sup(frames)
    assert sup(image - iterate) / sup(iterate) == pytest.approx(
        diag["duhamel_residual"], rel=1e-6)
    assert sup(duhamel_map(frames) - frames) / sup(frames) < diag["duhamel_residual"]


def test_solve_builds_no_time_tables(monkeypatch):
    # the map steps U(dt) frame by frame: no propagator tables at the frame
    # times, one Dirac symbol, and every matrix apply but the diagnostics'
    # two acts on one frame
    F, psi0, cfg = _map_case()
    tables, dirac_calls, applied = [], [], []
    monkeypatch.setattr(solver, "_propagator_tables", lambda *args: tables.append(1))
    dirac_symbol = GammaSet.dirac_symbol
    monkeypatch.setattr(GammaSet, "dirac_symbol", lambda self, *args: dirac_calls.append(1)
                        or dirac_symbol(self, *args))
    apply_matrices = solver.apply_matrices
    monkeypatch.setattr(solver, "apply_matrices", lambda mat, x: applied.append(x.ndim)
                        or apply_matrices(mat, x))
    res = picard_solve(cfg, psi0)
    assert res.diagnostics["iterations"] == 3
    assert tables == []
    assert dirac_calls == [1]
    per_frame = (res.diagnostics["iterations"] + 1) * (res.trajectory.n_frames - 1)
    assert applied == [LAT16.d + 1] * per_frame + [LAT16.d + 2] * 2


def test_symbols_are_built_once_per_route(monkeypatch):
    # picard_solve builds H_m once and no projector (its propagator and Pi_+
    # both come from S = H_m / <xi>), and the second-order route builds H_m
    # once per call, not once per step
    signs, dirac_calls = [], []
    projector = solver.projector_symbol
    monkeypatch.setattr(solver, "projector_symbol",
                        lambda g, xi, sign: signs.append(sign) or projector(g, xi, sign))
    dirac_symbol = GammaSet.dirac_symbol
    monkeypatch.setattr(GammaSet, "dirac_symbol", lambda self, *args: dirac_calls.append(1)
                        or dirac_symbol(self, *args))
    F = bundled_cubic(2)
    psi0 = gaussian_data(LAT16, 2, 1e-3, 0.5, seed=7)
    picard_solve(SolveConfig(d=1, radius=16, dt=1.0 / 16.0, horizon=0.5, epsilon=1e-3,
                             nonlinearity=F), psi0)
    assert signs == []
    assert dirac_calls == [1]
    state = second_order_data(psi0, F, G1, 0.8)
    dirac_calls.clear()
    evolve_klein_gordon(state, F, G1, 0.8, 1.0 / 16.0, 0.5)
    assert dirac_calls == [1]


def test_solve_memory_stays_pinned(monkeypatch):
    # tracemalloc counts every numpy buffer.  Over the trajectory's bytes the
    # solve peaks inside the Duhamel map, and it enters the solution-norm
    # diagnostics holding psi and one branch buffer (the propagator's time
    # tables are released by then): an iterate or a second branch kept alive
    # there adds 1, which only the second bound sees.
    lat = FrequencyLattice(2, 6)
    psi0 = gaussian_data(lat, 2, 1e-3, 1.0, seed=3)
    cfg = SolveConfig(d=2, radius=6, dt=1.0 / 16.0, horizon=1.0, epsilon=1e-3,
                      nonlinearity=bundled_cubic(2))
    picard_solve(cfg, psi0)  # caches filled outside the measurement
    held = []
    norm = solver.solution_norm
    monkeypatch.setattr(solver, "solution_norm", lambda *args: held.append(
        tracemalloc.get_traced_memory()[0]) or norm(*args))
    tracemalloc.start()
    try:
        res = picard_solve(cfg, psi0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = res.trajectory.frames.nbytes
    assert len(held) == 2
    assert peak / size <= 22.0
    assert max(held) / size <= 3.0


def _map_peak(monkeypatch, monitor):
    """Traced peak of a d = 3 solve over its trajectory's bytes, with one
    frame per padded-grid chunk, so that the frames dominate and the peak
    counts work trajectories."""
    monkeypatch.setattr(nl, "CHUNK_BYTES", 1)
    g = build_gamma(3)
    lat = FrequencyLattice(3, 4)
    psi0 = gaussian_data(lat, g.d0, 1e-3, 1.5, seed=3)
    cfg = SolveConfig(d=3, radius=4, dt=1.0 / 32.0, horizon=1.0, epsilon=1e-3,
                      nonlinearity=bundled_cubic(g.d0), monitor_solution_norm=monitor)
    picard_solve(cfg, psi0)  # caches filled outside the measurement
    tracemalloc.start()
    try:
        res = picard_solve(cfg, psi0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.trajectory.n_frames == 33
    return peak / res.trajectory.frames.nbytes


def test_duhamel_map_memory_stays_pinned(monkeypatch):
    # The solution-norm monitor after the map peaks at 3.28 here, with -i S
    # and U(dt) released; keeping -i S alive raises it to 3.40, which the
    # bound catches.  The monitor's FFT with an np.abs density peaked at
    # 3.78, and the two-branch map with a stored free flow at 4.99.
    assert _map_peak(monkeypatch, True) <= 3.35


def test_duhamel_map_memory_without_monitor(monkeypatch):
    # The map holds the iterate and i beta F^, one evaluation of the folded
    # series, then steps it frame by frame with -i S and U(dt) alive: 3.13.
    # Forming F^ and then i beta F^ beside it peaked at 3.25, the
    # closed-form map, with its time tables and its trajectory-sized
    # propagator temporary, at 3.46.
    assert _map_peak(monkeypatch, False) <= 3.2


def test_klein_gordon_memory_stays_pinned():
    # tracemalloc counts every numpy buffer.  Over the trajectory's bytes the
    # second-order route peaks at 16.65 here, in a step's source on the
    # padded grid; forming the (..., d0, d0) Jacobian there raised it to
    # 20.57.  d = 3 has d0 = 4, so such a matrix is four fields.
    g = build_gamma(3)
    lat = FrequencyLattice(3, 2)
    F = bundled_cubic(g.d0)
    psi0 = gaussian_data(lat, g.d0, 1e-3, 1.0, seed=3)

    def run():
        state = second_order_data(psi0, F, g, 1.0)
        return evolve_klein_gordon(state, F, g, 1.0, 1.0 / 8.0, 1.0)

    run()  # caches filled outside the measurement
    tracemalloc.start()
    try:
        tr = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / tr.frames.nbytes <= 17.5


def test_contraction_ratio_monotone_in_epsilon():
    # smaller data contracts at least as fast (5 sizes, first ratios compared)
    F = bundled_cubic(2)
    ratios = []
    for eps in (0.2, 0.1, 0.05, 0.025, 0.0125):
        psi0 = gaussian_data(LAT16, 2, eps, 0.5, seed=8)
        cfg = SolveConfig(d=1, radius=16, dt=0.05, horizon=0.5, epsilon=eps,
                          nonlinearity=F, picard_tol=1e-13,
                          monitor_solution_norm=False)
        res = picard_solve(cfg, psi0)
        ratios.append(res.diagnostics["ratios"][0])
    for a, b in zip(ratios, ratios[1:]):
        assert b <= a * (1 + 1e-9)


def test_large_data_aborts_with_diagnostics():
    F = PowerSeriesNonlinearity(2, {p: 50.0 * c for p, c in bundled_cubic(2).terms.items()})
    psi0 = gaussian_data(LAT16, 2, 0.9, 0.5, seed=9)
    cfg = SolveConfig(d=1, radius=16, dt=0.05, horizon=1.0, epsilon=0.9,
                      nonlinearity=F, max_iterations=12,
                      monitor_solution_norm=False)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(PicardError) as err:
            picard_solve(cfg, psi0)
    assert "distances" in err.value.diagnostics


def test_solve_config_rejects_bad_numbers():
    good = dict(d=1, radius=4, dt=0.1, horizon=0.5, epsilon=1e-3)
    for key in ("dt", "horizon", "epsilon", "picard_tol"):
        for bad in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                SolveConfig(**{**good, key: bad})
    with pytest.raises(ValueError, match="max_iterations"):
        SolveConfig(**good, max_iterations=0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="s must be finite"):
            SolveConfig(**good, s=bad)


def test_data_size_precondition():
    psi0 = gaussian_data(LAT16, 2, 2e-3, 0.5, seed=10)
    cfg = SolveConfig(d=1, radius=16, dt=0.1, horizon=0.5, epsilon=1e-3,
                      nonlinearity=None)
    with pytest.raises(ValueError, match="epsilon"):
        picard_solve(cfg, psi0)


def test_solution_norm_surrogate_reported():
    F = bundled_cubic(2)
    psi0 = gaussian_data(LAT16, 2, 1e-3, 0.5, seed=11)
    cfg = SolveConfig(d=1, radius=16, dt=0.05, horizon=0.5, epsilon=1e-3,
                      nonlinearity=F)
    res = picard_solve(cfg, psi0)
    assert res.diagnostics["solution_norm_plus"] > 0.0
    assert res.diagnostics["solution_norm_minus"] > 0.0


def test_branch_norms_are_norms_of_projected_trajectory():
    F = bundled_cubic(2)
    psi0 = gaussian_data(LAT16, 2, 1e-3, 0.5, seed=11)
    cfg = SolveConfig(d=1, radius=16, dt=0.05, horizon=0.5, epsilon=1e-3,
                      nonlinearity=F)
    res = picard_solve(cfg, psi0)
    tr = res.trajectory
    for sign, key in ((+1, "solution_norm_plus"), (-1, "solution_norm_minus")):
        frames = np.stack([project_dirac(G1, tr.frame(k), sign).coeffs
                           for k in range(tr.n_frames)])
        branch = Trajectory(tr.lattice, tr.d0, tr.times, frames)
        expect = solution_norm(branch, 0.5, sign).value
        assert res.diagnostics[key] == pytest.approx(expect, rel=1e-10)


def test_iteration_budget_exhausted():
    psi0 = gaussian_data(LAT16, 2, 1e-3, 0.5, seed=11)
    cfg = SolveConfig(d=1, radius=16, dt=0.05, horizon=0.5, epsilon=1e-3,
                      nonlinearity=bundled_cubic(2), max_iterations=1)
    with pytest.raises(PicardError, match="iteration budget") as err:
        picard_solve(cfg, psi0)
    diag = err.value.diagnostics
    assert diag["iterations"] == 1
    assert diag["converged"] is False
    assert len(diag["distances"]) == 1


def test_routes_reject_fractional_step_count():
    psi0 = gaussian_data(LAT16, 2, 1e-3, 0.5, seed=12)
    with pytest.raises(ValueError, match="integer number of steps"):
        evolve_dirac_rk4(psi0, None, G1, 0.3, 1.0)
    state = second_order_data(psi0, None, G1, 1.0)
    with pytest.raises(ValueError, match="integer number of steps"):
        evolve_klein_gordon(state, None, G1, 1.0, 0.3, 1.0)


# ---------------------------------------------------------------------------
# RK4 oracle


def test_rk4_free_flow_is_closed_form(rng):
    # e^{-itH} psi0 = cos(t<xi>) psi0 - i sin(t<xi>) H psi0 / <xi>
    g = build_gamma(3)
    lat = FrequencyLattice(3, 3)
    psi0 = random_field(lat, g.d0, rng)
    h = g.beta + sum(lat.xi[..., j, None, None] * g.alpha[j] for j in range(3))
    h_psi = np.einsum("...ab,...b->...a", h, psi0.coeffs)
    br = lat.bracket[..., None]
    for F in (None, PowerSeriesNonlinearity(g.d0, {})):
        tr = evolve_dirac_rk4(psi0, F, g, 0.05, 1.0)
        for t, frame in zip(tr.times, tr.frames):
            exact = np.cos(t * br) * psi0.coeffs - 1j * np.sin(t * br) * h_psi / br
            assert np.linalg.norm(frame - exact) <= 1e-13 * psi0.l2_norm()


def test_rk4_is_fourth_order():
    lat = FrequencyLattice(1, 8)
    F = bundled_cubic(2)
    psi0 = gaussian_data(lat, 2, 0.3, 0.5, seed=1)
    ref = evolve_dirac_rk4(psi0, F, G1, 1.0 / 64.0, 1.0).frames[-1]
    errs = [np.linalg.norm(evolve_dirac_rk4(psi0, F, G1, dt, 1.0).frames[-1] - ref)
            for dt in (1.0 / 4.0, 1.0 / 8.0, 1.0 / 16.0)]
    # measured 23.9 and 17.2; second order would give about 4
    assert errs[0] >= 12.0 * errs[1] and errs[1] >= 12.0 * errs[2]


def test_rk4_builds_its_propagators_once(monkeypatch):
    calls = []
    exp = np.exp
    monkeypatch.setattr(np, "exp", lambda *a, **k: calls.append(1) or exp(*a, **k))
    psi0 = gaussian_data(FrequencyLattice(1, 4), 2, 1e-3, 0.5, seed=2)
    counts = []
    for n_steps in (10, 20):
        calls.clear()
        evolve_dirac_rk4(psi0, bundled_cubic(2), G1, 0.1, 0.1 * n_steps)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_rk4_matches_the_eight_apply_lawson_step():
    # The half-step frame reorders Lawson's step, so only rounding separates
    # it from the stages taken back to the step start; the bound is on the
    # nonlinear part D = psi - free flow, which the data make felt.
    g = build_gamma(2)
    lat = FrequencyLattice(2, 5)
    F = bundled_cubic(g.d0)
    psi0 = gaussian_data(lat, g.d0, 0.1, 1.0, seed=5)
    got = evolve_dirac_rk4(psi0, F, g, 1.0 / 16.0, 1.0).frames
    ref = lawson_rk4_frames(psi0, F, g, 1.0 / 16.0, 1.0)
    nonlinear_part = np.abs(ref - evolve_dirac_rk4(psi0, None, g, 1.0 / 16.0, 1.0).frames).max()
    assert nonlinear_part >= 1e-5 * np.abs(ref).max()
    assert np.abs(got - ref).max() <= 1e-10 * nonlinear_part


def test_rk4_steps_with_one_table_and_four_applies(monkeypatch):
    # one U(dt/2) table, applied four times per nonlinear step and twice per
    # free step, and one folded series i beta F evaluated four times per step
    applied, series, projectors = [], [], []
    apply_matrices = solver.apply_matrices
    monkeypatch.setattr(solver, "apply_matrices",
                        lambda mat, x: applied.append(mat) or apply_matrices(mat, x))
    evaluate_series = solver.evaluate_coefficients
    monkeypatch.setattr(solver, "evaluate_coefficients",
                        lambda F, c, lat: series.append(F) or evaluate_series(F, c, lat))
    projector = solver.projector_symbol
    monkeypatch.setattr(solver, "projector_symbol",
                        lambda *args: projectors.append(1) or projector(*args))
    F = bundled_cubic(2)
    psi0 = gaussian_data(FrequencyLattice(1, 4), 2, 1e-3, 0.5, seed=2)
    n_steps = 5
    evolve_dirac_rk4(psi0, F, G1, 0.1, 0.1 * n_steps)
    assert projectors == [1]
    assert len(applied) == 4 * n_steps and all(m is applied[0] for m in applied)
    assert len(series) == 4 * n_steps and all(f is series[0] for f in series)
    assert all(np.array_equal(series[0].terms[p], 1j * G1.beta @ c) for p, c in F.terms.items())
    applied.clear()
    evolve_dirac_rk4(psi0, None, G1, 0.1, 0.1 * n_steps)
    assert len(applied) == 2 * n_steps


def test_one_axis_routes_match_the_rotated_transforms(monkeypatch):
    # the d = 1 transforms make the rotation step's products without its
    # reshapes, so the RK4 and Picard frames come out bit for bit the same
    F = bundled_cubic(2)
    psi0 = gaussian_data(FrequencyLattice(1, 8), 2, 0.1, 0.5, seed=4)
    cfg = SolveConfig(d=1, radius=8, dt=0.05, horizon=1.0, epsilon=0.1,
                      nonlinearity=F, monitor_solution_norm=False)

    def frames():
        return (evolve_dirac_rk4(psi0, F, G1, 0.05, 1.0).frames,
                picard_solve(cfg, psi0).trajectory.frames)

    rk4, picard = frames()
    monkeypatch.setattr(nl, "to_grid", rotated_to_grid)
    monkeypatch.setattr(nl, "from_grid", rotated_from_grid)
    rk4_ref, picard_ref = frames()
    assert rk4.shape == (21, 17, 2) and np.array_equal(rk4, rk4_ref)
    assert np.array_equal(picard, picard_ref)


def _overflowing_data():
    """Data large enough that the cubic overflows within T = 20 at dt = 0.05."""
    return gaussian_data(FrequencyLattice(1, 8), 2, 1.0, 0.5, seed=3), bundled_cubic(2)


def test_rk4_raises_at_the_first_non_finite_frame():
    psi0, F = _overflowing_data()
    with np.errstate(all="ignore"), pytest.raises(
            FloatingPointError, match=r"at t = 6 \(frame 120 of 401\)"):
        evolve_dirac_rk4(psi0, F, G1, 0.05, 20.0)


# ---------------------------------------------------------------------------
# second-order route


def test_second_order_data_eigen_dispersion():
    # eigen-branch plane wave: d_t psi(0) = -i <xi0> psi for the + branch
    xi0 = [3]
    br = japanese_bracket(xi0)
    v = projector_symbol(G1, xi0, +1) @ np.array([1.0, -0.4 + 0.1j])
    psi0 = plane_wave(LAT16, 2, xi0, v)
    state = second_order_data(psi0, None, G1, 1.0)
    assert np.abs(state.v.coeffs - (-1j * br) * psi0.coeffs).max() <= 1e-12
    w = projector_symbol(G1, xi0, -1) @ np.array([0.2, 1.0])
    psi0m = plane_wave(LAT16, 2, xi0, w)
    statem = second_order_data(psi0m, None, G1, 1.0)
    assert np.abs(statem.v.coeffs - (1j * br) * psi0m.coeffs).max() <= 1e-12


def test_second_order_data_zero_and_consistency(rng):
    F = bundled_cubic(2)
    z = SpinorField(LAT16, 2, np.zeros(LAT16.shape + (2,)))
    state = second_order_data(z, F, G1, 1.0)
    assert state.v.l2_norm() == 0.0
    # independent oracle: v^ = -i H_m(xi) psi^ + i beta F^(psi)
    psi0 = gaussian_data(LAT16, 2, 0.01, 0.5, seed=12)
    fc = evaluate_coefficients(F, psi0.coeffs, LAT16)
    for mass in (1.0, 0.7):
        state = second_order_data(psi0, F, G1, mass)
        expect = np.zeros_like(psi0.coeffs)
        for idx in range(LAT16.shape[0]):
            h = LAT16.xi[idx, 0] * G1.alpha[0] + mass * G1.beta
            expect[idx] = -1j * (h @ psi0.coeffs[idx]) + 1j * (G1.beta @ fc[idx])
        assert np.abs(state.v.coeffs - expect).max() <= 1e-12, mass


def test_klein_gordon_free_plane_wave_exact():
    # with no source the rotation is exact: e^{-i t <xi0>} phases reproduced
    xi0 = [4]
    br = japanese_bracket(xi0)
    v = projector_symbol(G1, xi0, +1) @ np.array([1.0, 0.5])
    psi0 = plane_wave(LAT16, 2, xi0, v)
    state = second_order_data(psi0, None, G1, 1.0)
    tr = evolve_klein_gordon(state, None, G1, 1.0, 0.05, 1.0)
    err = 0.0
    for k, t in enumerate(tr.times):
        exact = np.exp(-1j * br * t) * psi0.coeffs
        err = max(err, np.abs(tr.frames[k] - exact).max())
    assert err <= 1e-12


def test_klein_gordon_linear_energy_conserved(rng):
    psi0 = gaussian_data(LAT16, 2, 0.1, 0.5, seed=13)
    state = second_order_data(psi0, None, G1, 1.0)
    omega = np.sqrt(LAT16.xi_norm_sq + 1.0)[..., None]
    u, v = state.u.coeffs.copy(), state.v.coeffs.copy()
    e0 = kg_energy(u, v, LAT16, 1.0)
    dt = 0.05
    cos_h, sin_h = np.cos(dt * omega), np.sin(dt * omega)
    for _ in range(100):
        u, v = cos_h * u + sin_h / omega * v, -omega * sin_h * u + cos_h * v
    assert kg_energy(u, v, LAT16, 1.0) == pytest.approx(e0, rel=1e-12)


def test_klein_gordon_step_guard():
    psi0 = gaussian_data(LAT16, 2, 0.1, 0.5, seed=14)
    state = second_order_data(psi0, None, G1, 1.0)
    with pytest.raises(ValueError, match="too large"):
        evolve_klein_gordon(state, None, G1, 1.0, 0.5, 1.0)


def test_klein_gordon_raises_at_the_first_non_finite_frame():
    psi0, F = _overflowing_data()
    state = second_order_data(psi0, F, G1, 1.0)
    with np.errstate(all="ignore"), pytest.raises(
            FloatingPointError, match=r"at t = 4.8 \(frame 96 of 401\)"):
        evolve_klein_gordon(state, F, G1, 1.0, 0.05, 20.0)


def test_routes_agree_on_cubic(rng):
    F = bundled_cubic(2)
    psi0 = gaussian_data(LAT16, 2, 1e-3, 0.5, seed=15)
    cfg = SolveConfig(d=1, radius=16, dt=1.0 / 64.0, horizon=1.0, epsilon=1e-3,
                      nonlinearity=F, monitor_solution_norm=False)
    res = picard_solve(cfg, psi0)
    state = second_order_data(psi0, F, G1, 1.0)
    kg = evolve_klein_gordon(state, F, G1, 1.0, 1.0 / 64.0, 1.0)
    assert _sup_dist(res.trajectory, kg) <= 1e-5


def _second_order_rhs_by_terms(u_hat, F, g, lattice, mass):
    """The second-order source term by term, each derivative transformed on
    its own: m F + sum_j (i gamma^j J d_j psi - i gamma^0 J alpha^j d_j psi)
    + m gamma^0 J gamma^0 psi - gamma^0 J gamma^0 F."""
    grid = padded_grid_size(lattice, max(2 * F.max_degree - 1, 1))
    psi = to_grid(u_hat, lattice.d, grid)
    derivs = [to_grid(1j * lattice.xi[..., j, None] * u_hat, lattice.d, grid)
              for j in range(g.d)]
    jac = naive_jacobian(F, psi)
    fval = evaluate(F, psi)

    def const(m, x):
        return np.einsum("ab,...b->...a", m, x)

    def jac_apply(x):
        return np.einsum("...ab,...b->...a", jac, x)

    g0 = g.gamma[0]
    out = mass * fval
    for j in range(g.d):
        out += 1j * const(g.gamma[j + 1], jac_apply(derivs[j]))
        out -= 1j * const(g0, jac_apply(const(g.alpha[j], derivs[j])))
    out += mass * const(g0, jac_apply(const(g0, psi)))
    out -= const(g0, jac_apply(const(g0, fval)))
    return from_grid(out, lattice.d, lattice.radius)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("family", ["cubic", "geometric"])
def test_second_order_rhs_matches_term_by_term_source(rng, d, family):
    # O(1) fields, where every term of the source is resolved above rounding
    g = build_gamma(d)
    lat = FrequencyLattice(d, 2)
    F = bundled_cubic(g.d0) if family == "cubic" else bundled_geometric(g.d0, 0.5, 4)
    u_hat = random_field(lat, g.d0, rng).coeffs / np.sqrt(lat.size)
    grid = padded_grid_size(lat, 2 * F.max_degree - 1)
    for mass in (1.0, 0.7):
        ref = _second_order_rhs_by_terms(u_hat, F, g, lat, mass)
        out = _second_order_rhs(u_hat, F, g, lat, mass, g.dirac_symbol(lat.xi, mass), grid)
        assert np.abs(ref).max() > 1e-2
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_second_order_rhs_transforms_and_applies_once(monkeypatch, rng, d):
    # psi and H_m psi share one transform, F and the kick share one, and the
    # kick is one Jacobian-vector product, at every d
    calls = dict.fromkeys(("to_grid", "from_grid", "jacobian_product", "apply_matrices"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(solver, name, counted(name, getattr(solver, name)))
    g = build_gamma(d)
    lat = FrequencyLattice(d, 2)
    F = bundled_cubic(g.d0)
    h, grid = g.dirac_symbol(lat.xi, 1.0), padded_grid_size(lat, 2 * F.max_degree - 1)
    _second_order_rhs(random_field(lat, g.d0, rng).coeffs, F, g, lat, 1.0, h, grid)
    assert calls == {"to_grid": 1, "from_grid": 1, "jacobian_product": 1, "apply_matrices": 2}


# ---------------------------------------------------------------------------
# residual and monitoring


def _relative_residual(tr, F, g, mass=1.0):
    _, v = dirac_residual(tr, F, g, mass)
    return v.max() / (np.linalg.norm(tr.frames.reshape(tr.n_frames, -1), axis=1) ** 2).max()


def test_residual_of_sampled_free_solution_is_rounding():
    # the interaction picture of an exact free flow is constant, so the
    # meter reads rounding, not the (dt <xi>)^2 error of differencing psi
    psi0 = gaussian_data(LAT16, 2, 0.1, 0.5, seed=16)
    st = split(psi0, G1)
    dt = 1.0 / 16.0
    times = dt * np.arange(17)
    frames = np.stack(
        [
            (half_wave(st.plus, float(t), +1) + half_wave(st.minus, float(t), -1)).coeffs
            for t in times
        ]
    )
    assert _relative_residual(Trajectory(LAT16, 2, times, frames), None, G1) <= 1e-20


def test_residual_refinement_rate_on_solver_output():
    F = bundled_cubic(2)
    psi0 = gaussian_data(LAT16, 2, 1e-3, 0.5, seed=17)

    def resid(dt):
        cfg = SolveConfig(d=1, radius=16, dt=dt, horizon=1.0, epsilon=1e-3,
                          nonlinearity=F, monitor_solution_norm=False)
        res = picard_solve(cfg, psi0)
        _, v = dirac_residual(res.trajectory, F, G1)
        return np.sqrt(v.max())

    r1, r2 = resid(1.0 / 16.0), resid(1.0 / 32.0)
    assert np.log2(r1 / r2) >= 1.8


@pytest.mark.parametrize("d", [1, 2, 3])
def test_residual_matches_covariant_form(rng, d):
    # i (w_{k+1} - w_{k-1}) / (2 dt) + U(-t_k) beta F(psi_k), w = U(-t) psi,
    # on O(1) frames, with U(t) = V e^{-i t lambda} V^H per lattice point from
    # the eigendecomposition of H_m written out here
    g = build_gamma(d)
    lat = FrequencyLattice(d, 2)
    F = bundled_cubic(g.d0)
    dt = 0.1
    times = dt * np.arange(5)
    frames = np.stack([random_field(lat, g.d0, rng).coeffs for _ in range(5)])
    frames /= np.sqrt(lat.size)
    tr = Trajectory(lat, g.d0, times, frames)

    def back(lam, vec, t, x):
        u = (vec * np.exp(1j * t * lam)[..., None, :]) @ np.conj(np.swapaxes(vec, -1, -2))
        return np.einsum("...ab,...b->...a", u, x)

    for mass in (1.0, 0.7):
        h = mass * g.beta + sum(lat.xi[..., j, None, None] * g.alpha[j] for j in range(d))
        lam, vec = np.linalg.eigh(h)
        w = np.stack([back(lam, vec, t, x) for t, x in zip(times, frames)])
        kick = np.einsum("ab,...b->...a", g.beta, evaluate_coefficients(F, frames, lat))
        res = 1j * (w[2:] - w[:-2]) / (2.0 * dt)
        res += np.stack([back(lam, vec, t, x) for t, x in zip(times[1:-1], kick[1:-1])])
        ref = np.linalg.norm(res.reshape(3, -1), axis=1) ** 2
        _, values = dirac_residual(tr, F, g, mass)
        assert np.abs(values - ref).max() <= 1e-12 * ref.max(), mass
    assert np.array_equal(tr.frames, frames)  # the meter does not write the frames


def test_residual_flags_wrong_trajectories():
    # a solve checked with the wrong mass or the wrong nonlinearity reads at
    # least 100 times what the correct check reads
    F = bundled_cubic(2)
    psi0 = gaussian_data(LAT16, 2, 0.1, 0.5, seed=19)
    cfg = SolveConfig(d=1, radius=16, dt=1.0 / 256.0, horizon=1.0, epsilon=0.1,
                      nonlinearity=F, picard_tol=1e-13, monitor_solution_norm=False)
    tr = picard_solve(cfg, psi0).trajectory
    right = _relative_residual(tr, F, G1)
    doubled = PowerSeriesNonlinearity(2, {p: 2.0 * c for p, c in F.terms.items()})
    assert _relative_residual(tr, F, G1, 1.01) >= 100.0 * right
    assert _relative_residual(tr, doubled, G1) >= 100.0 * right


def test_residual_needs_three_frames(rng):
    tr = Trajectory(LAT16, 2, np.array([0.0, 0.1]),
                    np.zeros((2,) + LAT16.shape + (2,), complex))
    with pytest.raises(ValueError):
        dirac_residual(tr, None, G1)


def test_monitor_free_flow_flat(rng):
    psi0 = gaussian_data(LAT16, 2, 0.1, 1.5, seed=18)
    st = split(psi0, G1)
    dt, m = 0.1, 41
    times = dt * np.arange(m)
    frames = np.stack(
        [
            (half_wave(st.plus, float(t), +1) + half_wave(st.minus, float(t), -1)).coeffs
            for t in times
        ]
    )
    mon = sobolev_monitor(Trajectory(LAT16, 2, times, frames), 1.5)
    assert abs(mon["ratio"] - 1.0) <= 1e-12
    assert mon["ok"]
    mon2 = sobolev_monitor(Trajectory(LAT16, 2, times, 2.0 * frames), 1.5)
    assert mon2["sup"] >= 2.0 * mon["sup"] * (1 - 1e-12)


def test_gaussian_data_deterministic_and_normalised():
    a = gaussian_data(LAT16, 2, 0.37, 1.0, seed=21)
    b = gaussian_data(LAT16, 2, 0.37, 1.0, seed=21)
    assert np.array_equal(a.coeffs, b.coeffs)
    from spintorus.norms import sobolev_norm

    assert sobolev_norm(a, 1.0) == pytest.approx(0.37, rel=1e-12)
