import numpy as np
import pytest

from spintorus.clifford import build_gamma
from spintorus.nonlinear import PowerSeriesNonlinearity, bundled_cubic
from spintorus.norms import solution_norm
from spintorus.solver import (
    PicardError,
    SolveConfig,
    dirac_residual,
    duhamel_integral,
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
    japanese_bracket,
    plane_wave,
    project_dirac,
    projector_symbol,
    random_field,
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
    assert (st.total() - psi0).l2_norm() <= 1e-12 * psi0.l2_norm()
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


def _constant_branch_trajectories(lat, psi_c, m, dt):
    times = dt * np.arange(m)
    plus = project_dirac(G1, psi_c, +1)
    minus = project_dirac(G1, psi_c, -1)
    fr_p = np.repeat(plus.coeffs[None], m, axis=0)
    fr_m = np.repeat(minus.coeffs[None], m, axis=0)
    return (
        Trajectory(lat, 2, times, fr_p),
        Trajectory(lat, 2, times, fr_m),
    )


def test_duhamel_zero_nonlinearity(rng):
    F0 = PowerSeriesNonlinearity(2, {})
    branches = _constant_branch_trajectories(LAT16, random_field(LAT16, 2, rng), 9, 0.05)
    dp, dm = duhamel_integral(branches, F0, G1, 0.4)
    assert dp.l2_norm() == 0.0 and dm.l2_norm() == 0.0


def test_duhamel_constant_integrand_closed_form(rng):
    # psi constant in s: the integral is i (1 - e^{-i t <xi>}) / <xi> G0^
    F = bundled_cubic(2)
    psi_c = gaussian_data(LAT16, 2, 0.05, 0.5, seed=4)
    from spintorus.nonlinear import evaluate_on_field

    g0 = evaluate_on_field(F, psi_c)
    g0 = SpinorField(LAT16, 2, np.einsum("ab,...b->...a", G1.beta, g0.coeffs))
    t = 0.5
    errs = []
    for dt in (0.05, 0.025):
        branches = _constant_branch_trajectories(LAT16, psi_c, int(round(t / dt)) + 1, dt)
        dp, dm = duhamel_integral(branches, F, G1, t)
        bracket = LAT16.bracket[..., None]
        for sign, out in ((+1, dp), (-1, dm)):
            proj = project_dirac(G1, g0, sign).coeffs
            kernel = 1j * (1.0 - np.exp(-1j * sign * t * bracket)) / (1j * sign * bracket)
            exact = kernel * proj
            errs.append(np.abs(out.coeffs - exact).max())
    # halving dt shrinks the trapezoid error by ~4
    assert errs[2] <= errs[0] / 3.0 + 1e-18
    assert errs[3] <= errs[1] / 3.0 + 1e-18


def test_duhamel_plus_branch_in_projector_range(rng):
    F = bundled_cubic(2)
    psi_c = gaussian_data(LAT16, 2, 0.05, 0.5, seed=5)
    branches = _constant_branch_trajectories(LAT16, psi_c, 11, 0.05)
    dp, _ = duhamel_integral(branches, F, G1, 0.5)
    off = project_dirac(G1, dp, -1)
    assert off.l2_norm() <= 1e-12 * max(dp.l2_norm(), 1e-30)


def test_duhamel_time_checks(rng):
    F = bundled_cubic(2)
    branches = _constant_branch_trajectories(LAT16, random_field(LAT16, 2, rng), 5, 0.1)
    with pytest.raises(ValueError, match="outside"):
        duhamel_integral(branches, F, G1, 0.7)
    with pytest.raises(ValueError, match="frame"):
        duhamel_integral(branches, F, G1, 0.13)


# ---------------------------------------------------------------------------
# Picard iteration


def test_free_solve_is_exact_split_flow(rng):
    psi0 = gaussian_data(LAT16, 2, 1e-3, 0.5, seed=6)
    cfg = SolveConfig(d=1, radius=16, dt=0.02, horizon=1.0, epsilon=1e-3,
                      nonlinearity=None, monitor_solution_norm=False)
    res = picard_solve(cfg, psi0)
    assert res.diagnostics["iterations"] == 1
    assert res.diagnostics["distances"] == [0.0]
    st = split(psi0, G1)
    err = 0.0
    for k, t in enumerate(res.trajectory.times):
        exact = half_wave(st.plus, float(t), +1) + half_wave(st.minus, float(t), -1)
        err = max(err, (res.trajectory.frame(k) - exact).l2_norm())
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
    F = bundled_cubic(2).scaled(50.0)
    psi0 = gaussian_data(LAT16, 2, 0.9, 0.5, seed=9)
    cfg = SolveConfig(d=1, radius=16, dt=0.05, horizon=1.0, epsilon=0.9,
                      nonlinearity=F, max_iterations=12,
                      monitor_solution_norm=False)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(PicardError) as err:
            picard_solve(cfg, psi0)
    assert "distances" in err.value.diagnostics


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
    z = SpinorField.zeros(LAT16, 2)
    state = second_order_data(z, F, G1, 1.0)
    assert state.v.l2_norm() == 0.0
    # independent oracle: v^ = -i H(xi) psi^ + i beta F^(psi)
    psi0 = gaussian_data(LAT16, 2, 0.01, 0.5, seed=12)
    state = second_order_data(psi0, F, G1, 1.0)
    from spintorus.nonlinear import evaluate_on_field

    fc = evaluate_on_field(F, psi0).coeffs
    expect = np.zeros_like(psi0.coeffs)
    for idx in range(LAT16.shape[0]):
        xi = LAT16.xi[idx]
        h = G1.dirac_symbol(xi)
        expect[idx] = -1j * (h @ psi0.coeffs[idx]) + 1j * (G1.beta @ fc[idx])
    assert np.abs(state.v.coeffs - expect).max() <= 1e-12


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


def test_routes_agree_on_cubic(rng):
    F = bundled_cubic(2)
    psi0 = gaussian_data(LAT16, 2, 1e-3, 0.5, seed=15)
    cfg = SolveConfig(d=1, radius=16, dt=1.0 / 64.0, horizon=1.0, epsilon=1e-3,
                      nonlinearity=F, monitor_solution_norm=False)
    res = picard_solve(cfg, psi0)
    state = second_order_data(psi0, F, G1, 1.0)
    kg = evolve_klein_gordon(state, F, G1, 1.0, 1.0 / 64.0, 1.0)
    assert _sup_dist(res.trajectory, kg) <= 1e-5


# ---------------------------------------------------------------------------
# residual and monitoring


def test_residual_of_sampled_free_solution_fourth_order():
    psi0 = gaussian_data(LAT16, 2, 0.1, 0.5, seed=16)
    st = split(psi0, G1)

    def sampled(dt):
        m = int(round(1.0 / dt)) + 1
        times = dt * np.arange(m)
        frames = np.stack(
            [
                (half_wave(st.plus, float(t), +1) + half_wave(st.minus, float(t), -1)).coeffs
                for t in times
            ]
        )
        tr = Trajectory(LAT16, 2, times, frames)
        _, v = dirac_residual(tr, None, G1)
        return v.max()

    v1, v2 = sampled(1.0 / 8.0), sampled(1.0 / 16.0)
    rate = np.log2(v1 / v2)
    assert rate >= 3.5  # squared central-difference residual: O(dt^4)


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
