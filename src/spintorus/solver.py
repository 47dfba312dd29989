"""Cauchy solver for the massive Dirac equation on the torus.

The first-order system is split into half-wave branches by the frequency
projectors and solved as a fixed point of the Duhamel map with trapezoid
quadrature on a uniform frame grid (Picard iteration).  The map reads the
branches only through their sum, so the iterate is the solution psi on the
frames; the branches Pi_pm psi are formed from the projectors once, after
convergence, for the diagnostics.  Cross-checks: a
fourth-order interaction-picture Runge-Kutta integrator of the same system,
the equivalent second-order (Klein-Gordon type) evolution, and the pointwise
equation residual along any trajectory.

The mass is normalised to 1 throughout the split solver (the general mass
enters the second-order evolution and the residual explicitly).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .clifford import GammaSet, build_gamma
from .nonlinear import (
    PowerSeriesNonlinearity,
    evaluate,
    evaluate_coefficients,
    jacobian,
    padded_grid_size,
)
from .norms import sobolev_norm, solution_norm
from .spectral import (
    FrequencyLattice,
    SpinorField,
    Trajectory,
    from_grid,
    project_dirac,
    projector_multiplier,
    random_field,
    to_grid,
)


class PicardError(RuntimeError):
    """Raised when the fixed-point iteration fails; carries diagnostics."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass
class SplitState:
    """Half-wave branches of a spinor field: plus + minus reconstructs it."""

    plus: SpinorField
    minus: SpinorField
    g: GammaSet

    def total(self) -> SpinorField:
        return self.plus + self.minus


@dataclass
class SecondOrderState:
    """Field and time-derivative data for the second-order evolution."""

    u: SpinorField
    v: SpinorField


def frame_count(dt: float, horizon: float) -> int:
    """Number of frames 0, dt, ..., horizon; raises unless horizon / dt is a
    whole number."""
    m = int(round(horizon / dt)) + 1
    if abs((m - 1) * dt - horizon) > 1e-9 * max(1.0, horizon):
        raise ValueError("horizon must be an integer number of steps")
    return m


@dataclass
class SolveConfig:
    d: int
    radius: int
    dt: float
    horizon: float
    epsilon: float
    s: float | None = None
    picard_tol: float = 1e-12
    max_iterations: int = 25
    nonlinearity: PowerSeriesNonlinearity | None = None
    monitor_solution_norm: bool = True

    def __post_init__(self):
        if min(self.dt, self.horizon, self.epsilon, self.picard_tol) <= 0:
            raise ValueError("dt, horizon, epsilon and picard_tol must be positive")
        if self.s is None:
            self.s = self.d / 2.0
        self.n_frames  # noqa: B018  (raises unless horizon / dt is a whole number)

    @property
    def n_frames(self) -> int:
        return frame_count(self.dt, self.horizon)

    def lattice(self) -> FrequencyLattice:
        return FrequencyLattice(self.d, self.radius)


def split(psi0: SpinorField, g: GammaSet) -> SplitState:
    """Project initial data onto the half-wave branches."""
    return SplitState(
        plus=project_dirac(g, psi0, +1),
        minus=project_dirac(g, psi0, -1),
        g=g,
    )


def half_wave(f: SpinorField, t: float, sign: int) -> SpinorField:
    """Free half-wave flow: coefficients times e^{-i sign t <xi>} (unitary)."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    phase = np.exp(-1j * sign * t * f.lattice.bracket)
    return SpinorField(f.lattice, f.d0, f.coeffs * phase[..., None])


# ---------------------------------------------------------------------------
# Duhamel quadrature and the fixed-point map


def _cumulative_trapezoid(w: np.ndarray, dt: float) -> np.ndarray:
    """Cumulative trapezoid along axis 0 with uniform step; entry 0 is 0."""
    out = np.zeros_like(w)
    if w.shape[0] > 1:
        increments = 0.5 * dt * (w[1:] + w[:-1])
        np.cumsum(increments, axis=0, out=out[1:])
    return out


def _apply_matrix(mult, frames: np.ndarray) -> np.ndarray:
    return np.einsum("...ab,k...b->k...a", mult.values, frames)


def _phases(times: np.ndarray, lattice: FrequencyLattice) -> dict:
    """e^{-i sign t_k <xi>} for both signs, shape (M,) + lattice.shape."""
    t = times.reshape((-1,) + (1,) * lattice.d)
    return {s: np.exp(-1j * s * t * lattice.bracket) for s in (+1, -1)}


def _duhamel_corrections(F: PowerSeriesNonlinearity, g: GammaSet, proj: dict,
                         phase: dict, dt: float, total: np.ndarray) -> dict:
    """i int_0^{t_k} e^{-/+ i (t_k - s) <D>} Pi_pm[beta F(psi(s))] ds for both
    signs at every frame time, with trapezoid quadrature on the frame grid;
    ``total`` holds psi on the frames."""
    fhat = evaluate_coefficients(F, total, proj[+1].lattice)
    fhat = np.einsum("ab,k...b->k...a", g.beta, fhat)
    out = {}
    for s in (+1, -1):
        integrand = np.conj(phase[s])[..., None] * _apply_matrix(proj[s], fhat)
        out[s] = 1j * phase[s][..., None] * _cumulative_trapezoid(integrand, dt)
    return out


def duhamel_integral(
    branches: tuple[Trajectory, Trajectory],
    F: PowerSeriesNonlinearity,
    g: GammaSet,
    t: float,
) -> tuple[SpinorField, SpinorField]:
    """Duhamel correction of both branches at frame time t.

    Trapezoid quadrature of the propagated, projected nonlinearity over
    [0, t]; t must be one of the frame times of the (shared) grid.
    """
    plus_tr, minus_tr = branches
    if plus_tr.lattice != minus_tr.lattice or plus_tr.n_frames != minus_tr.n_frames:
        raise ValueError("branch trajectories do not share a grid")
    times = plus_tr.times
    if t < times[0] - 1e-12 or t > times[-1] + 1e-12:
        raise ValueError(f"time {t} outside the trajectory window")
    k = int(round((t - times[0]) / plus_tr.dt)) if plus_tr.n_frames > 1 else 0
    if abs(times[k] - t) > 1e-9 * max(1.0, abs(t)):
        raise ValueError(f"time {t} is not a frame time")
    lattice = plus_tr.lattice
    proj = {s: projector_multiplier(g, lattice, s) for s in (+1, -1)}
    total = plus_tr.frames[: k + 1] + minus_tr.frames[: k + 1]
    corr = _duhamel_corrections(F, g, proj, _phases(times[: k + 1], lattice),
                                plus_tr.dt, total)
    return (
        SpinorField(lattice, plus_tr.d0, corr[+1][-1]),
        SpinorField(lattice, plus_tr.d0, corr[-1][-1]),
    )


@dataclass
class PicardResult:
    trajectory: Trajectory
    diagnostics: dict = field(default_factory=dict)


def _sup_frame_norm(frames: np.ndarray) -> float:
    m = frames.shape[0]
    return float(np.linalg.norm(frames.reshape(m, -1), axis=1).max())


def picard_solve(cfg: SolveConfig, psi0: SpinorField) -> PicardResult:
    """Solve the split system by Picard iteration of the Duhamel map.

    The iterate is psi on the frames.  Each step maps it to

        psi_new(t_k) = sum_pm [ e^{-/+ i t_k <D>} Pi_pm psi0
                       + i int_0^{t_k} e^{-/+ i (t_k - s) <D>} Pi_pm[beta F(psi(s))] ds ]

    with trapezoid quadrature on the frame grid, starting from the free
    evolution of the data, until the sup-in-time relative L^2 distance
    between successive iterates drops below the tolerance.  Aborts with
    diagnostics if the map stops contracting (ratio >= 1 for three
    consecutive iterations) or the tolerance is not reached within the
    iteration budget.  The branches Pi_pm psi are formed once, at the end,
    for the range-defect and solution-norm diagnostics.
    """
    lattice = cfg.lattice()
    g = build_gamma(cfg.d)
    if psi0.lattice != lattice or psi0.d0 != g.d0:
        raise ValueError("initial data does not match the configuration")
    data_norm = sobolev_norm(psi0, cfg.s)
    if data_norm > cfg.epsilon * (1.0 + 1e-9):
        raise ValueError(
            f"initial data size {data_norm} exceeds epsilon={cfg.epsilon}"
        )
    F = cfg.nonlinearity
    times = cfg.dt * np.arange(cfg.n_frames)
    proj = {s: projector_multiplier(g, lattice, s) for s in (+1, -1)}
    phase = _phases(times, lattice)
    free = sum(phase[s][..., None] * project_dirac(g, psi0, s).coeffs
               for s in (+1, -1))

    def duhamel_map(psi: np.ndarray) -> np.ndarray:
        if F is None or F.is_zero():
            return free
        corr = _duhamel_corrections(F, g, proj, phase, cfg.dt, psi)
        return free + corr[+1] + corr[-1]

    psi = free
    distances: list[float] = []
    ratios: list[float] = []
    diagnostics: dict = {"distances": distances, "ratios": ratios}
    converged = False
    for it in range(1, cfg.max_iterations + 1):
        new = duhamel_map(psi)
        dist = _sup_frame_norm(new - psi) / max(_sup_frame_norm(psi), 1e-300)
        distances.append(dist)
        diagnostics["iterations"] = it
        if not math.isfinite(dist):
            raise PicardError("iteration diverged (non-finite distance)", diagnostics)
        if len(distances) > 1 and distances[-2] > 0:
            ratios.append(distances[-1] / distances[-2])
        psi = new
        if dist < cfg.picard_tol:
            converged = True
            break
        if len(ratios) >= 3 and all(r >= 1.0 for r in ratios[-3:]):
            raise PicardError("fixed-point map is not contracting", diagnostics)
    diagnostics["converged"] = converged
    if not converged:
        raise PicardError("tolerance not reached within the iteration budget",
                          diagnostics)
    scale = max(_sup_frame_norm(psi), 1e-300)
    # residual under one more application of the map
    diagnostics["duhamel_residual"] = _sup_frame_norm(duhamel_map(psi) - psi) / scale
    # branch-range defects: each branch must stay in its projector's range
    plus = _apply_matrix(proj[+1], psi)
    branches = {+1: plus, -1: psi - plus}
    diagnostics["projector_range_defect"] = max(
        _sup_frame_norm(_apply_matrix(proj[-s], branches[s])) / scale
        for s in (+1, -1)
    )
    if cfg.monitor_solution_norm:
        sigma = cfg.d / 2.0
        for s, key in ((+1, "solution_norm_plus"), (-1, "solution_norm_minus")):
            branch = Trajectory(lattice, g.d0, times, branches[s])
            diagnostics[key] = solution_norm(branch, sigma, s).value
        diagnostics["ball_radius"] = cfg.epsilon
    return PicardResult(Trajectory(lattice, g.d0, times, psi), diagnostics)


# ---------------------------------------------------------------------------
# independent method-of-lines integrator (oracle)


def evolve_dirac_rk4(
    psi0: SpinorField,
    F: PowerSeriesNonlinearity | None,
    g: GammaSet,
    dt: float,
    horizon: float,
    substeps: int = 1,
) -> Trajectory:
    """Fourth-order explicit stepper for the full split system in frequency
    space, with the linear half-wave flow applied exactly (interaction
    picture), so only the nonlinear part carries time-stepping error."""
    lattice = psi0.lattice
    n_frames = frame_count(dt, horizon)
    times = dt * np.arange(n_frames)
    proj = {s: projector_multiplier(g, lattice, s) for s in (+1, -1)}
    bracket = lattice.bracket
    u = {
        s: np.einsum("...ab,...b->...a", proj[s].values, psi0.coeffs)
        for s in (+1, -1)
    }
    frames = np.empty((n_frames,) + lattice.shape + (g.d0,), dtype=np.complex128)
    frames[0] = u[+1] + u[-1]
    h = dt / substeps

    def rhs(tau: float, v: dict) -> dict:
        # v holds interaction-picture branches relative to the step start
        phase = {s: np.exp(-1j * s * tau * bracket)[..., None] for s in (+1, -1)}
        total = phase[+1] * v[+1] + phase[-1] * v[-1]
        if F is None or F.is_zero():
            fhat = np.zeros_like(total)
        else:
            fhat = evaluate_coefficients(F, total, lattice)
        fhat = np.einsum("ab,...b->...a", g.beta, fhat)
        out = {}
        for s in (+1, -1):
            p = np.einsum("...ab,...b->...a", proj[s].values, fhat)
            out[s] = 1j * np.conj(phase[s]) * p
        return out

    for k in range(1, n_frames):
        for _ in range(substeps):
            v = {s: u[s].copy() for s in (+1, -1)}
            k1 = rhs(0.0, v)
            k2 = rhs(0.5 * h, {s: v[s] + 0.5 * h * k1[s] for s in (+1, -1)})
            k3 = rhs(0.5 * h, {s: v[s] + 0.5 * h * k2[s] for s in (+1, -1)})
            k4 = rhs(h, {s: v[s] + h * k3[s] for s in (+1, -1)})
            end_phase = {s: np.exp(-1j * s * h * bracket)[..., None] for s in (+1, -1)}
            for s in (+1, -1):
                vnew = v[s] + (h / 6.0) * (k1[s] + 2 * k2[s] + 2 * k3[s] + k4[s])
                u[s] = end_phase[s] * vnew
        frames[k] = u[+1] + u[-1]
    return Trajectory(lattice, g.d0, times, frames)


# ---------------------------------------------------------------------------
# second-order (Klein-Gordon type) route


def second_order_data(
    psi0: SpinorField,
    F: PowerSeriesNonlinearity | None,
    g: GammaSet,
    mass: float = 1.0,
) -> SecondOrderState:
    """Time-derivative data consistent with the first-order equation:
    v = -gamma^0 sum_j gamma^j d_j psi0 - i m gamma^0 psi0 + i gamma^0 F(psi0).
    """
    lattice = psi0.lattice
    coeffs = psi0.coeffs
    v = np.zeros_like(coeffs)
    for j in range(g.d):
        dj = 1j * lattice.xi[..., j, None] * coeffs  # true derivative d/dx^j
        v -= np.einsum("ab,...b->...a", g.alpha[j], dj)
    v -= 1j * mass * np.einsum("ab,...b->...a", g.beta, coeffs)
    if F is not None and not F.is_zero():
        fc = evaluate_coefficients(F, coeffs, lattice)
        v += 1j * np.einsum("ab,...b->...a", g.beta, fc)
    return SecondOrderState(u=psi0.copy(), v=SpinorField(lattice, g.d0, v))


def _second_order_rhs(
    u_hat: np.ndarray,
    F: PowerSeriesNonlinearity | None,
    g: GammaSet,
    lattice: FrequencyLattice,
    mass: float,
) -> np.ndarray:
    """Coefficients of the source G(psi, grad psi) of the second-order form."""
    if F is None or F.is_zero():
        return np.zeros_like(u_hat)
    grid = padded_grid_size(lattice, max(2 * F.max_degree - 1, 1))
    psi = to_grid(u_hat, lattice.d, grid)
    derivs = [to_grid(1j * lattice.xi[..., j, None] * u_hat, lattice.d, grid)
              for j in range(g.d)]
    jac = jacobian(F, psi)
    fval = evaluate(F, psi)
    gamma0 = g.gamma[0]
    out = mass * fval
    for j in range(g.d):
        jd = np.einsum("...ab,...b->...a", jac, derivs[j])
        out += 1j * np.einsum("ab,...b->...a", g.gamma[j + 1], jd)
        adj = np.einsum("ab,...b->...a", g.alpha[j], derivs[j])
        jadj = np.einsum("...ab,...b->...a", jac, adj)
        out -= 1j * np.einsum("ab,...b->...a", gamma0, jadj)
    g0psi = np.einsum("ab,...b->...a", gamma0, psi)
    out += mass * np.einsum("ab,...b->...a", gamma0,
                            np.einsum("...ab,...b->...a", jac, g0psi))
    g0f = np.einsum("ab,...b->...a", gamma0, fval)
    out -= np.einsum("ab,...b->...a", gamma0,
                     np.einsum("...ab,...b->...a", jac, g0f))
    return from_grid(out, lattice.d, lattice.radius)


def evolve_klein_gordon(
    state: SecondOrderState,
    F: PowerSeriesNonlinearity | None,
    g: GammaSet,
    mass: float,
    dt: float,
    horizon: float,
) -> Trajectory:
    """Second-order evolution u_tt - Lap u + m^2 u = G(u, grad u).

    Symmetric splitting: exact half rotations of the linear flow around a
    midpoint kick by the source; second order in dt, exact (and exactly
    energy-preserving) when the source vanishes.
    """
    n_frames = frame_count(dt, horizon)
    lattice = state.u.lattice
    omega = np.sqrt(lattice.xi_norm_sq + mass * mass)[..., None]
    omega_max = float(omega.max())
    if dt * omega_max > math.pi:
        raise ValueError(
            f"time step {dt} too large for the fastest mode (dt*omega={dt * omega_max:.3f} > pi)"
        )
    times = dt * np.arange(n_frames)
    u = state.u.coeffs.copy()
    v = state.v.coeffs.copy()
    frames = np.empty((n_frames,) + lattice.shape + (state.u.d0,), dtype=np.complex128)
    frames[0] = u
    cos_h = np.cos(0.5 * dt * omega)
    sinc_h = np.sin(0.5 * dt * omega) / omega
    osin_h = -omega * np.sin(0.5 * dt * omega)

    def half_rotate(uu, vv):
        return cos_h * uu + sinc_h * vv, osin_h * uu + cos_h * vv

    for k in range(1, n_frames):
        u, v = half_rotate(u, v)
        v = v + dt * _second_order_rhs(u, F, g, lattice, mass)
        u, v = half_rotate(u, v)
        frames[k] = u
    return Trajectory(lattice, state.u.d0, times, frames)


def kg_energy(state_u: np.ndarray, state_v: np.ndarray,
              lattice: FrequencyLattice, mass: float) -> float:
    """Quadratic energy ||v||^2 + ||grad u||^2 + m^2 ||u||^2 of the linear flow."""
    grad = lattice.xi_norm_sq[..., None]
    return float(
        np.sum(np.abs(state_v) ** 2)
        + np.sum((grad + mass * mass) * np.abs(state_u) ** 2)
    )


# ---------------------------------------------------------------------------
# residual and monitoring


def dirac_residual(
    tr: Trajectory,
    F: PowerSeriesNonlinearity | None,
    g: GammaSet,
    mass: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Squared L^2 residual of the first-order equation along a trajectory.

    The time derivative is a central difference on the frame grid, spatial
    derivatives are spectral; returns (interior times, residual values).
    For a true solution the values sit at discretisation level, O(dt^4).
    """
    if tr.n_frames < 3:
        raise ValueError("residual needs at least 3 frames")
    lattice = tr.lattice
    dt = tr.dt
    dt_psi = (tr.frames[2:] - tr.frames[:-2]) / (2.0 * dt)
    mid = tr.frames[1:-1]
    # i gamma^mu d_mu psi - m psi + F(psi)
    res = 1j * np.einsum("ab,k...b->k...a", g.gamma[0], dt_psi)
    for j in range(g.d):
        dj = 1j * lattice.xi[..., j, None] * mid
        res += 1j * np.einsum("ab,k...b->k...a", g.gamma[j + 1], dj)
    res -= mass * mid
    if F is not None and not F.is_zero():
        res += evaluate_coefficients(F, mid, lattice)
    m = res.shape[0]
    values = np.linalg.norm(res.reshape(m, -1), axis=1) ** 2
    return tr.times[1:-1], values


def sobolev_monitor(tr: Trajectory, s: float, bound: float = 3.0) -> dict:
    """Per-frame Sobolev norms with the uniform-boundedness verdict
    sup_t ||psi(t)|| <= bound * ||psi(0)||."""
    w = tr.lattice.bracket ** (2.0 * s)
    m = tr.n_frames
    series = np.sqrt(
        np.sum(w[None, ..., None] * np.abs(tr.frames) ** 2, axis=tuple(range(1, tr.frames.ndim)))
    )
    initial = float(series[0])
    sup = float(series.max())
    ratio = sup / initial if initial > 0 else 0.0
    return {
        "times": tr.times,
        "values": series,
        "initial": initial,
        "sup": sup,
        "ratio": ratio,
        "bound": bound,
        "ok": bool(ratio <= bound),
    }


# ---------------------------------------------------------------------------
# bundled initial data


def gaussian_data(
    lattice: FrequencyLattice,
    d0: int,
    epsilon: float,
    s: float,
    seed: int = 0,
    width: float = 2.0,
) -> SpinorField:
    """Smooth random data with Gaussian frequency decay, normalised so its
    Sobolev norm of index s equals epsilon.  Deterministic per seed."""
    rng = np.random.default_rng(seed)
    f = random_field(lattice, d0, rng)
    decay = np.exp(-lattice.xi_norm_sq / (2.0 * width * width))
    f = SpinorField(lattice, d0, f.coeffs * decay[..., None])
    norm = sobolev_norm(f, s)
    return f * (epsilon / norm)
