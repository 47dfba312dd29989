"""Cauchy solver for the massive Dirac equation on the torus.

The first-order system is solved as a fixed point of the Duhamel formula
psi(t) = U(t)[psi0 + i int_0^t U(-s) beta F(psi(s)) ds] (Picard iteration),
the integral a trapezoid on a uniform frame grid taken as the exponential
trapezoidal rule: one step U(dt) per frame, with U(t) = cos(t lam) -
i sin(t lam) S, S = H_m / lam, lam = <xi>_m.  The pointwise equation
residual differences w = U(-t) psi with U tabulated at every frame time, so
it meters the recursion independently.  The solve returns the last image of
the iterate psi; the stopping test's distance between the two is the
reported Duhamel residual.  Cross-checks: a fourth-order exponential
Runge-Kutta stepper on psi and the reference flows ``split`` /
``half_wave``, which keep the projector form U(t) = p Pi_+ + conj(p)
(1 - Pi_+), p = e^{-i t <xi>}, so that they check the closed form rather
than share it; and the second-order (Klein-Gordon type) evolution.  Every
route evaluates beta F or i beta F as one series with the matrix in its
coefficients; the RK4 and second-order routes raise FloatingPointError at
their first non-finite frame.  The mass is normalised to 1 in the Picard
and RK4 solvers; the second-order route and the residual take a general
mass m.
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
    jacobian_product,
    left_multiply,
    padded_grid_size,
)
from .norms import frame_norms, sobolev_norm, solution_norm
from .spectral import (
    FrequencyLattice,
    SpinorField,
    Trajectory,
    apply_constant,
    apply_matrices,
    from_grid,
    project_dirac,
    projector_symbol,
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


@dataclass
class SecondOrderState:
    """Field and time-derivative data for the second-order evolution."""

    u: SpinorField
    v: SpinorField


def frame_count(dt: float, horizon: float) -> int:
    """Number of frames 0, dt, ..., horizon; raises unless horizon / dt is a
    finite whole number."""
    steps = horizon / dt
    if not math.isfinite(steps):
        raise ValueError(f"horizon {horizon} / dt {dt} is not a finite number of steps")
    m = int(round(steps)) + 1
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
        if not all(math.isfinite(v) and v > 0
                   for v in (self.dt, self.horizon, self.epsilon, self.picard_tol)):
            raise ValueError("dt, horizon, epsilon and picard_tol must be positive "
                             "and finite")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.s is None:
            self.s = self.d / 2.0
        if not math.isfinite(self.s):
            raise ValueError(f"s must be finite, got {self.s}")
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
    )


def half_wave(f: SpinorField, t: float, sign: int) -> SpinorField:
    """Free half-wave flow: coefficients times e^{-i sign t <xi>} (unitary)."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    phase = np.exp(-1j * sign * t * f.lattice.bracket)
    return SpinorField(f.lattice, f.d0, f.coeffs * phase[..., None])


# ---------------------------------------------------------------------------
# the free propagator and the fixed-point map


def _dirac_generator(g: GammaSet, lattice: FrequencyLattice,
                     mass: float) -> tuple[np.ndarray, np.ndarray]:
    """(-i S, lam), S = H_m / lam, lam = (m^2 + |xi|^2)^{1/2}: shapes
    lattice.shape + (d0, d0) and lattice.shape.  S is H_m times 1/lam, as in
    ``projector_symbol``, so (I + S)/2 is Pi_+ to the bit."""
    lam = np.sqrt(mass * mass + lattice.xi_norm_sq)
    isym = g.dirac_symbol(lattice.xi, mass)
    isym *= (1.0 / lam)[..., None, None]
    isym *= -1j
    return isym, lam


def _propagator_tables(g: GammaSet, lattice: FrequencyLattice, times: np.ndarray,
                       mass: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(-i S, cos(t lam), sin(t lam)) of ``_dirac_generator`` at the M
    ``times``, the two tables of shape (M,) + lattice.shape."""
    isym, lam = _dirac_generator(g, lattice, mass)
    t_lam = times.reshape((-1,) + (1,) * lattice.d) * lam
    return isym, np.cos(t_lam), np.sin(t_lam)


def _free_propagate(x: np.ndarray, isym: np.ndarray, cos_t: np.ndarray,
                    sin_t: np.ndarray, sign: int) -> np.ndarray:
    """U(sign t) x = cos(t lam) x + sign sin(t lam) (-i S) x, frame by frame
    at the tables' times, written over ``x`` (one trajectory-sized temporary)."""
    turn = apply_matrices(isym, x)
    turn *= sin_t[..., None]
    x *= cos_t[..., None]
    return (np.add if sign > 0 else np.subtract)(x, turn, out=x)


def _duhamel_map(w: np.ndarray, step: np.ndarray, dt: float, psi0: np.ndarray) -> np.ndarray:
    """U(t_k)[psi0 + int_0^{t_k} U(-s) f(s) ds] at every frame for the
    integrand f on the frames of ``w``, written over ``w``, by the exponential
    trapezoidal rule V_k = U(dt)(V_{k-1} + dt/2 f_{k-1}) + dt/2 f_k from
    V_0 = psi0 (the trapezoid on U(-s) f(s), reordered); ``step`` is U(dt),
    applied once per frame to the carry V_k + dt/2 f_k."""
    carry = psi0 + (0.5 * dt) * w[0]
    w[0] = psi0
    for k in range(1, w.shape[0]):
        y = apply_matrices(step, carry)
        np.multiply(w[k], dt, out=carry)
        carry += y
        w[k] *= 0.5 * dt
        w[k] += y
    return w


@dataclass
class PicardResult:
    trajectory: Trajectory
    diagnostics: dict = field(default_factory=dict)


def picard_solve(cfg: SolveConfig, psi0: SpinorField) -> PicardResult:
    """Solve the Dirac system by Picard iteration of the Duhamel map.

    The iterate psi on the frames starts as the free flow U(t_k) psi0 and
    is mapped to U(t_k)[psi0 + i int_0^{t_k} U(-s) beta F(psi(s)) ds] by
    ``_duhamel_map`` (one U(dt) per frame, no time tables) until the
    sup-in-time relative L^2 distance between an iterate and its image
    drops below the tolerance.  The returned trajectory is that image and
    ``duhamel_residual`` that distance, so a solve applies the map
    ``iterations`` times.  Where the map contracts with ratio q, one more
    application would move the returned frames by at most q times that
    distance (in units of the iterate's sup norm).  Aborts with diagnostics
    if the map stops contracting (ratio >= 1 for three consecutive
    iterations) or the tolerance is not reached within the iteration
    budget.  After convergence Pi_+ = (I + S)/2 forms the branches Pi_+ psi
    and Pi_- psi = psi - Pi_+ psi, one at a time, for the diagnostics.
    """
    lattice = cfg.lattice()
    g = build_gamma(cfg.d)
    if psi0.lattice != lattice or psi0.d0 != g.d0:
        raise ValueError("initial data does not match the configuration")
    data_norm = sobolev_norm(psi0, cfg.s)
    if data_norm > cfg.epsilon * (1.0 + 1e-9):
        raise ValueError(f"initial data size {data_norm} exceeds epsilon={cfg.epsilon}")
    F = cfg.nonlinearity if cfg.nonlinearity is not None else PowerSeriesNonlinearity(g.d0, {})
    f = left_multiply(1j * g.beta, F)  # the integrand i beta F in one evaluation
    isym, lam = _dirac_generator(g, lattice, 1.0)
    step = np.sin(cfg.dt * lam)[..., None, None] * isym  # U(dt)
    step += np.cos(cfg.dt * lam)[..., None, None] * np.eye(g.d0)
    psi = _duhamel_map(np.zeros((cfg.n_frames,) + psi0.coeffs.shape, complex), step, cfg.dt,
                       psi0.coeffs)  # the free flow U(t_k) psi0: a zero integrand
    distances: list[float] = []
    ratios: list[float] = []
    diagnostics: dict = {"distances": distances, "ratios": ratios}
    converged = False
    for it in range(1, cfg.max_iterations + 1):
        new = _duhamel_map(evaluate_coefficients(f, psi, lattice), step, cfg.dt, psi0.coeffs)
        denom = max(frame_norms(psi).max(), 1e-300)  # psi then takes the difference
        diff = frame_norms(np.subtract(psi, new, out=psi))
        dist = float(diff.max() / denom)
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
        raise PicardError("tolerance not reached within the iteration budget", diagnostics)
    diagnostics["duhamel_residual"] = dist
    # Pi_+ = (I + S)/2 with S = i (-i S); -i S and U(dt) are not needed for
    # the diagnostics: release them so that they do not add to their memory
    proj_plus = 0.5 * (np.eye(g.d0) + 1j * isym)
    del isym, lam, step
    scale = max(float(frame_norms(psi).max()), 1e-300)
    # one branch buffer beside psi: Pi_+ psi, then Pi_- psi = psi - Pi_+ psi
    # over it.  The range defect Pi_+ psi - Pi_+(Pi_+ psi) is measured once:
    # in exact arithmetic it is Pi_+(Pi_- psi), the minus branch's defect.
    branch = apply_matrices(proj_plus, psi)
    off = apply_matrices(proj_plus, branch)
    np.subtract(branch, off, out=off)
    diagnostics["projector_range_defect"] = float(frame_norms(off).max()) / scale
    del off
    if cfg.monitor_solution_norm:
        for s, key in ((+1, "solution_norm_plus"), (-1, "solution_norm_minus")):
            if s == -1:
                np.subtract(psi, branch, out=branch)
            diagnostics[key] = solution_norm(
                Trajectory(lattice, g.d0, cfg.dt, branch), cfg.d / 2.0, s).value
        diagnostics["ball_radius"] = cfg.epsilon
    return PicardResult(Trajectory(lattice, g.d0, cfg.dt, psi), diagnostics)


# ---------------------------------------------------------------------------
# independent method-of-lines integrator (oracle)


def evolve_dirac_rk4(
    psi0: SpinorField,
    F: PowerSeriesNonlinearity | None,
    g: GammaSet,
    dt: float,
    horizon: float,
) -> Trajectory:
    """Fourth-order exponential (Lawson) Runge-Kutta stepper on psi, in the
    half-step frame.

    The free flow U(tau) = e^{-i tau <xi>} Pi_+ + e^{+i tau <xi>} Pi_- is
    exact, built once for tau = h = dt/2.  Lawson's step
    psi <- U(dt)(psi + dt/6 (k1 + 2 k2 + 2 k3 + k4)), with stages
    k = U(-tau) f(U(tau) w) and f = i beta F (one series), has each stage
    taken to the step's midpoint, where U(h) U(-h) cancels: with z = U(h) psi
    and K1 = U(h) f(psi), g2 = f(z + h K1), g3 = f(z + h g2),
    g4 = f(U(h)(z + dt g3)) and psi <- U(h)(z + dt/6 (K1 + 2 g2 + 2 g3))
    + dt/6 g4.  That is four U(h) applies per step, two without a
    nonlinearity.  Raises FloatingPointError at the first non-finite frame.
    """
    lattice = psi0.lattice
    n_frames = frame_count(dt, horizon)
    frames = np.empty((n_frames,) + lattice.shape + (g.d0,), dtype=np.complex128)
    frames[0] = psi0.coeffs
    h = 0.5 * dt
    pp = projector_symbol(g, lattice.xi, +1)
    p = np.exp(-1j * h * lattice.bracket)[..., None, None]
    half = p * pp + np.conj(p) * (np.eye(g.d0) - pp)  # U(dt/2)
    kicked = F is not None and not F.is_zero()
    if kicked:
        f = left_multiply(1j * g.beta, F)
    w = psi0.coeffs
    for k in range(1, n_frames):
        if kicked:
            z = apply_matrices(half, w)
            acc = apply_matrices(half, evaluate_coefficients(f, w, lattice))  # K1
            g2 = evaluate_coefficients(f, z + h * acc, lattice)
            g3 = evaluate_coefficients(f, z + h * g2, lattice)
            g4 = evaluate_coefficients(f, apply_matrices(half, z + dt * g3), lattice)
            acc += 2.0 * (g2 + g3)
            z += (dt / 6.0) * acc
            w = apply_matrices(half, z)
            w += (dt / 6.0) * g4
        else:
            w = apply_matrices(half, apply_matrices(half, w))
        frames[k] = w
    return _finite(Trajectory(lattice, g.d0, dt, frames))


def _finite(tr: Trajectory) -> Trajectory:
    """``tr``, or FloatingPointError with the time of its first frame that
    holds a NaN or an inf, in its message and as its ``time``.  Under the
    routes' steps such a value never turns finite again, so the finished
    frames are checked once, at no cost per step."""
    bad = ~np.isfinite(tr.frames.reshape(tr.n_frames, -1)).all(axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        err = FloatingPointError(f"non-finite frame at t = {tr.dt * k:.6g} "
                                 f"(frame {k} of {tr.n_frames})")
        err.time = tr.dt * k
        raise err
    return tr


# ---------------------------------------------------------------------------
# second-order (Klein-Gordon type) route


def second_order_data(
    psi0: SpinorField,
    F: PowerSeriesNonlinearity | None,
    g: GammaSet,
    mass: float = 1.0,
) -> SecondOrderState:
    """Time-derivative data consistent with the first-order equation:
    v = -i (H_m psi0 - beta F(psi0)), with H_m the Dirac symbol of mass m.
    """
    v = apply_matrices(g.dirac_symbol(psi0.lattice.xi, mass), psi0.coeffs)
    if F is not None and not F.is_zero():
        v -= evaluate_coefficients(left_multiply(g.beta, F), psi0.coeffs, psi0.lattice)
    v *= -1j
    return SecondOrderState(u=psi0.copy(), v=SpinorField(psi0.lattice, g.d0, v))


def _second_order_rhs(
    u_hat: np.ndarray,
    F: PowerSeriesNonlinearity,
    g: GammaSet,
    lattice: FrequencyLattice,
    mass: float,
    h: np.ndarray,
    grid: int,
) -> np.ndarray:
    """Coefficients of the source G(psi, grad psi) of the second-order form,

        G = m F + i sum_j gamma^j J d_j psi + K (m psi - F - i sum_j gamma^j d_j psi)

    with J the Jacobian of F at psi and K = beta J beta.  As gamma^j = beta
    alpha^j, the bracket is beta (H_m psi - beta F), H_m the Dirac symbol.
    F is holomorphic, so J d_j psi = d_j F(psi), and truncation P commutes
    with d_j on the alias-free grid: the middle term is -beta (H_m - m beta) F^ and

        G = 2 m F^ - beta (H_m F^ - P[J (H_m psi - beta F)]),

    with one transform each way and one Jacobian-vector product, J never formed.
    ``h`` is H_m and ``grid`` the padded grid of F, built once per evolution.
    """
    psi, h_psi = to_grid(np.stack((u_hat, apply_matrices(h, u_hat))), lattice.d, grid)
    fval = evaluate(F, psi)
    kick = jacobian_product(F, psi, h_psi - apply_constant(g.beta, fval))
    f_hat, kick_hat = from_grid(np.stack((fval, kick)), lattice.d, lattice.radius)
    return 2.0 * mass * f_hat - apply_constant(g.beta, apply_matrices(h, f_hat) - kick_hat)


def kg_frequencies(lattice: FrequencyLattice, mass: float, dt: float) -> np.ndarray:
    """omega = (|xi|^2 + m^2)^{1/2}, shape lattice.shape + (1,); raises
    ValueError when dt is too large for the fastest mode (dt * omega > pi),
    the step guard of ``evolve_klein_gordon``."""
    omega = np.sqrt(lattice.xi_norm_sq + mass * mass)[..., None]
    omega_max = float(omega.max())
    if dt * omega_max > math.pi:
        raise ValueError(
            f"time step {dt} too large for the fastest mode (dt*omega={dt * omega_max:.3f} > pi)"
        )
    return omega


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
    midpoint kick by the source (H_m and its padded grid built once); second
    order in dt, exact (and exactly energy-preserving) when it vanishes.
    Raises FloatingPointError at the first non-finite frame.
    """
    n_frames = frame_count(dt, horizon)
    lattice = state.u.lattice
    omega = kg_frequencies(lattice, mass, dt)
    u = state.u.coeffs.copy()
    v = state.v.coeffs.copy()
    frames = np.empty((n_frames,) + lattice.shape + (state.u.d0,), dtype=np.complex128)
    frames[0] = u
    cos_h = np.cos(0.5 * dt * omega)
    sinc_h = np.sin(0.5 * dt * omega) / omega
    osin_h = -omega * np.sin(0.5 * dt * omega)
    kicked = F is not None and not F.is_zero()
    if kicked:
        h = g.dirac_symbol(lattice.xi, mass)
        grid = padded_grid_size(lattice, max(2 * F.max_degree - 1, 1))

    def half_rotate(uu, vv):
        return cos_h * uu + sinc_h * vv, osin_h * uu + cos_h * vv

    for k in range(1, n_frames):
        u, v = half_rotate(u, v)
        if kicked:
            v = v + dt * _second_order_rhs(u, F, g, lattice, mass, h, grid)
        u, v = half_rotate(u, v)
        frames[k] = u
    return _finite(Trajectory(lattice, state.u.d0, dt, frames))


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
    """Squared L^2 residual of the first-order equation along a trajectory,
    in the interaction picture w = U(-t) psi of the mass-m propagator:
    r_k = i (w_{k+1} - w_{k-1}) / (2 dt) + U(-t_k) beta F(psi_k); returns
    (interior times, |r_k|^2).  U is unitary, so in the continuum |r| is the
    norm of i d_t psi - H_m psi + beta F; the difference does not see the
    free oscillation, so an exact free flow reads at rounding level.
    """
    if tr.n_frames < 3:
        raise ValueError("residual needs at least 3 frames")
    tables = _propagator_tables(g, tr.lattice, tr.times, mass)
    w = _free_propagate(tr.frames.copy(), *tables, -1)
    res = np.subtract(w[2:], w[:-2])
    del w
    res *= 0.5j / tr.dt
    if F is not None and not F.is_zero():
        kick = evaluate_coefficients(left_multiply(g.beta, F), tr.frames[1:-1], tr.lattice)
        isym, cos_t, sin_t = tables
        res += _free_propagate(kick, isym, cos_t[1:-1], sin_t[1:-1], -1)
    return tr.times[1:-1], frame_norms(res) ** 2


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
) -> SpinorField:
    """Smooth random data with Gaussian frequency decay of width 2, normalised
    so its Sobolev norm of index s equals epsilon.  Deterministic per seed.
    Raises ValueError when the norm of the draw or of the result is not
    finite and positive, as for a huge s or epsilon."""
    rng = np.random.default_rng(seed)
    f = random_field(lattice, d0, rng)
    decay = np.exp(-lattice.xi_norm_sq / 8.0)
    f = SpinorField(lattice, d0, f.coeffs * decay[..., None])
    with np.errstate(over="ignore"):  # an overflow shows as a norm of inf
        norm = sobolev_norm(f, s)
        if not (math.isfinite(norm) and norm > 0):
            raise ValueError(f"the random draw has Sobolev norm {norm} at s={s}")
        f = f * (epsilon / norm)
        if not math.isfinite(sobolev_norm(f, s)):
            raise ValueError(f"initial data of size {epsilon} at s={s} overflows")
    return f
