"""Reference definitions that the unit tests compare the package against.

Each one computes its quantity straight from the definition, in the form
the package's batched or collapsed code replaced: a single-mode field, a
derivative as a lattice multiplier, a modulation cutoff by its own time
transform, the modulation seminorm and a scale block, dense cap weight
tables, F(u1) - F(u2) by the integral-remainder expansion, the Duhamel
map by its closed-form propagator at every frame time, the Lawson RK4
step with every stage propagated back to the step start, and the grid
transforms by the axis rotation at every d, d = 1 included.  No command or
benchmark calls them.
"""

import math

import numpy as np

from spintorus.clifford import GammaSet
from spintorus.dyadic import CapCover, annulus_profile, modulation_distance
from spintorus.nonlinear import (
    PowerSeriesNonlinearity,
    decrement_index,
    evaluate_coefficients,
    multinomial_split,
)
from spintorus.norms import NormReport, _modulation_densities, frame_norms
from spintorus.solver import _free_propagate, _propagator_tables, frame_count
from spintorus.spectral import (
    FrequencyLattice,
    SpinorField,
    Trajectory,
    _transform_axis,
    apply_constant,
    apply_matrices,
    projector_symbol,
)


def plane_wave(lattice: FrequencyLattice, d0: int, xi, spinor) -> SpinorField:
    """Single-mode field u(x) = e^{i x.xi} * spinor; xi lies on the lattice."""
    coeffs = np.zeros(lattice.shape + (d0,), dtype=np.complex128)
    coeffs[tuple(int(x) + lattice.radius for x in xi)] = spinor
    return SpinorField(lattice, d0, coeffs)


def derivative_monomial(f: SpinorField, alpha) -> SpinorField:
    """D^alpha f for a multi-index alpha (coefficients times prod xi_j^alpha_j)."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != f.lattice.d or any(a < 0 for a in alpha):
        raise ValueError("alpha must be a nonnegative multi-index of length d")
    sym = np.ones(f.lattice.shape)
    for j, a in enumerate(alpha):
        if a:
            sym = sym * f.lattice.xi[..., j] ** a
    return SpinorField(f.lattice, f.d0, f.coeffs * sym[..., None])


def modulation_symbol(tr: Trajectory, j: int, sign: int) -> np.ndarray:
    """annulus_profile(2^{-j} |tau +- <xi>|) on the discrete grid."""
    return annulus_profile(np.ldexp(modulation_distance(tr, sign), -j))


def modulation_block(tr: Trajectory, j: int, sign: int) -> Trajectory:
    """Restrict a trajectory to modulations 2^j <= |tau +- <xi>| <= 2^{j+2}.

    The finite window is treated as periodic.
    """
    if tr.n_frames < 2:
        raise ValueError("modulation cutoff needs at least 2 frames")
    spec = np.fft.fft(tr.frames, axis=0)
    spec *= modulation_symbol(tr, j, sign)[..., None]
    out = np.fft.ifft(spec, axis=0)
    return Trajectory(tr.lattice, tr.d0, tr.dt, out)


def modulation_norm(tr: Trajectory, sign: int) -> float:
    """The critical modulation seminorm sup_j 2^{j/2} ||Q_j tr||_{L^2_t L^2_x}.

    Scales are restricted to those representable on the discrete (tau, xi)
    grid of the trajectory window.
    """
    jmin, rows = _modulation_densities(tr, sign)
    scales = jmin + np.arange(len(rows))
    return float((2.0 ** (0.5 * scales) * np.sqrt(rows.sum(axis=1))).max())


def block_norm(tr: Trajectory, j: int, sign: int) -> NormReport:
    """Scale-j solution block norm: energy + modulation.

    The blocks are the sup-in-time L^2 norm and the critical modulation
    seminorm (weight 1/2, sup over scales).  There is no cap x cube sector
    term: its angular window ceil((d+2)j/(2d-2)) <= l <= j is empty at every
    j >= 1 for d <= 3, caps are not built for d > 3, and the solution norm
    only uses blocks at j >= 1, so the term would be 0 in every norm.
    """
    energy = float(frame_norms(tr.frames).max())
    modu = modulation_norm(tr, sign)
    return NormReport(
        value=energy + modu,
        breakdown={"energy": energy, "modulation": modu},
    )


def cap_raw_weights(cover: CapCover, directions: np.ndarray) -> np.ndarray:
    """Unnormalised cap bumps as a dense (n_dirs, K) table, scattered from
    the package's (direction, cap, value) triples."""
    rows, caps, values = cover.bumps(directions)
    out = np.zeros((directions.shape[0], cover.n_caps))
    out[rows, caps] = values
    return out


def cap_weights(cover: CapCover, directions: np.ndarray) -> np.ndarray:
    """Partition-of-unity cap weights at unit directions, shape (n_dirs, K)."""
    raw = cap_raw_weights(cover, directions)
    total = raw.sum(axis=1)
    if np.any(total <= 0.0):
        raise ValueError("cap cover does not cover some direction")
    return raw / total[:, None]


def difference_expansion(F: PowerSeriesNonlinearity, u1, u2) -> np.ndarray:
    """F(u1) - F(u2) via the integral-remainder closed form.

    Expands the line integral of the Jacobian along u2 + s (u1 - u2) into
    monomials in (u1 - u2) and u2 with weights c_p p_i E_{mn}/(|m|+1);
    algebraically identical to the direct difference.
    """
    u1 = np.asarray(u1, dtype=np.complex128)
    u2 = np.asarray(u2, dtype=np.complex128)
    diff = u1 - u2
    out = np.zeros(u1.shape, dtype=np.complex128)
    for p, c in F.terms.items():
        for i in range(1, F.d0 + 1):
            if p[i - 1] == 0:
                continue
            q = decrement_index(p, i)
            for (m, n), coeff in multinomial_split(q).items():
                mono = np.ones(u1.shape[:-1], dtype=np.complex128)
                for k in range(F.d0):
                    if m[k]:
                        mono = mono * diff[..., k] ** m[k]
                    if n[k]:
                        mono = mono * u2[..., k] ** n[k]
                w = p[i - 1] * coeff / (sum(m) + 1)
                out += (w * mono * diff[..., i - 1])[..., None] * c
    return out


def closed_form_duhamel_map(F: PowerSeriesNonlinearity, g: GammaSet, lattice: FrequencyLattice,
                            dt: float, psi0: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """U(t_k)[psi0 + i int_0^{t_k} U(-s) beta F(psi(s)) ds] at every frame of
    the iterate ``psi``: the integrand taken to the interaction picture by
    U(-t_k), a cumulative trapezoid, + psi0, and back by U(t_k), with the
    closed-form propagator tabulated at every frame time (mass 1)."""
    tables = _propagator_tables(g, lattice, dt * np.arange(psi.shape[0]), 1.0)
    w = apply_constant(1j * g.beta, evaluate_coefficients(F, psi, lattice))
    _free_propagate(w, *tables, -1)
    acc = np.zeros_like(w)
    acc[1:] = np.cumsum((w[1:] + w[:-1]) * (0.5 * dt), axis=0)
    acc += psi0
    return _free_propagate(acc, *tables, +1)


def lawson_rk4_frames(psi0: SpinorField, F: PowerSeriesNonlinearity, g: GammaSet,
                      dt: float, horizon: float) -> np.ndarray:
    """Frames of the Lawson RK4 scheme with each stage taken back to the step
    start: k = i U(-tau) beta F(U(tau) w) for tau = 0, dt/2, dt/2, dt, then
    psi <- U(dt)(psi + dt/6 (k1 + 2 k2 + 2 k3 + k4)), eight matrix applies
    per step from the tables U(dt/2), U(dt) and i U(-tau) beta."""
    lattice = psi0.lattice
    pp = projector_symbol(g, lattice.xi, +1)
    half, full = (p * pp + np.conj(p) * (np.eye(g.d0) - pp)
                  for p in (np.exp(-1j * tau * lattice.bracket)[..., None, None]
                            for tau in (0.5 * dt, dt)))
    back0, back_half, back_full = (1j * np.conj(np.swapaxes(u, -1, -2)) @ g.beta
                                   for u in (np.eye(g.d0), half, full))

    def stage(u, back, v):
        return apply_matrices(back, evaluate_coefficients(F, apply_matrices(u, v), lattice))

    frames = [psi0.coeffs]
    for _ in range(frame_count(dt, horizon) - 1):
        w = frames[-1]
        k1 = apply_matrices(back0, evaluate_coefficients(F, w, lattice))
        k2 = stage(half, back_half, w + 0.5 * dt * k1)
        k3 = stage(half, back_half, w + 0.5 * dt * k2)
        k4 = stage(full, back_full, w + dt * k3)
        frames.append(apply_matrices(full, w + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)))
    return np.stack(frames)


def rotated_to_grid(coeffs: np.ndarray, d: int, grid: int) -> np.ndarray:
    """``to_grid`` by the axis rotation: each box axis through
    ``_transform_axis`` between the d >= 2 loop's reshapes, at every d."""
    box = coeffs.shape[-d - 1 : -1]
    batch, d0 = coeffs.shape[: -d - 1], coeffs.shape[-1]
    b = math.prod(batch)
    values = coeffs
    for n in box:
        values = _transform_axis(values.reshape(b, n, -1), grid, None)
    return values.reshape(b, d0, -1).mT.reshape(batch + (grid,) * d + (d0,))


def rotated_from_grid(values: np.ndarray, d: int, radius: int) -> np.ndarray:
    """``from_grid`` by the axis rotation: each grid axis through
    ``_transform_axis`` between the d >= 2 loop's reshapes, at every d."""
    grid = values.shape[-2]
    batch, d0 = values.shape[: -d - 1], values.shape[-1]
    b = math.prod(batch)
    coeffs = values.reshape(b, -1, d0).mT
    for _ in range(d):
        coeffs = _transform_axis(coeffs.reshape(b, -1, grid), grid, radius)
    return coeffs.reshape(batch + (2 * radius + 1,) * d + (d0,))
