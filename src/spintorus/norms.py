"""Function-space norms of spinor fields and trajectories: Sobolev and Besov
norms of one field, the per-frame L^2 norm kernel, the solution-space norm,
the measured derivative-vs-scale constant and the projector boundedness
probe.  The critical modulation seminorm and a single scale block by their
definitions are test references in ``tests/oracles.py``.

``frame_norms`` is the one place where a trajectory's per-frame L^2 norms
are computed; the sup-in-time energy, the Picard stopping test and the
equation residual all read it.  Its kernel, one float64 dot product per
piece with no complex temporary, also gives the per-point spinor densities
of the solution-space norm.  The modulation-based norms use the
periodic-window discrete time transform, ``spectral.time_transform``, so
their L^2_t pairing is the DFT Parseval sum; this is the desk-scale
surrogate for the whole-line transform and its leakage is part of the test
budgets.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .clifford import GammaSet
from .dyadic import (
    covering_scale_range,
    lowpass_profile,
    modulation_distance,
    radial_scale_range,
    radial_symbol,
    window_length,
)
from .spectral import (
    FrequencyLattice,
    SpinorField,
    Trajectory,
    apply_matrices,
    projector_symbol,
    random_field,
    time_transform,
)


@dataclass
class NormReport:
    """A norm value together with its per-scale breakdown.

    The invariant ``value == aggregate(breakdown)`` is maintained by the
    producers: solution-space norms aggregate by summation, block norms by
    summing the named blocks.
    """

    value: float
    breakdown: dict = dc_field(default_factory=dict)


# ---------------------------------------------------------------------------
# static-field norms


def sobolev_norm(f: SpinorField, s: float) -> float:
    """(sum_xi <xi>^{2s} |u^(xi)|^2)^(1/2)."""
    w = f.lattice.bracket ** (2.0 * s)
    return float(np.sqrt(np.sum(w[..., None] * np.abs(f.coeffs) ** 2)))


def besov_norm(f: SpinorField, s: float) -> float:
    """l^2-dyadic Besov norm, the Sobolev-equivalent case p = q = 2.

    The low-frequency block is the smooth low-pass lowpass_profile(|xi|)
    (counted once, weight 1 exactly on |xi| <= 1), the rest the weighted sum
    of annulus blocks over j >= 0.  The weight family is normalised so its
    squares sum to 1 pointwise, which makes the s = 0 norm agree with the
    L^2 norm exactly instead of merely up to the partition overlap factor.
    """
    lat = f.lattice
    r = np.sqrt(lat.xi_norm_sq)
    low = lowpass_profile(r)
    jmax = radial_scale_range(lat)
    syms = [radial_symbol(lat, j) for j in range(0, jmax + 1)]
    denom = low**2
    for sym in syms:
        denom = denom + sym**2
    denom = np.sqrt(denom)
    energy = np.sum(np.abs(f.coeffs) ** 2, axis=-1)
    total = float(np.sum((low / denom) ** 2 * energy))
    for j, sym in enumerate(syms):
        total += 4.0 ** (s * j) * float(np.sum((sym / denom) ** 2 * energy))
    return math.sqrt(total)


# ---------------------------------------------------------------------------
# frame L^2 norms


def _squared_rows(x: np.ndarray, rows: int) -> np.ndarray:
    """The squared l^2 norm of each of the ``rows`` equal C-order pieces of
    x, shape (rows,).

    Each is one dot product of the piece's float64 view with itself, with
    no complex temporary.  Other dtypes are cast to complex128 or float64
    first, and any other layout is copied to C order.
    """
    dtype = np.complex128 if np.iscomplexobj(x) else np.float64
    flat = np.ascontiguousarray(x, dtype=dtype).view(np.float64).reshape(rows, -1)
    return (flat[:, None, :] @ flat[:, :, None]).reshape(rows)


def frame_norms(frames: np.ndarray) -> np.ndarray:
    """The L^2 norm of each frame, frames[k] for k along the first axis."""
    return np.sqrt(_squared_rows(frames, frames.shape[0]))


# ---------------------------------------------------------------------------
# modulation norms


def _spinor_density(frames: np.ndarray) -> np.ndarray:
    """|frames|^2 summed over spinor components, shape (M, lattice size):
    one dot product per point, as in ``frame_norms``."""
    points = frames.size // frames.shape[-1]
    return _squared_rows(frames, points).reshape(frames.shape[0], -1)


def _modulation_densities(tr: Trajectory, sign: int) -> tuple[int, np.ndarray]:
    """Lattice densities of the modulation pieces, one row per scale.

    Row i - jmin is t_win sum_tau annulus(2^{-i} |tau +- <xi>|)^2 |tr~|^2
    (tr~ the windowed DFT over the frames, divided by M; summed over spinor
    components), so ||Q_i B tr||^2_{L^2_t L^2_x} is the row dotted with b^2
    for every diagonal multiplier B of symbol b: one time DFT serves all.
    The annulus is open, 1 < |s| < 4, so a distance 2^e <= s < 2^{e+1}
    meets only the scales e - 1 and e, and a zero distance meets none.  With
    s = 2^{-e} dist in [1, 2) the annulus is lowpass(s) at scale e - 1 and
    1 - lowpass(s) at scale e, so one profile evaluation serves both.
    """
    if tr.n_frames < 2:
        raise ValueError("modulation norms need at least 2 frames")
    m = tr.n_frames
    spec = _spinor_density(time_transform(tr.frames))
    spec *= window_length(tr) / m**2
    dist = modulation_distance(tr, sign).reshape(m, -1)
    jmin, jmax = covering_scale_range(dist)
    n = dist.shape[1]
    e = np.frexp(dist)[1] - 1
    spec[dist == 0.0] = 0.0  # it meets no scale, though lowpass(0) = 1
    low = lowpass_profile(np.ldexp(dist, -e))
    del dist

    def scale_rows(i: np.ndarray, weight: np.ndarray) -> np.ndarray:
        # each value's term at its own scale i, summed per (scale, point); a
        # zero distance weighs 0, so clipping its key into range adds nothing
        key = np.clip(i - jmin, 0, jmax - jmin) * n + np.arange(n)
        return np.bincount(key.ravel(), weights=weight.ravel(),
                           minlength=(jmax - jmin + 1) * n)

    rows = scale_rows(e - 1, low**2 * spec)
    np.subtract(1.0, low, out=low)
    low *= low
    low *= spec
    rows += scale_rows(e, low)
    return jmin, rows.reshape(-1, n)


# ---------------------------------------------------------------------------
# solution-space norms


def solution_norm(tr: Trajectory, sigma: float, sign: int) -> NormReport:
    """sum_{j>=0} 2^{sigma j} of the (j+1)-block norm of the annulus pieces
    P_j tr; scales whose piece is exactly zero (the symbol vanishes at every
    point where some frame is nonzero) are skipped.

    P_j and the modulation cutoffs are diagonal, so every block is a lattice
    sum of the trajectory's two densities weighted by radial_symbol(j)^2.
    """
    lat = tr.lattice
    jmax = radial_scale_range(lat)
    density = _spinor_density(tr.frames)
    live = density.max(axis=0) > 0.0
    if not live.all():  # a |psi|^2 that underflows still marks a nonzero piece
        live = np.any(tr.frames != 0.0, axis=(0, -1)).ravel()
    symbols = {j: radial_symbol(lat, j).ravel() for j in range(0, jmax + 1)}
    scales = [j for j, sym in symbols.items() if np.any(sym[live] > 0.0)]
    breakdown = {}
    if scales:
        weights = np.array([symbols[j] ** 2 for j in scales]).T
        # sup_t ||P_j tr||_{L^2} and sup_i 2^{i/2} ||Q_i P_j tr||_{L^2_t L^2_x}
        energy = np.sqrt((density @ weights).max(axis=0))
        del density
        jmin, rows = _modulation_densities(tr, sign)
        gain = 2.0 ** (0.5 * (jmin + np.arange(len(rows))))
        modu = (gain[:, None] * np.sqrt(rows @ weights)).max(axis=0)
        for j, e, q in zip(scales, energy, modu):
            breakdown[j] = 2.0 ** (sigma * j) * float(e + q)
    return NormReport(
        value=sum(breakdown.values(), 0.0),
        breakdown=breakdown,
    )


# ---------------------------------------------------------------------------
# the measured derivative-vs-scale constant


def multi_indices(d: int, order: int):
    """All multi-indices in d variables of the exact given order."""
    for combo in itertools.combinations_with_replacement(range(d), order):
        alpha = [0] * d
        for c in combo:
            alpha[c] += 1
        yield tuple(alpha)


def _annulus_table(lattice: FrequencyLattice, j: int, alphas) -> tuple[np.ndarray, np.ndarray]:
    """The flat lattice mask of the scale-j annulus 2^j <= |xi| <= 2^{j+2}
    and the table of |xi^alpha|^2 over it, shape (len(alphas), points)."""
    r = np.sqrt(lattice.xi_norm_sq).ravel()
    on = (r >= 2.0**j) & (r <= 2.0 ** (j + 2))
    xi_sq = lattice.xi.reshape(-1, lattice.d)[on] ** 2
    axes = np.arange(lattice.d)
    table = np.array([np.prod(xi_sq[:, np.repeat(axes, alpha)], axis=1)
                      for alpha in alphas])
    return on, table


def bernstein_ratios(coeffs: np.ndarray, lattice: FrequencyLattice, j: int,
                     alphas) -> np.ndarray:
    """||D^alpha f|| / (2^{|alpha| j} ||f||) for a batch of annulus-localised
    fields, shape (n_fields, len(alphas)).

    ``coeffs`` has shape (n_fields,) + lattice.shape + (d0,).  Bounded by
    4^{|alpha|} exactly on the truncated lattice because the annulus caps
    |xi| at 2^{j+2}.  The table of |xi^alpha|^2 over the annulus is built
    once and serves every field.  Zero fields and fields with energy off the
    annulus are rejected.
    """
    on, table = _annulus_table(lattice, j, alphas)
    density = _spinor_density(coeffs)
    total = density.sum(axis=1)
    if np.any(total == 0.0):
        raise ValueError("zero field")
    if np.any(np.sqrt(density[:, ~on].sum(axis=1) / total) > 1e-10):
        raise ValueError("field is not localised to the scale-j annulus")
    orders = np.array([sum(alpha) for alpha in alphas])
    return np.sqrt(density[:, on] @ table.T / total[:, None]) / 2.0 ** (orders * j)


def measure_bernstein_constant(
    lattice: FrequencyLattice,
    max_order: int = 3,
    n_random: int = 1000,
    seed: int = 0,
) -> dict:
    """Measured constant of the derivative-vs-scale inequality.

    The supremum of the ratio over localised fields is attained at single
    lattice modes, so the reported constant combines a deterministic scan of
    the annulus lattice points (seed-independent) with a randomised check
    that no sampled field violates the hard 4^{|alpha|} bound.  The scales
    are 0 <= j < jmax of ``radial_scale_range``.  The scan reads the largest
    entries of the |xi^alpha|^2 annulus table that ``bernstein_ratios`` uses.
    """
    jmax = radial_scale_range(lattice)
    rng = np.random.default_rng(seed)
    alphas = [alpha for order in range(1, max_order + 1)
              for alpha in multi_indices(lattice.d, order)]
    orders = [sum(alpha) for alpha in alphas]
    bound = 4.0 ** np.array(orders)
    # n_random = 0 draws nothing: only the deterministic c_meas is wanted
    per_scale = max(1, n_random // max(1, jmax)) if n_random > 0 else 0
    c_det, violations = 0.0, 0
    for j in range(jmax):
        on, table = _annulus_table(lattice, j, alphas)
        if not np.any(on):
            continue
        peaks = np.sqrt(table.max(axis=1)).tolist()  # max |xi^alpha| on the annulus
        for peak, order in zip(peaks, orders):
            c_det = max(c_det, (peak / 2.0 ** (order * j)) ** (1.0 / (order + 1)))
        lo, hi = 2.0**j, 2.0 ** (j + 2)
        # drawn one by one, so the rng stream does not depend on the batching
        fields = [random_field(lattice, 1, rng, annulus=(lo, hi)).coeffs
                  for _ in range(per_scale)]
        fields = [c for c in fields if np.any(c)]
        if fields:
            ratios = bernstein_ratios(np.array(fields), lattice, j, alphas)
            violations += int(np.count_nonzero(ratios > bound * (1.0 + 1e-12)))
    return {"c_meas": float(c_det), "violations": int(violations)}


# ---------------------------------------------------------------------------
# projector boundedness probe


def standard_probe_set(
    lattice: FrequencyLattice,
    d0: int,
    n_trajectories: int,
    n_frames: int,
    dt: float,
    seed: int = 0,
) -> list[Trajectory]:
    """Deterministic seeded test set mixing both free-wave branches plus
    static noise, with smooth frequency decay."""
    rng = np.random.default_rng(seed)
    times = dt * np.arange(n_frames)
    decay = lattice.bracket ** (-(lattice.d + 1.0))
    out = []
    for _ in range(n_trajectories):
        a = random_field(lattice, d0, rng).coeffs * decay[..., None]
        b = random_field(lattice, d0, rng).coeffs * decay[..., None]
        c = 0.3 * random_field(lattice, d0, rng).coeffs * decay[..., None]
        ph = np.exp(-1j * times[:, None] * lattice.bracket.ravel()[None, :])
        ph = ph.reshape((n_frames,) + lattice.shape)[..., None]
        frames = ph * a[None] + np.conj(ph) * b[None] + c[None]
        out.append(Trajectory(lattice, d0, times, frames))
    return out


def projector_bound_probe(
    g: GammaSet,
    trajectories: list[Trajectory],
    sigma: float | None = None,
    sign: int = +1,
) -> dict:
    """Measured operator bound of the half-wave projector in the solution norm."""
    if sigma is None:
        sigma = g.d / 2.0
    worst = 0.0
    ratios = []
    projectors = {lat: projector_symbol(g, lat.xi, sign)
                  for lat in {tr.lattice for tr in trajectories}}
    for tr in trajectories:
        denom = solution_norm(tr, sigma, sign).value
        if denom <= 0.0:
            continue
        frames = apply_matrices(projectors[tr.lattice], tr.frames)
        proj = Trajectory(tr.lattice, tr.d0, tr.times, frames)
        num = solution_norm(proj, sigma, sign).value
        ratios.append(num / denom)
        worst = max(worst, num / denom)
    return {"max_ratio": float(worst), "ratios": ratios, "sigma": sigma, "sign": sign}
