import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import block_norm, derivative_monomial, modulation_block, modulation_norm, plane_wave

from spintorus import norms as norms_mod
from spintorus.clifford import build_gamma
from spintorus.dyadic import (
    annulus_profile,
    covering_scale_range,
    modulation_distance,
    radial_scale_range,
    radial_symbol,
    window_length,
)
from spintorus.norms import (
    _modulation_densities,
    bernstein_ratios,
    besov_norm,
    frame_norms,
    measure_bernstein_constant,
    multi_indices,
    projector_bound_probe,
    sobolev_norm,
    solution_norm,
    standard_probe_set,
)
from spintorus.spectral import (
    FrequencyLattice,
    SpinorField,
    Trajectory,
    japanese_bracket,
    random_field,
    to_grid,
)


@pytest.fixture
def rng():
    return np.random.default_rng(5)


def _static_trajectory(f, m=9, dt=0.125):
    frames = np.repeat(f.coeffs[None], m, axis=0)
    return Trajectory(f.lattice, f.d0, dt * np.arange(m), frames)


def _free_wave_trajectory(lat, xi0, sign=+1, periods=6, m=48, d0=2, spinor=None):
    br = japanese_bracket(xi0)
    t_win = 2 * np.pi * periods / br
    dt = t_win / m
    times = dt * np.arange(m)
    if spinor is None:
        spinor = [1.0] + [0.0] * (d0 - 1)
    w = plane_wave(lat, d0, xi0, spinor).coeffs
    phase = np.exp(-1j * sign * br * times).reshape((-1,) + (1,) * (lat.d + 1))
    return Trajectory(lat, d0, times, phase * w[None])


# ---------------------------------------------------------------------------
# Sobolev and Besov


def test_sobolev_plane_wave():
    lat = FrequencyLattice(2, 5)
    pw = plane_wave(lat, 2, [3, 4], [1.0, 0.0])
    for s in (-1.0, 0.0, 0.7, 2.0):
        assert sobolev_norm(pw, s) == pytest.approx(math.sqrt(26) ** s, rel=1e-14)


def test_sobolev_zero_index_is_l2(rng):
    f = random_field(FrequencyLattice(1, 6), 2, rng)
    assert sobolev_norm(f, 0.0) == pytest.approx(f.l2_norm(), rel=1e-14)


def test_sobolev_pythagoras(rng):
    # additivity of the square over disjoint frequency supports
    lat = FrequencyLattice(1, 8)
    a = random_field(lat, 2, rng, annulus=(0.0, 3.0))
    b = random_field(lat, 2, rng, annulus=(4.0, 8.0))
    s = 0.8
    lhs = sobolev_norm(a + b, s) ** 2
    rhs = sobolev_norm(a, s) ** 2 + sobolev_norm(b, s) ** 2
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_besov_of_zero_field_is_zero():
    lat = FrequencyLattice(1, 4)
    assert besov_norm(SpinorField(lat, 2, np.zeros(lat.shape + (2,))), 1.0) == 0.0


def test_besov_agrees_with_l2_at_zero_index(rng):
    for d in (1, 2):
        f = random_field(FrequencyLattice(d, 6), 2, rng)
        assert abs(besov_norm(f, 0.0) - f.l2_norm()) <= 1e-12 * f.l2_norm()


def test_besov_sobolev_equivalence(rng):
    # measured equivalence constants; the spaces coincide, we bound the ratio
    for d in (1, 2, 3):
        lat = FrequencyLattice(d, 6 if d < 3 else 4)
        s = d / 2.0
        for _ in range(30):
            f = random_field(lat, 2, rng)
            ratio = besov_norm(f, s) / sobolev_norm(f, s)
            assert 0.25 <= ratio <= 4.0


def test_norms_at_radius_one_gain_only_a_zero_scale(rng):
    # at d = 1, N = 1 the scale range is 1, not 0; the scale j = 1 it adds has
    # an all-zero symbol on |xi| <= 1, so the Besov norm stays the low-pass
    # (L^2) part and the solution norm still has no nonzero piece
    lat = FrequencyLattice(1, 1)
    assert radial_scale_range(lat) == 1
    assert not np.any(radial_symbol(lat, 0)) and not np.any(radial_symbol(lat, 1))
    f = random_field(lat, 2, rng)
    for s in (0.0, 0.5, 3.0):
        assert besov_norm(f, s) == pytest.approx(f.l2_norm(), rel=1e-14)
    rep = solution_norm(_static_trajectory(f), 0.5, +1)
    assert rep.value == 0.0 and rep.breakdown == {}


def test_besov_single_annulus_weight():
    lat = FrequencyLattice(1, 16)
    s = 1.0
    j = 2
    pw = plane_wave(lat, 2, [2 ** (j + 1)], [1.0, 0.0])  # plateau of scale j
    val = besov_norm(pw, s)
    assert val == pytest.approx(2.0 ** (s * j) * pw.l2_norm(), rel=1e-12)
    spread = plane_wave(lat, 2, [5], [1.0, 0.0]) + plane_wave(lat, 2, [7], [0.0, 1.0])
    ratio = besov_norm(spread, s) / (2.0**(s * j) * spread.l2_norm())
    assert 1.0 / 3.0 <= ratio <= 3.0


def test_norm_axioms(rng):
    lat = FrequencyLattice(2, 5)
    for _ in range(10):
        f = random_field(lat, 2, rng)
        h = random_field(lat, 2, rng)
        c = rng.standard_normal() * 2.0
        for norm in (lambda u: sobolev_norm(u, 0.7), lambda u: besov_norm(u, 0.7)):
            assert norm(f * c) == pytest.approx(abs(c) * norm(f), rel=1e-10)
            assert norm(f + h) <= norm(f) + norm(h) + 1e-10


# ---------------------------------------------------------------------------
# frame L^2 norms


def _linalg_frame_norms(x):
    return np.linalg.norm(x.reshape(x.shape[0], -1), axis=1)


def test_frame_norms_match_per_frame_linalg_norm(rng):
    coeffs = rng.standard_normal((5, 7, 7, 2)) + 1j * rng.standard_normal((5, 7, 7, 2))
    grid_values = to_grid(coeffs, 2, 9)  # a component-major view
    assert not grid_values.flags.c_contiguous
    for x in (coeffs, grid_values, rng.standard_normal((4, 9, 3)), coeffs[:1]):
        got, want = frame_norms(x), _linalg_frame_norms(x)
        assert got.shape == (x.shape[0],)
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


# ---------------------------------------------------------------------------
# modulation norms


def test_modulation_norm_free_wave_budget():
    lat = FrequencyLattice(1, 4)
    tr = _free_wave_trajectory(lat, [3], sign=+1)
    # trapezoid L^2_t L^2_x energy over the frame grid
    energy = math.sqrt(np.trapezoid(_linalg_frame_norms(tr.frames) ** 2, tr.times))
    assert modulation_norm(tr, +1) <= 1e-6 * energy


def test_modulation_norm_sup_aggregation(rng):
    lat = FrequencyLattice(1, 3)
    tr = standard_probe_set(lat, 2, 1, 16, 0.17, seed=2)[0]
    jmin, jmax = covering_scale_range(modulation_distance(tr, +1))
    t_win = window_length(tr)
    vals = []
    for j in range(jmin, jmax + 1):
        q = modulation_block(tr, j, +1)
        # periodic-window L^2_t via the rectangle sum = DFT Parseval
        vals.append(
            2.0 ** (0.5 * j)
            * math.sqrt(tr.dt * float(np.sum(np.abs(q.frames) ** 2)))
        )
    assert modulation_norm(tr, +1) == pytest.approx(max(vals), rel=1e-10)


def _dense_modulation_densities(tr, sign):
    """Every scale of the covering range evaluated on the whole (tau, xi) grid."""
    m = tr.n_frames
    spec = np.sum(np.abs(np.fft.fft(tr.frames, axis=0)) ** 2, axis=-1).reshape(m, -1)
    spec *= window_length(tr) / m**2
    dist = modulation_distance(tr, sign).reshape(m, -1)
    jmin, jmax = covering_scale_range(dist)
    rows = [np.sum(annulus_profile(np.ldexp(dist, -i)) ** 2 * spec, axis=0)
            for i in range(jmin, jmax + 1)]
    return jmin, np.array(rows)


@settings(max_examples=30, deadline=None)
@given(
    d=st.sampled_from([1, 2]),
    radius=st.integers(1, 4),
    m=st.sampled_from([2, 3, 5, 8]),
    dt=st.sampled_from([None, 0.1, 0.37]),
    sign=st.sampled_from([+1, -1]),
    seed=st.integers(0, 10_000),
)
@example(d=2, radius=2, m=8, dt=None, sign=-1, seed=0)
def test_modulation_densities_match_dense_per_scale_formula(d, radius, m, dt, sign, seed):
    # dt = None is 2 pi / m: the frequencies tau are then exact integers, and
    # at xi = 0 the distances |tau +- 1| hit zero and exact powers of two
    lat = FrequencyLattice(d, radius)
    rng = np.random.default_rng(seed)
    shape = (m,) + lat.shape + (2,)
    frames = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    tr = Trajectory(lat, 2, (2 * np.pi / m if dt is None else dt) * np.arange(m), frames)
    if dt is None and m == 8:
        dist = modulation_distance(tr, sign)
        assert {0.0, 1.0, 2.0, 4.0} <= set(dist.ravel().tolist())
    jmin, rows = _modulation_densities(tr, sign)
    want_jmin, want = _dense_modulation_densities(tr, sign)
    assert jmin == want_jmin and rows.shape == want.shape
    np.testing.assert_allclose(rows, want, rtol=1e-13, atol=0.0)


def test_mixed_norm_axioms(rng):
    # the sup-in-time L^2 energy, L^inf_t L^2_x, is a norm
    lat = FrequencyLattice(1, 4)
    a, b = standard_probe_set(lat, 2, 2, 7, 0.2, seed=13)

    def energy(frames):
        return float(frame_norms(frames).max())

    na, nb = energy(a.frames), energy(b.frames)
    assert energy(a.frames + b.frames) <= na + nb + 1e-10
    assert energy(2.5 * a.frames) == pytest.approx(2.5 * na, rel=1e-10)


def test_modulation_norm_window_doubling_stability():
    # a pulse well inside the window is insensitive to enlarging the window
    lat = FrequencyLattice(1, 3)
    m, dt = 64, 0.1
    times = dt * np.arange(m)
    envelope = np.exp(-((times - 3.2) ** 2) / 0.3)
    w = plane_wave(lat, 2, [2], [1.0, 0.0]).coeffs
    br = japanese_bracket([2])
    frames = (envelope * np.exp(-1j * br * times))[:, None, None] * w[None]
    tr1 = Trajectory(lat, 2, times, frames)
    times2 = dt * np.arange(2 * m)
    envelope2 = np.exp(-((times2 - 3.2) ** 2) / 0.3)
    frames2 = (envelope2 * np.exp(-1j * br * times2))[:, None, None] * w[None]
    tr2 = Trajectory(lat, 2, times2, frames2)
    v1 = modulation_norm(tr1, +1)
    v2 = modulation_norm(tr2, +1)
    assert abs(v1 - v2) <= 0.1 * v1
    # doubling the window halves the modulation resolution of the grid
    from spintorus.dyadic import time_frequencies

    spacing1 = time_frequencies(tr1)[1]
    spacing2 = time_frequencies(tr2)[1]
    assert spacing2 == pytest.approx(spacing1 / 2.0, rel=1e-12)


# ---------------------------------------------------------------------------
# block and solution norms


def test_block_norm_zero_and_homogeneity(rng):
    lat = FrequencyLattice(2, 4)
    zero = Trajectory(lat, 2, np.arange(4) * 0.1,
                      np.zeros((4,) + lat.shape + (2,), complex))
    assert block_norm(zero, 1, +1).value == 0.0
    tr = standard_probe_set(lat, 2, 1, 8, 0.13, seed=4)[0]
    v1 = block_norm(tr, 1, +1).value
    tripled = Trajectory(tr.lattice, tr.d0, tr.times, 3.0 * tr.frames)
    v3 = block_norm(tripled, 1, +1).value
    assert v3 == pytest.approx(3.0 * v1, rel=1e-10)


def test_block_norm_free_wave_blocks():
    # matching-sign free wave: modulation block vanishes, energy carries it
    lat = FrequencyLattice(2, 6)
    tr = _free_wave_trajectory(lat, [2, 0], sign=+1, m=32)
    rep = block_norm(tr, 2, +1)
    assert rep.breakdown["modulation"] <= 1e-6 * rep.breakdown["energy"]
    assert rep.value == pytest.approx(rep.breakdown["energy"], rel=0.2)


def test_solution_norm_single_annulus_dominant():
    lat = FrequencyLattice(2, 8)
    tr = _free_wave_trajectory(lat, [4, 0], sign=+1, m=24)  # |xi| = 4 = 2^2
    rep = solution_norm(tr, 1.0, +1)
    dominant = max(rep.breakdown, key=rep.breakdown.get)
    others = sum(v for j, v in rep.breakdown.items() if j != dominant)
    assert rep.breakdown[dominant] > others
    assert rep.value == pytest.approx(sum(rep.breakdown.values()), rel=1e-14)


def test_solution_norm_monotone_in_sigma(rng):
    lat = FrequencyLattice(2, 6)
    f = random_field(lat, 2, rng, annulus=(2.0, 6.0))  # scales j >= 1 only
    tr = _static_trajectory(f, m=6, dt=0.15)
    v0 = solution_norm(tr, 0.5, +1).value
    v1 = solution_norm(tr, 1.5, +1).value
    assert v1 >= v0


def _per_piece_solution_norm(tr, sigma, sign):
    # the definition: block norm of each nonzero annulus piece P_j tr
    jmax = radial_scale_range(tr.lattice)
    breakdown = {}
    for j in range(0, jmax + 1):
        sym = radial_symbol(tr.lattice, j)[None, ..., None]
        piece = Trajectory(tr.lattice, tr.d0, tr.times, tr.frames * sym)
        if not np.any(np.abs(piece.frames) > 0.0):
            continue
        block = _linalg_frame_norms(piece.frames).max() + modulation_norm(piece, sign)
        breakdown[j] = 2.0 ** (sigma * j) * block
    return breakdown


@pytest.mark.parametrize("d, radius, m", [(1, 8, 12), (2, 5, 9), (3, 3, 7)])
def test_solution_norm_matches_per_piece_definition(d, radius, m):
    lat = FrequencyLattice(d, radius)
    tr = standard_probe_set(lat, 2, 1, m, 0.17, seed=20 + d)[0]
    for sign in (+1, -1):
        block = block_norm(tr, 1, sign)
        expect = _linalg_frame_norms(tr.frames).max() + modulation_norm(tr, sign)
        assert block.value == pytest.approx(expect, rel=1e-12)
        rep = solution_norm(tr, d / 2.0, sign)
        expect = _per_piece_solution_norm(tr, d / 2.0, sign)
        assert list(rep.breakdown) == list(expect)
        for j, v in expect.items():
            assert rep.breakdown[j] == pytest.approx(v, rel=1e-12)
        assert rep.value == pytest.approx(sum(expect.values()), rel=1e-12)


def test_solution_norm_skips_only_zero_pieces():
    # one mode at |xi| = 6 leaves all but two annuli empty; amplitudes whose
    # squares underflow still count as nonzero pieces
    lat = FrequencyLattice(2, 6)
    tr = _free_wave_trajectory(lat, [6, 0], sign=+1, m=8)
    keys = list(_per_piece_solution_norm(tr, 1.0, +1))
    assert keys == [1, 2]
    assert list(solution_norm(tr, 1.0, +1).breakdown) == keys
    tiny = Trajectory(lat, 2, tr.times, 1e-170 * tr.frames)
    assert list(solution_norm(tiny, 1.0, +1).breakdown) == keys


def test_solution_norm_runs_one_time_fft(monkeypatch):
    lat = FrequencyLattice(2, 6)
    tr = standard_probe_set(lat, 2, 1, 8, 0.13, seed=4)[0]
    calls = []
    transform = norms_mod.time_transform
    monkeypatch.setattr(norms_mod, "time_transform",
                        lambda frames: calls.append(1) or transform(frames))
    rep = solution_norm(tr, 1.0, +1)
    assert len(rep.breakdown) > 1
    assert len(calls) == 1


def test_solution_norm_memory_stays_pinned():
    # tracemalloc counts every numpy buffer.  Over the trajectory's bytes the
    # monitor peaks at its time transform (1) and that transform's density
    # (1 / (2 d0) = 0.125 at d0 = 4); the lattice tables are small.  An
    # np.abs temporary of the transform adds 0.5, a second trajectory 1.
    g = build_gamma(3)
    tr = standard_probe_set(FrequencyLattice(3, 4), g.d0, 1, 33, 1.0 / 32.0, seed=3)[0]
    solution_norm(tr, 1.5, +1)  # caches filled outside the measurement
    tracemalloc.start()
    try:
        solution_norm(tr, 1.5, +1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / tr.frames.nbytes <= 1.35


# ---------------------------------------------------------------------------
# Bernstein probes


def test_bernstein_plane_wave_values():
    lat = FrequencyLattice(2, 16)
    j = 2
    pw = plane_wave(lat, 1, [2 ** (j + 1), 0], [1.0])
    alphas = [(1, 0), (2, 0), (3, 0), (0, 0)]
    (ratios,) = bernstein_ratios(pw.coeffs[None], lat, j, alphas)
    for alpha, r, expected in zip(alphas, ratios, [2.0, 4.0, 8.0, 1.0]):
        assert r == pytest.approx(expected, rel=1e-12)
        assert r <= 4.0 ** sum(alpha)


def test_bernstein_rejects_delocalised():
    lat = FrequencyLattice(1, 8)
    pw = plane_wave(lat, 1, [1], [1.0])
    with pytest.raises(ValueError, match="not localised"):
        bernstein_ratios(pw.coeffs[None], lat, 2, [(1,)])
    # the same mode lies on the scale-0 annulus 1 <= |xi| <= 4
    assert bernstein_ratios(pw.coeffs[None], lat, 0, [(1,)])[0, 0] == 1.0
    with pytest.raises(ValueError, match="zero field"):
        bernstein_ratios(np.zeros((1, 17, 1)), lat, 0, [(1,)])


@pytest.mark.parametrize("d,radius,j", [(1, 16, 2), (2, 8, 1), (3, 4, 0)])
def test_bernstein_ratios_match_per_field_definition(rng, d, radius, j):
    lat = FrequencyLattice(d, radius)
    fields = [random_field(lat, 2, rng, annulus=(2.0**j, 2.0 ** (j + 2)))
              for _ in range(5)]
    alphas = [a for order in (1, 2, 3) for a in multi_indices(d, order)]
    ratios = bernstein_ratios(np.array([f.coeffs for f in fields]), lat, j, alphas)
    for f, row in zip(fields, ratios):
        for alpha, r in zip(alphas, row):
            expected = derivative_monomial(f, alpha).l2_norm() / (
                2.0 ** (sum(alpha) * j) * f.l2_norm())
            assert r == pytest.approx(expected, rel=1e-14, abs=0)


def test_bernstein_scan_stable_across_seeds():
    lat = FrequencyLattice(2, 8)
    a = measure_bernstein_constant(lat, max_order=3, n_random=60, seed=0)
    b = measure_bernstein_constant(lat, max_order=3, n_random=60, seed=123)
    assert a["violations"] == 0 and b["violations"] == 0
    assert abs(a["c_meas"] - b["c_meas"]) <= 0.05 * a["c_meas"]
    assert a["c_meas"] <= 4.0


def test_multi_indices_counts():
    assert len(list(multi_indices(2, 3))) == 4
    assert len(list(multi_indices(3, 2))) == 6


# ---------------------------------------------------------------------------
# projector boundedness probe


def test_probe_eigen_waves_identity():
    g = build_gamma(2)
    lat = FrequencyLattice(2, 4)
    from spintorus.spectral import projector_symbol

    trs = []
    for xi0 in ([1, 0], [2, -1], [0, 3]):
        v = projector_symbol(g, xi0, +1) @ np.array([1.0, 0.5 + 0.5j])
        trs.append(_free_wave_trajectory(lat, xi0, sign=+1, m=16, spinor=v))
    out = projector_bound_probe(g, trs, sign=+1)
    assert out["max_ratio"] <= 1.0 + 1e-10


def test_probe_scaling_invariance():
    g = build_gamma(2)
    lat = FrequencyLattice(2, 4)
    trs = standard_probe_set(lat, g.d0, 3, 10, 0.15, seed=9)
    r1 = projector_bound_probe(g, trs)["max_ratio"]
    scaled = [Trajectory(t.lattice, t.d0, t.times, 7.0 * t.frames) for t in trs]
    r2 = projector_bound_probe(g, scaled)["max_ratio"]
    assert r1 == pytest.approx(r2, rel=1e-12)


def test_bernstein_without_random_fields_draws_none(monkeypatch):
    calls = []
    draw = norms_mod.random_field
    monkeypatch.setattr(norms_mod, "random_field",
                        lambda *a, **k: calls.append(1) or draw(*a, **k))
    lat = FrequencyLattice(2, 8)
    bare = measure_bernstein_constant(lat, max_order=3, n_random=0, seed=0)
    assert calls == [] and bare["violations"] == 0
    full = measure_bernstein_constant(lat, max_order=3, n_random=60, seed=0)
    assert calls and bare["c_meas"] == full["c_meas"]
