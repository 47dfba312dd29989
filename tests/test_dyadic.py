import tracemalloc

import numpy as np
import pytest
from oracles import (
    cap_raw_weights,
    cap_weights,
    derivative_monomial,
    modulation_block,
    plane_wave,
)

from spintorus.dyadic import (
    CAP_BLOCK_ENTRIES,
    CAP_OVERLAP_BOUND,
    _circle_directions,
    _fibonacci_directions,
    annulus_profile,
    build_cap_cover,
    build_cube_cover,
    cap_partition_sum,
    cap_symbols,
    covering_scale_range,
    cube_partition_sum,
    cube_symbol,
    lowpass_profile,
    modulation_distance,
    normalized_bump_1d,
    radial_scale_range,
    radial_symbol,
    wide_radial_symbol,
)
from spintorus.spectral import (
    FrequencyLattice,
    SpinorField,
    Trajectory,
    japanese_bracket,
    random_field,
)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def _times(f: SpinorField, symbol: np.ndarray) -> SpinorField:
    """The field with every coefficient multiplied by a scalar symbol."""
    return SpinorField(f.lattice, f.d0, f.coeffs * symbol[..., None])


# ---------------------------------------------------------------------------
# profiles


def test_lowpass_profile_shape():
    s = np.linspace(-3, 3, 1201)
    v = lowpass_profile(s)
    assert np.all((0.0 <= v) & (v <= 1.0))
    assert np.all(v[np.abs(s) <= 1.0] == 1.0)
    assert np.all(v[np.abs(s) >= 2.0] == 0.0)


def test_annulus_profile_support_and_plateau():
    s = np.linspace(0, 6, 6001)
    v = annulus_profile(s)
    assert np.all(v[(s < 1.0) | (s > 4.0)] == 0.0)
    assert annulus_profile(2.0) == 1.0
    assert np.all(v <= 1.0)


def test_telescoping_at_random_radii(rng):
    s = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=1000))
    total = np.zeros_like(s)
    for j in range(-15, 16):
        total += annulus_profile(np.ldexp(s, -j))
    assert np.abs(total - 1.0).max() <= 1e-12


# ---------------------------------------------------------------------------
# radial blocks


def test_plateau_plane_wave_unchanged():
    lat = FrequencyLattice(1, 8)
    pw = plane_wave(lat, 2, [4], [1.0, 0.0])  # |xi| = 2^{j+1} with j = 1
    out = _times(pw, radial_symbol(lat, 1))
    assert np.abs(out.coeffs - pw.coeffs).max() == 0.0


def test_low_frequency_annihilated():
    lat = FrequencyLattice(1, 8)
    pw = plane_wave(lat, 2, [1], [1.0, 0.0])  # |xi| = 1 < 2^j for j = 1
    assert _times(pw, radial_symbol(lat, 1)).l2_norm() == 0.0


def test_block_sum_telescopes(rng):
    lat = FrequencyLattice(2, 8)
    f = random_field(lat, 2, rng, annulus=(1.0, 2.0**3))
    acc = np.zeros_like(f.coeffs)
    for j in range(-3, 4):
        acc += _times(f, radial_symbol(lat, j)).coeffs
    assert np.abs(acc - f.coeffs).max() <= 1e-12


def test_wide_block_absorbs_block(rng):
    # [PAPER-keyed identity]: the widened block at scale j+1 is the identity
    # on the range of the scale-j block
    lat = FrequencyLattice(2, 8)
    for _ in range(10):
        f = random_field(lat, 2, rng)
        for j in range(0, 4):
            pj = _times(f, radial_symbol(lat, j))
            out = _times(pj, wide_radial_symbol(lat, j + 1))
            assert np.abs(out.coeffs - pj.coeffs).max() <= 1e-12


@pytest.mark.parametrize("d, radius", [(1, 32), (2, 10), (3, 6)])
def test_wide_symbol_is_the_telescoped_three_bump_sum(d, radius):
    # exactly 1 on the support of the block it absorbs, within [0, 1], and
    # the sum of the annulus bumps of scales j-2, j-1, j with its zero set
    lat = FrequencyLattice(d, radius)
    r = np.sqrt(lat.xi_norm_sq)
    for j in range(-1, radial_scale_range(lat) + 1):
        wide = wide_radial_symbol(lat, j + 1)
        assert np.all(wide[radial_symbol(lat, j) > 0] == 1.0)
        assert np.all((0.0 <= wide) & (wide <= 1.0))
        bumps = sum(annulus_profile(np.ldexp(r, -i)) for i in (j - 1, j, j + 1))
        assert np.abs(wide - bumps).max() <= 1e-15
        assert np.array_equal(wide == 0.0, bumps == 0.0)


def test_wide_block_far_frequencies_zero():
    lat = FrequencyLattice(1, 32)
    j = 1
    pw = plane_wave(lat, 2, [2 ** (j + 4)], [1.0, 0.0])
    assert _times(pw, wide_radial_symbol(lat, j)).l2_norm() == 0.0


def test_disjoint_blocks_annihilate(rng):
    lat = FrequencyLattice(2, 8)
    f = random_field(lat, 2, rng)
    for j, jp in [(0, 3), (-1, 2), (1, 4)]:
        twice = _times(_times(f, radial_symbol(lat, j)), radial_symbol(lat, jp))
        assert twice.l2_norm() <= 1e-12 * max(f.l2_norm(), 1.0)


def test_blocks_are_l2_contractive_and_commute(rng):
    lat = FrequencyLattice(2, 6)
    f = random_field(lat, 2, rng)
    a = _times(_times(f, wide_radial_symbol(lat, 2)), radial_symbol(lat, 1))
    b = _times(_times(f, radial_symbol(lat, 1)), wide_radial_symbol(lat, 2))
    assert np.abs(a.coeffs - b.coeffs).max() <= 1e-14
    for j in range(-1, 4):
        assert _times(f, radial_symbol(lat, j)).l2_norm() <= f.l2_norm() * (1 + 1e-14)


def test_bernstein_type_bound_exact(rng):
    # |xi| <= 2^{j+2} on the block support makes the derivative bound exact
    lat = FrequencyLattice(2, 8)
    for _ in range(20):
        f = _times(random_field(lat, 1, rng), radial_symbol(lat, 1))
        if f.l2_norm() == 0.0:
            continue
        for alpha in [(1, 0), (0, 2), (1, 1), (2, 1)]:
            order = sum(alpha)
            dn = derivative_monomial(f, alpha).l2_norm()
            assert dn <= 2.0 ** ((1 + 2) * order) * f.l2_norm() * (1 + 1e-13)


# ---------------------------------------------------------------------------
# modulation blocks


def _free_wave_trajectory(lat, xi0, sign, periods=8, m=64):
    br = japanese_bracket(xi0)
    t_win = 2 * np.pi * periods / br
    dt = t_win / m
    w = plane_wave(lat, 2, xi0, [1.0, 0.0]).coeffs
    phase = np.exp(-1j * sign * br * dt * np.arange(m))
    return Trajectory(lat, 2, dt, phase[:, None, None] * w[None])


def test_free_wave_has_zero_matching_modulation():
    # e^{-i t <xi0>} e^{i x xi0} concentrates at tau + <xi0> = 0
    lat = FrequencyLattice(1, 4)
    tr = _free_wave_trajectory(lat, [3], +1)
    energy = np.linalg.norm(tr.frames)
    for j in (0, 1, 2, 3):
        out = modulation_block(tr, j, +1)
        assert np.linalg.norm(out.frames) <= 1e-6 * energy


def test_static_field_modulation_support():
    # constant in time: tau = 0, so only scales with 2^j <= <xi0> <= 2^{j+2}
    lat = FrequencyLattice(1, 8)
    xi0 = [5]
    br = japanese_bracket(xi0)
    m = 32
    w = plane_wave(lat, 2, xi0, [1.0, 0.0]).coeffs
    tr = Trajectory(lat, 2, 0.1, np.repeat(w[None], m, axis=0))
    for j in range(-2, 6):
        out_norm = np.linalg.norm(modulation_block(tr, j, +1).frames)
        expected_nonzero = 2.0**j <= br <= 2.0 ** (j + 2)
        if expected_nonzero:
            assert out_norm > 1e-8
        else:
            assert out_norm <= 1e-12


def test_modulation_telescoping_away_from_characteristic(rng):
    lat = FrequencyLattice(1, 4)
    m = 48
    frames = (
        rng.standard_normal((m,) + lat.shape + (2,))
        + 1j * rng.standard_normal((m,) + lat.shape + (2,))
    )
    tr = Trajectory(lat, 2, 0.07, frames)
    dist = modulation_distance(tr, +1)
    jmin, jmax = covering_scale_range(dist)
    acc = np.zeros_like(frames)
    for j in range(jmin, jmax + 1):
        acc += modulation_block(tr, j, +1).frames
    # compare against the input with the (near-)characteristic grid modes removed
    spec = np.fft.fft(frames, axis=0)
    spec[dist == 0.0] = 0.0
    clean = np.fft.ifft(spec, axis=0)
    assert np.abs(acc - clean).max() <= 1e-10 * np.abs(frames).max()


def test_covering_range_uses_exact_binary_exponents():
    # log2 rounds 2^20 (1 - 2^-53) up to 20, but its binary exponent is 19:
    # the range holds both scales 18 and 19 that the value can meet, and no
    # scale above them
    below = np.nextafter(2.0**20, 0.0)
    assert covering_scale_range(np.array([0.0, below])) == (18, 19)
    assert covering_scale_range(np.array([0.0, 0.0])) == (0, 0)


def test_modulation_needs_two_frames(rng):
    lat = FrequencyLattice(1, 2)
    tr = Trajectory(lat, 2, 0.1, np.zeros((1,) + lat.shape + (2,), complex))
    with pytest.raises(ValueError):
        modulation_block(tr, 0, +1)


# ---------------------------------------------------------------------------
# cap covers


def test_d1_cover_is_two_half_lines():
    cover = build_cap_cover(1, 5)
    assert cover.n_caps == 2
    lat = FrequencyLattice(1, 6)
    table = cap_symbols(cover, lat)
    tot = table.sum(axis=0)
    assert np.abs(tot[lat.xi_norm_sq > 0] - 1.0).max() == 0.0
    assert tot[6] == 0.0  # the zero mode is dropped


def test_d2_scale3_count_and_partition(rng):
    cover = build_cap_cover(2, 3)
    assert 2**3 <= cover.n_caps <= int(2 * np.pi * 2**3) + 2
    dirs = rng.standard_normal((256, 2))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    w = cap_weights(cover, dirs)
    assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-12


@pytest.mark.parametrize("d,l", [(2, 0), (2, 2), (3, 0), (3, 2)])
def test_cover_symmetric(d, l):
    cover = build_cap_cover(d, l)
    for c in cover.centers:
        assert np.min(np.linalg.norm(cover.centers + c, axis=1)) <= 1e-12


def test_cover_overlap_bound(rng):
    for d, l in [(2, 1), (3, 1), (3, 2)]:
        cover = build_cap_cover(d, l)
        dirs = rng.standard_normal((2000, d))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        counts = (cap_raw_weights(cover, dirs) > 0).sum(axis=1)
        assert counts.max() <= CAP_OVERLAP_BOUND


@pytest.mark.parametrize("d,sample", [(2, _circle_directions(4096)),
                                      (3, _fibonacci_directions(8192))])
def test_raw_weights_match_full_arccos_formula(d, sample):
    # the weights evaluate arccos only near each cap and block by block; the
    # values must not move, also on a sample whose length is not a multiple
    # of the block
    for l in (0, 1, 2):
        cover = build_cap_cover(d, l)
        rows = CAP_BLOCK_ENTRIES // cover.n_caps
        partial = sample[np.arange(2 * rows + 1) % len(sample)]
        for dirs in (sample, partial):
            x = np.arccos(np.clip(dirs @ cover.centers.T, -1.0, 1.0)) / cover.width
            expected = np.zeros_like(x)
            inside = x < 1.0
            expected[inside] = np.exp(-1.0 / (1.0 - x[inside] ** 2))
            assert np.array_equal(cap_raw_weights(cover, dirs), expected)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_cap_partition_sum_matches_symbol_sum(d):
    lat = FrequencyLattice(d, 6)
    for l in (0, 1, 2):
        cover = build_cap_cover(d, l)
        tot = cap_partition_sum(cover, lat)
        assert np.abs(tot - cap_symbols(cover, lat).sum(axis=0)).max() <= 1e-15
        assert tot[(6,) * d] == 0.0


def test_cap_cover_memory_is_bounded():
    # a dense (8192 directions x 642 caps) validation table would take 86 MiB
    tracemalloc.start()
    try:
        build_cap_cover(3, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


def test_cap_symbols_memory_is_bounded():
    # everything above the (K,) + lattice table itself; dense (points x K)
    # intermediates would take 23 MiB on this lattice
    cover = build_cap_cover(3, 2)
    lat = FrequencyLattice(3, 6)
    tracemalloc.start()
    try:
        table = cap_symbols(cover, lat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - table.nbytes <= 2 * 2**20


def test_caps_error_above_three_dimensions():
    with pytest.raises(ValueError):
        build_cap_cover(4, 1)


def test_cap_pieces_partition_field(rng):
    lat = FrequencyLattice(2, 5)
    cover = build_cap_cover(2, 1)
    f = random_field(lat, 2, rng)
    acc = np.zeros_like(f.coeffs)
    for sym in cap_symbols(cover, lat):
        acc += _times(f, sym).coeffs
    expected = f.coeffs.copy()
    expected[5, 5] = 0.0  # the zero frequency is dropped by every cap
    assert np.abs(acc - expected).max() <= 1e-12 * np.abs(f.coeffs).max()


def test_cap_piece_cone_support(rng):
    lat = FrequencyLattice(2, 6)
    cover = build_cap_cover(2, 2)
    f = plane_wave(lat, 2, [6, 0], [1.0, 0.0])
    table = cap_symbols(cover, lat)
    hits = [k for k in range(cover.n_caps) if _times(f, table[k]).l2_norm() > 0]
    # only caps whose support cone contains the +x direction survive
    for k in hits:
        angle = np.arccos(np.clip(cover.centers[k] @ np.array([1.0, 0.0]), -1, 1))
        assert angle < cover.width
    assert 1 <= len(hits) <= CAP_OVERLAP_BOUND


# ---------------------------------------------------------------------------
# cube covers


def test_bump_center_value_is_one():
    # neighbours vanish at integers, so the normalised bump is 1 there
    assert normalized_bump_1d(np.array([0.0]))[0] == 1.0
    cov = build_cube_cover(FrequencyLattice(2, 6), 1)
    n = np.array([2, -4])
    sym = cube_symbol(cov, n)
    assert sym[2 + 6, -4 + 6] == 1.0


def test_cube_partition_interior(rng):
    for d in (1, 2):
        lat = FrequencyLattice(d, 6)
        f = random_field(lat, 2, rng)
        # keep the field away from the boundary margin
        mask = np.all(np.abs(lat.xi) <= 4, axis=-1)
        f = SpinorField(lat, 2, f.coeffs * mask[..., None])
        for k in (0, 1):
            cov = build_cube_cover(lat, k)
            acc = np.zeros_like(f.coeffs)
            for n in cov.centers:
                acc += _times(f, cube_symbol(cov, n)).coeffs
            assert np.abs(acc - f.coeffs).max() <= 1e-12 * max(np.abs(f.coeffs).max(), 1)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("k", [0, 1])
def test_cube_partition_sum_matches_symbol_sum(d, k):
    lat = FrequencyLattice(d, 5)
    cov = build_cube_cover(lat, k)
    expected = sum(cube_symbol(cov, n) for n in cov.centers)
    np.testing.assert_allclose(cube_partition_sum(lat, k), expected, rtol=0, atol=1e-15)


def test_unit_cubes_are_disjoint_on_integers():
    # at scale 0 the 1-d bumps vanish at the neighbouring integers, so each
    # coefficient belongs to at most 2 cubes (here: exactly 1)
    lat = FrequencyLattice(1, 6)
    cov = build_cube_cover(lat, 0)
    for xi in range(-6, 7):
        hits = sum(1 for n in cov.centers if cube_symbol(cov, n)[xi + 6] > 0)
        assert hits <= 2
