import ast
import math
import pathlib
import re

import numpy as np
import pytest

import spintorus
from oracles import derivative_monomial, plane_wave, rotated_from_grid, rotated_to_grid
from spintorus import spectral
from spintorus.clifford import build_gamma
from spintorus.spectral import (
    FrequencyLattice,
    SpinorField,
    Trajectory,
    apply_constant,
    apply_matrices,
    from_grid,
    japanese_bracket,
    project_dirac,
    projector_symbol,
    random_field,
    to_grid,
)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def test_japanese_bracket_values():
    assert japanese_bracket([0]) == 1.0
    assert japanese_bracket([3, 4]) == pytest.approx(math.sqrt(26), abs=0)
    assert japanese_bracket([1, 2, 2]) == pytest.approx(math.sqrt(10), abs=0)


def test_forward_plane_wave_and_constant():
    grid = 16
    x = 2 * np.pi * np.arange(grid) / grid
    xx, yy = np.meshgrid(x, x, indexing="ij")
    samples = np.zeros((grid, grid, 2), dtype=complex)
    samples[..., 0] = np.exp(1j * (3 * xx - 2 * yy))
    f = from_grid(samples, 2, 4)
    assert np.allclose(f[7, 2], [1.0, 0.0], atol=1e-14)
    total = np.abs(f).sum()
    assert total == pytest.approx(1.0, abs=1e-13)

    const = np.full((9, 9, 2), 2.5 - 1j)
    g = from_grid(const, 2, 4)
    assert np.allclose(g[4, 4], 2.5 - 1j)
    assert np.abs(g).sum() == pytest.approx(abs(2.5 - 1j) * 2, abs=1e-12)


def test_roundtrip_band_limited(rng):
    lat = FrequencyLattice(2, 5)
    f = random_field(lat, 4, rng)
    for grid in (11, 16, 23):
        back = from_grid(to_grid(f.coeffs, 2, grid), 2, 5)
        assert np.abs(back - f.coeffs).max() <= 1e-12


def test_inverse_indicator_and_zero():
    lat = FrequencyLattice(1, 4)
    f = plane_wave(lat, 2, [3], [1.0, -1j])
    grid = 32
    u = to_grid(f.coeffs, 1, grid)
    x = 2 * np.pi * np.arange(grid) / grid
    assert np.abs(u[..., 0] - np.exp(1j * 3 * x)).max() <= 1e-13
    assert np.abs(u[..., 1] + 1j * np.exp(1j * 3 * x)).max() <= 1e-13
    z = to_grid(np.zeros(lat.shape + (2,), dtype=complex), 1, 16)
    assert np.abs(z).max() == 0.0


@pytest.mark.parametrize("box_shape", [(4,), (5,), (3, 4), (4, 5, 2)])
def test_to_grid_places_boxes_at_centred_offsets(rng, box_shape):
    # index i of a box axis of length n sits at frequency i - n//2, for even
    # and odd n: the explicit placement the cube-sector norms were built on
    d, grid = len(box_shape), 9
    box = rng.standard_normal((3,) + box_shape + (2,)) + 0j
    spec = np.zeros((3,) + (grid,) * d + (2,), dtype=np.complex128)
    index = np.ix_(*[(np.arange(n) - n // 2) % grid for n in box_shape])
    spec[(slice(None),) + index] = box
    ref = np.fft.ifftn(spec, axes=tuple(range(1, d + 1))) * float(grid) ** d
    out = to_grid(box, d, grid)
    assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


def test_to_grid_rejects_box_wider_than_grid():
    with pytest.raises(ValueError, match="alias"):
        to_grid(np.zeros((2, 7, 1), dtype=complex), 1, 6)
    with pytest.raises(ValueError, match="alias"):
        to_grid(np.zeros((5, 7, 5, 2), dtype=complex), 3, 6)
    with pytest.raises(ValueError, match="alias"):
        from_grid(np.zeros((2, 6, 6, 1), dtype=complex), 2, 3)


def _dense_dft(box_shape, grid):
    """exp(i x.xi) for every grid point x (rows) and box frequency xi
    (columns), with xi_i = i - n//2 on a box axis of length n."""
    axis = 2 * np.pi * np.arange(grid) / grid
    x = np.stack(np.meshgrid(*[axis] * len(box_shape), indexing="ij"),
                 axis=-1).reshape(-1, len(box_shape))
    xi = np.stack(np.meshgrid(*[np.arange(n) - n // 2 for n in box_shape],
                              indexing="ij"), axis=-1).reshape(-1, len(box_shape))
    return np.exp(1j * (x @ xi.T))


LONG = spectral.DENSE_MAX_GRID + 1  # the shortest axis that goes through the FFT

# (batch, box, grid): d = 1, 2, 3; odd and even box lengths, boxes shorter
# than the grid and uneven boxes; 0, 1 and 2 batch axes; grid equal to the
# box and larger than it; axes on both sides of DENSE_MAX_GRID at d = 1, 2
TRANSFORM_CASES = [
    ((), (7,), 7),
    ((3,), (9,), 20),
    ((2, 2), (6,), 11),
    ((), (5, 5), 5),
    ((2,), (3, 5), 8),
    ((2, 3), (5, 5, 5), 5),
    ((3,), (3, 5, 3), 7),
    ((), (4, 5, 3), 9),
    ((2,), (33,), LONG - 1),
    ((2,), (33,), LONG),
    ((), (40,), LONG + 4),
    ((), (3, 4), LONG - 1),
    ((), (5, 2), LONG + 1),
    ((4,), (13,), 19),
    ((4,), (7, 7), 10),
    ((4,), (5, 5, 5), 7),
]


@pytest.mark.parametrize("batch, box, grid", TRANSFORM_CASES)
def test_to_grid_matches_dense_dft(rng, batch, box, grid):
    d, d0 = len(box), 2
    coeffs = rng.standard_normal(batch + box + (d0,)) + 1j * rng.standard_normal(batch + box + (d0,))
    flat = coeffs.reshape(batch + (-1, d0))
    ref = (_dense_dft(box, grid) @ flat).reshape(batch + (grid,) * d + (d0,))
    out = to_grid(coeffs, d, grid)
    assert out.shape == ref.shape
    assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


FROM_GRID_CASES = [
    ((), 1, 3, 7),
    ((3,), 1, 4, 20),
    ((2, 2), 2, 2, 5),
    ((2,), 2, 2, 9),
    ((2, 3), 3, 2, 5),
    ((), 3, 1, 8),
    ((2,), 3, 2, 6),
    ((2,), 1, 16, LONG - 1),
    ((3,), 1, 16, LONG),
    ((), 1, 20, LONG + 3),
    ((), 2, 1, LONG - 1),
    ((), 2, 2, LONG),
    ((4,), 1, 6, 19),
    ((4,), 2, 3, 10),
    ((4,), 3, 2, 7),
]


@pytest.mark.parametrize("batch, d, radius, grid", FROM_GRID_CASES)
def test_from_grid_matches_dense_dft(rng, batch, d, radius, grid):
    d0, box = 2, (2 * radius + 1,) * d
    values = rng.standard_normal(batch + (grid,) * d + (d0,)) + 0.5j
    flat = values.reshape(batch + (-1, d0))
    ref = (_dense_dft(box, grid).conj().T @ flat) / grid**d
    out = from_grid(values, d, radius)
    assert out.shape == batch + box + (d0,)
    ref = ref.reshape(out.shape)
    assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()
    # band-limited values come back exactly: the round trip
    coeffs = rng.standard_normal(out.shape) + 1j * rng.standard_normal(out.shape)
    back = from_grid(to_grid(coeffs, d, grid), d, radius)
    assert np.abs(back - coeffs).max() <= 1e-13 * np.abs(coeffs).max()


@pytest.mark.parametrize("batch, box, grid", TRANSFORM_CASES)
def test_fft_branch_to_grid_matches_dense_dft(rng, monkeypatch, batch, box, grid):
    # every axis through the FFT, however short
    monkeypatch.setattr(spectral, "DENSE_MAX_GRID", 0)
    test_to_grid_matches_dense_dft(rng, batch, box, grid)


@pytest.mark.parametrize("batch, d, radius, grid", FROM_GRID_CASES)
def test_fft_branch_from_grid_matches_dense_dft(rng, monkeypatch, batch, d, radius, grid):
    monkeypatch.setattr(spectral, "DENSE_MAX_GRID", 0)
    test_from_grid_matches_dense_dft(rng, batch, d, radius, grid)


@pytest.mark.parametrize("d, radius, batch", [(3, 8, 5), (1, 16, 257), (2, 10, 7),
                                              (1, 32, 257), (1, 80, 9)])
def test_batched_transforms_are_bit_identical_per_frame(rng, d, radius, batch):
    # the padded grid of the cubic, so that the frames of a trajectory come
    # out the same however the nonlinearity chunks them (criterion 11);
    # radius 80 puts the grid above DENSE_MAX_GRID
    grid = 4 * radius + 1
    shape = (batch,) + (2 * radius + 1,) * d + (2,)
    frames = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    values = to_grid(frames, d, grid)
    coeffs = from_grid(values, d, radius)
    for k in range(batch):
        assert np.array_equal(values[k], to_grid(frames[k], d, grid))
        assert np.array_equal(coeffs[k], from_grid(values[k], d, radius))


@pytest.mark.parametrize("batch, box, grid", TRANSFORM_CASES)
def test_padded_grid_is_component_major(rng, batch, box, grid):
    # to_grid returns a view of (batch, d0, grid, ..., grid) memory with the
    # spinor axis last; from_grid gives the same numbers for that view and
    # for its C-contiguous copy
    d, d0, nb = len(box), 2, len(batch)
    coeffs = rng.standard_normal(batch + box + (d0,)) + 1j * rng.standard_normal(batch + box + (d0,))
    values = to_grid(coeffs, d, grid)
    assert values.shape == batch + (grid,) * d + (d0,)
    assert values.base is not None
    assert values.transpose(tuple(range(nb)) + (nb + d,) + tuple(range(nb, nb + d))).flags.c_contiguous
    radius = (min(box) - 1) // 2
    coeffs = from_grid(values, d, radius)
    assert coeffs.flags.c_contiguous
    assert np.array_equal(coeffs, from_grid(np.ascontiguousarray(values), d, radius))


@pytest.mark.parametrize("batch, radius, grid", [
    ((), 16, 65), ((257,), 16, 65), ((257,), 32, 129), ((2, 3), 4, 17),
    ((), 64, spectral.DENSE_MAX_GRID), ((3,), 64, spectral.DENSE_MAX_GRID)])
def test_one_axis_transforms_are_the_rotation_step(rng, batch, radius, grid):
    # at d = 1 the dense transforms skip the rotation's reshapes but make its
    # products on the same operands, so every number is the same
    shape = batch + (2 * radius + 1, 2)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    values = to_grid(coeffs, 1, grid)
    assert np.array_equal(values, rotated_to_grid(coeffs, 1, grid))
    for grid_values in (values, np.ascontiguousarray(values)):
        assert np.array_equal(from_grid(grid_values, 1, radius),
                              rotated_from_grid(grid_values, 1, radius))


@pytest.mark.parametrize("d, radius, dense, steps", [
    (1, 16, True, 0), (3, 4, True, 3), (1, 16, False, 1)])
def test_transform_axis_steps_per_transform(rng, monkeypatch, d, radius, dense, steps):
    # a dense single axis needs no rotation step, each axis of a d = 3 frame
    # one; with DENSE_MAX_GRID below the grid a single axis is one FFT step
    grid = 4 * radius + 1
    if not dense:
        monkeypatch.setattr(spectral, "DENSE_MAX_GRID", grid - 1)
    calls = []
    transform_axis = spectral._transform_axis
    monkeypatch.setattr(spectral, "_transform_axis",
                        lambda *args: calls.append(args[1]) or transform_axis(*args))
    shape = (2 * radius + 1,) * d + (2,)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    values = to_grid(coeffs, d, grid)
    assert calls == [grid] * steps
    calls.clear()
    back = from_grid(values, d, radius)
    assert calls == [grid] * steps
    assert np.abs(back - coeffs).max() <= 1e-13 * np.abs(coeffs).max()


def test_transform_matrices_are_cached_and_read_only():
    for build, args in ((spectral._synthesis_matrix, (5, 12)),
                        (spectral._analysis_matrix, (12, 2)),
                        (spectral._dft_matrix, (9,))):
        mat = build(*args)
        assert build(*args) is mat
        assert not mat.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            mat[0, 0] = 0.0


@pytest.mark.parametrize("shape, dense", [
    ((33, 9, 9, 4), True),     # wide frames: 324 values per frame
    ((257, 9, 9, 4), True),    # the longest dense axis
    ((257, 65, 2), False),     # the desk monitor: the matrix would outgrow 130 values
    ((258, 9, 9, 4), False),   # above DENSE_MAX_GRID
])
def test_time_transform_rule(rng, shape, dense):
    m = shape[0]
    frames = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    by_matrix = (spectral._dft_matrix(m) @ frames.reshape(m, -1)).reshape(shape)
    by_fft = np.fft.fft(frames, axis=0)
    assert np.abs(by_matrix - by_fft).max() <= 1e-13 * np.abs(by_fft).max()
    assert np.array_equal(spectral.time_transform(frames), by_matrix if dense else by_fft)


@pytest.mark.parametrize("mats_shape, x_shape", [
    ((17, 17, 17, 4, 4), (33, 17, 17, 17, 4)),  # Picard: Pi_+ on every frame
    ((33, 2, 2), (33, 2)),                        # RK4: U(tau) per xi, d = 1
    ((2, 2), (33, 2)),                            # RK4: one constant matrix
])
def test_apply_matrices_matches_einsum(rng, mats_shape, x_shape):
    mats = rng.standard_normal(mats_shape) + 1j * rng.standard_normal(mats_shape)
    x = rng.standard_normal(x_shape) + 1j * rng.standard_normal(x_shape)
    ref = np.einsum("...ab,...b->...a", mats, x)
    out = apply_matrices(mats, x)
    assert out.shape == ref.shape
    assert np.abs(out - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_apply_constant_is_bit_identical_to_nd_product(rng, d):
    # every gamma row has one +-1 or +-i entry, so the one 2-D product gives
    # the N-D form's numbers bit for bit, on C-contiguous coefficients and on
    # the component-major grid values of to_grid alike
    g = build_gamma(d)
    shape = (3,) + (5,) * d + (g.d0,)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    grid_values = to_grid(coeffs, d, 11)[1]
    for x in (coeffs, grid_values):
        for mat in list(g.gamma) + list(g.alpha) + [g.beta]:
            out = apply_constant(mat, x)
            assert np.array_equal(out, x @ mat.T)
            assert out.strides == x.strides


def test_numpy_ffts_only_in_spectral():
    # every transform, spatial or along the frames, is chosen in one module;
    # fftfreq is a frequency table, not a transform
    src = pathlib.Path(spintorus.__file__).parent
    offenders = [
        f"{path.name}: {line.strip()}"
        for path in sorted(src.glob("*.py")) if path.name != "spectral.py"
        for line in path.read_text().splitlines()
        if re.search(r"\bi?r?fft[2n]?\(", line)
    ]
    assert offenders == []


def test_no_einsum_in_package():
    # per-frequency matrices apply through apply_matrices, constant ones
    # through apply_constant: one form, one kernel
    src = pathlib.Path(spintorus.__file__).parent
    offenders = [
        f"{path.name}: {line.strip()}"
        for path in sorted(src.glob("*.py"))
        for line in path.read_text().splitlines()
        if "einsum" in line
    ]
    assert offenders == []


def _is_per_frame_linalg_norm(node) -> bool:
    """np.linalg.norm(<...>.reshape(...), axis=1), on one line or several."""
    return (isinstance(node, ast.Call)
            and ast.unparse(node.func) == "np.linalg.norm"
            and any(".reshape(" in ast.unparse(arg) for arg in node.args)
            and any(k.arg == "axis" and ast.unparse(k.value) == "1" for k in node.keywords))


def test_no_per_frame_linalg_norm_in_package():
    # per-frame L^2 norms come from norms.frame_norms: one kernel, one module
    src = pathlib.Path(spintorus.__file__).parent
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if _is_per_frame_linalg_norm(node)
    ]
    assert offenders == []


def test_plancherel_quadrature(rng):
    # (2 pi)^{-d} int |u|^2 dx  ==  sum_xi |u^(xi)|^2, quadrature on the grid
    lat = FrequencyLattice(2, 4)
    f = random_field(lat, 2, rng)
    u = to_grid(f.coeffs, 2, 17)
    quad = float(np.mean(np.linalg.norm(u, axis=-1) ** 2))
    assert abs(quad - f.l2_norm() ** 2) <= 1e-10 * max(1.0, f.l2_norm() ** 2)


def test_projector_symbol_values():
    g = build_gamma(3)
    eye = np.eye(4)
    # xi = 0: (I +- gamma^0)/2
    assert np.allclose(projector_symbol(g, [0, 0, 0], +1), 0.5 * (eye + g.gamma[0]))
    assert np.allclose(projector_symbol(g, [0, 0, 0], -1), 0.5 * (eye - g.gamma[0]))
    xi = [5, -2, 7]
    pp, pm = projector_symbol(g, xi, +1), projector_symbol(g, xi, -1)
    assert np.abs(pp + pm - eye).max() == 0.0
    assert np.abs(pp @ pp - pp).max() <= 1e-12
    assert np.abs(pp @ pm).max() <= 1e-12


def test_project_field_identities(rng):
    g = build_gamma(2)
    lat = FrequencyLattice(2, 5)
    f = random_field(lat, g.d0, rng)
    fp = project_dirac(g, f, +1)
    fm = project_dirac(g, f, -1)
    assert (project_dirac(g, fp, +1) - fp).l2_norm() <= 1e-12 * f.l2_norm()
    assert (fp + fm - f).l2_norm() <= 1e-12 * f.l2_norm()


def test_project_eigen_plane_wave(rng):
    # a spinor already in the range of the symbol is kept by + and killed by -
    g = build_gamma(3)
    lat = FrequencyLattice(3, 4)
    xi = [2, -3, 1]
    v = projector_symbol(g, xi, +1) @ (rng.standard_normal(4) + 1j * rng.standard_normal(4))
    assert np.linalg.norm(v) > 1e-3
    f = plane_wave(lat, 4, xi, v)
    kept = project_dirac(g, f, +1)
    killed = project_dirac(g, f, -1)
    assert (kept - f).l2_norm() <= 1e-12 * f.l2_norm()
    assert killed.l2_norm() <= 1e-12 * f.l2_norm()


def test_projector_commutes_with_scalar_multiplier(rng):
    g = build_gamma(2)
    lat = FrequencyLattice(2, 4)
    f = random_field(lat, g.d0, rng)
    m = rng.standard_normal(lat.shape)[..., None]
    a = project_dirac(g, SpinorField(lat, g.d0, m * f.coeffs), +1)
    b = m * project_dirac(g, f, +1).coeffs
    assert np.linalg.norm(a.coeffs - b) <= 1e-12 * f.l2_norm()


def test_partial_derivative_plane_wave_and_constant():
    lat = FrequencyLattice(2, 4)
    pw = plane_wave(lat, 2, [3, -1], [1.0, 0.0])
    out = derivative_monomial(pw, (1, 0))
    assert np.allclose(out.coeffs[7, 3], [3.0, 0.0])
    out2 = derivative_monomial(pw, (0, 1))
    assert np.allclose(out2.coeffs[7, 3], [-1.0, 0.0])
    const = plane_wave(lat, 2, [0, 0], [1.0, 1.0])
    assert derivative_monomial(const, (1, 0)).l2_norm() == 0.0
    with pytest.raises(ValueError):
        derivative_monomial(pw, (0, 0, 1))  # a third axis on a 2-d lattice


def test_partial_derivative_against_finite_differences(rng):
    # central differences on the spatial grid converge at O(h^2) to i xi_j u
    lat = FrequencyLattice(1, 3)
    f = random_field(lat, 1, rng)
    errs = []
    for grid in (32, 64):
        u = to_grid(f.coeffs, 1, grid)
        h = 2 * np.pi / grid
        fd = (np.roll(u, -1, axis=0) - np.roll(u, 1, axis=0)) / (2 * h)
        spectral = to_grid(derivative_monomial(f, (1,)).coeffs, 1, grid) * 1j  # d/dx = i D
        errs.append(np.abs(fd - spectral).max())
    assert errs[1] <= errs[0] / 3.5  # order ~2


def test_trajectory_validation(rng):
    lat = FrequencyLattice(1, 3)
    frames = rng.standard_normal((4,) + lat.shape + (2,)).astype(complex)
    tr = Trajectory(lat, 2, np.array([0.0, 0.1, 0.2, 0.3]), frames)
    assert tr.dt == pytest.approx(0.1)
    with pytest.raises(ValueError, match="uniform"):
        Trajectory(lat, 2, np.array([0.0, 0.1, 0.35, 0.4]), frames)
    # near t = 1,000 the steps of 0.05 * k differ by about 2e-13, more than
    # 1e-12 of the step; a time moved by 1e-9 is no rounding
    times = 0.05 * np.arange(20_481)
    frames = np.zeros((times.size,) + lat.shape + (2,), complex)
    assert Trajectory(lat, 2, times, frames).n_frames == 20_481
    times[10_000] += 1e-9
    with pytest.raises(ValueError, match="uniform"):
        Trajectory(lat, 2, times, frames)
