"""Truncated Fourier series on the flat torus and per-frequency multipliers.

Conventions (used consistently across the package):

* lattice = { xi in Z^d : |xi_i| <= N } with lexicographic enumeration; a
  coefficient array has shape (2N+1,)*d + (d0,) and index i corresponds to
  xi_i = i - N along each axis.
* forward transform carries the 1/(2pi)^d factor, the inverse is the plain
  series sum, so Plancherel reads (2pi)^{-d} int |u|^2 dx = sum_xi |u^(xi)|^2
  and the L^2 norm of a field equals the l^2 norm of its coefficients.  On a
  uniform grid this is exactly numpy's ``norm="forward"``: the forward DFT is
  scaled by 1/n, the inverse is unscaled.
* ``to_grid`` / ``from_grid`` are the one place where coefficients are placed
  on (and truncated from) a padded spatial grid and where the transform is
  chosen; every other module goes through them.  Both rotate the axes
  through the transform: each step contracts one spatial axis and moves it
  to the other end of the array, so the array stays C-contiguous and each
  step is one matrix product per batch item.  ``to_grid`` contracts the
  leading box axis and appends the grid axis; ``from_grid`` contracts the
  trailing grid axis and prepends the lattice axis.  A single axis needs no
  rotation: at d = 1 on the dense kernel each way is that same one product
  on the same component-major view.  An axis of at most
  ``DENSE_MAX_GRID`` grid points is a product with a cached dense DFT
  matrix, so no zero padding is stored or transformed and no row that is
  thrown away is computed.  A longer axis is padded and inverse-transformed
  by a 1-D FFT or transformed and cut to the lattice rows, because there the
  FFT's n log n wins.
* ``time_transform`` is the one DFT along the frame (time) axis.  It is a
  product with a cached dense (M, M) DFT matrix when M is at most
  ``DENSE_MAX_GRID`` and at most the values per frame, so the matrix is
  never larger than the frames; otherwise numpy's FFT along axis 0.
* Padded grids are component-major: ``to_grid`` returns a view of
  (batch, d0, grid, ..., grid) memory with shape batch + (grid,)*d + (d0,),
  so each spinor component is a contiguous plane, and ``from_grid`` reads
  its input in that order, without a copy when it comes from ``to_grid``.
* A per-frequency spinor matrix (the half-wave projector, a propagator) is a
  plain array of shape lattice.shape + (d0, d0), applied by
  ``apply_matrices``; a constant matrix M applies by ``apply_constant``, as
  one product over all points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .clifford import GammaSet


@lru_cache(maxsize=32)
def _lattice_cache(d: int, radius: int):
    axes = np.arange(-radius, radius + 1)
    grids = np.meshgrid(*([axes] * d), indexing="ij")
    xi = np.stack(grids, axis=-1).astype(np.float64)  # shape + (d,)
    norm_sq = np.sum(xi * xi, axis=-1)
    bracket = np.sqrt(1.0 + norm_sq)
    xi.flags.writeable = False
    norm_sq.flags.writeable = False
    bracket.flags.writeable = False
    return xi, norm_sq, bracket


@dataclass(frozen=True)
class FrequencyLattice:
    """Symmetric cubic frequency lattice with per-axis cutoff ``radius``."""

    d: int
    radius: int

    def __post_init__(self):
        if self.d < 1 or self.radius < 1:
            raise ValueError("lattice needs d >= 1 and radius >= 1")

    @property
    def shape(self) -> tuple[int, ...]:
        return (2 * self.radius + 1,) * self.d

    @property
    def size(self) -> int:
        return (2 * self.radius + 1) ** self.d

    @property
    def xi(self) -> np.ndarray:
        """All lattice points, shape ``self.shape + (d,)``, lexicographic."""
        return _lattice_cache(self.d, self.radius)[0]

    @property
    def xi_norm_sq(self) -> np.ndarray:
        return _lattice_cache(self.d, self.radius)[1]

    @property
    def bracket(self) -> np.ndarray:
        """<xi> = (1 + |xi|^2)^(1/2) over the lattice."""
        return _lattice_cache(self.d, self.radius)[2]


def japanese_bracket(xi):
    """(1 + |xi|^2)^(1/2) for frequencies of shape (..., d); a float for one."""
    xi = np.asarray(xi, dtype=float)
    return np.sqrt(1.0 + np.sum(xi * xi, axis=-1))


@dataclass
class SpinorField:
    """C^{d0}-valued field stored as coefficients on a FrequencyLattice."""

    lattice: FrequencyLattice
    d0: int
    coeffs: np.ndarray  # shape lattice.shape + (d0,), complex128

    def __post_init__(self):
        expected = self.lattice.shape + (self.d0,)
        if self.coeffs.shape != expected:
            raise ValueError(
                f"coefficient array has shape {self.coeffs.shape}, expected {expected}"
            )
        if self.coeffs.dtype != np.complex128:
            self.coeffs = self.coeffs.astype(np.complex128)

    def copy(self) -> "SpinorField":
        return SpinorField(self.lattice, self.d0, self.coeffs.copy())

    def l2_norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def __add__(self, other: "SpinorField") -> "SpinorField":
        _check_compatible(self, other)
        return SpinorField(self.lattice, self.d0, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpinorField") -> "SpinorField":
        _check_compatible(self, other)
        return SpinorField(self.lattice, self.d0, self.coeffs - other.coeffs)

    def __mul__(self, scalar) -> "SpinorField":
        return SpinorField(self.lattice, self.d0, self.coeffs * scalar)

    __rmul__ = __mul__


def _check_compatible(a: SpinorField, b: SpinorField) -> None:
    if a.lattice != b.lattice or a.d0 != b.d0:
        raise ValueError("fields live on different lattices or spinor dimensions")


def random_field(
    lattice: FrequencyLattice,
    d0: int,
    rng: np.random.Generator,
    annulus: tuple[float, float] | None = None,
) -> SpinorField:
    """Gaussian random coefficients, optionally restricted to r0 <= |xi| <= r1."""
    shape = lattice.shape + (d0,)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if annulus is not None:
        r0, r1 = annulus
        r = np.sqrt(lattice.xi_norm_sq)
        mask = (r >= r0) & (r <= r1)
        c = c * mask[..., None]
    return SpinorField(lattice, d0, c)


# ---------------------------------------------------------------------------
# transforms


# Longest grid axis, and longest frame axis of ``time_transform``, that is
# transformed by a dense matrix; a longer one goes through numpy's FFT.  The dense path wins every single-frame axis up to
# 321 points and every d >= 2 grid measured; 257-frame d = 1 batches favour
# the FFT from 129 points up (see README).
DENSE_MAX_GRID = 257


@lru_cache(maxsize=64)
def _synthesis_matrix(n: int, grid: int) -> np.ndarray:
    """(n, grid) matrix whose row i is a box axis's mode at frequency
    i - n//2 on ``grid`` points, so a row vector of n coefficients times it
    is their sum on the grid: numpy's inverse FFT of the placed unit
    vectors, so it holds the FFT's own twiddles."""
    spec = np.zeros((n, grid), dtype=np.complex128)
    spec[np.arange(n), (np.arange(n) - n // 2) % grid] = 1.0
    mat = np.fft.ifft(spec, norm="forward")
    mat.flags.writeable = False
    return mat


@lru_cache(maxsize=64)
def _analysis_matrix(grid: int, radius: int) -> np.ndarray:
    """(2 radius + 1, grid) matrix taking ``grid`` samples to the lattice
    rows -radius..radius: the forward FFT of the identity, cut to those rows."""
    rows = np.arange(-radius, radius + 1) % grid
    mat = np.ascontiguousarray(np.fft.fft(np.eye(grid), axis=0, norm="forward")[rows])
    mat.flags.writeable = False
    return mat


@lru_cache(maxsize=64)
def _dft_matrix(m: int) -> np.ndarray:
    """(m, m) unnormalised DFT matrix: numpy's forward FFT of the identity,
    so it holds the FFT's own twiddles."""
    mat = np.fft.fft(np.eye(m), axis=0)
    mat.flags.writeable = False
    return mat


def time_transform(frames: np.ndarray) -> np.ndarray:
    """The unnormalised DFT of ``frames`` along its first (time) axis, in FFT
    order, same shape.  Up to ``DENSE_MAX_GRID`` frames, and while the
    (M, M) matrix is no larger than the frames it transforms (M at most
    the values per frame), it is one product with a cached dense DFT
    matrix; otherwise numpy's FFT along axis 0."""
    m = frames.shape[0]
    if m <= DENSE_MAX_GRID and m <= frames[0].size:
        return (_dft_matrix(m) @ frames.reshape(m, -1)).reshape(frames.shape)
    return np.fft.fft(frames, axis=0)


def _transform_axis(lines: np.ndarray, grid: int, radius: int | None) -> np.ndarray:
    """One axis of a transform, rotated through the array.  ``to_grid``
    (``radius`` None) passes a (b, n, R) array and gets its middle (box)
    axis on ``grid`` points at the end, (b, R, grid); ``from_grid`` passes a
    (b, L, grid) array and gets its trailing grid axis cut to
    the lattice rows in the middle, (b, 2 radius + 1, L).  Both results are
    C-contiguous.  Up to ``DENSE_MAX_GRID`` points the step is one
    cached-matrix product per batch item, above it a padded or cut 1-D FFT."""
    if grid <= DENSE_MAX_GRID:
        if radius is None:
            return lines.mT @ _synthesis_matrix(lines.shape[1], grid)
        return _analysis_matrix(grid, radius) @ lines.mT
    if radius is None:
        # frequencies 0..n-h-1 at the start of the axis, -h..-1 at its end
        n = lines.shape[1]
        h = n // 2
        spec = np.zeros((lines.shape[0], lines.shape[2], grid), dtype=np.complex128)
        spec[..., : n - h] = lines[:, h:].mT
        spec[..., grid - h :] = lines[:, :h].mT
        return np.fft.ifft(spec, axis=-1, norm="forward")
    spec = np.fft.fft(lines, axis=-1, norm="forward")
    return np.concatenate((spec[..., grid - radius :], spec[..., : radius + 1]), axis=-1).mT.copy()


def to_grid(coeffs: np.ndarray, d: int, grid: int) -> np.ndarray:
    """Coefficients -> field values on the uniform grid of ``grid``^d points.

    ``coeffs`` has shape batch + box + (d0,) with d box axes; index i of a box
    axis of length n sits at frequency i - n//2.  Any number of leading batch
    axes is transformed at once.  Each step transforms the leading box axis
    and rotates it to the end, so after d steps the memory is
    (batch, d0, grid, ..., grid): the padded grid is component-major.  The
    result is a transposed view of it with shape batch + (grid,)*d + (d0,).
    A single dense axis (d = 1) is that one step's product, unrotated.
    """
    box = coeffs.shape[-d - 1 : -1]
    if max(box) > grid:
        raise ValueError(f"grid with {grid} points per axis aliases a {box} box")
    if d == 1 and grid <= DENSE_MAX_GRID:
        return (coeffs.mT @ _synthesis_matrix(box[0], grid)).mT
    batch, d0 = coeffs.shape[: -d - 1], coeffs.shape[-1]
    b = math.prod(batch)
    values = coeffs
    for n in box:
        values = _transform_axis(values.reshape(b, n, -1), grid, None)
    return values.reshape(b, d0, -1).mT.reshape(batch + (grid,) * d + (d0,))


def from_grid(values: np.ndarray, d: int, radius: int) -> np.ndarray:
    """Field values on a uniform grid -> coefficients on the radius-``radius``
    lattice (the inverse of ``to_grid`` on band-limited fields).

    ``values`` has shape batch + (grid,)*d + (d0,); the batch axes are kept.
    It is read component-major, as (batch, d0, grid, ..., grid), which for
    the output of ``to_grid`` costs no copy.  Each step transforms the
    trailing grid axis, cuts it to the lattice rows and rotates it to the
    front, so later steps run only over lattice lines; the result is
    C-contiguous.  A single dense axis (d = 1) is that one step's product,
    unrotated.
    """
    grid = values.shape[-2]
    if grid < 2 * radius + 1:
        raise ValueError(f"grid with {grid} points per axis aliases "
                         f"a radius-{radius} lattice")
    if d == 1 and grid <= DENSE_MAX_GRID:
        return _analysis_matrix(grid, radius) @ values
    batch, d0 = values.shape[: -d - 1], values.shape[-1]
    b = math.prod(batch)
    coeffs = values.reshape(b, -1, d0).mT
    for _ in range(d):
        coeffs = _transform_axis(coeffs.reshape(b, -1, grid), grid, radius)
    return coeffs.reshape(batch + (2 * radius + 1,) * d + (d0,))


# ---------------------------------------------------------------------------
# per-frequency multipliers


def apply_matrices(values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-point matrix-vector products values[..., :, :] x[..., :]; leading
    axes broadcast, so one matrix per xi applies to every frame of a batch."""
    return (values @ x[..., None])[..., 0]


def apply_constant(mat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x @ mat.T on the trailing spinor axis of x, as one 2-D product over all
    points (an N-D ``@`` makes one BLAS call per 2-D slice).  A
    component-major x, such as the grid values of ``to_grid``, is read as a
    (d0, points) matrix and multiplied from the left, so nothing is copied;
    on a C-contiguous or component-major x the result keeps that layout."""
    flat = x.reshape(-1, x.shape[-1])
    if flat.flags.c_contiguous:
        return (flat @ mat.T).reshape(x.shape)
    return (mat @ flat.mT).mT.reshape(x.shape)


# ---------------------------------------------------------------------------
# Dirac projectors


def projector_symbol(g: GammaSet, xi, sign: int) -> np.ndarray:
    """The half-wave projector (I +- (sum alpha^j xi_j + beta)/<xi>)/2 at
    frequencies ``xi`` of shape (..., d), shape (..., d0, d0); for a lattice
    pass ``lattice.xi`` and apply the result with ``apply_matrices``."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    xi = np.asarray(xi, dtype=float)
    if xi.shape[-1] != g.d:
        raise ValueError("frequency dimension does not match the gamma set")
    h = g.dirac_symbol(xi)
    h *= (sign / japanese_bracket(xi))[..., None, None]
    h += np.eye(g.d0, dtype=np.complex128)
    h *= 0.5
    return h


def project_dirac(g: GammaSet, f: SpinorField, sign: int) -> SpinorField:
    """Apply the half-wave projector; idempotent, and the two signs sum to f."""
    if g.d0 != f.d0:
        raise ValueError("spinor dimensions differ between gamma set and field")
    proj = projector_symbol(g, f.lattice.xi, sign)
    return SpinorField(f.lattice, f.d0, apply_matrices(proj, f.coeffs))


# ---------------------------------------------------------------------------
# trajectories


@dataclass
class Trajectory:
    """Uniformly sampled time sequence of spinor fields on one lattice."""

    lattice: FrequencyLattice
    d0: int
    times: np.ndarray  # (M,)
    frames: np.ndarray  # (M,) + lattice.shape + (d0,)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.times.ndim != 1 or self.times.size < 1:
            raise ValueError("a trajectory needs at least one frame")
        if self.frames.shape != (self.times.size,) + self.lattice.shape + (self.d0,):
            raise ValueError("frame array shape does not match times/lattice")
        if self.times.size > 1:
            # times dt*k are each rounded, so a step may be off by ~2 ulps
            # of the largest time; allow that, and nothing more
            steps = np.diff(self.times)
            tol = 4.0 * np.spacing(np.abs(self.times).max())
            if np.abs(steps - steps[0]).max() > tol:
                raise ValueError("time grid must be uniform")

    @property
    def n_frames(self) -> int:
        return self.times.size

    @property
    def dt(self) -> float:
        if self.times.size < 2:
            return 0.0
        return float(self.times[1] - self.times[0])

    def frame(self, k: int) -> SpinorField:
        return SpinorField(self.lattice, self.d0, self.frames[k])
