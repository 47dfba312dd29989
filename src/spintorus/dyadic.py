"""Frequency localisation operators: dyadic annuli and the widened blocks
that absorb them (each a difference of two dilated low-pass profiles), the
space-time modulation distance and its scale range, angular cap covers of
the sphere and lattice cube partitions (both weighted by one bump).  The
modulation cutoff that filters a trajectory by its own time transform is a
test reference in ``tests/oracles.py``.

All operators are diagonal in frequency (or in (tau, xi) for the modulation
cutoffs), hence linear, mutually commuting and L^2-contractive whenever their
symbols are bounded by one.

A cap cover is evaluated as sparse (direction, cap, value) triples: each
direction meets at most ``CAP_OVERLAP_BOUND`` caps, so a dense (directions,
caps) table would be almost all zeros.  The dot products are formed in blocks
of ``CAP_BLOCK_ENTRIES`` entries, small enough that OpenBLAS runs each block on
the calling thread, and the triples take O(directions) memory: building and
checking the d = 3, scale-2 cover (8192 sample directions, 642 caps) peaks at
about 2 MiB, where the dense table took 86 MiB.  ``cap_symbols`` still returns
the (K,) + lattice table; ``cap_partition_sum`` sums the weights per lattice
point without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .spectral import FrequencyLattice, Trajectory

# ---------------------------------------------------------------------------
# smooth cutoff profiles


def _expbump_step(y: np.ndarray) -> np.ndarray:
    """C^infinity step: 0 for y <= 0, 1 for y >= 1, monotone bridge between."""
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    out[y >= 1.0] = 1.0
    mid = (y > 0.0) & (y < 1.0)
    # in place: on the solution-norm monitor's (tau, xi) grid every
    # temporary here is as large as that grid
    b = y[mid]
    a = np.divide(-1.0, b)
    np.exp(a, out=a)
    np.subtract(1.0, b, out=b)
    np.divide(-1.0, b, out=b)
    np.exp(b, out=b)
    b += a
    out[mid] = np.divide(a, b, out=a)
    return out


def _bump_1d(t: np.ndarray) -> np.ndarray:
    """Bump exp(-1/(1 - t^2)) on |t| < 1, 0 elsewhere."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    return out


def lowpass_profile(s) -> np.ndarray:
    """Smooth even profile: 1 on [-1, 1], 0 outside [-2, 2], values in [0, 1]."""
    return _expbump_step(2.0 - np.abs(np.asarray(s, dtype=float)))


def annulus_profile(s) -> np.ndarray:
    """Dyadic annulus bump lowpass(s/2) - lowpass(s); supported in 1 <= |s| <= 4.

    The dilates s -> 2^{-j} s telescope: summed over all j they equal 1 for
    every s != 0, and the profile equals 1 at |s| = 2.
    """
    s = np.abs(np.asarray(s, dtype=float))
    return lowpass_profile(s / 2.0) - lowpass_profile(s)


# ---------------------------------------------------------------------------
# radial (Littlewood-Paley) blocks


def radial_symbol(lattice: FrequencyLattice, j: int) -> np.ndarray:
    """annulus_profile(2^{-j} |xi|) over the lattice."""
    r = np.sqrt(lattice.xi_norm_sq)
    return annulus_profile(np.ldexp(r, -j))


def wide_radial_symbol(lattice: FrequencyLattice, j: int) -> np.ndarray:
    """lowpass(2^{-j-1} |xi|) - lowpass(2^{2-j} |xi|), the annulus bumps of
    scales j-2..j telescoped: supported in 2^{j-2} < |xi| < 2^{j+2} and exactly
    1 on 2^{j-1} <= |xi| <= 2^{j+1}, so it absorbs the scale-(j-1) block."""
    r = np.sqrt(lattice.xi_norm_sq)
    return lowpass_profile(np.ldexp(r, -j - 1)) - lowpass_profile(np.ldexp(r, 2 - j))


def radial_scale_range(lattice: FrequencyLattice) -> int:
    """jmax = max(ceil(log2(sqrt(d) N)), 1), N the lattice radius: the scales
    whose annulus meets the nonzero lattice are -2 < j < jmax (the floor keeps
    j = 0 at d = 1, N = 1)."""
    return max(int(np.ceil(np.log2(np.sqrt(lattice.d) * lattice.radius))), 1)


# ---------------------------------------------------------------------------
# modulation blocks (space-time)


def window_length(tr: Trajectory) -> float:
    """Periodic window length of the discrete time transform (n_frames * dt)."""
    if tr.n_frames < 2:
        raise ValueError("modulation analysis needs at least 2 frames")
    return tr.n_frames * tr.dt


def time_frequencies(tr: Trajectory) -> np.ndarray:
    """Angular DFT frequencies of the frame grid, FFT order."""
    return 2.0 * np.pi * np.fft.fftfreq(tr.n_frames, d=tr.dt)


def modulation_distance(tr: Trajectory, sign: int) -> np.ndarray:
    """|tau +- <xi>| on the discrete (tau, xi) grid, shape (M,) + lattice.shape."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    tau = time_frequencies(tr)
    shape = (tr.n_frames,) + (1,) * tr.lattice.d
    return np.abs(tau.reshape(shape) + sign * tr.lattice.bracket[None, ...])


def covering_scale_range(w: np.ndarray) -> tuple[int, int]:
    """Scales j whose annuli 2^j <= |s| <= 2^{j+2} cover every positive
    value of ``w``; (0, 0) when there is none.  A value 2^e <= s < 2^{e+1}
    meets only the scales e - 1 and e, so from the exact binary exponents,
    jmin is e - 1 of the least value and jmax is e of the largest."""
    pos = w[w > 0]
    if pos.size == 0:
        return 0, 0
    jmin = int(np.frexp(pos.min())[1]) - 2
    jmax = int(np.frexp(pos.max())[1]) - 1
    return jmin, jmax


# ---------------------------------------------------------------------------
# angular cap covers

# Most caps of one cover whose supports may share a direction; every cover
# that build_cap_cover returns is checked against it.
CAP_OVERLAP_BOUND = 4

# Entries of one (directions, caps) block of dot products in CapCover.bumps
# (512 KiB of float64; a block has at least 3 rows).  With the d <= 3 inner
# dimension the block's product stays below OpenBLAS's threading threshold
# (m n k < 2^18), so it runs on the calling thread: 8192 directions against
# 642 caps in 512-row blocks waited for busy BLAS workers in some processes.
CAP_BLOCK_ENTRIES = 2**16


def _icosahedron() -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = []
    for a, b in [(1.0, phi), (1.0, -phi), (-1.0, phi), (-1.0, -phi)]:
        verts += [(0.0, a, b), (a, b, 0.0), (b, 0.0, a)]
    v = np.array(verts)
    v /= np.linalg.norm(v, axis=1)[:, None]
    # faces by nearest-neighbour triples
    faces = []
    n = len(v)
    dots = v @ v.T
    edge_cos = np.cos(1.1071487177940904)  # icosahedral edge arc
    adj = dots > edge_cos - 1e-9
    np.fill_diagonal(adj, False)
    for i in range(n):
        for jj in range(i + 1, n):
            if not adj[i, jj]:
                continue
            for k in range(jj + 1, n):
                if adj[i, k] and adj[jj, k]:
                    faces.append((i, jj, k))
    return v, faces


def _subdivide(verts: np.ndarray, faces: list[tuple[int, int, int]]):
    verts = [tuple(p) for p in verts]
    cache: dict[tuple[int, int], int] = {}

    def midpoint(i: int, j: int) -> int:
        key = (min(i, j), max(i, j))
        if key in cache:
            return cache[key]
        p = np.array(verts[i]) + np.array(verts[j])
        p /= np.linalg.norm(p)
        verts.append(tuple(p))
        cache[key] = len(verts) - 1
        return cache[key]

    new_faces = []
    for a, b, c in faces:
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
    return np.array(verts), new_faces


@dataclass
class CapCover:
    """Symmetric cover of the unit sphere by caps, at most
    ``CAP_OVERLAP_BOUND`` of them over any direction.

    ``centers`` is antipodally closed; ``width`` is the geodesic support
    half-width of the smooth weights, which are normalised to a partition of
    unity on R^d \\ {0} (the zero frequency is always assigned weight 0).
    """

    d: int
    scale: int
    centers: np.ndarray  # (K, d) unit vectors
    width: float

    @property
    def n_caps(self) -> int:
        return self.centers.shape[0]

    def bumps(self, directions: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nonzero unnormalised bump values as (direction, cap, value) triples.

        Directions go through ``block @ centers.T`` in blocks of at most
        ``max(3, CAP_BLOCK_ENTRIES // K)`` rows, so no (n_dirs, K) table is
        formed.  The blocks are split evenly, so none is a single row: numpy
        hands a one-row product to gemv, whose rounding differs from gemm's.
        The two half-lines of d = 1 are caps of width 1 around +-1: each
        direction meets only its own, with the value exp(-1).
        """
        n = directions.shape[0]
        count = -(-n // max(3, CAP_BLOCK_ENTRIES // self.n_caps))
        cut = np.cos(self.width) - 1e-12
        out = []
        for b in range(count):
            lo, hi = b * n // count, (b + 1) * n // count
            dots = directions[lo:hi] @ self.centers.T
            # arccos(dot) < width only where dot > cos(width); the margin
            # absorbs the rounding of arccos and cos, so the bump's |t| < 1
            # test decides.
            i, k = np.nonzero(dots > cut)
            value = _bump_1d(np.arccos(np.clip(dots[i, k], -1.0, 1.0)) / self.width)
            keep = value > 0.0
            out.append((i[keep] + lo, k[keep], value[keep]))
        return tuple(np.concatenate(part) for part in zip(*out))


def _fibonacci_directions(n: int) -> np.ndarray:
    k = np.arange(n)
    z = 1.0 - (2.0 * k + 1.0) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    th = np.pi * (1.0 + np.sqrt(5.0)) * k
    return np.stack([r * np.cos(th), r * np.sin(th), z], axis=1)


def build_cap_cover(d: int, scale: int) -> CapCover:
    """Construct the scale-l cap cover (caps of angular size ~ 2^{-l}).

    d = 1 degenerates to the two half-line indicators; d = 2 uses evenly
    spaced arcs; d = 3 uses a subdivided icosahedron.  Dimensions above 3
    are not supported.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if d > 3:
        raise ValueError("cap covers are only constructed for d <= 3")
    if d == 1:
        centers = np.array([[1.0], [-1.0]])
        return CapCover(d, scale, centers, width=1.0)
    delta = 2.0 ** (-scale)
    if d == 2:
        k = int(np.ceil(2.0 * np.pi / delta))
        if k % 2:
            k += 1
        k = max(k, 4)
        th = 2.0 * np.pi * np.arange(k) / k
        centers = np.stack([np.cos(th), np.sin(th)], axis=1)
        width = 0.75 * (2.0 * np.pi / k)
        cover = CapCover(d, scale, centers, width)
        _validate_cover(cover, _circle_directions(4096))
        return cover
    # d == 3: subdivided icosahedron, spacing as close to delta as possible
    verts, faces = _icosahedron()
    edge = 1.1071487177940904
    subdivisions = max(0, int(np.ceil(np.log2(edge / delta))))
    for _ in range(subdivisions):
        verts, faces = _subdivide(verts, faces)
    corners = verts[np.array(faces)]  # (n_faces, 3, d)
    ends = np.roll(corners, -1, axis=1)  # edges (a, b), (b, c), (c, a)
    edge_arcs = np.arccos(np.clip(np.sum(corners * ends, axis=-1), -1.0, 1.0))
    e_min, e_max = float(np.min(edge_arcs)), float(np.max(edge_arcs))
    width = max(0.604 * e_max, min(0.75 * delta, 0.85 * e_min))
    cover = CapCover(d, scale, verts, width)
    _validate_cover(cover, _fibonacci_directions(8192))
    return cover


def _circle_directions(n: int) -> np.ndarray:
    th = 2.0 * np.pi * (np.arange(n) + 0.37) / n
    return np.stack([np.cos(th), np.sin(th)], axis=1)


def _validate_cover(cover: CapCover, sample: np.ndarray) -> None:
    counts = np.bincount(cover.bumps(sample)[0], minlength=sample.shape[0])
    if counts.min() == 0:
        raise ValueError(
            f"cap cover (d={cover.d}, scale={cover.scale}) leaves coverage holes"
        )
    overlap = int(counts.max())
    if overlap > CAP_OVERLAP_BOUND:
        raise ValueError(
            f"cap cover overlap {overlap} exceeds the bound {CAP_OVERLAP_BOUND}"
        )


def _lattice_weights(cover: CapCover, lattice: FrequencyLattice):
    """Partition-of-unity weights at the nonzero lattice points as (flat
    point index, cap, weight) triples: each bump divided by its direction's
    bump total."""
    if cover.d != lattice.d:
        raise ValueError("cover and lattice dimensions differ")
    xi = lattice.xi.reshape(-1, lattice.d)
    r = np.linalg.norm(xi, axis=1)
    points = np.flatnonzero(r > 0)
    rows, caps, values = cover.bumps(xi[points] / r[points, None])
    total = np.bincount(rows, weights=values, minlength=points.size)
    if np.any(total <= 0.0):
        raise ValueError("cap cover does not cover some direction")
    return points[rows], caps, values / total[rows]


def cap_symbols(cover: CapCover, lattice: FrequencyLattice) -> np.ndarray:
    """All cap weights on the lattice, shape (K,) + lattice.shape.

    The zero frequency gets weight 0 for every cap (the weights partition
    R^d minus the origin only).
    """
    points, caps, weights = _lattice_weights(cover, lattice)
    table = np.zeros((cover.n_caps, lattice.size))
    table[caps, points] = weights
    return table.reshape((cover.n_caps,) + lattice.shape)


def cap_partition_sum(cover: CapCover, lattice: FrequencyLattice) -> np.ndarray:
    """Sum of the cap weights at each lattice point, shape lattice.shape:
    cap_symbols(cover, lattice).sum(axis=0) up to rounding, without the
    (K,) + lattice.shape table.  A partition of unity makes it 1 off the
    origin and 0 at it."""
    points, _, weights = _lattice_weights(cover, lattice)
    return np.bincount(points, weights=weights, minlength=lattice.size).reshape(lattice.shape)


# ---------------------------------------------------------------------------
# lattice cube partitions


def normalized_bump_1d(t) -> np.ndarray:
    """Bump divided by its integer translates; translates sum to 1 exactly."""
    t = np.asarray(t, dtype=float)
    u = t - np.floor(t)
    total = _bump_1d(u) + _bump_1d(u - 1.0)
    val = _bump_1d(t)
    out = np.zeros_like(val)
    nz = val > 0
    out[nz] = val[nz] / total[nz]
    return out


@dataclass
class CubeCover:
    """Partition of frequency space into smooth cubes of half-side 2^k."""

    lattice: FrequencyLattice
    k: int
    centers: np.ndarray  # (n_centers, d) integer multiples of 2^k inside the lattice


def _cube_axis(lattice: FrequencyLattice, k: int) -> np.ndarray:
    """Per-axis centre coordinates: the multiples of 2^k inside [-N, N]."""
    if k < 0:
        raise ValueError("cube scale must be >= 0")
    step = 2**k
    nmax = (lattice.radius // step) * step
    return np.arange(-nmax, nmax + 1, step)


def build_cube_cover(lattice: FrequencyLattice, k: int) -> CubeCover:
    """Centers 2^k Z^d intersected with the lattice box."""
    axis = _cube_axis(lattice, k)
    grids = np.meshgrid(*([axis] * lattice.d), indexing="ij")
    centers = np.stack([g.ravel() for g in grids], axis=1)
    return CubeCover(lattice, k, centers)


def cube_symbol(cover: CubeCover, center) -> np.ndarray:
    """gamma((xi - n)/2^k) over the lattice as a product of 1-d bumps."""
    center = np.asarray(center, dtype=float)
    lattice = cover.lattice
    scale = float(2**cover.k)
    sym = np.ones(lattice.shape)
    for j in range(lattice.d):
        sym = sym * normalized_bump_1d((lattice.xi[..., j] - center[j]) / scale)
    return sym


def cube_partition_sum(lattice: FrequencyLattice, k: int) -> np.ndarray:
    """Sum of cube_symbol over every centre of build_cube_cover(lattice, k).

    Each symbol is a product of 1-d bumps and the centres form a Cartesian
    grid, so the sum is the outer product of d equal per-axis sums.
    """
    xi = np.arange(-lattice.radius, lattice.radius + 1, dtype=float)
    shifts = (xi[:, None] - _cube_axis(lattice, k)[None, :]) / float(2**k)
    axis_sum = normalized_bump_1d(shifts).sum(axis=1)
    return reduce(np.multiply.outer, [axis_sum] * lattice.d)
