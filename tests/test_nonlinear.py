import copy
import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import difference_expansion, plane_wave

from spintorus import nonlinear as nl
from spintorus.clifford import build_gamma
from spintorus.nonlinear import (
    PowerSeriesNonlinearity,
    bundled_cubic,
    bundled_geometric,
    decrement_index,
    difference_quantity,
    difference_split_maximum,
    direct_quantity,
    evaluate,
    evaluate_coefficients,
    growth_audit,
    growth_threshold,
    jacobian_product,
    left_multiply,
    load_nonlinearity,
    matrix_weights,
    multinomial_split,
    load_nonlinearity_file,
    padded_grid_size,
)
from spintorus.spectral import (
    FrequencyLattice,
    SpinorField,
    apply_constant,
    apply_matrices,
    random_field,
    to_grid,
)


@pytest.fixture
def rng():
    return np.random.default_rng(99)


def _random_series(rng, d0=2, max_degree=3, n_terms=5):
    terms = {}
    for _ in range(n_terms):
        p = tuple(int(x) for x in rng.integers(0, max_degree + 1, size=d0))
        if sum(p) == 0:
            continue
        terms[p] = rng.standard_normal(d0) + 1j * rng.standard_normal(d0)
    return PowerSeriesNonlinearity(d0, terms)


def naive_evaluate(F, psi):
    """Oracle on one value or whole arrays: every monomial by repeated
    multiplication, no shared powers, added to the full coefficient vector
    with its zero entries."""
    psi = np.asarray(psi, dtype=complex)
    out = np.zeros(psi.shape, dtype=complex)
    for p, c in F.terms.items():
        mono = np.ones(psi.shape[:-1], dtype=complex)
        for k, e in enumerate(p):
            for _ in range(e):
                mono = mono * psi[..., k]
        out += mono[..., None] * c
    return out


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_pure_cube():
    F = bundled_cubic(2)
    out = evaluate(F, np.array([2.0, 0.0], dtype=complex))
    assert np.allclose(out, [8.0, 0.0])


def test_vanishes_at_zero():
    F = bundled_cubic(4)
    assert np.allclose(evaluate(F, np.zeros(4, dtype=complex)), 0.0)
    with pytest.raises(ValueError, match="vanish"):
        PowerSeriesNonlinearity(2, {(0, 0): np.array([1.0, 0.0])})


def test_factorized_matches_naive(rng):
    for _ in range(20):
        F = _random_series(rng)
        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        fast = evaluate(F, psi)
        slow = naive_evaluate(F, psi)
        assert np.abs(fast - slow).max() <= 1e-14 * max(1.0, np.abs(slow).max())


def naive_jacobian(F, psi):
    """Oracle: dF_a/dpsi_b monomial by monomial, p_b psi^(p - e_b) c_a."""
    out = np.zeros(psi.shape + (F.d0,), dtype=complex)
    for p, c in F.terms.items():
        for b in range(F.d0):
            if p[b]:
                mono = np.full(psi.shape[:-1], float(p[b]), dtype=complex)
                for k, e in enumerate(p):
                    for _ in range(e - (k == b)):
                        mono = mono * psi[..., k]
                out[..., b] += mono[..., None] * c
    return out


def _one_hot(d0, a, value=1.0):
    c = np.zeros(d0, dtype=complex)
    c[a] = value
    return c


def _series_cases(rng):
    dense = _random_series(rng, d0=3, max_degree=3, n_terms=8)
    one_hot = PowerSeriesNonlinearity(
        3, {(0, 2, 1): _one_hot(3, 0, 0.5 - 1j), (3, 0, 0): _one_hot(3, 2, 2.0),
            (0, 0, 1): _one_hot(3, 1, -1.0)})
    mixed = PowerSeriesNonlinearity(
        3, {(1, 1, 1): np.array([1.0, 0.0, 2j]), (2, 1, 0): np.array([0.0, -1.0, 0.0]),
            (0, 1, 2): rng.standard_normal(3) + 1j * rng.standard_normal(3)})
    empty = PowerSeriesNonlinearity(3, {})
    cubic = PowerSeriesNonlinearity(3, {p: 0.7 * c for p, c in bundled_cubic(3).terms.items()})
    return {"dense": dense, "one-hot": one_hot, "mixed": mixed,
            "empty": empty, "cubic": cubic}


@pytest.mark.parametrize("case", ["dense", "one-hot", "mixed", "empty", "cubic"])
@pytest.mark.parametrize("shape", [(3,), (11, 3), (2, 5, 4, 3)])
def test_evaluate_and_jacobian_match_naive_sums(rng, case, shape):
    F = _series_cases(rng)[case]
    psi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    fast, slow = evaluate(F, psi), naive_evaluate(F, psi)
    assert fast.shape == slow.shape
    assert np.abs(fast - slow).max() <= 1e-14 * max(1.0, np.abs(slow).max())
    _assert_product_matches_naive(F, psi, v)


def _assert_product_matches_naive(F, psi, v):
    fast = jacobian_product(F, psi, v)
    slow = (naive_jacobian(F, psi) @ v[..., None])[..., 0]
    assert fast.shape == slow.shape
    assert np.abs(fast - slow).max() <= 1e-13 * max(1.0, np.abs(slow).max())


def test_evaluate_bundled_cubic_bit_equal_on_33_cube(rng):
    F = bundled_cubic(4)
    psi = rng.standard_normal((33, 33, 33, 4)) + 1j * rng.standard_normal((33, 33, 33, 4))
    assert np.array_equal(evaluate(F, psi), naive_evaluate(F, psi))


@pytest.mark.parametrize("case", ["dense", "one-hot", "mixed", "empty", "cubic"])
def test_evaluate_keeps_layout_of_component_major_view(rng, case):
    # the padded grids of to_grid are component-major views; evaluate and
    # jacobian_product read them as they are and give the numbers of the
    # contiguous copies
    F = _series_cases(rng)[case]
    planes = rng.standard_normal((2, 3, 2, 7, 5)) + 1j * rng.standard_normal((2, 3, 2, 7, 5))
    view, direction = planes.transpose(0, 2, 3, 4, 1)
    flat, flat_direction = np.ascontiguousarray(view), np.ascontiguousarray(direction)
    for out, ref in ((evaluate(F, view), evaluate(F, flat)),
                     (jacobian_product(F, view, direction),
                      jacobian_product(F, flat, flat_direction))):
        assert np.array_equal(out, ref)
        assert out.transpose(3, 0, 1, 2).flags.c_contiguous
    _assert_product_matches_naive(F, view, direction)


def test_evaluate_zeroes_components_no_term_writes(rng):
    # every term of the geometric family has coefficient e_1, so the other
    # components are exactly 0 however empty_like filled them
    F = bundled_geometric(3, 0.5, 4)
    psi = rng.standard_normal((2, 9, 3)) + 1j * rng.standard_normal((2, 9, 3))
    for values in (psi, np.ascontiguousarray(psi.transpose(2, 0, 1)).transpose(1, 2, 0)):
        out = evaluate(F, values)
        assert np.all(out[..., 1:] == 0)
        assert np.abs(out[..., 0] - naive_evaluate(F, values)[..., 0]).max() <= 1e-14 * np.abs(out).max()


def test_jacobian_matches_finite_differences(rng):
    F = _random_series(rng, n_terms=4)
    psi = 0.3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    h = 1e-7
    for v in (*np.eye(2, dtype=complex), rng.standard_normal(2) + 1j * rng.standard_normal(2)):
        fd = (evaluate(F, psi + h * v) - evaluate(F, psi - h * v)) / (2 * h)
        assert np.abs(jacobian_product(F, psi, v) - fd).max() <= 1e-6


# ---------------------------------------------------------------------------
# field evaluation


def test_field_zero_series():
    lat = FrequencyLattice(1, 5)
    F = PowerSeriesNonlinearity(2, {})
    f = plane_wave(lat, 2, [2], [1.0, 0.0])
    assert not evaluate_coefficients(F, f.coeffs, lat).any()


def test_field_linear_series_is_a_multiplier(rng):
    # purely linear terms act as one constant matrix in frequency
    lat = FrequencyLattice(1, 6)
    c1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    c2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    F = PowerSeriesNonlinearity(2, {(1, 0): c1, (0, 1): c2})
    mat = np.stack([c1, c2], axis=1)  # columns are d/dpsi_k
    f = random_field(lat, 2, rng)
    lhs = SpinorField(lat, 2, evaluate_coefficients(F, f.coeffs, lat))
    values = np.broadcast_to(mat, lat.shape + (2, 2))
    rhs = SpinorField(lat, 2, apply_matrices(values, f.coeffs))
    assert (lhs - rhs).l2_norm() <= 1e-12 * f.l2_norm()


def test_field_cubic_plane_wave_support():
    # monomials only: a plane wave at xi0 maps into {3 xi0}, conjugate-free
    lat = FrequencyLattice(1, 8)
    F = bundled_cubic(2)
    f = plane_wave(lat, 2, [2], [0.5, 0.0])
    out = SpinorField(lat, 2, evaluate_coefficients(F, f.coeffs, lat))
    expect = plane_wave(lat, 2, [6], [0.125, 0.0])
    assert (out - expect).l2_norm() <= 1e-12


def test_field_translation_covariance(rng):
    # translating the input translates the output: conjugation by phases
    lat = FrequencyLattice(1, 6)
    F = _random_series(rng, max_degree=2)
    f = random_field(lat, 2, rng)
    shift = np.exp(-1j * lat.xi[..., 0] * 0.7)[..., None]
    shifted = SpinorField(lat, 2, f.coeffs * shift)
    lhs = evaluate_coefficients(F, shifted.coeffs, lat)
    rhs = evaluate_coefficients(F, f.coeffs, lat) * shift
    assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())


def test_field_padding_guard(rng):
    from spintorus.nonlinear import padded_grid_size

    lat = FrequencyLattice(1, 8)
    assert padded_grid_size(lat, 3) >= 4 * 8 + 1


def _random_batch(rng, batch, lat, d0):
    shape = tuple(batch) + lat.shape + (d0,)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _per_frame(F, coeffs, lat):
    out = np.empty_like(coeffs)
    for idx in np.ndindex(coeffs.shape[: -lat.d - 1]):
        out[idx] = evaluate_coefficients(F, coeffs[idx], lat)
    return out


@pytest.mark.parametrize("batch", [(33,), (2, 5)])
def test_chunked_batch_matches_per_frame_d3(rng, batch):
    # one d=3, N=8 cubic frame fills a whole chunk, so every frame is a chunk
    lat = FrequencyLattice(3, 8)
    F = bundled_cubic(4)
    coeffs = _random_batch(rng, batch, lat, 4)
    out = evaluate_coefficients(F, coeffs, lat)
    ref = _per_frame(F, coeffs, lat)
    assert out.shape == coeffs.shape
    assert np.abs(out - ref).max() <= 1e-14 * np.abs(ref).max()


def test_multi_frame_chunks_with_ragged_tail(rng, monkeypatch):
    # a budget of three padded frames splits the ten frames 3 + 3 + 3 + 1
    import spintorus.nonlinear as nl

    lat = FrequencyLattice(2, 4)
    F = _random_series(rng, max_degree=3)
    grid = nl.padded_grid_size(lat, F.max_degree)
    monkeypatch.setattr(nl, "CHUNK_BYTES", 3 * 16 * grid**2 * 2)
    coeffs = _random_batch(rng, (2, 5), lat, 2)
    out = evaluate_coefficients(F, coeffs, lat)
    ref = _per_frame(F, coeffs, lat)
    assert np.abs(out - ref).max() <= 1e-14 * np.abs(ref).max()


def test_chunked_evaluation_memory_is_bounded(rng):
    # the whole 33-frame batch on the padded grid would be ~50x the input
    lat = FrequencyLattice(3, 8)
    F = bundled_cubic(4)
    coeffs = _random_batch(rng, (33,), lat, 4)
    tracemalloc.start()
    try:
        evaluate_coefficients(F, coeffs, lat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * coeffs.nbytes


@pytest.mark.parametrize("d", [1, 2, 3])
def test_left_multiplied_series_is_the_applied_value(rng, d):
    # beta is diagonal with entries +-1, so folding beta or i beta into the
    # coefficients only flips signs or swaps real and imaginary parts: the
    # folded series gives M F(psi) to the bit, with F's support
    g = build_gamma(d)
    lat = FrequencyLattice(d, 3)
    coeffs = _random_batch(rng, (2,), lat, g.d0)

    def support(F):
        return [(factors, [a for a, _, _ in pairs]) for factors, pairs in F._support]

    for F in (bundled_cubic(g.d0), bundled_geometric(g.d0, ratio=0.5, degree=4)):
        for mat in (g.beta, 1j * g.beta):
            folded = left_multiply(mat, F)
            assert support(folded) == support(F)
            assert np.array_equal(evaluate_coefficients(folded, coeffs, lat),
                                  apply_constant(mat, evaluate_coefficients(F, coeffs, lat)))


# ---------------------------------------------------------------------------
# the diagonal power class


def _general(F):
    """F with the diagonal-class marker cleared: evaluate takes the
    power-table loop."""
    G = copy.copy(F)
    G._diagonal = None
    return G


def _grid(rng, d, radius, d0):
    """One random frame on its cubic padded grid, component-major."""
    lat = FrequencyLattice(d, radius)
    return to_grid(_random_batch(rng, (), lat, d0), d, padded_grid_size(lat, 3))


@pytest.mark.parametrize("d", [1, 3])
def test_diagonal_cubic_is_bit_identical_to_the_general_loop(rng, d):
    # coefficients +-1 and +-i: the reordered products are exact
    g = build_gamma(d)
    psi = _grid(rng, d, 4, g.d0)
    cubic = bundled_cubic(g.d0)
    for F in (cubic, left_multiply(g.beta, cubic), left_multiply(1j * g.beta, cubic)):
        assert F._diagonal[0] == 3
        assert np.array_equal(evaluate(F, psi), evaluate(_general(F), psi))


@pytest.mark.parametrize("e", [1, 2, 3, 5])
def test_diagonal_series_matches_the_general_loop(rng, e):
    psi = _grid(rng, 1, 4, 4)
    c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    F = PowerSeriesNonlinearity(4, {tuple(e * (k == a) for k in range(4)): c[a] * np.eye(4)[a]
                                    for a in range(4)})
    assert F._diagonal[0] == e
    got, want = evaluate(F, psi), evaluate(_general(F), psi)
    assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * np.abs(want))


E0, E1 = np.eye(2)


@pytest.mark.parametrize("terms", [
    {(3, 0): E1, (0, 3): E0},            # each term written to the other component
    {(3, 0): E0, (0, 3): E0 + E1},       # two terms for component 0
    {(3, 0): E0, (0, 2): E1},            # mixed exponents
    {(3, 0): E0},                        # component 1 has no term
    {(2, 1): E0, (0, 3): E1},            # a coupled monomial
], ids=["crossed", "two-terms", "mixed", "unwritten", "coupled"])
def test_other_series_take_the_general_loop(rng, terms):
    F = PowerSeriesNonlinearity(2, terms)
    assert F._diagonal is None
    psi = _grid(rng, 1, 4, 2)
    ref = naive_evaluate(F, psi)
    assert np.abs(evaluate(F, psi) - ref).max() <= 1e-14 * np.abs(ref).max()


def test_cubic_is_evaluated_in_one_output_buffer(rng, monkeypatch):
    # d = 3, N = 8: the 33^3 x 4 padded grid of one frame (2.3 MB); the power
    # table held psi^2, psi^3 and the output at once
    psi = _grid(rng, 3, 8, 4)
    F = bundled_cubic(4)
    tracemalloc.start()
    try:
        out = evaluate(F, psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * out.nbytes
    calls = []
    powers = nl._powers
    monkeypatch.setattr(nl, "_powers", lambda psi, top: calls.append(top) or powers(psi, top))
    evaluate(F, psi)
    assert calls == []
    evaluate(bundled_geometric(4, ratio=0.5, degree=3), psi)
    assert calls == [3]


def test_jacobian_builds_only_the_powers_it_reads(rng, monkeypatch):
    # a lowered one-factor psi_b^e reads psi_b^(e-1); a product keeps its
    # largest exponent; J v is bit-identical to the product on the full table
    psi = _grid(rng, 1, 4, 2)
    v = _grid(rng, 1, 4, 2)
    calls = []
    powers = nl._powers
    monkeypatch.setattr(nl, "_powers", lambda psi, top: calls.append(top) or powers(psi, top))
    coupled = PowerSeriesNonlinearity(2, {(3, 1): _one_hot(2, 1, 0.5j), (0, 2): _one_hot(2, 0)})
    for F, top in ((bundled_cubic(2), 2), (bundled_geometric(2, ratio=0.5, degree=3), 2),
                   (coupled, 3)):
        calls.clear()
        out = jacobian_product(F, psi, v)
        assert calls == [top]
        full = copy.copy(F)
        full._jacobian_top = F._top
        assert np.array_equal(out, jacobian_product(full, psi, v))


# ---------------------------------------------------------------------------
# combinatorics


def test_multinomial_basic_rows():
    s = multinomial_split((2, 0))
    assert s[((0, 0), (2, 0))] == 1
    assert s[((1, 0), (1, 0))] == 2
    assert s[((2, 0), (0, 0))] == 1
    assert sum(s.values()) == 2**2
    assert sum(multinomial_split((2, 3, 1)).values()) == 2**6


@settings(max_examples=40, deadline=None)
@given(
    p1=st.integers(0, 3),
    p2=st.integers(0, 3),
    seed=st.integers(0, 10_000),
)
def test_multinomial_expansion_identity(p1, p2, seed):
    rng = np.random.default_rng(seed)
    p = (p1, p2)
    u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    direct = np.prod((u + v) ** np.array(p))
    expanded = sum(
        coeff * np.prod(u ** np.array(m)) * np.prod(v ** np.array(n))
        for (m, n), coeff in multinomial_split(p).items()
    )
    assert abs(direct - expanded) <= 1e-12 * max(1.0, abs(direct))


def test_decrement_index():
    assert decrement_index((2, 1), 1) == (1, 1)
    assert decrement_index((0, 3), 1) == (0, 3)  # clamped at zero
    assert decrement_index((2, 5), 2) == (2, 4)
    assert sum(decrement_index((4, 2), 1)) <= 6
    with pytest.raises(ValueError):
        decrement_index((1, 1), 3)


def test_difference_expansion_trivial_cases(rng):
    F = _random_series(rng)
    u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    assert np.abs(difference_expansion(F, u, u)).max() == 0.0
    lin = PowerSeriesNonlinearity(
        2, {(1, 0): np.array([2.0, 0.0]), (0, 1): np.array([0.0, 1j])}
    )
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    expect = np.array([2.0 * (u - v)[0], 1j * (u - v)[1]])
    assert np.abs(difference_expansion(lin, u, v) - expect).max() <= 1e-14


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_difference_expansion_equals_direct(seed):
    rng = np.random.default_rng(seed)
    F = _random_series(rng, n_terms=6)
    u1 = 0.6 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    u2 = 0.6 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    lhs = difference_expansion(F, u1, u2)
    rhs = evaluate(F, u1) - evaluate(F, u2)
    assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())


# ---------------------------------------------------------------------------
# literal neighbour-sum enumeration vs the collapsed closed forms


def _literal_direct(p, weights):
    """Oracle: nested sums over the neighbour indices done by explicit
    enumeration.  The summand never depends on the indices, so the result
    is (number of tuples) * E_mn * weight; we count by iterating."""
    best = 0.0
    for (m, n), coeff in multinomial_split(p).items():
        count = 0
        for _tuple in itertools.product((-1, 0, 1), repeat=sum(m) + sum(n)):
            count += 1  # literal enumeration of the collapsed sums
        assert count == 3 ** sum(p)
        for w in weights:
            best = max(best, float(count * coeff) * w)
    return best


def _literal_difference_core(p, i):
    """Oracle: enumerate all nested splits and all neighbour tuples of the
    contraction-step quantity in exact rational arithmetic."""
    q = decrement_index(p, i)
    best = Fraction(0)
    for (m, n), cmn in multinomial_split(q).items():
        for (k, l), akl in multinomial_split(m).items():
            for (r, s), brs in multinomial_split(n).items():
                count = 0
                for _tuple in itertools.product(
                    (-1, 0, 1), repeat=sum(k) + sum(l) + sum(r) + sum(s) + 1
                ):
                    count += 1
                assert count == 3 ** (sum(q) + 1)
                val = Fraction(count * akl * brs * p[i - 1] * cmn, sum(m) + 1)
                best = max(best, val)
    return best


@pytest.mark.parametrize(
    "p", [(1, 0), (0, 1), (2, 0), (1, 1), (3, 0), (2, 1), (1, 2), (0, 3)]
)
def test_direct_quantity_equals_literal_enumeration(p, rng):
    g = build_gamma(1)
    c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    w = matrix_weights(g, c)
    assert direct_quantity(p, w) == _literal_direct(p, w)


def _enumerated_split_maximum(p, i):
    """Oracle: the largest E_{mn} a_max(m) b_max(n) / (|m|+1) over every
    split of (p - e_i)^+, one Fraction per split."""
    return max(
        Fraction(coeff * math.prod(math.comb(x, x // 2) for x in m + n), sum(m) + 1)
        for (m, n), coeff in multinomial_split(decrement_index(p, i)).items()
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=4), st.data())
def test_split_maximum_matches_enumeration(p, data):
    # permuted indices share one cached maximum, so they are drawn too
    i = data.draw(st.integers(1, len(p)))
    assert difference_split_maximum(tuple(p), i) == _enumerated_split_maximum(p, i)


@pytest.mark.parametrize(
    "p", [(1, 0), (2, 0), (1, 1), (3, 0), (2, 1), (1, 2), (0, 3)]
)
def test_difference_quantity_equals_literal_enumeration(p, rng):
    g = build_gamma(1)
    c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    w = matrix_weights(g, c)
    for i in (1, 2):
        if p[i - 1] == 0:
            continue
        # exact rational agreement of the combinatorial cores ...
        literal_core = _literal_difference_core(p, i)
        closed_core = (
            3 ** (sum(decrement_index(p, i)) + 1)
            * p[i - 1]
            * difference_split_maximum(p, i)
        )
        assert closed_core == literal_core
        # ... and bit-identical reported floats
        assert difference_quantity(p, i, w) == float(literal_core) * sum(w)


# ---------------------------------------------------------------------------
# growth audit


def test_finite_series_passes_any_threshold(rng):
    g = build_gamma(1)
    F = bundled_cubic(2)
    for constant in (1.5, 2.83, 10.0):
        rep = growth_audit(F, g, constant)
        assert rep.proxy == 0.0
        assert rep.passed
        # the per-degree quantities are still computed and reported
        assert rep.direct[3] > 0 and rep.difference[2] > 0


def test_geometric_family_fails(rng):
    g = build_gamma(1)
    F = bundled_geometric(2, ratio=1.0, degree=30)
    rep = growth_audit(F, g, constant=2.83)
    assert rep.tail_ratio == 1.0
    # the represented roots reach at least 6 * r0 (times matrix factors)
    assert rep.proxy >= 6.0
    assert not rep.passed


def test_threshold_formula():
    assert growth_threshold(2.0, 1) == pytest.approx(
        2.0 ** (-0.75) * 2.0 ** (-0.5) / 3.0
    )


def test_threshold_rejects_bad_constant():
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            growth_threshold(bad, 1)
    with pytest.raises(ValueError, match="is not finite"):
        growth_threshold(1e-300, 3)  # C^{-7/4} overflows


def test_verdict_monotone_under_scaling(rng):
    g = build_gamma(1)
    for F in (
        bundled_geometric(2, 1.0, 8),
        PowerSeriesNonlinearity(
            2, {(2, 0): np.array([1e-9, 0])}, tail_ratio=1e-9
        ),
    ):
        rep1 = growth_audit(F, g, 2.83)
        scaled = PowerSeriesNonlinearity(
            F.d0, {p: 7.0 * c for p, c in F.terms.items()}, tail_ratio=F.tail_ratio)
        rep2 = growth_audit(scaled, g, 2.83)
        if not rep1.passed:
            assert not rep2.passed
        assert rep2.proxy >= rep1.proxy


def test_audit_rejects_empty():
    g = build_gamma(1)
    with pytest.raises(ValueError):
        growth_audit(PowerSeriesNonlinearity(2, {}), g, 2.0)


# ---------------------------------------------------------------------------
# serialization


def _records(F):
    return [
        {"p": list(p), "c": [[z.real, z.imag] for z in c]} for p, c in F.terms.items()
    ]


def test_json_list_format_roundtrip(tmp_path, rng):
    F = _random_series(rng)
    path = tmp_path / "series.json"
    path.write_text(json.dumps(_records(F)))
    G = load_nonlinearity_file(str(path))
    assert set(G.terms) == set(F.terms)
    for p in F.terms:
        assert np.abs(G.terms[p] - F.terms[p]).max() <= 1e-15
    # the plain-list format is accepted verbatim
    H = load_nonlinearity(_records(F))
    assert set(H.terms) == set(F.terms)
    assert H.tail_ratio is None


def test_json_object_format_carries_tail(tmp_path):
    F = bundled_geometric(2, 0.5, 4)
    path = tmp_path / "geo.json"
    path.write_text(json.dumps({"terms": _records(F), "tail_ratio": 0.5}))
    G = load_nonlinearity_file(str(path))
    assert G.tail_ratio == 0.5
    assert set(G.terms) == set(F.terms)


def test_load_rejects_non_finite_values():
    good = [{"p": [3, 0], "c": [[1.0, 0.0], [0.0, 0.0]]}]
    assert load_nonlinearity(good).max_degree == 3
    for bad in (float("nan"), float("inf"), -float("inf")):
        for c in ([[bad, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, bad]]):
            with pytest.raises(ValueError, match="non-finite"):
                load_nonlinearity([{"p": [3, 0], "c": c}])
        with pytest.raises(ValueError, match="tail_ratio"):
            load_nonlinearity({"terms": good, "tail_ratio": bad})
    with pytest.raises(ValueError, match="tail_ratio"):
        load_nonlinearity({"terms": good, "tail_ratio": -0.5})
    # a NaN written by json.dump is read back as NaN, and still rejected
    with pytest.raises(ValueError, match="non-finite"):
        load_nonlinearity(json.loads('[{"p": [3, 0], "c": [[NaN, 0], [0, 0]]}]'))


def test_load_rejects_garbage():
    with pytest.raises((ValueError, KeyError, TypeError)):
        load_nonlinearity({"nope": 1})
    with pytest.raises(ValueError):
        load_nonlinearity([])
