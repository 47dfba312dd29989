import numpy as np
import pytest

from spintorus.clifford import (
    GammaSet,
    anticommutator_defect,
    build_gamma,
    spinor_dimension,
)


def dense_anticommutator_oracle(alphas, beta):
    """Direct evaluation of every algebra identity by matrix multiplication."""
    d0 = beta.shape[0]
    eye = np.eye(d0)
    worst = np.linalg.norm(beta @ beta - eye)
    for j, aj in enumerate(alphas):
        worst = max(worst, np.linalg.norm(aj @ aj - eye))
        worst = max(worst, np.linalg.norm(aj @ beta + beta @ aj))
        for k, ak in enumerate(alphas):
            if k <= j:
                continue
            worst = max(worst, np.linalg.norm(aj @ ak + ak @ aj))
    return worst


def test_spinor_dimensions():
    assert [spinor_dimension(d) for d in range(1, 10)] == [2, 2, 4, 4, 8, 8, 16, 16, 32]


def test_d3_shapes():
    g = build_gamma(3)
    assert g.d0 == 4
    assert len(g.gamma) == 4
    assert all(m.shape == (4, 4) for m in g.gamma)


def test_d1_explicit_set_is_valid():
    # the reference output beta=diag(1,-1), alpha=offdiag(1,1) passes the suite
    beta = np.diag([1.0, -1.0]).astype(complex)
    alpha = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    assert dense_anticommutator_oracle([alpha], beta) == 0.0
    g = build_gamma(1)
    assert anticommutator_defect(g) <= 1e-13


def test_d9_all_identities():
    g = build_gamma(9)
    assert g.d0 == 32
    assert dense_anticommutator_oracle(list(g.alpha), g.beta) <= 1e-13


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 9])
def test_defect_small_everywhere(d):
    assert anticommutator_defect(build_gamma(d)) <= 1e-13


def test_scaled_alpha_breaks_algebra():
    g = build_gamma(2)
    bad = GammaSet(
        d=g.d,
        d0=g.d0,
        gamma=g.gamma,
        alpha=(2.0 * g.alpha[0], g.alpha[1]),
        beta=g.beta,
    )
    # (2 alpha)^2 - I = 3 I alone contributes Frobenius norm 3 sqrt(d0)
    assert anticommutator_defect(bad) >= 3.0 * np.sqrt(g.d0) - 1e-12


def test_d2_pauli_set_exact():
    # integer/half-integer arithmetic: the base set is exactly Clifford
    g = build_gamma(2)
    assert anticommutator_defect(g) == 0.0


def test_dispersion_square_identity():
    # (sum alpha^j xi_j + beta)^2 = <xi>^2 I -- what makes the projectors idempotent
    rng = np.random.default_rng(11)
    for d in (1, 2, 3):
        g = build_gamma(d)
        eye = np.eye(g.d0)
        for _ in range(100):
            xi = rng.integers(-8, 9, size=d)
            h = g.dirac_symbol(xi)
            target = (1.0 + float(np.sum(xi * xi))) * eye
            assert np.abs(h @ h - target).max() <= 1e-12


def test_determinism_bit_identical():
    a, b = build_gamma(5), build_gamma(5)
    for m1, m2 in zip(a.gamma, b.gamma):
        assert np.array_equal(m1, m2)


def test_rejects_bad_dimension():
    with pytest.raises(ValueError):
        build_gamma(0)
    with pytest.raises(ValueError):
        build_gamma(-2)
    with pytest.raises(ValueError):
        build_gamma(21)  # spinor blocks beyond the 1024 cap
