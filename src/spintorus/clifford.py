"""Dirac gamma matrices for arbitrary spatial dimension.

The construction is the standard recursive one: fixed Pauli-based sets in
dimensions 1 and 2, then two extra anticommuting generators are added per
dimension pair by tensoring with Pauli blocks.  Everything downstream only
relies on the Clifford relations, which ``anticommutator_defect`` measures
directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# spinor blocks above this order would stop being desk-scale
MAX_SPINOR_DIM = 1024

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


def spinor_dimension(d: int) -> int:
    """Spinor dimension 2**floor((d+1)/2) for spatial dimension d."""
    return 2 ** ((d + 1) // 2)


@dataclass(frozen=True)
class GammaSet:
    """Gamma matrices gamma^0..gamma^d with the derived alpha^j and beta.

    ``alpha[j] = gamma^0 gamma^{j+1}`` and ``beta = gamma^0``.  All matrices
    are immutable complex arrays of order ``d0``.
    """

    d: int
    d0: int
    gamma: tuple[np.ndarray, ...]
    alpha: tuple[np.ndarray, ...]
    beta: np.ndarray

    def dirac_symbol(self, xi, mass: float = 1.0) -> np.ndarray:
        """H_m = sum_j alpha^j xi_j + mass beta at frequencies ``xi`` of shape
        (..., d), shape (..., d0, d0); H_m^2 = (|xi|^2 + mass^2) I."""
        xi = np.asarray(xi, dtype=float)
        h = np.zeros(xi.shape[:-1] + (self.d0, self.d0), dtype=np.complex128)
        for j in range(self.d):
            h += xi[..., j, None, None] * self.alpha[j]
        h += mass * self.beta
        return h


def _alpha_beta(d: int) -> tuple[list[np.ndarray], np.ndarray]:
    # Base cases use the Pauli matrices; d -> d+2 doubles the block size.
    if d == 1:
        return [_SIGMA_X.copy()], _SIGMA_Z.copy()
    if d == 2:
        return [_SIGMA_X.copy(), _SIGMA_Y.copy()], _SIGMA_Z.copy()
    alphas, beta = _alpha_beta(d - 2)
    eye = np.eye(beta.shape[0], dtype=np.complex128)
    doubled = [np.kron(_SIGMA_X, a) for a in alphas]
    doubled.append(np.kron(_SIGMA_Y, eye))
    doubled.append(np.kron(_SIGMA_X, beta))
    return doubled, np.kron(_SIGMA_Z, eye)


def build_gamma(d: int) -> GammaSet:
    """Build a deterministic GammaSet for spatial dimension ``d``.

    Raises ``ValueError`` for d < 1 or when the spinor dimension would
    exceed the storage cap.
    """
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise ValueError(f"spatial dimension must be a positive integer, got {d!r}")
    d0 = spinor_dimension(d)
    if d0 > MAX_SPINOR_DIM:
        raise ValueError(
            f"spinor dimension {d0} exceeds the cap {MAX_SPINOR_DIM} (d={d})"
        )
    alphas, beta = _alpha_beta(d)
    gamma0 = beta
    gammas = [gamma0] + [gamma0 @ a for a in alphas]
    for g in gammas:
        g.flags.writeable = False
    alpha = tuple(a for a in alphas)
    for a in alpha:
        a.flags.writeable = False
    return GammaSet(d=d, d0=d0, gamma=tuple(gammas), alpha=alpha, beta=gamma0)


def anticommutator_defect(g: GammaSet) -> float:
    """Largest Frobenius-norm violation of the alpha/beta algebra.

    Covers {alpha^j, alpha^k} = 2 delta^{jk} I, {alpha^j, beta} = 0,
    beta^2 = I and (alpha^j)^2 = I.  Exact sets score at rounding level.
    """
    eye = np.eye(g.d0, dtype=np.complex128)
    defect = np.linalg.norm(g.beta @ g.beta - eye)
    for j, aj in enumerate(g.alpha):
        defect = max(defect, np.linalg.norm(aj @ aj - eye))
        defect = max(defect, np.linalg.norm(aj @ g.beta + g.beta @ aj))
        for ak in g.alpha[j + 1 :]:
            defect = max(defect, np.linalg.norm(aj @ ak + ak @ aj))
    return float(defect)
