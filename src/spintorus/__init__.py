"""Spectral simulation and verification toolkit for massive Dirac fields on flat tori.

The package is organised around truncated Fourier series on the d-dimensional
torus: Clifford algebra construction (``clifford``), spinor fields and
per-frequency matrices applied by ``apply_matrices`` (``spectral``), dyadic /
angular / cube frequency localisation (``dyadic``), the associated
function-space norms (``norms``), analytic power-series nonlinearities and
their growth audit (``nonlinear``), and the half-wave split Cauchy solver with
its Klein-Gordon cross-check (``solver``).  ``cli`` exposes the verification,
solve and audit commands.
"""

__version__ = "0.1.0"

from . import clifford, dyadic, fieldio, nonlinear, norms, spectral, solver  # noqa: E402

__all__ = [
    "clifford",
    "dyadic",
    "fieldio",
    "nonlinear",
    "norms",
    "spectral",
    "solver",
    "__version__",
]
