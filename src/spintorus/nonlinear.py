"""Analytic nonlinearities as finitely supported power series in the spinor
components, their field evaluation, and the coefficient-growth audit with
the smallness threshold.  The integral-remainder difference expansion,
whose weights the audit bounds, is a test reference in ``tests/oracles.py``.

A nonlinearity is a map F: C^{d0} -> C^{d0} of the form
F(psi) = sum_p c_p psi^p with multi-indices p over the components (monomials
only, no conjugates).  Only finitely many coefficients are stored; truncated
families standing for an infinite series may declare a geometric tail ratio,
which is what the growth audit judges.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .clifford import GammaSet
from .spectral import FrequencyLattice, from_grid, to_grid


@dataclass
class PowerSeriesNonlinearity:
    """Finitely supported power series with coefficient vectors in C^{d0}."""

    d0: int
    terms: dict  # multi-index tuple -> ndarray (d0,)
    tail_ratio: float | None = None

    def __post_init__(self):
        clean = {}
        for p, c in self.terms.items():
            p = tuple(int(x) for x in p)
            if len(p) != self.d0 or any(x < 0 for x in p):
                raise ValueError(f"bad multi-index {p} for d0={self.d0}")
            c = np.asarray(c, dtype=np.complex128)
            if c.shape != (self.d0,):
                raise ValueError(f"coefficient for {p} must be a C^{self.d0} vector")
            if np.any(c != 0):
                clean[p] = c
        self.terms = clean
        if (0,) * self.d0 in self.terms:
            raise ValueError("constant term present but the series must vanish at 0")
        # the support evaluate and jacobian_product work from: per term, its
        # (component, exponent) factors and its (a, c_a, first) triples with
        # c_a != 0, where first marks the first term that writes component a
        # for evaluate, which zeroes the components that no term writes
        written = set()
        self._support = []
        for p, c in self.terms.items():
            pairs = []
            for a in np.flatnonzero(c):
                pairs.append((a, c[a], a not in written))
                written.add(a)
            self._support.append(([(k, e) for k, e in enumerate(p) if e], pairs))
        self._unwritten = [a for a in range(self.d0) if a not in written]
        # the diagonal power class, F_a = c_a psi_a^e with one e for all a:
        # (e, c) when each component has one term, written to it alone
        diagonal = {factors[0][0]: (factors[0][1], pairs[0][1])
                    for factors, pairs in self._support
                    if len(factors) == len(pairs) == 1 and factors[0][0] == pairs[0][0]}
        exponents = {e for e, _ in diagonal.values()}
        self._diagonal = None
        if len(diagonal) == len(self._support) == self.d0 and len(exponents) == 1:
            self._diagonal = (exponents.pop(),
                              np.array([diagonal[a][1] for a in range(self.d0)]))
        self._top = max((e for factors, _ in self._support for _, e in factors),
                        default=0)
        # the highest power a lowered monomial of jacobian_product reads: a
        # one-factor psi_b^e lowers to psi_b^{e-1}; a product keeps its other
        # factors, so its largest exponent is read when another is lowered
        self._jacobian_top = max((factors[0][1] - 1 if len(factors) == 1
                                  else max(e for _, e in factors)
                                  for factors, _ in self._support), default=0)
        self.max_degree = max((sum(p) for p in self.terms), default=0)

    def is_zero(self) -> bool:
        return not self.terms


def load_nonlinearity(obj) -> PowerSeriesNonlinearity:
    """Parse the JSON form: either a plain list of {p, c} records or an
    object {"terms": [...], "tail_ratio": r} for declared-tail families.
    Raises ValueError on an exponent that is not an integer (a bool, float or
    string), a coefficient part that is a bool, a coefficient list whose
    length is not d0, a coefficient that is not finite or a tail ratio that
    is a bool or is not finite and >= 0."""
    tail = None
    if isinstance(obj, dict):
        tail = obj.get("tail_ratio")
        records = obj["terms"]
    else:
        records = obj
    if not isinstance(records, list) or not records:
        raise ValueError("nonlinearity file must contain a nonempty term list")
    if isinstance(tail, bool) or (tail is not None
                                  and not (math.isfinite(tail) and tail >= 0)):
        raise ValueError(f"tail_ratio must be finite and >= 0, got {tail}")
    d0 = len(records[0]["p"])
    terms = {}
    for rec in records:
        if not all(isinstance(x, (int, np.integer)) and not isinstance(x, bool)
                   for x in rec["p"]):
            raise ValueError(f"exponents must be integers, got {rec['p']}")
        p = tuple(int(x) for x in rec["p"])
        if any(isinstance(x, bool) for pair in rec["c"] for x in pair):
            raise ValueError(f"coefficient parts must be numbers, got {rec['c']}")
        c = np.array([complex(re, im) for re, im in rec["c"]])
        if c.shape != (d0,):
            raise ValueError(f"the multi-index {p} needs {d0} coefficients, got {len(c)}")
        if not np.isfinite(c).all():
            raise ValueError(f"non-finite coefficient for the multi-index {p}")
        terms[p] = terms.get(p, np.zeros(d0, dtype=np.complex128)) + c
    return PowerSeriesNonlinearity(d0, terms, tail_ratio=tail)


def load_nonlinearity_file(path: str) -> PowerSeriesNonlinearity:
    with open(path) as fh:
        return load_nonlinearity(json.load(fh))


def left_multiply(mat: np.ndarray, F: PowerSeriesNonlinearity) -> PowerSeriesNonlinearity:
    """The series M F, coefficients M c_p, so that one evaluation gives
    M F(psi) with no pass over the result.  For a diagonal M with entries
    +-1 or +-i (beta, i beta) the support does not grow, and the value equals
    M applied to F's value exactly: each coefficient only changes sign or
    swaps its real and imaginary parts."""
    return PowerSeriesNonlinearity(F.d0, {p: mat @ c for p, c in F.terms.items()})


# bundled families used by the command-line scenarios and the audit tests


def bundled_cubic(d0: int = 2) -> PowerSeriesNonlinearity:
    """Componentwise cubic F_k(psi) = psi_k^3."""
    terms = {}
    for k in range(d0):
        p = [0] * d0
        p[k] = 3
        c = np.zeros(d0, dtype=np.complex128)
        c[k] = 1.0
        terms[tuple(p)] = c
    return PowerSeriesNonlinearity(d0, terms)


def bundled_geometric(
    d0: int = 2, ratio: float = 1.0, degree: int = 30
) -> PowerSeriesNonlinearity:
    """Dense truncation of the geometric family c_p = ratio^{|p|} e_1.

    Carries its tail ratio, declaring that the truncation stands for the
    full infinite series.
    """
    e1 = np.zeros(d0, dtype=np.complex128)
    e1[0] = 1.0
    terms = {}
    for p in itertools.product(range(degree + 1), repeat=d0):
        if 1 <= sum(p) <= degree:
            terms[p] = ratio ** sum(p) * e1
    return PowerSeriesNonlinearity(d0, terms, tail_ratio=ratio)


BUNDLED = {"cubic": bundled_cubic, "geometric": bundled_geometric}


# ---------------------------------------------------------------------------
# evaluation


def _powers(psi: np.ndarray, top: int) -> list:
    """psi, psi*psi, ... up to the ``top``-th power on the whole array; entry
    e is the e-th power.  Entry 0 is None: monomials skip exponent 0, so no
    all-ones array is built."""
    powers = [None, psi]
    for _ in range(top - 1):
        powers.append(powers[-1] * psi)
    return powers


def _monomial(powers: list, factors, scale=None):
    """Product of the (component, exponent) factors read from ``powers``,
    times ``scale`` when given."""
    mono = scale
    for k, e in factors:
        mono = powers[e][..., k] if mono is None else mono * powers[e][..., k]
    return mono


def evaluate(F: PowerSeriesNonlinearity, psi) -> np.ndarray:
    """F at one or many spinor values; trailing axis is the component axis.

    A diagonal series (F_a = c_a psi_a^e, as the bundled cubic and its
    beta-folded forms) is c * psi^e on the whole array, built in place in the
    output.  Otherwise each power of psi is formed once and every monomial
    is read from it; a monomial is added only to the components where its
    coefficient is nonzero.  The result has the memory layout of psi, so on
    a component-major grid every power and monomial reads contiguous planes.
    """
    psi = np.asarray(psi, dtype=np.complex128)
    if psi.shape[-1] != F.d0:
        raise ValueError("value has the wrong number of spinor components")
    if F._diagonal is not None:
        e, c = F._diagonal
        out = psi * psi if e > 1 else psi.copy(order="K")
        for _ in range(e - 2):
            out *= psi
        out *= c
        return out
    out = np.empty_like(psi)
    powers = _powers(psi, F._top)
    for factors, coeffs in F._support:
        mono = _monomial(powers, factors)
        for a, c, first in coeffs:
            if first:
                np.multiply(c, mono, out=out[..., a])
            else:
                out[..., a] += c * mono
    for a in F._unwritten:
        out[..., a] = 0.0
    return out


def jacobian_product(F: PowerSeriesNonlinearity, psi, v) -> np.ndarray:
    """J(psi) v = sum_p c_p sum_b p_b psi^{p - e_b} v_b without forming J, at
    one or many values; the result has the memory layout of psi, as in evaluate."""
    psi = np.asarray(psi, dtype=np.complex128)
    out = np.zeros_like(psi)
    powers = _powers(psi, F._jacobian_top)
    for factors, coeffs in F._support:
        for b, eb in factors:
            # d/dpsi_b lowers the factor psi_b^eb by one (drops it at eb = 1)
            lowered = [(k, e - (k == b)) for k, e in factors if (k, e) != (b, 1)]
            mono = _monomial(powers, lowered, v[..., b])
            for a, c, _ in coeffs:
                out[..., a] += eb * c * mono
    return out


# Padded-grid bytes one chunk of evaluate_coefficients may hold: about an L2
# cache.  At d=3, N=8 one cubic frame already exceeds it (2.3 MiB).
CHUNK_BYTES = 4 * 2**20


def padded_grid_size(lattice: FrequencyLattice, degree: int) -> int:
    """Alias-free grid for evaluating a degree-``degree`` monomial map: the
    product spectrum reaches degree*N per axis, so M > (degree+1)*N."""
    return (max(degree, 1) + 1) * lattice.radius + 1


def evaluate_coefficients(
    F: PowerSeriesNonlinearity, coeffs: np.ndarray, lattice: FrequencyLattice
) -> np.ndarray:
    """Lattice coefficients of F(psi) for psi given by its coefficients, with
    any number of leading batch axes (e.g. the frames of a trajectory).

    F is evaluated pointwise on a padded physical grid, transformed back and
    truncated.  The padding rule makes the truncated coefficients exact: no
    aliased copy of the degree-|p| product spectrum can reach the lattice.
    The batch is worked through in chunks of frames whose padded grid holds
    at most ``CHUNK_BYTES`` (at least one frame per chunk); a batch that fits
    in one chunk is transformed in a single call.
    """
    if F.is_zero():
        return np.zeros_like(coeffs)
    d, radius = lattice.d, lattice.radius
    grid = padded_grid_size(lattice, F.max_degree)
    box = coeffs.shape[-d - 1:]
    n = math.prod(coeffs.shape[: -d - 1])
    chunk = max(1, CHUNK_BYTES // (16 * grid**d * box[-1]))
    if n <= chunk:
        return from_grid(evaluate(F, to_grid(coeffs, d, grid)), d, radius)
    # The padding is exact frame by frame, so only one chunk of frames needs
    # to be on the padded grid at a time.
    flat = coeffs.reshape((n,) + box)
    out = np.empty(flat.shape, dtype=np.complex128)
    for start in range(0, n, chunk):
        part = to_grid(flat[start : start + chunk], d, grid)
        out[start : start + chunk] = from_grid(evaluate(F, part), d, radius)
    return out.reshape(coeffs.shape)


# ---------------------------------------------------------------------------
# combinatorics


def multinomial_split(p) -> dict:
    """Splitting coefficients of (u + v)^p: map (m, n) with m+n=p to the
    product of binomials; they sum to 2^{|p|}."""
    p = tuple(int(x) for x in p)
    out = {}
    for m in itertools.product(*(range(pk + 1) for pk in p)):
        n = tuple(pk - mk for pk, mk in zip(p, m))
        out[(m, n)] = math.prod(math.comb(pk, mk) for pk, mk in zip(p, m))
    return out


def decrement_index(p, i: int):
    """(p - e_i)^+ with 1-based component i: clamps the i-th entry at 0."""
    p = tuple(int(x) for x in p)
    if not (1 <= i <= len(p)):
        raise ValueError(f"component {i} out of range 1..{len(p)}")
    out = list(p)
    out[i - 1] = max(out[i - 1] - 1, 0)
    return tuple(out)


# ---------------------------------------------------------------------------
# growth audit


@dataclass
class GrowthAuditReport:
    """Per-degree growth quantities of a power series against the smallness
    threshold required by the global small-data theory.

    ``direct`` collects the degree-r quantities from the self-mapping
    estimate, ``difference`` those from the contraction estimate; the proxy
    is the limsup surrogate of their r-th roots.  A finite series with no
    declared tail has vanishing tail quantities, so its proxy is 0 and it
    passes for every positive threshold; a declared geometric tail is judged
    by the represented degrees (a lower bound for the infinite family).
    """

    d: int
    d0: int
    constant: float
    threshold: float
    direct: dict  # r -> B_r
    difference: dict  # r -> A_r
    roots: dict  # r -> max(B_r, A_r)^(1/r)
    tail_ratio: float | None
    proxy: float
    passed: bool


def growth_threshold(constant: float, d: int) -> float:
    """C^{-d/2-1/4} 2^{-d/2} / 3 for the measured derivative constant C."""
    if not (math.isfinite(constant) and constant > 0):
        raise ValueError(f"derivative constant must be positive and finite, "
                         f"got {constant}")
    try:
        return constant ** (-d / 2.0 - 0.25) * 2.0 ** (-d / 2.0) / 3.0
    except OverflowError:
        raise ValueError(f"derivative constant {constant} is too small: its "
                         f"threshold at d={d} is not finite") from None


def matrix_weights(g: GammaSet, c: np.ndarray) -> tuple[float, float, float]:
    """|c|, |gamma^0 c| and sum_k |gamma^k c| (Euclidean vector norms)."""
    w1 = float(np.linalg.norm(c))
    w2 = float(np.linalg.norm(g.gamma[0] @ c))
    w3 = float(sum(np.linalg.norm(g.gamma[k] @ c) for k in range(1, g.d + 1)))
    return w1, w2, w3


def _central_binom_product(p) -> int:
    return math.prod(math.comb(pk, pk // 2) for pk in p)


def direct_quantity(p, weights: tuple[float, float, float]) -> float:
    """Degree-|p| direct quantity of one coefficient: the neighbour-index
    sums collapse to 3^{|p|} because the summand never depends on them, and
    the split maximum is attained at the central binomials."""
    r = sum(p)
    return 3.0**r * _central_binom_product(p) * max(weights)


def difference_split_maximum(p, i: int) -> Fraction:
    """Exact rational maximum over the nested splits of (p - e_i)^+ of
    E_{mn} a_max(m) b_max(n) / (|m|+1); the combinatorial core of the
    difference quantity.

    Apart from 1/(|m|+1) the summand is a product over components, so the
    maximum depends only on the multiset of the entries of (p - e_i)^+ and
    is computed once for each.
    """
    return _split_maximum(tuple(sorted(decrement_index(p, i))))


@functools.lru_cache(maxsize=4096)
def _split_maximum(q: tuple) -> Fraction:
    """Max-product knapsack over the components of q on exact integers: the
    best product for each total |m|, then one Fraction per total."""
    best = {0: 1}  # total |m| -> largest product over the components so far
    for qk in q:
        factors = [math.comb(qk, mk) * math.comb(mk, mk // 2)
                   * math.comb(qk - mk, (qk - mk) // 2) for mk in range(qk + 1)]
        grown = {}
        for total, value in best.items():
            for mk, factor in enumerate(factors):
                grown[total + mk] = max(grown.get(total + mk, 0), value * factor)
        best = grown
    return max(Fraction(value, total + 1) for total, value in best.items())


def difference_quantity(p, i: int, weights: tuple[float, float, float]) -> float:
    """Degree-(|p|-1) difference quantity from component i of one
    coefficient: 3^{r+1} (the +1 from the extra modulation index) times the
    best nested split of (p - e_i)^+ with the 1/(|m|+1) line-integral
    weight, times p_i and the summed matrix weights."""
    q = decrement_index(p, i)
    r = sum(q)
    core = 3 ** (r + 1) * p[i - 1] * difference_split_maximum(p, i)
    return float(core) * sum(weights)


def growth_audit(
    F: PowerSeriesNonlinearity,
    g: GammaSet,
    constant: float,
    tail_ratio: float | None = None,
) -> GrowthAuditReport:
    """Audit the series coefficients against the smallness threshold.

    ``constant`` is the measured derivative-inequality constant (see
    norms.measure_bernstein_constant) or an override.  ``tail_ratio``
    overrides the ratio declared by the series itself.
    """
    if F.is_zero():
        raise ValueError("cannot audit an empty series")
    if g.d0 != F.d0:
        raise ValueError("gamma set and series spinor dimensions differ")
    tail = tail_ratio if tail_ratio is not None else F.tail_ratio
    threshold = growth_threshold(constant, g.d)
    direct, difference = {}, {}
    weights = {}  # coefficient bytes -> matrix weights; series often repeat one vector
    for p, c in F.terms.items():
        r = sum(p)
        key = c.tobytes()
        if key not in weights:
            weights[key] = matrix_weights(g, c)
        w = weights[key]
        direct[r] = max(direct.get(r, 0.0), direct_quantity(p, w))
        for i in range(1, F.d0 + 1):
            if p[i - 1] == 0:
                continue
            aq = difference_quantity(p, i, w)
            difference[r - 1] = max(difference.get(r - 1, 0.0), aq)
    roots = {}
    for r in sorted(set(direct) | set(difference)):
        if r < 1:
            continue
        worst = max(direct.get(r, 0.0), difference.get(r, 0.0))
        if worst > 0.0:
            roots[r] = worst ** (1.0 / r)
    # The audited statement is asymptotic: a finite series has vanishing
    # tail quantities, so only a declared tail makes the represented-degree
    # roots speak for the limit.
    proxy = max(roots.values(), default=0.0) if tail is not None else 0.0
    return GrowthAuditReport(d=g.d, d0=g.d0, constant=float(constant), threshold=threshold,
                             direct=direct, difference=difference, roots=roots,
                             tail_ratio=tail, proxy=proxy, passed=proxy < threshold)
