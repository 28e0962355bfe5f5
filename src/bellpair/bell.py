"""Entanglement and CHSH-violation metrics for two-qubit states.

Three quantities characterize a state here:

* the tangle, max{l1 - l2 - l3 - l4, 0} with l_k the descending square
  roots of the eigenvalues of rho (sigma_y (x) sigma_y) rho* (sigma_y (x)
  sigma_y) -- the spin-flip overlap spectrum;
* the maximal CHSH mean value 2 sqrt(M), with M the sum of the two largest
  eigenvalues of D D^T (Horodecki criterion);
* the purity Tr(rho^2).

The analyzer settings that attain the maximum are constructed from the two
leading eigenvectors c, c' of D^T D: b, b' = cos(t) c +- sin(t) c' with
tan(t) = |Dc'| / |Dc|, and a = Dc/|Dc|, a' = Dc'/|Dc'|.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import Spectrum, eig_symmetric3, eigvals_hermitian, sqrt_spectrum
from .states import DensityMatrix, SIGMA_Y, decompose, purity

UNIT_TOL = 1e-10
DEGENERATE_NORM = 1e-12
BELL_LIMIT = 2.0

_YY = np.kron(SIGMA_Y, SIGMA_Y)


class NonUnitDirection(ValueError):
    """Analyzer direction does not have unit norm to 1e-10."""


class DegenerateD(ValueError):
    """Correlation matrix too close to zero for optimal settings."""


def _unit3(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise NonUnitDirection(f"direction {name} must have three components")
    if abs(math.sqrt(float(v @ v)) - 1.0) > UNIT_TOL:
        raise NonUnitDirection(f"direction {name} has norm {math.sqrt(float(v @ v)):.12g}")
    return v


@dataclass(frozen=True)
class AnalyzerDirections:
    """Unit measurement directions a, a' (first spin) and b, b' (second)."""

    a: np.ndarray
    a_prime: np.ndarray
    b: np.ndarray
    b_prime: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _unit3(self.a, "a"))
        object.__setattr__(self, "a_prime", _unit3(self.a_prime, "a_prime"))
        object.__setattr__(self, "b", _unit3(self.b, "b"))
        object.__setattr__(self, "b_prime", _unit3(self.b_prime, "b_prime"))


@dataclass(frozen=True)
class BellReport:
    """Summary metrics of one state.

    ``max_violation`` equals ``2 sqrt(M)``; ``optimal`` is None when the
    correlation matrix is degenerate and no preferred settings exist.
    """

    tangle: float
    M: float
    max_violation: float
    purity: float
    optimal: AnalyzerDirections | None

    @property
    def violates(self) -> bool:
        return self.max_violation > BELL_LIMIT


def tangle(rho: DensityMatrix) -> float:
    """Spin-flip entanglement measure in [0, 1]; 0 for separable states.

    Evaluated through the Hermitian form: the l_k are the square roots of
    the eigenvalues of sqrt(rho) Rt sqrt(rho) with
    Rt = (sigma_y (x) sigma_y) rho* (sigma_y (x) sigma_y), which shares its
    spectrum with the non-Hermitian product rho Rt.  sqrt(rho) comes from
    the spectrum that :func:`states.validate` stored on the state.
    """
    root = sqrt_spectrum(rho.spectrum)
    prod = root @ (_YY @ rho.mat.conj() @ _YY) @ root
    lam = [math.sqrt(max(x, 0.0)) for x in eigvals_hermitian(0.5 * (prod + prod.conj().T))]
    return max(lam[0] - lam[1] - lam[2] - lam[3], 0.0)


def bell_mean(rho: DensityMatrix, dirs: AnalyzerDirections) -> float:
    """Mean CHSH combination a.D(b+b') + a'.D(b-b') for given settings."""
    d = decompose(rho).D
    return float(dirs.a @ (d @ (dirs.b + dirs.b_prime)) + dirs.a_prime @ (d @ (dirs.b - dirs.b_prime)))


def optimal_directions(rho: DensityMatrix) -> AnalyzerDirections:
    """Analyzer settings attaining the maximal CHSH mean value.

    Raises DegenerateD when ``|D c_max| <= 1e-12`` (no preferred settings,
    e.g. the unpolarized state).  The settings are not unique for
    degenerate spectra; the deterministic eigenvector ordering from the
    eigensolver picks one valid representative.
    """
    d = decompose(rho).D
    return _optimal_from_correlation(d, eig_symmetric3(d.T @ d))


def _optimal_from_correlation(d: np.ndarray, spec: Spectrum) -> AnalyzerDirections:
    """Optimal settings from D and the spectrum of its Gram matrix D^T D."""
    c1 = spec.eigenvectors[:, 0]
    c2 = spec.eigenvectors[:, 1]
    dc1 = d @ c1
    dc2 = d @ c2
    n1 = float(np.sqrt(dc1 @ dc1))
    n2 = float(np.sqrt(dc2 @ dc2))
    if n1 <= DEGENERATE_NORM:
        raise DegenerateD(f"|D c_max| = {n1:.3e}; optimal settings undefined")
    theta = math.atan2(n2, n1)
    b = math.cos(theta) * c1 + math.sin(theta) * c2
    b_prime = math.cos(theta) * c1 - math.sin(theta) * c2
    a = dc1 / n1
    a_prime = dc2 / n2 if n2 > DEGENERATE_NORM else c2
    return AnalyzerDirections(a=a, a_prime=a_prime, b=b, b_prime=b_prime)


def horodecki_max(rho: DensityMatrix) -> BellReport:
    """Full report: tangle, M, maximal violation 2 sqrt(M), purity, settings."""
    d = decompose(rho).D
    gram = eig_symmetric3(d.T @ d)
    gram_eigs = np.clip(gram.eigenvalues, 0.0, None)
    m_val = float(gram_eigs[0] + gram_eigs[1])
    try:
        optimal = _optimal_from_correlation(d, gram)
    except DegenerateD:
        optimal = None
    return BellReport(
        tangle=tangle(rho),
        M=m_val,
        max_violation=2.0 * math.sqrt(m_val),
        purity=purity(rho),
        optimal=optimal,
    )


def violates_chsh(rho: DensityMatrix) -> bool:
    """True iff the maximal CHSH mean value exceeds the classical limit 2."""
    return horodecki_max(rho).max_violation > BELL_LIMIT


def refine_directions(rho: DensityMatrix, dirs: AnalyzerDirections,
                      steps: int = 1000) -> AnalyzerDirections:
    """Locally improve analyzer settings by alternating exact updates.

    With b, b' fixed the optimal a, a' align with D(b+b') and D(b-b');
    with a, a' fixed the optimal b, b' align with D^T(a+a') and D^T(a-a').
    Each step is non-decreasing in the CHSH mean, so the iteration climbs
    to a stationary point (the global maximum from a good start).
    """
    d = decompose(rho).D
    a, ap = dirs.a.copy(), dirs.a_prime.copy()
    b, bp = dirs.b.copy(), dirs.b_prime.copy()
    value = -np.inf
    for _ in range(steps):
        u = d @ (b + bp)
        w = d @ (b - bp)
        a = _normalized_or(u, a)
        ap = _normalized_or(w, ap)
        x = d.T @ (a + ap)
        y = d.T @ (a - ap)
        b = _normalized_or(x, b)
        bp = _normalized_or(y, bp)
        new = float(a @ (d @ (b + bp)) + ap @ (d @ (b - bp)))
        if new - value < 1e-15:
            break
        value = new
    return AnalyzerDirections(a=a, a_prime=ap, b=b, b_prime=bp)


def _normalized_or(v: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    n = float(np.sqrt(v @ v))
    if n <= DEGENERATE_NORM:
        return fallback
    return v / n
