"""Entanglement and CHSH-violation metrics for two-qubit states.

Three quantities characterize a state here:

* the tangle, max{l1 - l2 - l3 - l4, 0} with l_k the descending singular
  values of tau = Psi^T (sigma_y (x) sigma_y) Psi for any factor
  rho = Psi Psi^dag (Wootters, PRL 80, 2245, 1998) -- the spin-flip
  overlap spectrum;
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

from .linalg import Spectrum, eig_symmetric3, eigvals_hermitian
from .states import DensityMatrix, SIGMA_Y, decompose, purity

UNIT_TOL = 1e-10
DEGENERATE_NORM = 1e-12
BELL_LIMIT = 2.0

_YY = np.kron(SIGMA_Y, SIGMA_Y)


class NonUnitDirection(ValueError):
    """Analyzer direction does not have unit norm to 1e-10."""


def _unit3(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise NonUnitDirection(f"direction {name} must have three components")
    if not abs(math.sqrt(float(v @ v)) - 1.0) <= UNIT_TOL:  # also rejects nan
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

    Wootters' factor route: with Psi = V sqrt(w) from the spectrum that
    :func:`states.validate` stored on the state, the l_k are the singular
    values of tau = Psi^T (sigma_y (x) sigma_y) Psi, taken as the square
    roots of the eigenvalues of tau^dag tau.  tau is quadratic in Psi, so
    rounding noise in a null eigenvalue w of rho moves the l_k by about w,
    not sqrt(w), and rank-deficient states keep rounding accuracy.
    """
    w = rho.spectrum.eigenvalues
    psi = rho.spectrum.eigenvectors * np.sqrt(np.clip(w, 0.0, None))
    tau = psi.T @ _YY @ psi
    lam = [math.sqrt(max(x, 0.0)) for x in eigvals_hermitian(tau.conj().T @ tau)]
    return max(lam[0] - lam[1] - lam[2] - lam[3], 0.0)


def _optimal_from_correlation(d: np.ndarray, spec: Spectrum) -> AnalyzerDirections | None:
    """Optimal settings from D and the spectrum of its Gram matrix D^T D.

    None when ``|D c_max| <= 1e-12`` (no preferred settings, e.g. the
    unpolarized state).  For a degenerate spectrum the eigensolver's
    deterministic eigenvector order picks one of the optimal settings.
    """
    c1 = spec.eigenvectors[:, 0]
    c2 = spec.eigenvectors[:, 1]
    dc1 = d @ c1
    dc2 = d @ c2
    n1 = float(np.sqrt(dc1 @ dc1))
    n2 = float(np.sqrt(dc2 @ dc2))
    if n1 <= DEGENERATE_NORM:
        return None
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
    return BellReport(
        tangle=tangle(rho),
        M=m_val,
        max_violation=2.0 * math.sqrt(m_val),
        purity=purity(rho),
        optimal=_optimal_from_correlation(d, gram),
    )
