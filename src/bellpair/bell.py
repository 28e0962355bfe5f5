"""Entanglement and CHSH-violation metrics for two-qubit states.

Three quantities characterize a state here:

* the tangle, max{l1 - l2 - l3 - l4, 0} with l_k the descending singular
  values of tau = Psi^T (sigma_y (x) sigma_y) Psi for any factor
  rho = Psi Psi^dag (Wootters, PRL 80, 2245, 1998) -- the spin-flip
  overlap spectrum; Psi is the factor that :func:`states.validate` stored
  on the state, as a rule its pivoted Cholesky factor;
* the maximal CHSH mean value 2 sqrt(M), with M the sum of the two largest
  eigenvalues of D D^T (Horodecki criterion);
* the purity Tr(rho^2).

The analyzer settings that attain the maximum are constructed from the two
leading eigenvectors c, c' of D^T D: b, b' = cos(t) c +- sin(t) c' with
tan(t) = |Dc'| / |Dc|, and a = Dc/|Dc|, a' = Dc'/|Dc'|.
"""
from __future__ import annotations

import math
from collections import namedtuple

from .linalg import Spectrum, jacobi_eigenvalues, jacobi_spectrum
from .states import DensityMatrix, decompose, purity

UNIT_TOL = 1e-10
DEGENERATE_NORM = 1e-12
BELL_LIMIT = 2.0


class NonUnitDirection(ValueError):
    """Analyzer direction does not have unit norm to 1e-10."""


def _unit3(v, name: str) -> tuple[float, ...]:
    v = tuple(map(float, v))
    if len(v) != 3:
        raise NonUnitDirection(f"direction {name} must have three components")
    norm = math.sqrt(_dot(v, v))
    if not abs(norm - 1.0) <= UNIT_TOL:  # also rejects nan
        raise NonUnitDirection(f"direction {name} has norm {norm:.12g}")
    return v


def _dot(x, y) -> float:
    total = 0.0  # added left to right, as ordered_sum adds
    for a, b in zip(x, y):
        total += a * b
    return total


class AnalyzerDirections(namedtuple("AnalyzerDirections", "a a_prime b b_prime")):
    """Unit measurement directions a, a' (first spin) and b, b' (second), as tuples."""

    __slots__ = ()

    def __new__(cls, a, a_prime, b, b_prime) -> AnalyzerDirections:
        return super().__new__(cls, *map(_unit3, (a, a_prime, b, b_prime), cls._fields))


class BellReport(namedtuple("BellReport", "tangle M max_violation purity optimal")):
    """Summary metrics of one state, as ``float``s but ``optimal``.

    ``max_violation`` equals ``2 sqrt(M)``; ``optimal`` holds the
    :class:`AnalyzerDirections` that attain it, or None when the
    correlation matrix is degenerate and no preferred settings exist.
    """

    __slots__ = ()

    @property
    def violates(self) -> bool:
        return self.max_violation > BELL_LIMIT


def _flip_gram(psi: tuple) -> list[list]:
    """tau^dag tau for the factor rows ``psi``, as lists, exactly Hermitian: its diagonal's imaginary parts are 0.0."""
    p0, p1, p2, p3 = psi
    # sigma_y (x) sigma_y is the anti-diagonal (-1, 1, 1, -1), so tau is this exactly symmetric sum
    tau = [[(p1[k] * p2[j] + p2[k] * p1[j]) - (p0[k] * p3[j] + p3[k] * p0[j]) for j in range(4)] for k in range(4)]
    conj = [[x.conjugate() for x in row] for row in tau]  # tau^dag, as tau is symmetric
    return [[c0 * t0 + c1 * t1 + c2 * t2 + c3 * t3 for t0, t1, t2, t3 in tau] for c0, c1, c2, c3 in conj]


def tangle(rho: DensityMatrix) -> float:
    """Spin-flip entanglement measure in [0, 1]; 0 for separable states.

    Wootters' factor route: with Psi the factor that :func:`states.validate`
    stored on the state (rho = Psi Psi^dag; see :class:`states.DensityMatrix`),
    the l_k are the singular values of
    tau = Psi^T (sigma_y (x) sigma_y) Psi, taken as the square roots of the
    eigenvalues of tau^dag tau; they are the same for every factor of rho.
    tau is quadratic in Psi, so a rounding-sized pivot of a rank-deficient
    state moves the l_k by about its size, not its square root.
    """
    gram = _flip_gram(rho.factor)  # entries at most 16: hermitian_lists' checks cannot fail
    for k, row in enumerate(gram):
        row[k] = row[k].real
    lam = [math.sqrt(max(x, 0.0)) for x in sorted(jacobi_eigenvalues(gram), reverse=True)]
    return max(lam[0] - lam[1] - lam[2] - lam[3], 0.0)


def _optimal_from_correlation(d: tuple, spec: Spectrum) -> AnalyzerDirections | None:
    """Optimal settings from D and the spectrum of its Gram matrix D^T D.

    None when ``|D c_max| <= 1e-12`` (no preferred settings, e.g. the
    unpolarized state).  For a degenerate spectrum the eigensolver's
    deterministic eigenvector order picks one of the optimal settings.
    """
    c1, c2, _ = zip(*spec.eigenvectors)  # the two leading eigenvectors, as columns
    dc1 = [_dot(row, c1) for row in d]
    dc2 = [_dot(row, c2) for row in d]
    n1 = math.sqrt(_dot(dc1, dc1))
    n2 = math.sqrt(_dot(dc2, dc2))
    if n1 <= DEGENERATE_NORM:
        return None
    theta = math.atan2(n2, n1)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    return AnalyzerDirections(
        a=[x / n1 for x in dc1],
        a_prime=[x / n2 for x in dc2] if n2 > DEGENERATE_NORM else c2,
        b=[cos_t * x + sin_t * y for x, y in zip(c1, c2)],
        b_prime=[cos_t * x - sin_t * y for x, y in zip(c1, c2)],
    )


def horodecki_max(rho: DensityMatrix) -> BellReport:
    """Full report: tangle, M, maximal violation 2 sqrt(M), purity, settings."""
    d = decompose(rho).D
    cols = list(zip(*d))
    # D^T D is exactly symmetric (_dot(ci, cj) and _dot(cj, ci) make the same products in the same
    # order), with entries at most 3 for a validated state: hermitian_lists' checks cannot fail
    gram = jacobi_spectrum([[_dot(ci, cj) for cj in cols] for ci in cols])
    m_val = max(0.0, gram.eigenvalues[0]) + max(0.0, gram.eigenvalues[1])
    return BellReport(
        tangle=tangle(rho),
        M=m_val,
        max_violation=2.0 * math.sqrt(m_val),
        purity=purity(rho),
        optimal=_optimal_from_correlation(d, gram),
    )
