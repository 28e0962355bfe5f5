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

DEGENERATE_NORM = 1e-12
TIE_TOL = 1e-12
BELL_LIMIT = 2.0


def _dot(x, y) -> float:
    total = 0.0  # added left to right, as ordered_sum adds
    for a, b in zip(x, y):
        total += a * b
    return total


class AnalyzerDirections(namedtuple("AnalyzerDirections", "a a_prime b b_prime")):
    """Unit measurement directions a, a' (first spin) and b, b' (second), as tuples of floats."""

    __slots__ = ()


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

    None when ``|D c_1| <= 1e-12`` (no preferred settings, e.g. the
    unpolarized state).  c_1 and c_2 are the first two eigenvectors in the
    settings order, which makes a degenerate spectrum pick one of its optimal
    settings deterministically: a run is the eigenvalues within 1e-12 of the
    run's first one, and the columns of a run longer than one are taken in
    lexicographic order.
    """
    w, cols = spec.eigenvalues, list(zip(*spec.eigenvectors))
    lead, i = [], 0
    while len(lead) < 2:
        j = i + 1
        while j < len(w) and w[i] - w[j] <= TIE_TOL:
            j += 1
        lead += cols[i:j] if j == i + 1 else sorted(cols[i:j])
        i = j
    c1, c2 = lead[0], lead[1]
    dc1 = [_dot(row, c1) for row in d]
    dc2 = [_dot(row, c2) for row in d]
    n1 = math.sqrt(_dot(dc1, dc1))
    n2 = math.sqrt(_dot(dc2, dc2))
    if n1 <= DEGENERATE_NORM:
        return None
    theta = math.atan2(n2, n1)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    return AnalyzerDirections(
        a=tuple([x / n1 for x in dc1]),
        a_prime=tuple([x / n2 for x in dc2]) if n2 > DEGENERATE_NORM else c2,
        b=tuple([cos_t * x + sin_t * y for x, y in zip(c1, c2)]),
        b_prime=tuple([cos_t * x - sin_t * y for x, y in zip(c1, c2)]),
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
