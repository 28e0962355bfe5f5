"""Independent cross-check routes, used only by the tests.

Each oracle deliberately avoids the code path it checks: the tangle oracle
roots the quartic characteristic polynomial of the non-Hermitian spin-flip
product instead of diagonalizing a Hermitian form, and the fit oracle does
a brute-force grid search instead of using the closed-form minimizer, and
the sampler oracle draws through ``Generator.integers`` in one piece and
bins with ``searchsorted`` instead of counting chunks of raw Philox words.
"""
import numpy as np

from bellpair.protocol import chi_square, chsh_value
from bellpair.states import singlet

_SY = np.array([[0, -1j], [1j, 0]])
_YY = np.kron(_SY, _SY)


def tangle_charpoly(rho_mat: np.ndarray) -> float:
    """Tangle from the quartic characteristic polynomial of rho (YY rho* YY).

    Coefficients come from the Faddeev-LeVerrier trace recursion; the
    quartic is rooted directly via its companion matrix.
    """
    m = rho_mat @ _YY @ rho_mat.conj() @ _YY
    p1 = np.trace(m)
    m2 = m @ m
    p2 = np.trace(m2)
    m3 = m2 @ m
    p3 = np.trace(m3)
    p4 = np.trace(m3 @ m)
    e1 = p1
    e2 = (e1 * p1 - p2) / 2
    e3 = (e2 * p1 - e1 * p2 + p3) / 3
    e4 = (e3 * p1 - e2 * p2 + e1 * p3 - p4) / 4
    # the product is similar to a PSD matrix, so the polynomial is real
    coeffs = [1.0, -e1.real, e2.real, -e3.real, e4.real]
    roots = np.roots(coeffs)
    lam = np.sort(np.sqrt(np.clip(roots.real, 0.0, None)))[::-1]
    return float(max(lam[0] - lam[1] - lam[2] - lam[3], 0.0))


def gamma_grid_search(data, step: float = 1e-4) -> tuple[float, float]:
    """Brute-force minimizer of the weighted chi-square over gamma in [0,1]."""
    pure = singlet()
    s_vals = [chsh_value(pure, d.settings) for d in data]
    gammas = np.arange(0.0, 1.0 + step / 2, step)
    chis = np.array([chi_square(data, [g * s for s in s_vals]) for g in gammas])
    k = int(np.argmin(chis))
    return float(gammas[k]), float(chis[k])


def searchsorted_counts(probs: np.ndarray, n: int, key: int) -> list[int]:
    """Outcome counts of n events on the Philox stream ``key``.

    All n 53-bit integers come from one ``Generator.integers`` call and are
    binned by inverse CDF against the integer edges of the cumulative
    probabilities with ``searchsorted`` and ``bincount``.
    """
    edges = np.rint(np.cumsum(probs[:3]) * float(1 << 53)).astype(np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    draws = gen.integers(0, 1 << 53, size=n, dtype=np.uint64)
    outcomes = np.searchsorted(edges, draws, side="right")
    return [int(c) for c in np.bincount(outcomes, minlength=4)]
