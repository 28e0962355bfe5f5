"""Independent cross-check routes, used only by the tests.

Each oracle deliberately avoids the code path it checks: the tangle oracle
roots the quartic characteristic polynomial of the non-Hermitian spin-flip
product instead of diagonalizing a Hermitian form, and the fit oracle does
a brute-force grid search instead of using the closed-form minimizer, and
the sampler oracle draws through ``Generator.integers`` in one piece and
bins with ``searchsorted`` instead of counting chunks of raw Philox words.
The Jacobi oracles rotate numpy array slices, or nested lists of Python
``complex`` with a full two-sided update of every row and column, instead
of mirroring rows from columns on exactly Hermitian storage, and their
post-processing phase-fixes and sorts numpy columns instead of lists.  The
decomposition and composition oracles build their Kronecker products on
every call and multiply densely instead of gathering from, or adding, a
table of products built once at import.
"""
import math

import numpy as np

from bellpair.linalg import DEGENERACY_TOL, MAX_SWEEPS, OFFDIAG_TOL, Spectrum
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


def _rotate_numpy(a: np.ndarray, v: np.ndarray, p: int, q: int) -> None:
    apq = a[p, q]
    r = abs(apq)
    if r == 0.0:
        return
    phase = apq / r
    delta = (a[q, q] - a[p, p]).real
    phi = delta / (2.0 * r)
    if phi == 0.0:
        t = 1.0
    else:
        t = -math.copysign(1.0, phi) / (abs(phi) + math.sqrt(phi * phi + 1.0))
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c * np.conj(phase)
    col_p = c * a[:, p] + s * a[:, q]
    col_q = -np.conj(s) * a[:, p] + c * a[:, q]
    a[:, p] = col_p
    a[:, q] = col_q
    row_p = c * a[p, :] + np.conj(s) * a[q, :]
    row_q = -s * a[p, :] + c * a[q, :]
    a[p, :] = row_p
    a[q, :] = row_q
    a[p, q] = 0.0
    a[q, p] = 0.0
    a[p, p] = a[p, p].real
    a[q, q] = a[q, q].real
    vcol_p = c * v[:, p] + s * v[:, q]
    vcol_q = -np.conj(s) * v[:, p] + c * v[:, q]
    v[:, p] = vcol_p
    v[:, q] = vcol_q


def jacobi_numpy(m: np.ndarray, tol: float = 1e-12, max_sweeps: int = 100):
    """Unsorted eigenvalues and eigenvectors by cyclic Jacobi on numpy slices.

    Same pivot order, rotation formula and pivot clean-up as
    ``bellpair.linalg._jacobi``; each rotation updates whole rows and
    columns as numpy arrays.
    """
    n = m.shape[0]
    a = np.array(m, dtype=complex)
    v = np.eye(n, dtype=complex)
    for _ in range(max_sweeps):
        off = a - np.diag(np.diag(a))
        if np.sqrt(np.sum(np.abs(off) ** 2)) <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                _rotate_numpy(a, v, p, q)
    return np.diag(a).real.copy(), v


def _rotate_two_sided(a: list, v: list, p: int, q: int) -> None:
    ap, aq = a[p], a[q]
    apq = ap[q]
    r = abs(apq)
    if r == 0.0:
        return
    phase = apq / r
    delta = (aq[q] - ap[p]).real
    phi = delta / (2.0 * r)
    if phi == 0.0:
        t = 1.0
    else:
        t = -math.copysign(1.0, phi) / (abs(phi) + math.sqrt(phi * phi + 1.0))
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c * phase.conjugate()
    s_conj = s.conjugate()
    for row in a:
        x, y = row[p], row[q]
        row[p] = c * x + s * y
        row[q] = -s_conj * x + c * y
    for k, (x, y) in enumerate(zip(ap, aq)):
        ap[k] = c * x + s_conj * y
        aq[k] = -s * x + c * y
    ap[q] = aq[p] = 0j
    ap[p] = complex(ap[p].real)
    aq[q] = complex(aq[q].real)
    for row in v:
        x, y = row[p], row[q]
        row[p] = c * x + s * y
        row[q] = -s_conj * x + c * y


def jacobi_two_sided(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unsorted eigenvalues and eigenvectors by cyclic Jacobi on lists of ``complex``.

    Every rotation updates all of columns p and q, then all of rows p and
    q, of the whole input, both triangles as given.  Same pivot order,
    rotation formula, pivot clean-up and stopping rule as
    ``bellpair.linalg._jacobi``.
    """
    n = m.shape[0]
    a = np.asarray(m, dtype=complex).tolist()
    v = np.eye(n, dtype=complex).tolist()

    def offdiag() -> float:
        return math.sqrt(sum(abs(x) ** 2 for i, row in enumerate(a)
                             for j, x in enumerate(row) if i != j))

    for _ in range(MAX_SWEEPS):
        if offdiag() <= OFFDIAG_TOL:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                _rotate_two_sided(a, v, p, q)
    return np.array([a[k][k].real for k in range(n)]), np.array(v, dtype=complex)


def _fix_phase(col: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude entry real and positive."""
    k = int(np.argmax(np.abs(col)))
    pivot = col[k]
    if abs(pivot) == 0.0:
        return col
    return col * (np.conj(pivot) / abs(pivot))


def sorted_spectrum(w: np.ndarray, v: np.ndarray) -> Spectrum:
    """Phase-fix, sort descending and tie-break unsorted Jacobi output on numpy columns."""
    n = len(w)
    cols = [_fix_phase(v[:, k]) for k in range(n)]
    order = sorted(range(n), key=lambda k: -w[k])

    def lex_key(k: int) -> tuple[float, ...]:
        c = cols[k]
        return tuple(x for pair in zip(c.real, c.imag) for x in pair)

    # break ties inside near-degenerate runs deterministically
    final: list[int] = []
    i = 0
    while i < n:
        j = i + 1
        while j < n and w[order[i]] - w[order[j]] <= DEGENERACY_TOL:
            j += 1
        final.extend(sorted(order[i:j], key=lex_key))
        i = j
    eigenvalues = np.array([w[k] for k in final])
    eigenvectors = np.column_stack([cols[k] for k in final])
    return Spectrum(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


_I2 = np.eye(2, dtype=complex)
_PAULIS = (np.array([[0, 1], [1, 0]], dtype=complex), _SY,
           np.array([[1, 0], [0, -1]], dtype=complex))


def decompose_kron(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bloch vectors A, P and correlation matrix D with per-call ``np.kron``."""
    a = np.empty(3)
    p = np.empty(3)
    d = np.empty((3, 3))
    for i, si in enumerate(_PAULIS):
        a[i] = np.trace(m @ np.kron(si, _I2)).real
        p[i] = np.trace(m @ np.kron(_I2, si)).real
        for j, sj in enumerate(_PAULIS):
            d[i, j] = np.trace(m @ np.kron(si, sj)).real
    return a, p, d


def bell_mean_batch(d: np.ndarray, a: np.ndarray, a_prime: np.ndarray,
                    b: np.ndarray, b_prime: np.ndarray) -> np.ndarray:
    """Vectorized CHSH mean a.D(b+b') + a'.D(b-b') for direction arrays (..., 3)."""
    plus = (b + b_prime) @ d.T
    minus = (b - b_prime) @ d.T
    return np.einsum("...i,...i->...", a, plus) + np.einsum("...i,...i->...", a_prime, minus)


def compose_kron(a: np.ndarray, p: np.ndarray, d: np.ndarray) -> np.ndarray:
    """(I + sum of Pauli products weighted by A, P and D) / 4, unvalidated.

    Products are added in the order sigma_i (x) 1, 1 (x) sigma_i,
    sigma_i (x) sigma_j (j = x, y, z) for i = x, y, z.
    """
    m = np.eye(4, dtype=complex)
    for i, si in enumerate(_PAULIS):
        m += a[i] * np.kron(si, _I2)
        m += p[i] * np.kron(_I2, si)
        for j, sj in enumerate(_PAULIS):
            m += d[i, j] * np.kron(si, sj)
    return m / 4.0
