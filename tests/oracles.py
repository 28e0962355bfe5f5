"""Independent cross-check routes, used by the tests and by ``scripts/accuracy.py``.

Each oracle deliberately avoids the code path it checks: one tangle oracle
roots the quartic characteristic polynomial of the non-Hermitian spin-flip
product instead of diagonalizing a Hermitian form, the other takes a 40-digit
mpmath SVD of the generator's own factor instead of one rebuilt from a
floating-point spectrum; the 40-digit eigenvalue, tangle and correlation
oracles take a float matrix exactly as given to mpmath; and the fit oracle does
a brute-force grid search in numpy instead of using the closed-form minimizer
or ``chi_square``, and
the sampler oracle draws through ``Generator.integers`` in one piece and
bins with ``searchsorted`` instead of counting chunks of raw Philox words.
The Jacobi oracles rotate numpy array slices, or nested lists of Python
``complex`` with a full two-sided update of every row and column, instead
of mirroring rows from columns on exactly Hermitian storage; like the
kernel, they then set the pivot block by the symmetric Schur update.  Their
post-processing phase-fixes and sorts numpy columns instead of lists.  The
decomposition and composition oracles build their Kronecker products on
every call and multiply densely instead of gathering from, or adding, a
table of products built once at import; the CHSH mean and the coplanar
correlation take D from that oracle, not from the ``decompose`` it checks,
and the fit oracle takes its pure-singlet S_i from that correlation.
``refine_directions`` climbs to the CHSH optimum by alternating exact
updates instead of constructing it from the Gram spectrum of D.
``product_state`` is no oracle: it builds uncorrelated test states through
``compose``.
"""
import math

import mpmath
import numpy as np

from bellpair.bell import DEGENERATE_NORM, AnalyzerDirections
from bellpair.linalg import MAX_SWEEPS, OFFDIAG_TOL, Spectrum
from bellpair.protocol import angle_to_direction
from bellpair.states import DensityMatrix, PauliDecomposition, compose, decompose, singlet

_SY = np.array([[0, -1j], [1j, 0]])
_YY = np.kron(_SY, _SY)


def tangle_charpoly(rho_mat: np.ndarray) -> float:
    """Tangle from the quartic characteristic polynomial of rho (YY rho* YY).

    Coefficients come from the Faddeev-LeVerrier trace recursion; the
    quartic is rooted directly via its companion matrix.
    """
    rho_mat = np.asarray(rho_mat)
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


def _wootters_mp(f: mpmath.matrix):
    """max(l1 - l2 - l3 - l4, 0) for the singular values l_k of f^T (sigma_y (x) sigma_y) f,
    a 4 x r mpmath factor ``f`` (Wootters, PRL 80, 2245, 1998); missing l_k are zero."""
    tau = f.T * mpmath.matrix(_YY.tolist()) * f
    lam = sorted(mpmath.svd_c(tau, compute_uv=False), reverse=True) + [0] * (4 - tau.rows)
    return max(lam[0] - lam[1] - lam[2] - lam[3], 0)


def tangle_factor_mp(g: np.ndarray) -> float:
    """Tangle of rho = g g^dag / Tr(g g^dag) for a 4 x r factor ``g``, at 40 significant digits."""
    with mpmath.workdps(40):
        f = mpmath.matrix(g.tolist())
        return float(_wootters_mp(f) / sum(abs(x) ** 2 for x in f))


def eigvalsh_mp(m) -> list:
    """Ascending eigenvalues, as 40-digit ``mpf``, of the Hermitian (real: symmetric) matrix ``m``,
    its entries taken exactly as given."""
    with mpmath.workdps(40):
        return list(mpmath.eigh(mpmath.matrix(np.asarray(m).tolist()), eigvals_only=True))


def tangle_mp(mat):
    """Tangle, as a 40-digit ``mpf``, of the Hermitian 4x4 matrix ``mat`` exactly as given, not
    normalized: Wootters' route on the factor V sqrt(max(w, 0)) of its 40-digit eigendecomposition,
    so an eigenvalue below 0 is clamped."""
    with mpmath.workdps(40):
        w, v = mpmath.eighe(mpmath.matrix(np.asarray(mat).tolist()))
        return _wootters_mp(v * mpmath.diag([mpmath.sqrt(max(x, 0)) for x in w]))


def gamma_grid_search(data, step: float = 1e-4) -> tuple[float, float]:
    """Brute-force minimizer of the weighted chi-square over gamma in [0,1], the whole grid
    at once in numpy: squared residuals added in data order, one float operation per step."""
    pure = decompose_kron(singlet().mat)[2]
    gammas = np.arange(0.0, 1.0 + step / 2, step)
    chis = np.zeros_like(gammas)
    for d in data:
        e = [_coplanar_correlation(pure, p1, p2) for p1, p2 in d.settings.pairs()]
        res = (gammas * abs(e[0] + e[1] + e[2] - e[3]) - d.r_exp) / d.dr_exp
        chis += res * res
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
    app, aqq = a[p, p].real, a[q, q].real
    phi = (aqq - app) / (2.0 * r)
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
    a[p, p] = app + t * r
    a[q, q] = aqq - t * r
    vcol_p = c * v[:, p] + s * v[:, q]
    vcol_q = -np.conj(s) * v[:, p] + c * v[:, q]
    v[:, p] = vcol_p
    v[:, q] = vcol_q


def jacobi_numpy(m: np.ndarray, tol: float = 1e-12, max_sweeps: int = 100):
    """Unsorted eigenvalues and eigenvectors by cyclic Jacobi on numpy slices.

    Same pivot order, rotation formula, pivot block app + t r, aqq - t r and pivot
    clean-up as ``bellpair.linalg.jacobi_eigenvalues``; each rotation updates whole
    rows and columns as numpy arrays, then overwrites the pivot block.
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
    app, aqq = ap[p].real, aq[q].real
    phi = (aqq - app) / (2.0 * r)
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
    ap[p] = complex(app + t * r)
    aq[q] = complex(aqq - t * r)
    for row in v:
        x, y = row[p], row[q]
        row[p] = c * x + s * y
        row[q] = -s_conj * x + c * y


def jacobi_two_sided(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unsorted eigenvalues and eigenvectors by cyclic Jacobi on lists of ``complex``.

    Every rotation updates all of columns p and q, then all of rows p and
    q, of the whole input, both triangles as given, then overwrites the pivot
    block.  Same pivot order, rotation formula, pivot block app + t r, aqq - t r
    and pivot clean-up as ``bellpair.linalg.jacobi_eigenvalues``;
    it stops on the full off-diagonal norm, which ``jacobi_eigenvalues`` tests as
    half its square on the stored lower triangle.
    """
    a = np.asarray(m, dtype=complex).tolist()
    n = len(a)
    v = np.eye(n, dtype=complex).tolist()

    def offdiag() -> float:  # added in index order on every Python, as bellpair does
        total = 0.0
        for i, row in enumerate(a):
            for j, x in enumerate(row):
                if i != j:
                    total += abs(x) ** 2
        return math.sqrt(total)

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
    """Phase-fix and sort descending unsorted Jacobi output on numpy columns; equal values keep column order."""
    order = sorted(range(len(w)), key=lambda k: -w[k])
    eigenvalues = np.array([w[k] for k in order])
    eigenvectors = np.column_stack([_fix_phase(v[:, k]) for k in order])
    return Spectrum(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


_I2 = np.eye(2, dtype=complex)
_PAULIS = (np.array([[0, 1], [1, 0]], dtype=complex), _SY,
           np.array([[1, 0], [0, -1]], dtype=complex))


def decompose_kron(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bloch vectors A, P and correlation matrix D with per-call ``np.kron``."""
    m = np.asarray(m)
    a = np.empty(3)
    p = np.empty(3)
    d = np.empty((3, 3))
    for i, si in enumerate(_PAULIS):
        a[i] = np.trace(m @ np.kron(si, _I2)).real
        p[i] = np.trace(m @ np.kron(_I2, si)).real
        for j, sj in enumerate(_PAULIS):
            d[i, j] = np.trace(m @ np.kron(si, sj)).real
    return a, p, d


def correlation_mp(mat) -> mpmath.matrix:
    """D[i][j] = Re Tr[mat (sigma_i (x) sigma_j)] of the 4x4 matrix ``mat`` exactly as given, at 40 digits."""
    with mpmath.workdps(40):
        a = mpmath.matrix(np.asarray(mat).tolist())
        return mpmath.matrix([[mpmath.re(mpmath.fsum(a[r, c] * complex(k[c, r]) for r in range(4) for c in range(4)))
                               for k in (np.kron(si, sj) for sj in _PAULIS)] for si in _PAULIS])


def bell_mean_batch(d: np.ndarray, a: np.ndarray, a_prime: np.ndarray,
                    b: np.ndarray, b_prime: np.ndarray) -> np.ndarray:
    """Vectorized CHSH mean a.D(b+b') + a'.D(b-b') for direction arrays (..., 3)."""
    d, a, a_prime, b, b_prime = map(np.asarray, (d, a, a_prime, b, b_prime))
    plus = (b + b_prime) @ d.T
    minus = (b - b_prime) @ d.T
    return np.einsum("...i,...i->...", a, plus) + np.einsum("...i,...i->...", a_prime, minus)


def bell_mean(rho: DensityMatrix, dirs: AnalyzerDirections) -> float:
    """CHSH mean a.D(b+b') + a'.D(b-b') of one setting: a batch of one."""
    d = decompose_kron(rho.mat)[2]
    return float(bell_mean_batch(d, dirs.a, dirs.a_prime, dirs.b, dirs.b_prime))


def _coplanar_correlation(d: np.ndarray, phi1: float, phi2: float) -> float:
    return float(np.asarray(angle_to_direction(phi1)) @ d @ np.asarray(angle_to_direction(phi2)))


def correlation(rho: DensityMatrix, phi1: float, phi2: float) -> float:
    """Joint spin correlation E(phi1, phi2) = a.(D b) for coplanar angles."""
    return _coplanar_correlation(decompose_kron(rho.mat)[2], phi1, phi2)


def refine_directions(rho: DensityMatrix, dirs: AnalyzerDirections,
                      steps: int = 1000) -> AnalyzerDirections:
    """Locally improve analyzer settings by alternating exact updates.

    With b, b' fixed the optimal a, a' align with D(b+b') and D(b-b');
    with a, a' fixed the optimal b, b' align with D^T(a+a') and D^T(a-a').
    Each step is non-decreasing in the CHSH mean, so the iteration climbs
    to a stationary point (the global maximum from a good start).
    """
    d = np.asarray(decompose(rho).D)
    a, ap, b, bp = map(np.array, (dirs.a, dirs.a_prime, dirs.b, dirs.b_prime))
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
    return AnalyzerDirections(*(tuple(map(float, v)) for v in (a, ap, b, bp)))


def _normalized_or(v: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    n = float(np.sqrt(v @ v))
    if n <= DEGENERATE_NORM:
        return fallback
    return v / n


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


def product_state(a, p) -> DensityMatrix:
    """Uncorrelated pair with local Bloch vectors ``a`` and ``p``: A = a, P = p, D = a p^T."""
    a, p = tuple(map(float, a)), tuple(map(float, p))
    return compose(PauliDecomposition(A=a, P=p, D=[[x * y for y in p] for x in a]))
