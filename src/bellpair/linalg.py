"""Dense eigensolvers and a Cholesky factorization for the fixed small matrices.

Cyclic Jacobi diagonalization for complex Hermitian 4x4 and real symmetric
3x3 matrices, the Hermitian PSD matrix square root, and a diagonally pivoted
Cholesky factorization that certifies positivity without eigenvalues.  No
LAPACK-backed routine is called, and no numpy: input arrays or nested
sequences are read once into nested lists of Python scalars (``float`` for
real input), and the checks, rotations, phase fix and sort all run on
those, so results are rounded as CPython rounds scalars, whatever the
host's SIMD or BLAS kernels.  Results are tuples.  Only the lower
triangle and the real diagonal are read (LAPACK ``zheev``'s ``UPLO='L'``):
the working matrix is exactly Hermitian.  Each rotation updates columns p and
q of the other rows and sets rows p and q to their conjugates, which is
bitwise what a two-sided update gives there, and sets the pivot block by the
symmetric Schur update app + t|apq|, aqq - t|apq| and 0 (Golub & Van Loan,
Matrix Computations, 4th ed., 8.5): what the rotation gives in exact
arithmetic, rounded once per entry.
So convergence is tested on the stored lower triangle alone: half the squared
off-diagonal norm against ``OFFDIAG_TOL**2 / 2``.  That differs from the full
norm against ``OFFDIAG_TOL`` only by rounding, and near convergence a sweep
shrinks the norm by orders of magnitude, so both stop on the same sweep.
"""
from __future__ import annotations

import math
from collections import namedtuple

HERMITIAN_TOL = 1e-10
OFFDIAG_TOL = 1e-12
MAX_SWEEPS = 100
PSD_FLOOR = -1e-8
MAX_ENTRY_SUM = 1e150
_HALF_TOL_SQ = OFFDIAG_TOL ** 2 / 2

# Jacobi pivots (p, q) in cyclic order, with the other indices, for n = 3 and 4
_PIVOTS = {n: [(p, q, [k for k in range(n) if k != p and k != q])
               for p in range(n - 1) for q in range(p + 1, n)] for n in (3, 4)}


class NotHermitian(ValueError):
    """Input matrix is not Hermitian (for real input: symmetric) to 1e-10, or has
    non-finite or oversized entries."""


class NotPositive(ValueError):
    """Matrix has an eigenvalue below -1e-8."""


class NoConvergence(RuntimeError):
    """Jacobi iteration hit the sweep cap before converging."""


class Spectrum(namedtuple("Spectrum", "eigenvalues eigenvectors")):
    """Eigenvalues sorted descending, with matching orthonormal eigenvectors.

    Both are tuples: ``eigenvectors`` holds rows, and column k,
    ``eigenvectors[i][k]`` for i = 0 .. n-1, belongs to ``eigenvalues[k]``.
    Equal eigenvalues keep the kernel's column order.
    """

    __slots__ = ()


def ordered_sum(values) -> float:
    """Floats added left to right, uncompensated: ``sum`` as CPython adds them
    before 3.12 (3.12's ``sum`` compensates, which moves last bits)."""
    total = 0.0
    for x in values:
        total += x
    return total


def hermitian_lists(m, n: int, dtype: type) -> list[list]:
    """``m``, an array or nested sequence, read into fresh n x n lists of ``dtype``
    scalars, then set to its lower triangle, the triangle's conjugate mirror and the real
    diagonal.  ValueError for any other shape; NotHermitian unless the magnitudes are
    finite and sum to at most 1e150 (the rotations square them) and max|m - m^dag| <= 1e-10."""
    a = [[dtype(x) for x in row] for row in m]
    if len(a) != n or any(len(row) != n for row in a):
        raise ValueError(f"expected a {n}x{n} matrix")
    total = 0.0
    try:
        for row in a:  # row sums, added left to right, then added up in row order
            row_total = 0.0
            for x in row:
                row_total += abs(x)
            total += row_total
    except OverflowError:  # |x| beyond the float range, or CPython's abs of a NaN under a stale errno
        total = math.inf
    if not total <= MAX_ENTRY_SUM:
        raise NotHermitian("matrix entries must be finite, with magnitudes summing to at most 1e150")
    # every entry is finite now, so no residual is NaN; each upper entry is read before it is mirrored
    for i, row in enumerate(a):
        for j in range(i + 1):
            x = row[j]
            if abs(x - a[j][i].conjugate()) > HERMITIAN_TOL:
                raise NotHermitian("matrix is not Hermitian to 1e-10")
            a[j][i] = x.conjugate()
        row[i] = row[i].real
    return a


def _rotate(a: list[list], v: list[list], p: int, q: int, others: list[int]) -> None:
    """Zero a[p][q] and a[q][p] in place: A <- J^dag A J, V <- V J, with J the identity
    except J[p,p]=J[q,q]=c, J[q,p]=s, J[p,q]=-conj(s); ``others`` index the rest."""
    ap, aq = a[p], a[q]
    apq = ap[q]
    r = abs(apq)
    if r == 0.0:
        return
    app, aqq = ap[p], aq[q]
    phi = (aqq - app) / (2.0 * r)
    # smaller-magnitude root of t^2 - 2 phi t - 1 = 0
    if phi == 0.0:
        t = 1.0
    else:
        t = -math.copysign(1.0, phi) / (abs(phi) + math.sqrt(phi * phi + 1.0))
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c * (apq / r).conjugate()
    s_conj = s.conjugate()

    for k in others:
        row = a[k]
        x, y = row[p], row[q]
        row[p] = xp = c * x + s * y
        row[q] = xq = -s_conj * x + c * y
        ap[k] = xp.conjugate()
        aq[k] = xq.conjugate()
    # the pivot block by the symmetric Schur update (Golub & Van Loan, Matrix Computations,
    # 4th ed., 8.5): t^2 - 2 phi t - 1 = 0 makes the rotated diagonal exactly app + t r and
    # aqq - t r, and the rotated pivot exactly 0, so no rounding residue is kept
    ap[p] = app + t * r
    aq[q] = aqq - t * r
    ap[q] = aq[p] = 0.0

    for row in v:
        x, y = row[p], row[q]
        row[p] = c * x + s * y
        row[q] = -s_conj * x + c * y


def jacobi_eigenvalues(a: list[list], v: list[list] | tuple = ()) -> list[float]:
    """Unsorted eigenvalues of ``a``, exactly Hermitian with a real diagonal as from :func:`hermitian_lists`,
    rotated in place (``v`` along) until the squared magnitudes of the stored lower-triangle pivots,
    half the squared off-diagonal norm, add up to at most OFFDIAG_TOL**2 / 2."""
    n = len(a)
    pivots = _PIVOTS[n]
    for sweep in range(MAX_SWEEPS + 1):
        half = 0.0
        for p, q, _ in pivots:
            x = a[q][p]
            half += x.real * x.real + x.imag * x.imag
        if half <= _HALF_TOL_SQ:
            break
        if sweep == MAX_SWEEPS:
            raise NoConvergence(f"off-diagonal norm {math.sqrt(2.0 * half):.3e} after {MAX_SWEEPS} sweeps")
        for p, q, others in pivots:
            _rotate(a, v, p, q, others)
    return [a[k][k] for k in range(n)]


def cholesky_factor(a: list[list]) -> tuple[tuple[tuple, ...], bool]:
    """Rows of a factor Psi of ``a``, exactly Hermitian with a real diagonal as from
    :func:`hermitian_lists`, and whether all n pivots were positive; ``a`` is not changed.

    Diagonally pivoted Cholesky: step k takes the largest remaining diagonal of the
    Schur complement as its pivot (the first such index on ties), and the factorization
    stops at the first pivot that is not above 0, leaving columns k .. n-1 of Psi zero.
    Run to completion, Psi Psi^dag = a + E with ||E||_2 <= gamma_{n+1} tr(a)
    (Higham, Accuracy and Stability of Numerical Algorithms, Thm 10.3)."""
    n = len(a)
    d = [a[i][i] for i in range(n)]
    psi = [[0j] * n for _ in range(n)]
    rest = list(range(n))
    for k in range(n):
        p = rest[0]
        for i in rest:
            if d[i] > d[p]:
                p = i
        piv = d[p]
        if not piv > 0.0:  # also stops on a NaN pivot
            return tuple(map(tuple, psi)), False
        rest.remove(p)
        r = math.sqrt(piv)
        row_p = psi[p]
        row_p[k] = complex(r)
        for i in rest:
            row = psi[i]
            s = a[i][p]
            for m in range(k):
                s -= row[m] * row_p[m].conjugate()
            row[k] = x = s / r
            d[i] -= x.real * x.real + x.imag * x.imag
    return tuple(map(tuple, psi)), True


def _fix_phase(col: tuple) -> list:
    """Make the (first) largest-magnitude entry of a unit column real and positive."""
    mags = list(map(abs, col))
    r = max(mags)
    f = col[mags.index(r)].conjugate() / r
    return [x * f for x in col]


def jacobi_spectrum(a: list[list]) -> Spectrum:
    """Spectrum of working lists from :func:`hermitian_lists`, rotated in place."""
    n = len(a)
    v = [[0.0] * k + [1.0] + [0.0] * (n - 1 - k) for k in range(n)]
    w = jacobi_eigenvalues(a, v)
    cols = [_fix_phase(col) for col in zip(*v)]
    order = sorted(range(n), key=w.__getitem__, reverse=True)  # stable: equal values keep column order
    return Spectrum(tuple([w[k] for k in order]), tuple(zip(*[cols[k] for k in order])))


def check_psd(w) -> None:
    """Raise NotPositive for an eigenvalue below -1e-8 among ``w``, in any order."""
    lowest = min(w)
    if lowest < PSD_FLOOR:
        raise NotPositive(f"eigenvalue {lowest:.3e} below {PSD_FLOOR}")


def eig_hermitian(m) -> Spectrum:
    """Eigendecomposition of a complex Hermitian 4x4 matrix.

    Raises NotHermitian if ``max|m - m^dag| > 1e-10`` and NoConvergence if
    the sweep cap is exceeded.
    """
    return jacobi_spectrum(hermitian_lists(m, 4, complex))


def eig_symmetric3(m) -> Spectrum:
    """Eigendecomposition of a real symmetric 3x3 matrix, with ``float`` eigenvectors;
    checks as in :func:`eig_hermitian`."""
    return jacobi_spectrum(hermitian_lists(m, 3, float))


def sqrt_psd(m) -> tuple[tuple[complex, ...], ...]:
    """Hermitian square root of a Hermitian PSD 4x4 matrix, as a tuple of rows.

    Eigenvalues in [-1e-8, 0) are treated as rounding noise and clamped to
    zero; anything below -1e-8 raises NotPositive.  The root is V sqrt(w) V^dag
    with its lower triangle mirrored, so it is exactly Hermitian.
    """
    spec = eig_hermitian(m)
    check_psd(spec.eigenvalues)
    v, roots = spec.eigenvectors, [math.sqrt(max(0.0, x)) for x in spec.eigenvalues]
    low = [[ordered_sum(x * r * y.conjugate() for x, r, y in zip(v[i], roots, v[j])) for j in range(i + 1)] for i in range(4)]
    return tuple(tuple(low[i][j] if j < i else low[i][i].real if j == i else low[j][i].conjugate() for j in range(4))
                 for i in range(4))
