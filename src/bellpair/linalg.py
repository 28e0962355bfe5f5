"""Dense eigensolvers for the fixed small matrices used everywhere else.

Cyclic Jacobi diagonalization for complex Hermitian 4x4 and real symmetric
3x3 matrices, plus the Hermitian PSD matrix square root.  No LAPACK-backed
routine is called.  The checks, rotations, phase fix, sort and tie-break all
run on nested lists of Python scalars (``float`` for real input), so results
are rounded as CPython rounds scalars, whatever SIMD loops numpy selects;
numpy arrays are built once, at the end.  Only the lower triangle and the
real diagonal are read (LAPACK ``zheev``'s ``UPLO='L'``): the working matrix
is exactly Hermitian, and each rotation sets rows p and q to the conjugates
of columns p and q, which is bitwise what the two-sided update gives there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HERMITIAN_TOL = 1e-10
OFFDIAG_TOL = 1e-12
MAX_SWEEPS = 100
DEGENERACY_TOL = 1e-12
PSD_FLOOR = -1e-8
MAX_ENTRY_SUM = 1e150


class NotHermitian(ValueError):
    """Input matrix is not Hermitian to tolerance (or has non-finite or oversized entries)."""


class NotSymmetric(NotHermitian):
    """Real input matrix is not symmetric to tolerance."""


class NotPSD(ValueError):
    """Matrix has an eigenvalue below the PSD floor."""


class NoConvergence(RuntimeError):
    """Jacobi iteration hit the sweep cap before converging."""


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted descending, with matching orthonormal eigenvectors.

    ``eigenvectors[:, k]`` belongs to ``eigenvalues[k]``.  Eigenvalues closer
    than 1e-12 are treated as degenerate; inside a degenerate group the
    columns are ordered lexicographically (after phase fixing) so the output
    is deterministic.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def as_square(m, n: int, dtype: type) -> np.ndarray:
    """``m`` as an n x n array of ``dtype``; ValueError for any other shape."""
    m = np.asarray(m, dtype=dtype)
    if m.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix, got shape {m.shape}")
    return m


def hermitian_lists(m: np.ndarray, exc: type[NotHermitian] = NotHermitian,
                    message: str = "matrix is not Hermitian to 1e-10") -> list[list]:
    """Lower triangle, its conjugate mirror and the real diagonal of a square array.
    Raises ``exc`` unless the magnitudes are finite and sum to at most 1e150 (the
    rotations square them), then ``exc(message)`` if max|m - m^dag| > 1e-10."""
    a = m.tolist()
    if not sum(sum(map(abs, row)) for row in a) <= MAX_ENTRY_SUM:
        raise exc("matrix entries must be finite, with magnitudes summing to at most 1e150")
    if max(abs(x - a[j][i].conjugate()) for i, row in enumerate(a) for j, x in enumerate(row[:i + 1])) > HERMITIAN_TOL:
        raise exc(message)
    for i, row in enumerate(a):
        row[i] = row[i].real
        for j in range(i):
            a[j][i] = row[j].conjugate()
    return a


def _offdiag_norm(a: list[list[complex]]) -> float:
    return math.sqrt(sum(abs(x) ** 2 for i, row in enumerate(a)
                         for j, x in enumerate(row) if i != j))


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
    # the pivot block, two-sided; the rotation annihilates the pivot
    # exactly, so its rounding residue is cleared
    aqp = aq[p]
    ap[p] = (c * (c * app + s * apq) + s_conj * (c * aqp + s * aqq)).real
    aq[q] = (-s * (-s_conj * app + c * apq) + c * (-s_conj * aqp + c * aqq)).real
    ap[q] = aq[p] = 0.0

    for row in v:
        x, y = row[p], row[q]
        row[p] = c * x + s * y
        row[q] = -s_conj * x + c * y


def _jacobi(a: list[list], v: list[list] | tuple = ()) -> list[float]:
    """Sweep until the off-diagonal norm dies; the diagonal.  Rotates ``v`` along."""
    n = len(a)
    pivots = [(p, q, [k for k in range(n) if k != p and k != q])
              for p in range(n - 1) for q in range(p + 1, n)]
    for _ in range(MAX_SWEEPS):
        if _offdiag_norm(a) <= OFFDIAG_TOL:
            break
        for p, q, others in pivots:
            _rotate(a, v, p, q, others)
    else:
        if _offdiag_norm(a) > OFFDIAG_TOL:
            raise NoConvergence(f"off-diagonal norm {_offdiag_norm(a):.3e} after {MAX_SWEEPS} sweeps")
    return [a[k][k] for k in range(n)]


def _fix_phase(col: tuple) -> list:
    """Make the (first) largest-magnitude entry of a unit column real and positive."""
    mags = list(map(abs, col))
    r = max(mags)
    f = col[mags.index(r)].conjugate() / r
    return [x * f for x in col]


def jacobi_spectrum(a: list[list], dtype: type = complex) -> Spectrum:
    """Spectrum of working lists from :func:`hermitian_lists`, rotated in place."""
    n = len(a)
    v = [[0.0] * k + [1.0] + [0.0] * (n - 1 - k) for k in range(n)]
    w = _jacobi(a, v)
    cols = [_fix_phase(col) for col in zip(*v)]
    order = sorted(range(n), key=w.__getitem__, reverse=True)
    # break ties inside near-degenerate runs lexicographically
    final: list[int] = []
    i = 0
    while i < n:
        j = i + 1
        while j < n and w[order[i]] - w[order[j]] <= DEGENERACY_TOL:
            j += 1
        final += order[i:j] if j == i + 1 else sorted(
            order[i:j], key=lambda k: [z for x in cols[k] for z in (x.real, x.imag)])
        i = j
    return Spectrum(eigenvalues=np.array([w[k] for k in final]),
                    eigenvectors=np.array([[cols[k][i] for k in final] for i in range(n)], dtype=dtype))


def eig_hermitian(m: np.ndarray) -> Spectrum:
    """Eigendecomposition of a complex Hermitian 4x4 matrix.

    Raises NotHermitian if ``max|m - m^dag| > 1e-10`` and NoConvergence if
    the sweep cap is exceeded.
    """
    return jacobi_spectrum(hermitian_lists(as_square(m, 4, complex)))


def eigvals_hermitian(m: np.ndarray) -> list[float]:
    """Descending eigenvalues alone; input and checks as in :func:`eig_hermitian`."""
    return sorted(_jacobi(hermitian_lists(as_square(m, 4, complex))), reverse=True)


def eig_symmetric3(m: np.ndarray) -> Spectrum:
    """Eigendecomposition of a real symmetric 3x3 matrix."""
    a = hermitian_lists(as_square(m, 3, float), NotSymmetric, "matrix is not symmetric to 1e-10")
    return jacobi_spectrum(a, float)


def sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Hermitian square root of a Hermitian PSD 4x4 matrix.

    Eigenvalues in [-1e-8, 0) are treated as rounding noise and clamped to
    zero; anything below -1e-8 raises NotPSD.
    """
    return sqrt_spectrum(eig_hermitian(m))


def sqrt_spectrum(spec: Spectrum) -> np.ndarray:
    """Hermitian square root of the PSD matrix with spectrum ``spec``.

    The step behind :func:`sqrt_psd`, for callers that already hold the
    spectrum; the same clamping and NotPSD rule apply.
    """
    w = spec.eigenvalues
    if np.min(w) < PSD_FLOOR:
        raise NotPSD(f"eigenvalue {np.min(w):.3e} below PSD floor {PSD_FLOOR}")
    w = np.clip(w, 0.0, None)
    v = spec.eigenvectors
    root = (v * np.sqrt(w)) @ v.conj().T
    return 0.5 * (root + root.conj().T)
