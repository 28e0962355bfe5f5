"""Dense eigensolvers for the fixed small matrices used everywhere else.

Cyclic Jacobi diagonalization for complex Hermitian 4x4 and real symmetric
3x3 matrices, plus the Hermitian PSD matrix square root.  No LAPACK-backed
routine is called.  The rotations run on nested lists of Python
``complex``, so each one is rounded the way CPython rounds scalar complex
arithmetic and results do not depend on numpy's runtime SIMD dispatch.
Against version 0.1.0, which rotated numpy array slices, results differ in
the last bits.
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


class NotHermitian(ValueError):
    """Input matrix is not Hermitian to tolerance (or has non-finite entries)."""


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


def _check_finite(m: np.ndarray, exc: type[Exception]) -> None:
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise exc("matrix entries must be finite")


def _offdiag_norm(a: list[list[complex]]) -> float:
    return math.sqrt(sum(abs(x) ** 2 for i, row in enumerate(a)
                         for j, x in enumerate(row) if i != j))


def _rotate(a: list[list[complex]], v: list[list[complex]], p: int, q: int) -> None:
    """Zero a[p][q] (and a[q][p]) with one unitary plane rotation, in place."""
    ap, aq = a[p], a[q]
    apq = ap[q]
    r = abs(apq)
    if r == 0.0:
        return
    phase = apq / r
    delta = (aq[q] - ap[p]).real
    phi = delta / (2.0 * r)
    # smaller-magnitude root of t^2 - 2 phi t - 1 = 0
    if phi == 0.0:
        t = 1.0
    else:
        t = -math.copysign(1.0, phi) / (abs(phi) + math.sqrt(phi * phi + 1.0))
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c * phase.conjugate()
    s_conj = s.conjugate()

    # A <- J^dag A J with J the identity except
    # J[p,p]=J[q,q]=c, J[q,p]=s, J[p,q]=-conj(s).
    for row in a:
        x, y = row[p], row[q]
        row[p] = c * x + s * y
        row[q] = -s_conj * x + c * y
    for k, (x, y) in enumerate(zip(ap, aq)):
        ap[k] = c * x + s_conj * y
        aq[k] = -s * x + c * y
    # the rotation annihilates the pivot exactly; clear rounding residue
    ap[q] = aq[p] = 0j
    ap[p] = complex(ap[p].real)
    aq[q] = complex(aq[q].real)

    for row in v:
        x, y = row[p], row[q]
        row[p] = c * x + s * y
        row[q] = -s_conj * x + c * y


def _jacobi(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi sweeps on a complex array until the off-diagonal
    Frobenius norm dies; the rotations run on nested lists of ``complex``."""
    n = m.shape[0]
    a = m.tolist()
    v = np.eye(n, dtype=complex).tolist()
    for _ in range(MAX_SWEEPS):
        if _offdiag_norm(a) <= OFFDIAG_TOL:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                _rotate(a, v, p, q)
    else:
        if _offdiag_norm(a) > OFFDIAG_TOL:
            raise NoConvergence(
                f"off-diagonal norm {_offdiag_norm(a):.3e} after {MAX_SWEEPS} sweeps"
            )
    return np.array([a[k][k].real for k in range(n)]), np.array(v, dtype=complex)


def _fix_phase(col: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude entry real and positive."""
    k = int(np.argmax(np.abs(col)))
    pivot = col[k]
    if abs(pivot) == 0.0:
        return col
    return col * (np.conj(pivot) / abs(pivot))


def _sorted_spectrum(w: np.ndarray, v: np.ndarray) -> Spectrum:
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


def eig_hermitian(m: np.ndarray) -> Spectrum:
    """Eigendecomposition of a complex Hermitian 4x4 matrix.

    Raises NotHermitian if ``max|m - m^dag| > 1e-10`` and NoConvergence if
    the sweep cap is exceeded.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    _check_finite(m, NotHermitian)
    if np.max(np.abs(m - m.conj().T)) > HERMITIAN_TOL:
        raise NotHermitian("matrix is not Hermitian to 1e-10")
    w, v = _jacobi(m)
    return _sorted_spectrum(w, v)


def eig_symmetric3(m: np.ndarray) -> Spectrum:
    """Eigendecomposition of a real symmetric 3x3 matrix."""
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {m.shape}")
    _check_finite(m, NotSymmetric)
    if np.max(np.abs(m - m.T)) > HERMITIAN_TOL:
        raise NotSymmetric("matrix is not symmetric to 1e-10")
    w, v = _jacobi(m.astype(complex))
    spec = _sorted_spectrum(w, v)
    # real input and real rotations: the imaginary parts are exactly zero
    return Spectrum(eigenvalues=spec.eigenvalues, eigenvectors=spec.eigenvectors.real)


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
