"""Two-qubit density matrices: validation, Pauli decomposition, constructors.

Basis order is the product basis {|++>, |+->, |-+>, |-->} with
sigma_z|+> = +|+>, which makes sigma_z (x) sigma_z diagonal (1,-1,-1,1).
Correlations of a state split into two local Bloch vectors A, P and the
3x3 correlation matrix D with D_ij = Tr[rho (sigma_i (x) sigma_j)].
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import HERMITIAN_TOL, NotHermitian, PSD_FLOOR, Spectrum, eig_hermitian

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
ID2 = np.eye(2, dtype=complex)
ID4 = np.eye(4, dtype=complex)

# The 15 Kronecker products sigma_i (x) 1, 1 (x) sigma_i and
# sigma_i (x) sigma_j, built once at import for decompose and compose.
_KRON_A = tuple(np.kron(si, ID2) for si in PAULIS)
_KRON_P = tuple(np.kron(ID2, si) for si in PAULIS)
_KRON_D = tuple(tuple(np.kron(si, sj) for sj in PAULIS) for si in PAULIS)

TRACE_TOL = 1e-10
IMAG_TOL = 1e-10
BLOCH_SLACK = 1e-9


class TraceNotOne(ValueError):
    """Trace differs from one by more than 1e-10."""


class NotPositive(ValueError):
    """Matrix has an eigenvalue below -1e-8."""


class GammaOutOfRange(ValueError):
    """Werner mixing weight outside [0, 1]."""


class BlochVectorTooLong(ValueError):
    """Single-qubit Bloch vector with norm above 1."""


@dataclass(frozen=True)
class DensityMatrix:
    """A validated two-qubit state. Build through :func:`validate`.

    ``spectrum`` is the eigendecomposition of ``mat`` that :func:`validate`
    computed for its positivity check; :func:`bell.tangle` takes the square
    root of the state from it instead of diagonalizing ``mat`` again.
    """

    mat: np.ndarray
    spectrum: Spectrum

    def __post_init__(self) -> None:
        self.mat.setflags(write=False)
        self.spectrum.eigenvalues.setflags(write=False)
        self.spectrum.eigenvectors.setflags(write=False)


@dataclass(frozen=True)
class PauliDecomposition:
    """Bloch vectors and correlation matrix of a two-qubit state.

    ``A`` and ``P`` are the first- and second-particle Bloch vectors;
    ``D[i, j] = Tr[rho (sigma_i (x) sigma_j)]``.  For physical states
    |A| <= 1, |P| <= 1 and every entry of D lies in [-1, 1]; the carrier
    itself does not enforce this, so unphysical decompositions can be fed
    to :func:`compose` and rejected there.
    """

    A: np.ndarray
    P: np.ndarray
    D: np.ndarray


def validate(mat: np.ndarray) -> DensityMatrix:
    """Check Hermiticity, unit trace and positivity; wrap on success."""
    m = np.asarray(mat, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise NotHermitian("matrix entries must be finite")
    if np.max(np.abs(m - m.conj().T)) > HERMITIAN_TOL:
        raise NotHermitian("density matrix is not Hermitian to 1e-10")
    tr = np.trace(m)
    if abs(tr - 1.0) > TRACE_TOL:
        raise TraceNotOne(f"trace is {tr:.12g}, expected 1")
    spec = eig_hermitian(m)
    w = spec.eigenvalues
    if np.min(w) < PSD_FLOOR:
        raise NotPositive(f"eigenvalue {np.min(w):.3e} below {PSD_FLOOR}")
    return DensityMatrix(m.copy(), spec)


def decompose(rho: DensityMatrix) -> PauliDecomposition:
    """Local Bloch vectors and correlation matrix of a state."""
    m = rho.mat
    a = np.empty(3)
    p = np.empty(3)
    d = np.empty((3, 3))
    for i in range(3):
        a[i] = _real_trace(m @ _KRON_A[i])
        p[i] = _real_trace(m @ _KRON_P[i])
        for j in range(3):
            d[i, j] = _real_trace(m @ _KRON_D[i][j])
    return PauliDecomposition(A=a, P=p, D=d)


def _real_trace(m: np.ndarray) -> float:
    tr = np.trace(m)
    if abs(tr.imag) > IMAG_TOL:
        raise NotHermitian(f"Pauli expectation has imaginary part {tr.imag:.3e}")
    return float(tr.real)


def compose(pd: PauliDecomposition) -> DensityMatrix:
    """Rebuild the density matrix from a Pauli decomposition.

    The result is validated, so decompositions that do not correspond to a
    physical state raise NotPositive.
    """
    m = ID4.copy()
    for i in range(3):
        m += pd.A[i] * _KRON_A[i]
        m += pd.P[i] * _KRON_P[i]
        for j in range(3):
            m += pd.D[i, j] * _KRON_D[i][j]
    return validate(m / 4.0)


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2); 0.25 for the maximally mixed state, 1 for pure states."""
    return float(np.trace(rho.mat @ rho.mat).real)


# --- canonical states ------------------------------------------------------

_SINGLET_KET = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
_TRIPLET0_KET = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
_PHI_PLUS_KET = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
_PHI_MINUS_KET = np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2)


def _projector(ket: np.ndarray) -> DensityMatrix:
    return validate(np.outer(ket, ket.conj()))


def singlet() -> DensityMatrix:
    """The antisymmetric Bell state (|+-> - |-+>)/sqrt(2); D = -identity."""
    return _projector(_SINGLET_KET)


def triplet0() -> DensityMatrix:
    """(|+-> + |-+>)/sqrt(2); D = diag(1, 1, -1)."""
    return _projector(_TRIPLET0_KET)


def phi_plus() -> DensityMatrix:
    """(|++> + |-->)/sqrt(2); D = diag(1, -1, 1)."""
    return _projector(_PHI_PLUS_KET)


def phi_minus() -> DensityMatrix:
    """(|++> - |-->)/sqrt(2); D = diag(-1, 1, 1)."""
    return _projector(_PHI_MINUS_KET)


def unpolarized() -> DensityMatrix:
    """The maximally mixed state I/4."""
    return validate(ID4 / 4.0)


NAMED_STATES = {
    "singlet": singlet,
    "triplet0": triplet0,
    "phi_plus": phi_plus,
    "phi_minus": phi_minus,
    "unpolarized": unpolarized,
}


def werner(gamma: float) -> DensityMatrix:
    """Mix the singlet with the unpolarized state: (1-g) I/4 + g |psi><psi|.

    gamma in [0, 1] controls the degree of mixing; gamma=0 is I/4 and
    gamma=1 the pure singlet.  The construction is affine in gamma down to
    the last bit.
    """
    if not np.isfinite(gamma) or gamma < 0.0 or gamma > 1.0:
        raise GammaOutOfRange(f"gamma must be in [0, 1], got {gamma}")
    proj = np.outer(_SINGLET_KET, _SINGLET_KET.conj())
    return validate((1.0 - gamma) * (ID4 / 4.0) + gamma * proj)


def product_state(a: np.ndarray, p: np.ndarray) -> DensityMatrix:
    """Uncorrelated pair with local Bloch vectors ``a`` and ``p``."""
    a = np.asarray(a, dtype=float)
    p = np.asarray(p, dtype=float)
    for name, vec in (("a", a), ("p", p)):
        if vec.shape != (3,):
            raise ValueError(f"Bloch vector {name} must have three components")
        if _norm(vec) > 1.0 + BLOCH_SLACK:
            raise BlochVectorTooLong(f"|{name}| = {_norm(vec):.12g} exceeds 1")
    rho_a = 0.5 * (ID2 + a[0] * SIGMA_X + a[1] * SIGMA_Y + a[2] * SIGMA_Z)
    rho_p = 0.5 * (ID2 + p[0] * SIGMA_X + p[1] * SIGMA_Y + p[2] * SIGMA_Z)
    return validate(np.kron(rho_a, rho_p))


def _norm(v: np.ndarray) -> float:
    return float(np.sqrt(np.sum(v * v)))
