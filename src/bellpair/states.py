"""Two-qubit density matrices: validation, Pauli decomposition, constructors.

Basis order is the product basis {|++>, |+->, |-+>, |-->} with
sigma_z|+> = +|+>, which makes sigma_z (x) sigma_z diagonal (1,-1,-1,1).
Correlations of a state split into two local Bloch vectors A, P and the
3x3 correlation matrix D with D_ij = Tr[rho (sigma_i (x) sigma_j)].

Each Pauli product K (sigma_i (x) 1, 1 (x) sigma_i, sigma_i (x) sigma_j)
is a signed permutation: column c has one nonzero, +-1 or +-i, in row
r(c).  So Tr(m K) is four exact terms t_c = m[c, r(c)] K[r(c), c].
:func:`decompose` sums them as (t0 + t1) + (t2 + t3), the order numpy's
pairwise sum takes over the diagonal of ``np.trace(m @ K)`` (sequential
order differs in the last bit for most states), then adds 0.0, because
the matrix product never returns -0.0.  D, and every simulated count, is
bitwise that of the dense route, ``tests/oracles.py::decompose_kron``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import NotHermitian, PSD_FLOOR, Spectrum, as_square, hermitian_lists, jacobi_spectrum

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
ID2 = np.eye(2, dtype=complex)
ID4 = np.eye(4, dtype=complex)

# The 15 Pauli products, five per i = x, y, z: sigma_i (x) 1, 1 (x) sigma_i,
# sigma_i (x) sigma_j (j = x, y, z).  compose adds them in this order;
# column c of product k has its one nonzero, _PHASES[k, c], in row _ROWS[k, c].
_PRODUCTS = np.array([np.kron(left, right) for si in PAULIS
                      for left, right in ((si, ID2), (ID2, si), *((si, sj) for sj in PAULIS))])
_ROWS = np.argmax(_PRODUCTS != 0, axis=1)
_GATHER = 4 * np.arange(4) + _ROWS  # flat index of m[c, _ROWS[k, c]]
_PHASES = np.take_along_axis(_PRODUCTS, _ROWS[:, None, :], axis=1)[:, 0, :]

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
    m = as_square(mat, 4, complex)
    a = hermitian_lists(m, message="density matrix is not Hermitian to 1e-10")
    tr = np.trace(m)
    if abs(tr - 1.0) > TRACE_TOL:
        raise TraceNotOne(f"trace is {tr:.12g}, expected 1")
    spec = jacobi_spectrum(a)
    w = spec.eigenvalues
    if np.min(w) < PSD_FLOOR:
        raise NotPositive(f"eigenvalue {np.min(w):.3e} below {PSD_FLOOR}")
    return DensityMatrix(m.copy(), spec)


def decompose(rho: DensityMatrix) -> PauliDecomposition:
    """Local Bloch vectors and correlation matrix of a state."""
    t = rho.mat.ravel()[_GATHER] * _PHASES
    traces = (t[:, 0] + t[:, 1]) + (t[:, 2] + t[:, 3]) + 0.0
    bad = np.flatnonzero(np.abs(traces.imag) > IMAG_TOL)
    if bad.size:
        raise NotHermitian(f"Pauli expectation has imaginary part {traces.imag[bad[0]]:.3e}")
    parts = traces.real.reshape(3, 5)
    # contiguous copies: numpy's matmul rounds differently on strided views
    return PauliDecomposition(A=parts[:, 0].copy(), P=parts[:, 1].copy(), D=parts[:, 2:].copy())


def compose(pd: PauliDecomposition) -> DensityMatrix:
    """Rebuild the density matrix from a Pauli decomposition.

    The result is validated, so decompositions that do not correspond to a
    physical state raise NotPositive.
    """
    m = ID4.copy()
    for coeff, product in zip(np.column_stack((pd.A, pd.P, pd.D)).ravel(), _PRODUCTS):
        m += coeff * product
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


# decompose(singlet()), computed once; its arrays are read-only.
SINGLET_PAULI = decompose(singlet())
SINGLET_PAULI.A.setflags(write=False)
SINGLET_PAULI.P.setflags(write=False)
SINGLET_PAULI.D.setflags(write=False)


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
