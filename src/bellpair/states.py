"""Two-qubit density matrices: validation, Pauli decomposition, constructors.

Basis order is the product basis {|++>, |+->, |-+>, |-->} with
sigma_z|+> = +|+>, which makes sigma_z (x) sigma_z diagonal (1,-1,-1,1).
Correlations of a state split into two local Bloch vectors A, P and the
3x3 correlation matrix D with D_ij = Tr[rho (sigma_i (x) sigma_j)].
Matrices and vectors are tuples of Python scalars: rows of ``complex`` (with
a ``float`` diagonal) for a state, ``float`` for A, P and D.

Each Pauli product K (sigma_i (x) 1, 1 (x) sigma_i, sigma_i (x) sigma_j)
is a signed permutation: column c has one nonzero, +-1 or +-i, in row
r(c).  So Tr(m K) is four exact terms t_c = m[c][r(c)] K[r(c)][c].
:func:`decompose` sums them as (t0 + t1) + (t2 + t3), the order numpy's
pairwise sum takes over the diagonal of ``np.trace(m @ K)`` (sequential
order differs in the last bit for most states), then adds 0.0, because
the matrix product never returns -0.0.  D, and every simulated count, is
bitwise that of the dense route, ``tests/oracles.py::decompose_kron``.
K is also a Hermitian involution and ``mat`` exactly Hermitian, so each
t_c is real or has its conjugate among the others: the sum is exactly real,
and :func:`decompose` adds the real parts alone.
"""
from __future__ import annotations

import functools
import math
from collections import namedtuple

from .linalg import PSD_FLOOR, check_psd, cholesky_factor, hermitian_lists, jacobi_eigenvalues, ordered_sum

# The signed-permutation Paulis 1, sigma_x, sigma_y, sigma_z as (rows, phases):
# column c has its one nonzero, phases[c], in row rows[c].
_ONE, *_SIGMAS = (((0, 1), (1, 1)), ((1, 0), (1, 1)), ((1, 0), (1j, -1j)), ((0, 1), (1, -1)))


def _kron(left: tuple, right: tuple) -> tuple:
    """(rows, phases) of left (x) right; column c = 2 c_left + c_right."""
    (left_rows, left_phases), (right_rows, right_phases) = left, right
    return (tuple(2 * left_rows[c >> 1] + right_rows[c & 1] for c in range(4)),
            tuple(left_phases[c >> 1] * right_phases[c & 1] for c in range(4)))


# The 15 Pauli products, five per i = x, y, z: sigma_i (x) 1, 1 (x) sigma_i,
# sigma_i (x) sigma_j (j = x, y, z).  compose adds them in this order.
_PRODUCTS = tuple(_kron(left, right) for si in _SIGMAS
                  for left, right in ((si, _ONE), (_ONE, si), *((si, sj) for sj in _SIGMAS)))

TRACE_TOL = 1e-10


class TraceNotOne(ValueError):
    """Trace differs from one by more than 1e-10."""


class GammaOutOfRange(ValueError):
    """Werner mixing weight outside [0, 1]."""


class DensityMatrix(namedtuple("DensityMatrix", "mat factor")):
    """A validated two-qubit state. Build through :func:`validate`.

    ``mat`` is the lower triangle of the input, mirrored, with a real
    diagonal, as a tuple of rows, so it is exactly Hermitian; ``factor`` holds
    the rows of a 4x4 matrix Psi with Psi Psi^dag = mat to within 1e-8 entrywise
    (to rounding, about 1e-15, whenever the pivoted Cholesky factor that
    :func:`validate` certified positivity with ran to completion), unused
    columns zero.  :func:`bell.tangle` reads Psi.
    """

    __slots__ = ()


class PauliDecomposition(namedtuple("PauliDecomposition", "A P D")):
    """Bloch vectors and correlation matrix of a two-qubit state.

    ``A`` and ``P`` are the first- and second-particle Bloch vectors;
    ``D[i][j] = Tr[rho (sigma_i (x) sigma_j)]``.  Any arrays or sequences of
    the right shapes are stored as tuples of ``float``.  For physical states
    |A| <= 1, |P| <= 1 and every entry of D lies in [-1, 1]; the carrier
    itself does not enforce this, so unphysical decompositions can be fed
    to :func:`compose` and rejected there.
    """

    __slots__ = ()

    def __new__(cls, A, P, D) -> PauliDecomposition:
        A, P = tuple(map(float, A)), tuple(map(float, P))
        D = tuple(tuple(map(float, row)) for row in D)
        if len(A) != 3 or len(P) != 3 or len(D) != 3 or any(len(row) != 3 for row in D):
            raise ValueError("a Pauli decomposition needs A and P of length 3 and a 3x3 D")
        return super().__new__(cls, A, P, D)


def validate(mat) -> DensityMatrix:
    """Check Hermiticity, unit trace and positivity; keep the matrix and a factor of it.

    Positivity is certified by :func:`linalg.cholesky_factor`: when all four pivots are
    positive, the matrix is within about 1e-15 of a PSD one, far inside the -1e-8 floor
    of :func:`linalg.check_psd`, so no eigenvalue is computed.  When the factor breaks
    down (rank-deficient or slightly indefinite input), one Jacobi run, with the
    eigenvectors V carried along, gives the eigenvalues w that decide through
    :func:`linalg.check_psd`.  An accepted state whose truncated factor misses the
    matrix by more than 1e-8 in some entry (a tiny pivot before an indefinite
    remainder can leave such a factor) gets the factor V sqrt(max(w, 0)) of the
    clamped spectrum from that same run instead.
    """
    a = hermitian_lists(mat, 4, complex)
    tr = 0.0  # the real diagonal of the kept matrix, added left to right
    for i in range(4):
        tr += a[i][i]
    if abs(tr - 1.0) > TRACE_TOL:
        raise TraceNotOne(f"trace is {tr:.12g}, expected 1")
    kept = tuple(map(tuple, a))  # before the rotations overwrite ``a``
    factor, complete = cholesky_factor(a)
    if not complete:
        v = [[complex(i == j) for j in range(4)] for i in range(4)]
        w = jacobi_eigenvalues(a, v)
        check_psd(w)
        # the truncated factor stays if it reproduces every entry to the 1e-8 that check_psd forgives
        residual = max(abs(kept[i][j] - ordered_sum(x * y.conjugate() for x, y in zip(factor[i], factor[j])))
                       for i in range(4) for j in range(i + 1))
        if residual > -PSD_FLOOR:
            roots = [math.sqrt(max(0.0, x)) for x in w]
            factor = tuple(tuple(x * r for x, r in zip(row, roots)) for row in v)
    return DensityMatrix(kept, factor)


def decompose(rho: DensityMatrix) -> PauliDecomposition:
    """Local Bloch vectors and correlation matrix of a state."""
    m0, m1, m2, m3 = rho.mat
    parts = [((m0[r0] * p0).real + (m1[r1] * p1).real) + ((m2[r2] * p2).real + (m3[r3] * p3).real) + 0.0
             for (r0, r1, r2, r3), (p0, p1, p2, p3) in _PRODUCTS]
    return PauliDecomposition(A=parts[0::5], P=parts[1::5], D=(parts[2:5], parts[7:10], parts[12:15]))


def compose(pd: PauliDecomposition) -> DensityMatrix:
    """Rebuild the density matrix from a Pauli decomposition.

    The result is validated, so decompositions that do not correspond to a
    physical state raise NotPositive, and non-finite sums NotHermitian.
    """
    m = [[complex(i == j) for j in range(4)] for i in range(4)]
    coeffs = [x for i in range(3) for x in (pd.A[i], pd.P[i], *pd.D[i])]
    for coeff, (rows, phases) in zip(coeffs, _PRODUCTS):
        for c, (r, phase) in enumerate(zip(rows, phases)):
            m[r][c] += coeff * phase
    return validate([[x / 4.0 for x in row] for row in m])


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2); 0.25 for the maximally mixed state, 1 for pure states, and 0.625 for the
    Werner state at the CHSH threshold gamma = 1/sqrt(2) ~ 0.707, the singlet weight that
    the paper calls a purity of ~70%.

    The diagonal of rho^2 is sum_k |rho_ik|^2, because ``mat`` is exactly Hermitian.
    """
    total = 0.0  # row sums, added left to right, then added up in row order
    for row in rho.mat:
        row_total = 0.0
        for x in row:
            row_total += x.real * x.real + x.imag * x.imag
        total += row_total
    return total


# --- canonical states ------------------------------------------------------

_H = 1.0 / math.sqrt(2.0)
_SINGLET_KET = (0j, complex(_H), complex(-_H), 0j)
_TRIPLET0_KET = (0j, complex(_H), complex(_H), 0j)
_PHI_PLUS_KET = (complex(_H), 0j, 0j, complex(_H))
_PHI_MINUS_KET = (complex(_H), 0j, 0j, complex(-_H))
_QUARTER_ID = tuple(tuple(complex(0.25 * (i == j)) for j in range(4)) for i in range(4))


def _outer(ket: tuple) -> list[list[complex]]:
    """|ket><ket|."""
    return [[x * y.conjugate() for y in ket] for x in ket]


@functools.cache
def singlet() -> DensityMatrix:
    """The antisymmetric Bell state (|+-> - |-+>)/sqrt(2); D = -identity."""
    return validate(_outer(_SINGLET_KET))


# decompose(singlet()), computed once
SINGLET_PAULI = decompose(singlet())


@functools.cache
def triplet0() -> DensityMatrix:
    """(|+-> + |-+>)/sqrt(2); D = diag(1, 1, -1)."""
    return validate(_outer(_TRIPLET0_KET))


@functools.cache
def phi_plus() -> DensityMatrix:
    """(|++> + |-->)/sqrt(2); D = diag(1, -1, 1)."""
    return validate(_outer(_PHI_PLUS_KET))


@functools.cache
def phi_minus() -> DensityMatrix:
    """(|++> - |-->)/sqrt(2); D = diag(-1, 1, 1)."""
    return validate(_outer(_PHI_MINUS_KET))


@functools.cache
def unpolarized() -> DensityMatrix:
    """The maximally mixed state I/4."""
    return validate(_QUARTER_ID)


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
    if not math.isfinite(gamma) or gamma < 0.0 or gamma > 1.0:
        raise GammaOutOfRange(f"gamma must be in [0, 1], got {gamma}")
    return validate([[(1.0 - gamma) * q + gamma * p for q, p in zip(q_row, p_row)]
                     for q_row, p_row in zip(_QUARTER_ID, _outer(_SINGLET_KET))])
