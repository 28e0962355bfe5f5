import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bellpair.linalg as linalg
from bellpair.linalg import (
    NoConvergence,
    NotHermitian,
    NotPSD,
    NotSymmetric,
    eig_hermitian,
    eig_symmetric3,
    eigvals_hermitian,
    sqrt_psd,
)
from bellpair.states import validate, werner
from oracles import jacobi_numpy, jacobi_two_sided, sorted_spectrum


def random_hermitian4(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return g + g.conj().T


def test_identity_eigenvalues():
    spec = eig_hermitian(np.eye(4))
    assert np.allclose(spec.eigenvalues, [1, 1, 1, 1])


def test_diagonal_descending_with_basis_vectors():
    spec = eig_hermitian(np.diag([4.0, 3.0, 2.0, 1.0]))
    assert np.allclose(spec.eigenvalues, [4, 3, 2, 1])
    assert np.allclose(np.abs(spec.eigenvectors), np.eye(4), atol=1e-12)


def test_werner_spectrum_characteristic_polynomial():
    rho = werner(0.9).mat
    spec = eig_hermitian(rho)
    assert np.allclose(spec.eigenvalues, [0.925, 0.025, 0.025, 0.025], atol=1e-12)
    # each claimed eigenvalue is a root of det(rho - lam I)
    for lam in (0.925, 0.025):
        assert abs(np.linalg.det(rho - lam * np.eye(4))) < 1e-12


def test_symmetric3_zero_matrix():
    spec = eig_symmetric3(np.zeros((3, 3)))
    assert np.allclose(spec.eigenvalues, [0, 0, 0])


def test_symmetric3_scaled_identity():
    spec = eig_symmetric3(np.diag([0.81, 0.81, 0.81]))
    assert np.allclose(spec.eigenvalues, [0.81, 0.81, 0.81])


def test_symmetric3_block():
    # 2x2 block [[2,1],[1,2]] has eigenvalues 2 +- 1
    spec = eig_symmetric3(np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 5.0]]))
    assert np.allclose(spec.eigenvalues, [5, 3, 1], atol=1e-12)
    assert spec.eigenvectors.dtype.kind == "f"


def test_rejects_non_hermitian():
    m = np.eye(4, dtype=complex)
    m[0, 1] = 1e-6
    with pytest.raises(NotHermitian):
        eig_hermitian(m)


def test_rejects_non_symmetric():
    m = np.eye(3)
    m[0, 1] = 1e-6
    with pytest.raises(NotSymmetric):
        eig_symmetric3(m)


def test_rejects_nan_entries():
    m = np.eye(4, dtype=complex)
    m[2, 2] = np.nan
    with pytest.raises(NotHermitian):
        eig_hermitian(m)


def test_wrong_shape():
    with pytest.raises(ValueError):
        eig_hermitian(np.eye(3))
    with pytest.raises(ValueError):
        eig_symmetric3(np.eye(4))


def test_no_convergence_when_sweeps_exhausted(monkeypatch):
    monkeypatch.setattr(linalg, "MAX_SWEEPS", 0)
    with pytest.raises(NoConvergence):
        eig_hermitian(np.diag([1.0, 2.0, 3.0, 4.0]) + np.full((4, 4), 0.1))
    # an already-diagonal matrix needs no sweeps at all
    spec = eig_hermitian(np.diag([4.0, 3.0, 2.0, 1.0]))
    assert np.allclose(spec.eigenvalues, [4, 3, 2, 1])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_reconstruction_trace_and_orthonormality(seed):
    rng = np.random.default_rng(seed)
    m = random_hermitian4(rng)
    spec = eig_hermitian(m)
    v, w = spec.eigenvectors, spec.eigenvalues
    assert np.all(np.diff(w) <= 1e-12)
    assert np.max(np.abs((v * w) @ v.conj().T - m)) <= 1e-9
    assert np.max(np.abs(v.conj().T @ v - np.eye(4))) <= 1e-10
    assert abs(np.trace(m).real - w.sum()) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_symmetric3_matches_reference(seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(3, 3))
    m = g + g.T
    spec = eig_symmetric3(m)
    assert np.allclose(spec.eigenvalues, np.sort(np.linalg.eigvalsh(m))[::-1], atol=1e-9)
    assert np.max(np.abs((spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.T - m)) <= 1e-9


def assert_matches_numpy_kernel(m, spec):
    """Eigenvalues to 1e-14; eigenvectors to 1e-13 up to phase where gaps exceed 1e-6."""
    ref = sorted_spectrum(*jacobi_numpy(m.astype(complex)))
    w = ref.eigenvalues
    assert np.max(np.abs(spec.eigenvalues - w)) <= 1e-14
    for k in range(len(w)):
        if min(abs(w[k] - w[j]) for j in range(len(w)) if j != k) <= 1e-6:
            continue
        u, x = ref.eigenvectors[:, k], spec.eigenvectors[:, k]
        overlap = np.vdot(x, u)
        assert np.max(np.abs(x * (overlap / abs(overlap)) - u)) <= 1e-13


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_hermitian4_matches_numpy_slice_kernel(seed):
    m = random_hermitian4(np.random.default_rng(seed))
    assert_matches_numpy_kernel(m, eig_hermitian(m))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_symmetric3_matches_numpy_slice_kernel(seed):
    g = np.random.default_rng(seed).normal(size=(3, 3))
    m = g + g.T
    assert_matches_numpy_kernel(m, eig_symmetric3(m))


def test_sqrt_psd_identity_and_diagonal():
    assert np.allclose(sqrt_psd(np.eye(4)), np.eye(4))
    assert np.allclose(sqrt_psd(np.diag([4.0, 1.0, 0.0, 9.0])), np.diag([2.0, 1.0, 0.0, 3.0]))


def test_sqrt_psd_projector_is_idempotent():
    proj = werner(1.0).mat
    root = sqrt_psd(proj)
    assert np.max(np.abs(root - proj)) <= 1e-12
    assert np.max(np.abs(root @ root - proj)) <= 1e-12


def test_sqrt_psd_squares_back_1000_random():
    rng = np.random.default_rng(20250811)
    worst = 0.0
    for _ in range(1000):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = g.conj().T @ g
        root = sqrt_psd(m)
        assert np.max(np.abs(root - root.conj().T)) <= 1e-12
        worst = max(worst, float(np.max(np.abs(root @ root - m))))
    assert worst <= 1e-9


def test_sqrt_psd_clamps_round_off_negatives():
    m = np.diag([1.0, 0.5, -5e-9, 0.0])
    root = sqrt_psd(m)
    assert root[2, 2] == 0.0


def test_sqrt_psd_rejects_indefinite():
    with pytest.raises(NotPSD):
        sqrt_psd(np.diag([1.0, 1.0, -1e-6, 1.0]))


def test_degenerate_ordering_is_deterministic():
    m = werner(0.9).mat
    a = eig_hermitian(m)
    b = eig_hermitian(m)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def random_state4(rng, rank):
    """Exactly Hermitian density matrix of the given rank."""
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    m = g @ g.conj().T
    m = 0.5 * (m + m.conj().T)
    return m / np.trace(m).real


def mirrored_lower(m):
    """The lower triangle of m, its conjugate mirror and the real diagonal."""
    low = np.tril(m, -1)
    return low + low.conj().T + np.diag(np.diag(m).real)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
def test_hermitian4_eigenvalues_bitwise_equal_two_sided_rotations(seed, rank):
    rng = np.random.default_rng(seed)
    rho = random_state4(rng, rank)
    for m in (random_hermitian4(rng), rho, werner(rng.uniform()).mat):
        w = sorted(jacobi_two_sided(m)[0].tolist())
        assert w == sorted(eig_hermitian(m).eigenvalues.tolist())
        assert w == sorted(eigvals_hermitian(m))
    assert sorted(jacobi_two_sided(rho)[0].tolist()) == sorted(validate(rho).spectrum.eigenvalues.tolist())


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_symmetric3_eigenvalues_bitwise_equal_two_sided_rotations(seed):
    g = np.random.default_rng(seed).normal(size=(3, 3))
    m = g + g.T
    w, _ = jacobi_two_sided(m)
    assert sorted(w.tolist()) == sorted(eig_symmetric3(m).eigenvalues.tolist())


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_symmetric3_real_route_bitwise_equal_complex_route(seed):
    g = np.random.default_rng(seed).normal(size=(3, 3))
    m = g @ g.T if seed % 2 else g + g.T
    real = eig_symmetric3(m)
    cplx = linalg.jacobi_spectrum(linalg.hermitian_lists(m.astype(complex)))
    assert real.eigenvectors.dtype == np.float64
    assert np.array_equal(real.eigenvalues, cplx.eigenvalues)
    assert not np.any(cplx.eigenvectors.imag)
    assert np.array_equal(real.eigenvectors, cplx.eigenvectors.real)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
def test_near_hermitian_input_has_the_spectrum_of_its_mirrored_lower_triangle(seed, rank):
    rng = np.random.default_rng(seed)
    rho = random_state4(rng, rank)
    m = rho + 1e-11 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    mirror = mirrored_lower(m)
    assert np.max(np.abs(m - m.conj().T)) <= 1e-10
    assert not np.array_equal(m, mirror)
    for got, want in ((eig_hermitian(m), eig_hermitian(mirror)),
                      (validate(m).spectrum, validate(mirror).spectrum)):
        assert np.array_equal(got.eigenvalues, want.eigenvalues)
        assert np.array_equal(got.eigenvectors, want.eigenvectors)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
def test_eigenvalues_only_equal_the_sorted_spectrum(seed, rank):
    rng = np.random.default_rng(seed)
    for m in (random_hermitian4(rng), random_state4(rng, rank), werner(rng.uniform()).mat, np.eye(4)):
        assert eigvals_hermitian(m) == sorted(eig_hermitian(m).eigenvalues.tolist(), reverse=True)


def test_eigenvalues_only_checks_its_input():
    m = np.eye(4, dtype=complex)
    m[0, 1] = 1e-6
    with pytest.raises(NotHermitian):
        eigvals_hermitian(m)
    m[0, 1] = np.inf
    with pytest.raises(NotHermitian, match="finite"):
        eigvals_hermitian(m)
