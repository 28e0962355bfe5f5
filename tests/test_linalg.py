import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bellpair.linalg as linalg
import bellpair.states as states
from bellpair.bell import _flip_gram
from bellpair.linalg import (
    NoConvergence,
    NotHermitian,
    NotPositive,
    check_psd,
    cholesky_factor,
    eig_hermitian,
    eig_symmetric3,
    hermitian_lists,
    jacobi_eigenvalues,
    sqrt_psd,
)
from bellpair.states import NAMED_STATES, validate, werner
from oracles import eigvalsh_mp, jacobi_numpy, jacobi_two_sided, sorted_spectrum


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
    assert np.asarray(spec.eigenvectors).dtype.kind == "f"


def test_rejects_non_hermitian():
    m = np.eye(4, dtype=complex)
    m[0, 1] = 1e-6
    with pytest.raises(NotHermitian):
        eig_hermitian(m)


def test_rejects_non_symmetric():
    m = np.eye(3)
    m[0, 1] = 1e-6
    with pytest.raises(NotHermitian, match="^matrix is not Hermitian to 1e-10$"):
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
    # the norm of all twelve off-diagonal 0.1 entries, sqrt(0.12)
    with pytest.raises(NoConvergence, match=r"^off-diagonal norm 3\.464e-01 after 0 sweeps$"):
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
    v, w = np.asarray(spec.eigenvectors), np.asarray(spec.eigenvalues)
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
    v, w = np.asarray(spec.eigenvectors), np.asarray(spec.eigenvalues)
    assert np.allclose(w, np.sort(np.linalg.eigvalsh(m))[::-1], atol=1e-9)
    assert np.max(np.abs((v * w) @ v.T - m)) <= 1e-9


def assert_matches_numpy_kernel(m, spec):
    """Eigenvalues to 1e-14; eigenvectors to 1e-13 up to phase where gaps exceed 1e-6."""
    ref = sorted_spectrum(*jacobi_numpy(m.astype(complex)))
    w = ref.eigenvalues
    assert np.max(np.abs(np.asarray(spec.eigenvalues) - w)) <= 1e-14
    for k in range(len(w)):
        if min(abs(w[k] - w[j]) for j in range(len(w)) if j != k) <= 1e-6:
            continue
        u, x = ref.eigenvectors[:, k], np.asarray(spec.eigenvectors)[:, k]
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
    proj = np.asarray(werner(1.0).mat)
    root = np.asarray(sqrt_psd(proj))
    assert np.max(np.abs(root - proj)) <= 1e-12
    assert np.max(np.abs(root @ root - proj)) <= 1e-12


def test_sqrt_psd_squares_back_1000_random():
    rng = np.random.default_rng(20250811)
    worst = 0.0
    for _ in range(1000):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = g.conj().T @ g
        root = np.asarray(sqrt_psd(m))
        assert np.max(np.abs(root - root.conj().T)) <= 1e-12
        worst = max(worst, float(np.max(np.abs(root @ root - m))))
    assert worst <= 1e-9


def test_sqrt_psd_of_a_large_matrix_is_exactly_hermitian():
    # the rounding asymmetry of V sqrt(w) V^dag grows with the scale, far past the 1e-10 input rule
    g = np.random.default_rng(7).normal(size=(4, 4)) + 1j * np.random.default_rng(8).normal(size=(4, 4))
    m = 1e20 * (g @ g.conj().T)
    m = np.tril(m) + np.tril(m, -1).conj().T
    root = np.asarray(sqrt_psd(m))
    assert np.array_equal(root, root.conj().T)
    assert np.max(np.abs(root @ root - m)) <= 1e-12 * np.max(np.abs(m))


def test_sqrt_psd_clamps_round_off_negatives():
    m = np.diag([1.0, 0.5, -5e-9, 0.0])
    root = sqrt_psd(m)
    assert root[2][2] == 0.0


def test_sqrt_psd_rejects_indefinite():
    with pytest.raises(NotPositive, match="^eigenvalue -1.000e-06 below -1e-08$"):
        sqrt_psd(np.diag([1.0, 1.0, -1e-6, 1.0]))


def _psd_outcomes(diagonal):
    """What ``validate`` and ``sqrt_psd`` make of one unit-trace diagonal matrix:
    None for an accepted matrix, else the NotPositive message."""
    outcomes = []
    for check in (validate, sqrt_psd):
        try:
            check(np.diag(diagonal))
        except NotPositive as exc:
            outcomes.append(str(exc))
        else:
            outcomes.append(None)
    return outcomes


def test_validate_and_sqrt_psd_share_one_psd_rule():
    assert _psd_outcomes([0.5, 0.3, 0.2 + 0.5e-8, -0.5e-8]) == [None, None]
    assert _psd_outcomes([0.5, 0.3, 0.2 + 2e-8, -2e-8]) == ["eigenvalue -2.000e-08 below -1e-08"] * 2


def test_psd_rule_reports_the_smaller_of_a_near_degenerate_pair():
    # the pair lies within 1e-12 of each other; both checks must name the smaller one,
    # which the plainly sorted spectrum lists last
    low, lower = -1.00049999e-8, -1.00050001e-8
    outcomes = _psd_outcomes([0.6, 0.4 - low - lower, low, lower])
    assert outcomes == ["eigenvalue -1.001e-08 below -1e-08"] * 2
    assert eig_hermitian(np.diag([0.6, 0.4 - low - lower, low, lower])).eigenvalues[-1] == lower


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), gap=st.sampled_from([0.0, 1e-16, 1e-14, 4e-13, 1e-12, 2e-12, 1e-6]))
def test_spectra_are_sorted_descending_with_matching_columns(seed, gap):
    # a rotated diagonal with a pair gap apart, near and across 1e-12: the spectrum is the kernel's
    # eigenvalues in non-increasing order, which no tie rule reorders
    rng = np.random.default_rng(seed)
    for n, eig, dtype in ((4, eig_hermitian, complex), (3, eig_symmetric3, float)):
        w = rng.uniform(-1, 1, size=n)
        w[1] = w[2] + gap
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if dtype is complex else 0.0))
        m = (q * rng.permutation(w)) @ q.conj().T
        spec = eig(m)
        assert spec.eigenvalues == tuple(sorted(jacobi_eigenvalues(hermitian_lists(m, n, dtype)), reverse=True))
        v = np.asarray(spec.eigenvectors)
        # each column's residual is at most the off-diagonal norm the sweeps stop at, 1e-12
        assert np.max(np.abs(mirrored_lower(m) @ v - v * np.asarray(spec.eigenvalues))) <= 2e-12


def test_check_psd_takes_eigenvalues_in_any_order():
    w = [0.6, -2e-8, 0.4, 2e-8]
    for order in ([0, 1, 2, 3], [1, 0, 3, 2], [3, 2, 1, 0]):
        with pytest.raises(NotPositive, match="^eigenvalue -2.000e-08 below -1e-08$"):
            check_psd([w[k] for k in order])
    check_psd([0.5, -1e-8, 0.5, 0.0])


def _verdict(check, m):
    """None if ``check(m)`` returns, else the type and message of what it raised."""
    try:
        check(m)
    except Exception as exc:
        return type(exc), str(exc)
    return None


# Eigenvalues placed around the PSD floor, around zero and inside the rejected range.
PLACED = st.one_of(st.sampled_from([-1e-8 - 1e-15, -1e-8, -1e-8 + 1e-15, -1e-15, 0.0, 1e-15]),
                   st.floats(-1e-3, -1e-8 - 1e-12))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), positive=st.integers(1, 3), data=st.data())
def test_the_cholesky_certificate_keeps_the_jacobi_verdict(seed, positive, data):
    # ranks 1-4: 1-3 clearly positive eigenvalues, each other one placed (1e-15 makes it a full rank)
    placed = [data.draw(PLACED) for _ in range(4 - positive)]
    rng = np.random.default_rng(seed)
    w = np.concatenate([rng.dirichlet(np.ones(positive)) * (1.0 - sum(placed)), placed])
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    u, _ = np.linalg.qr(g)
    m = (u * w) @ u.conj().T
    want = _verdict(lambda m: check_psd(jacobi_eigenvalues(hermitian_lists(m, 4, complex))), m)
    assert _verdict(validate, m) == want


def test_validate_runs_jacobi_only_when_the_factor_breaks_down(monkeypatch):
    calls = []

    def counted(a, v=()):
        calls.append(len(a))
        return jacobi_eigenvalues(a, v)

    named = {name: make().mat for name, make in NAMED_STATES.items()}  # built before counting
    # validate reaches the kernel through the name it imported
    monkeypatch.setattr(linalg, "jacobi_eigenvalues", counted)
    monkeypatch.setattr(states, "jacobi_eigenvalues", counted)
    rng = np.random.default_rng(11)
    for _ in range(100):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = g @ g.conj().T
        rho = validate(m / np.trace(m).real)
        assert cholesky_factor(hermitian_lists(rho.mat, 4, complex))[1]
    validate(named["unpolarized"])
    assert calls == []
    for name in ("singlet", "triplet0", "phi_plus", "phi_minus"):
        validate(named[name])
        assert calls == [4]
        calls.clear()
    # a pure state whose truncated factor misses it by more than 1e-8: the one run also gives
    # the replacement factor, bit for bit that of a separate run with V on a copy
    rng = np.random.default_rng(68)
    g = rng.normal(size=4) + 1j * rng.normal(size=4)
    m = np.outer(g, g.conj())
    m /= np.trace(m).real
    a = hermitian_lists(m, 4, complex)
    truncated, complete = cholesky_factor(a)
    rho = validate(m)
    assert calls == [4]
    assert not complete and rho.factor != truncated
    v = [[complex(i == j) for j in range(4)] for i in range(4)]
    w = jacobi_eigenvalues([list(row) for row in a], v)
    want = tuple(tuple(x * math.sqrt(max(0.0, wk)) for x, wk in zip(row, w)) for row in v)
    assert repr(rho.factor) == repr(want)


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
        assert w == sorted(eig_hermitian(m).eigenvalues)
        assert w == sorted(jacobi_eigenvalues(hermitian_lists(m, 4, complex)))
    kept = hermitian_lists(validate(rho).mat, 4, complex)
    assert sorted(jacobi_two_sided(rho)[0].tolist()) == sorted(jacobi_eigenvalues(kept))


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_tangle_gram_eigenvalues_within_two_and_a_half_ulp_of_a_40_digit_oracle(rank):
    # max |w - w_mp| / max |w_mp| over the tangle's tau^dag tau, against mpmath.eighe of the same
    # float matrix; a two-sided product for the pivot block in place of the symmetric Schur update
    # reaches 4.7 and 5.6 units of 2^-52 on ranks 3 and 4 of this corpus
    rng = np.random.default_rng(500 + rank)
    worst = 0.0
    for _ in range(40):
        gram = _flip_gram(validate(random_state4(rng, rank)).factor)
        for k, row in enumerate(gram):
            row[k] = row[k].real
        w_mp = eigvalsh_mp(gram)
        w = sorted(jacobi_eigenvalues(gram))
        worst = max(worst, float(max(abs(x - y) for x, y in zip(w, w_mp)) / max(map(abs, w_mp))))
    assert worst <= 2.5 * 2.0 ** -52


def raw_jacobi(m, n, dtype):
    """Unsorted eigenvalues and eigenvectors straight from ``linalg.jacobi_eigenvalues``."""
    a = hermitian_lists(m, n, dtype)
    v = np.eye(n).tolist()
    w = jacobi_eigenvalues(a, v)
    return np.array(w), np.array(v, dtype=dtype)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
def test_raw_jacobi_output_bitwise_equals_two_sided_rotations(seed, rank):
    # an extra sweep on a converged matrix moves eigenvector bits more often than
    # eigenvalue bits, so comparing V as well pins the sweep the iteration stops on
    rng = np.random.default_rng(seed)
    for m in (random_state4(rng, rank), random_hermitian4(rng), werner(rng.uniform()).mat):
        w, v = raw_jacobi(m, 4, complex)
        w_ref, v_ref = jacobi_two_sided(m)
        assert w.tobytes() == w_ref.tobytes()
        assert v.tobytes() == v_ref.tobytes()
    g = rng.normal(size=(3, 3))
    for m in (g + g.T, g @ g.T):
        w, v = raw_jacobi(m, 3, float)
        w_ref, v_ref = jacobi_two_sided(m)
        assert w.tobytes() == w_ref.tobytes()
        assert v.tobytes() == v_ref.real.tobytes() and not np.any(v_ref.imag)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_symmetric3_eigenvalues_bitwise_equal_two_sided_rotations(seed):
    g = np.random.default_rng(seed).normal(size=(3, 3))
    m = g + g.T
    w, _ = jacobi_two_sided(m)
    assert sorted(w.tolist()) == sorted(eig_symmetric3(m).eigenvalues)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_symmetric3_real_route_bitwise_equal_complex_route(seed):
    g = np.random.default_rng(seed).normal(size=(3, 3))
    m = g @ g.T if seed % 2 else g + g.T
    real = eig_symmetric3(m)
    cplx = linalg.jacobi_spectrum(linalg.hermitian_lists(m, 3, complex))
    assert all(type(x) is float for row in real.eigenvectors for x in row)
    assert real.eigenvalues == cplx.eigenvalues
    assert not np.any(np.asarray(cplx.eigenvectors).imag)
    assert np.array_equal(real.eigenvectors, np.asarray(cplx.eigenvectors).real)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
def test_near_hermitian_input_has_the_spectrum_of_its_mirrored_lower_triangle(seed, rank):
    rng = np.random.default_rng(seed)
    rho = random_state4(rng, rank)
    m = rho + 1e-11 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    mirror = mirrored_lower(m)
    assert np.max(np.abs(m - m.conj().T)) <= 1e-10
    assert not np.array_equal(m, mirror)
    got, want = eig_hermitian(m), eig_hermitian(mirror)
    assert np.array_equal(got.eigenvalues, want.eigenvalues)
    assert np.array_equal(got.eigenvectors, want.eigenvectors)
    assert validate(m) == validate(mirror)  # the same kept matrix and the same factor


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
def test_eigenvalues_only_equal_the_sorted_spectrum(seed, rank):
    rng = np.random.default_rng(seed)
    for m in (random_hermitian4(rng), random_state4(rng, rank), werner(rng.uniform()).mat, np.eye(4)):
        w = sorted(jacobi_eigenvalues(hermitian_lists(m, 4, complex)), reverse=True)
        assert w == sorted(eig_hermitian(m).eigenvalues, reverse=True)


def test_eigenvalues_only_checks_its_input():
    m = np.eye(4, dtype=complex)
    m[0, 1] = 1e-6
    with pytest.raises(NotHermitian):
        jacobi_eigenvalues(hermitian_lists(m, 4, complex))
    m[0, 1] = np.inf
    with pytest.raises(NotHermitian, match="finite"):
        jacobi_eigenvalues(hermitian_lists(m, 4, complex))
