import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellpair.bell import tangle
from bellpair.linalg import NotHermitian, eig_hermitian
from bellpair.states import (
    SINGLET_PAULI,
    BlochVectorTooLong,
    DensityMatrix,
    GammaOutOfRange,
    NotPositive,
    PauliDecomposition,
    TraceNotOne,
    compose,
    decompose,
    phi_minus,
    phi_plus,
    product_state,
    purity,
    singlet,
    triplet0,
    unpolarized,
    validate,
    werner,
)
from conftest import random_density_matrix, random_mixture, random_pure_ket
from oracles import compose_kron, decompose_kron


def test_validate_accepts_maximally_mixed():
    rho = validate(np.eye(4) / 4)
    assert np.allclose(rho.mat, np.eye(4) / 4)


def test_validate_rejects_wrong_trace():
    with pytest.raises(TraceNotOne):
        validate(np.diag([1.0, 1.0, 0.0, 0.0]))


def test_validate_rejects_indefinite():
    with pytest.raises(NotPositive):
        validate(np.diag([1.2, -0.2, 0.0, 0.0]))


def test_validate_rejects_non_hermitian():
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = 0.1
    with pytest.raises(NotHermitian):
        validate(m)


def test_validated_matrix_is_read_only():
    rho = unpolarized()
    with pytest.raises(ValueError):
        rho.mat[0, 0] = 0.5


def test_decompose_unpolarized_is_zero():
    pd = decompose(unpolarized())
    assert np.allclose(pd.A, 0) and np.allclose(pd.P, 0) and np.allclose(pd.D, 0)


def test_decompose_singlet():
    pd = decompose(singlet())
    assert np.allclose(pd.A, 0, atol=1e-12)
    assert np.allclose(pd.P, 0, atol=1e-12)
    assert np.allclose(pd.D, np.diag([-1.0, -1.0, -1.0]), atol=1e-12)


def test_decompose_werner_scales_singlet():
    pd = decompose(werner(0.9))
    assert np.allclose(pd.D, np.diag([-0.9, -0.9, -0.9]), atol=1e-12)


def test_bell_state_correlation_signatures():
    assert np.allclose(decompose(phi_plus()).D, np.diag([1.0, -1.0, 1.0]), atol=1e-12)
    assert np.allclose(decompose(phi_minus()).D, np.diag([-1.0, 1.0, 1.0]), atol=1e-12)
    assert np.allclose(decompose(triplet0()).D, np.diag([1.0, 1.0, -1.0]), atol=1e-12)


def test_compose_zero_decomposition_is_unpolarized():
    pd = PauliDecomposition(A=np.zeros(3), P=np.zeros(3), D=np.zeros((3, 3)))
    assert np.allclose(compose(pd).mat, np.eye(4) / 4)


def test_compose_inverts_singlet_decomposition():
    pd = PauliDecomposition(A=np.zeros(3), P=np.zeros(3), D=np.diag([-1.0, -1.0, -1.0]))
    assert np.max(np.abs(compose(pd).mat - singlet().mat)) <= 1e-12


def test_compose_rejects_unphysical_correlations():
    pd = PauliDecomposition(A=np.zeros(3), P=np.zeros(3), D=np.diag([-2.0, 0.0, 0.0]))
    with pytest.raises(NotPositive):
        compose(pd)


def test_round_trip_1000_random_mixtures():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        rho = random_mixture(rng)
        back = compose(decompose(rho))
        worst = max(worst, float(np.max(np.abs(back.mat - rho.mat))))
    assert worst <= 1e-10


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.floats(0.0, 1.0))
def test_decompose_is_trace_linear(seed, p):
    rng = np.random.default_rng(seed)
    rho1 = random_density_matrix(rng)
    rho2 = random_density_matrix(rng)
    mixed = validate(p * rho1.mat + (1 - p) * rho2.mat)
    pd, pd1, pd2 = decompose(mixed), decompose(rho1), decompose(rho2)
    assert np.allclose(pd.A, p * pd1.A + (1 - p) * pd2.A, atol=1e-10)
    assert np.allclose(pd.P, p * pd1.P + (1 - p) * pd2.P, atol=1e-10)
    assert np.allclose(pd.D, p * pd1.D + (1 - p) * pd2.D, atol=1e-10)


def test_decomposition_stays_in_physical_ranges():
    rng = np.random.default_rng(7)
    for _ in range(200):
        pd = decompose(random_density_matrix(rng))
        assert np.linalg.norm(pd.A) <= 1 + 1e-9
        assert np.linalg.norm(pd.P) <= 1 + 1e-9
        assert np.all(np.abs(pd.D) <= 1 + 1e-9)


def test_purity_reference_points():
    assert purity(unpolarized()) == pytest.approx(0.25, abs=1e-12)
    assert purity(singlet()) == pytest.approx(1.0, abs=1e-12)
    assert purity(werner(0.9)) == pytest.approx(0.8575, abs=1e-12)


def test_purity_equals_eigenvalue_square_sum():
    rng = np.random.default_rng(11)
    for _ in range(100):
        rho = random_density_matrix(rng)
        w = eig_hermitian(rho.mat).eigenvalues
        assert purity(rho) == pytest.approx(float(np.sum(w**2)), abs=1e-10)


def test_purity_strictly_increases_along_werner_family():
    values = [purity(werner(k / 100)) for k in range(101)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_singlet_matrix_entries():
    m = singlet().mat
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 1] = expected[2, 2] = 0.5
    expected[1, 2] = expected[2, 1] = -0.5
    assert np.max(np.abs(m - expected)) <= 1e-12


def test_werner_limits():
    assert np.allclose(werner(0.0).mat, np.eye(4) / 4)
    assert np.max(np.abs(werner(1.0).mat - singlet().mat)) == 0.0


def test_werner_spectrum():
    w = eig_hermitian(werner(0.9).mat).eigenvalues
    assert np.allclose(w, [0.925, 0.025, 0.025, 0.025], atol=1e-12)


@given(gamma=st.floats(0.0, 1.0))
def test_werner_is_affine_in_gamma(gamma):
    lo, hi = werner(0.0).mat, werner(1.0).mat
    assert np.array_equal(werner(gamma).mat, (1 - gamma) * lo + gamma * hi)


@pytest.mark.parametrize("gamma", [-0.01, 1.01, np.nan])
def test_werner_rejects_out_of_range(gamma):
    with pytest.raises(GammaOutOfRange):
        werner(gamma)


def test_product_state_examples():
    z = np.array([0.0, 0.0, 1.0])
    zero = np.zeros(3)
    assert np.allclose(product_state(z, z).mat, np.diag([1.0, 0.0, 0.0, 0.0]))
    assert np.allclose(product_state(zero, zero).mat, np.eye(4) / 4)
    assert np.allclose(product_state(z, zero).mat, np.diag([0.5, 0.5, 0.0, 0.0]))


def test_product_state_decomposition_is_outer_product():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = rng.normal(size=3)
        a *= rng.uniform(0, 1) / np.linalg.norm(a)
        p = rng.normal(size=3)
        p *= rng.uniform(0, 1) / np.linalg.norm(p)
        pd = decompose(product_state(a, p))
        assert np.allclose(pd.A, a, atol=1e-10)
        assert np.allclose(pd.P, p, atol=1e-10)
        assert np.allclose(pd.D, np.outer(a, p), atol=1e-10)


def test_product_state_rejects_long_bloch_vector():
    with pytest.raises(BlochVectorTooLong):
        product_state(np.array([0.0, 0.0, 1.1]), np.zeros(3))


def test_product_states_carry_no_entanglement():
    rng = np.random.default_rng(5)
    for _ in range(100):
        a = rng.normal(size=3)
        a *= rng.uniform(0, 1) / np.linalg.norm(a)
        p = rng.normal(size=3)
        p *= rng.uniform(0, 1) / np.linalg.norm(p)
        assert tangle(product_state(a, p)) <= 1e-10


def test_factory_outputs_are_valid_states():
    for rho in (singlet(), triplet0(), phi_plus(), phi_minus(), unpolarized(), werner(0.37)):
        validate(rho.mat)


def test_pure_mixture_round_trip_via_kets():
    rng = np.random.default_rng(9)
    ket = random_pure_ket(rng)
    rho = validate(np.outer(ket, ket.conj()))
    assert purity(rho) == pytest.approx(1.0, abs=1e-10)


NAMED = (singlet, triplet0, phi_plus, phi_minus, unpolarized)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_decompose_bitwise_equals_per_call_kron(seed):
    rng = np.random.default_rng(seed)
    states = [random_density_matrix(rng), random_mixture(rng), werner(float(rng.uniform()))]
    states += [make() for make in NAMED]
    for rho in states:
        pd = decompose(rho)
        a, p, d = decompose_kron(rho.mat)
        assert np.array_equal(pd.A, a) and np.array_equal(pd.P, p) and np.array_equal(pd.D, d)


def test_validate_keeps_the_spectrum_of_its_matrix():
    rho = random_density_matrix(np.random.default_rng(3))
    fresh = eig_hermitian(rho.mat)
    assert np.array_equal(rho.spectrum.eigenvalues, fresh.eigenvalues)
    assert np.array_equal(rho.spectrum.eigenvectors, fresh.eigenvectors)
    with pytest.raises(ValueError):
        rho.spectrum.eigenvalues[0] = 0.0


def _same_bits(pd: PauliDecomposition, a: np.ndarray, p: np.ndarray, d: np.ndarray) -> bool:
    # tobytes also tells -0.0 from 0.0, which np.array_equal does not
    return pd.A.tobytes() == a.tobytes() and pd.P.tobytes() == p.tobytes() and pd.D.tobytes() == d.tobytes()


def test_decompose_keeps_the_sign_of_zero_of_the_kron_route():
    # sparse pure states put -0.0 in the matrix, so many expectations are
    # sums of signed zeros; the dense route returns +0.0 for all of them
    rng = np.random.default_rng(17)
    signed_zeros = 0
    for _ in range(300):
        ket = np.zeros(4, dtype=complex)
        support = rng.choice(4, int(rng.integers(1, 4)), replace=False)
        ket[support] = rng.choice([1.0, -1.0, 1j, -1j, 0.5], support.size)
        ket /= np.linalg.norm(ket)
        rho = validate(np.outer(ket, ket.conj()))
        signed_zeros += int(np.any(np.signbit(rho.mat.real) & (rho.mat.real == 0.0)))
        assert _same_bits(decompose(rho), *decompose_kron(rho.mat))
    assert signed_zeros > 20


def test_decompose_arrays_multiply_like_the_kron_routes():
    # numpy's matmul rounds differently on strided views than on contiguous
    # arrays, so equal values alone would not keep downstream results equal
    rng = np.random.default_rng(23)
    for _ in range(100):
        rho = random_density_matrix(rng)
        pd = decompose(rho)
        a, p, d = decompose_kron(rho.mat)
        x, y = rng.normal(size=3), rng.normal(size=3)
        assert (pd.D @ y).tobytes() == (d @ y).tobytes()
        assert float(x @ pd.D @ y) == float(x @ d @ y)
        assert float(x @ pd.A) == float(x @ a) and float(y @ pd.P) == float(y @ p)


def test_decompose_reports_the_first_imaginary_expectation():
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = 1e-3j  # not Hermitian; a DensityMatrix built directly skips validate
    m[1, 0] = 1e-3j
    rho = DensityMatrix(m, eig_hermitian(np.eye(4, dtype=complex) / 4))
    with pytest.raises(NotHermitian, match="imaginary part 2.000e-03"):
        decompose(rho)


def test_singlet_constant_is_the_singlet_decomposition_and_read_only():
    pd = decompose(singlet())
    assert _same_bits(SINGLET_PAULI, pd.A, pd.P, pd.D)
    for part in (SINGLET_PAULI.A, SINGLET_PAULI.P, SINGLET_PAULI.D):
        with pytest.raises(ValueError):
            part[0] = 1.0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_compose_bitwise_equals_per_call_kron(seed):
    # shrinking every Pauli component by u in [0, 1] mixes in I/4, so the
    # decomposition stays physical and compose accepts it
    rng = np.random.default_rng(seed)
    states = [random_density_matrix(rng), random_mixture(rng), werner(float(rng.uniform()))]
    states += [make() for make in NAMED]
    for rho in states:
        pd = decompose(rho)
        u = float(rng.uniform())
        a, p, d = u * pd.A, u * pd.P, u * pd.D
        got = compose(PauliDecomposition(A=a, P=p, D=d)).mat
        assert got.tobytes() == compose_kron(a, p, d).tobytes()
