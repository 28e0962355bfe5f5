import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellpair.bell import AnalyzerDirections, _flip_gram, horodecki_max, tangle
from bellpair.linalg import cholesky_factor, hermitian_lists, jacobi_eigenvalues
from bellpair.protocol import angle_to_direction
from bellpair.states import (NAMED_STATES, DensityMatrix, PauliDecomposition, compose, decompose, singlet, unpolarized,
                             validate, werner)
from conftest import haar_unitary2, random_density_matrix, random_mixture, random_unit3
from oracles import bell_mean, bell_mean_batch, product_state, refine_directions, tangle_charpoly, tangle_factor_mp

ROOT8 = 2.0 * math.sqrt(2.0)


def row5_directions():
    # the coplanar quadruple of the strongest reference-table setting
    return AnalyzerDirections(
        a=angle_to_direction(90.0),
        a_prime=angle_to_direction(0.0),
        b=angle_to_direction(45.0),
        b_prime=angle_to_direction(135.0),
    )


def test_tangle_reference_points():
    assert tangle(singlet()) == pytest.approx(1.0, abs=1e-10)
    assert tangle(unpolarized()) == pytest.approx(0.0, abs=1e-10)
    assert tangle(werner(0.9)) == pytest.approx(0.85, abs=1e-10)
    assert tangle(werner(1 / 3)) == pytest.approx(0.0, abs=1e-10)


def test_tangle_along_werner_family():
    for k in range(101):
        g = k / 100
        expected = max((3 * g - 1) / 2, 0.0)
        assert tangle(werner(g)) == pytest.approx(expected, abs=1e-10)


def test_tangle_matches_charpoly_oracle_on_200_random_states():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        rho = random_density_matrix(rng)
        worst = max(worst, abs(tangle(rho) - tangle_charpoly(rho.mat)))
    assert worst <= 1e-8


def test_tangle_and_m_are_local_unitary_invariant():
    rng = np.random.default_rng(77)
    for _ in range(100):
        rho = random_density_matrix(rng)
        u = np.kron(haar_unitary2(rng), haar_unitary2(rng))
        rotated = validate(u @ rho.mat @ u.conj().T)
        assert tangle(rotated) == pytest.approx(tangle(rho), abs=1e-8)
        assert horodecki_max(rotated).M == pytest.approx(horodecki_max(rho).M, abs=1e-8)


def test_bell_mean_vanishes_without_correlations():
    dirs = row5_directions()
    assert bell_mean(unpolarized(), dirs) == pytest.approx(0.0, abs=1e-12)
    z = np.array([0.0, 0.0, 1.0])
    assert bell_mean(product_state(z, np.zeros(3)), dirs) == pytest.approx(0.0, abs=1e-12)


def test_bell_mean_reference_rows():
    dirs = row5_directions()
    assert bell_mean(singlet(), dirs) == pytest.approx(-ROOT8, abs=1e-10)
    assert abs(bell_mean(singlet(), dirs)) == pytest.approx(2.83, abs=0.005)
    assert abs(bell_mean(werner(0.9), dirs)) == pytest.approx(2.55, abs=0.005)


def test_horodecki_singlet_peak():
    report = horodecki_max(singlet())
    assert report.M == pytest.approx(2.0, abs=1e-10)
    assert report.max_violation == pytest.approx(ROOT8, abs=1e-10)
    assert report.violates
    assert bell_mean(singlet(), report.optimal) == pytest.approx(ROOT8, abs=1e-8)


def test_horodecki_unpolarized_is_degenerate():
    report = horodecki_max(unpolarized())
    assert report.M == pytest.approx(0.0, abs=1e-12)
    assert report.max_violation == pytest.approx(0.0, abs=1e-12)
    assert report.optimal is None
    assert not report.violates


def test_horodecki_werner_line():
    for k in range(101):
        g = k / 100
        report = horodecki_max(werner(g))
        assert report.max_violation == pytest.approx(ROOT8 * g, abs=1e-10)
        assert report.max_violation == pytest.approx(2 * math.sqrt(report.M), abs=1e-10)
        if g > 0:
            assert abs(bell_mean(werner(g), report.optimal)) == pytest.approx(ROOT8 * g, abs=1e-8)


def test_violation_threshold_at_inverse_root_two():
    assert not horodecki_max(werner(0.70)).violates
    assert horodecki_max(werner(0.71)).violates
    assert not horodecki_max(unpolarized()).violates


def test_rank_one_correlation_matrix_settings():
    # |Dc'| = 0 branch: theta = 0 and the second term drops out
    z = np.array([0.0, 0.0, 1.0])
    rho = product_state(z, z)
    report = horodecki_max(rho)
    assert report.M == pytest.approx(1.0, abs=1e-10)
    assert report.optimal is not None
    assert bell_mean(rho, report.optimal) == pytest.approx(report.max_violation, abs=1e-8)


@pytest.mark.parametrize("delta", [4e-13, 9e-13])
def test_m_adds_the_two_largest_eigenvalues_of_a_near_degenerate_pair(delta):
    # D^T D = diag(0.81, 0.25, (0.5 - delta)^2): the last two lie within 1e-12, the run in which
    # the settings take their columns in lexicographic order, but M must add 0.81 and 0.25
    d = [[-0.9, 0.0, 0.0], [0.0, -0.5, 0.0], [0.0, 0.0, -0.5 + delta]]
    rho = compose(PauliDecomposition(A=(0.0, 0.0, 0.0), P=(0.0, 0.0, 0.0), D=d))
    stored = decompose(rho).D
    squares = sorted((Fraction(stored[i][i]) ** 2 for i in range(3)), reverse=True)
    report = horodecki_max(rho)
    assert abs(Fraction(report.M) - squares[0] - squares[1]) <= Fraction(2, 2**52)
    assert report.max_violation == 2 * math.sqrt(report.M)


def near_floor_state(rng: np.random.Generator, positive: int) -> tuple[DensityMatrix, np.ndarray]:
    """A state with ``positive`` positive eigenvalues and one in [-1e-8, 0), in a random basis,
    with the factor of its clamped spectrum."""
    u = _unitary4(rng)
    neg = -rng.uniform(0.0, 1e-8)
    w = np.concatenate([rng.dirichlet(np.ones(positive)) * (1.0 - neg), [neg], np.zeros(3 - positive)])
    return validate((u * w) @ u.conj().T), u * np.sqrt(np.clip(w, 0.0, None))


def test_optimal_directions_are_unit_and_attain_the_maximum():
    rng = np.random.default_rng(20261022)
    states = [random_factor_state(rng, 1 + k % 4)[0] for k in range(200)]
    states += [werner(k / 100) for k in range(101)] + [make() for make in NAMED_STATES.values()]
    states += [near_floor_state(rng, 1 + k % 3)[0] for k in range(20)]
    for rho in states:
        report = horodecki_max(rho)
        if report.optimal is None:
            continue
        for direction in report.optimal:
            assert abs(math.hypot(*direction) - 1.0) <= 4 * 2.0**-52
        assert bell_mean(rho, report.optimal) == pytest.approx(report.max_violation, abs=1e-12)


def test_random_search_never_beats_bound_and_optimum_attains_it():
    rng = np.random.default_rng(20240811)
    a, a_prime, b, b_prime = (random_unit3(rng, 100_000) for _ in range(4))
    # The CHSH mean a.D(b+b') + a'.D(b-b') is vec(D) . (a (x) (b+b') + a' (x) (b-b')):
    # one fixed 1e5 x 9 matrix for the same quadruples, times vec(D) per state.
    quadruples = (np.einsum("ni,nj->nij", a, b + b_prime)
                  + np.einsum("ni,nj->nij", a_prime, b - b_prime)).reshape(-1, 9)
    for _ in range(1000):
        rho = random_density_matrix(rng)
        d = decompose(rho).D
        report = horodecki_max(rho)
        best = float(np.max(np.abs(quadruples @ np.ravel(d))))
        assert best <= report.max_violation + 1e-9
        assert abs(bell_mean(rho, report.optimal)) == pytest.approx(
            report.max_violation, abs=1e-8
        )


def test_refinement_closes_the_random_search_gap():
    rng = np.random.default_rng(5150)
    for _ in range(20):
        rho = random_density_matrix(rng)
        d = decompose(rho).D
        a, ap, b, bp = (random_unit3(rng, 2000) for _ in range(4))
        vals = bell_mean_batch(d, a, ap, b, bp)
        k = int(np.argmax(np.abs(vals)))
        start = AnalyzerDirections(a=a[k], a_prime=ap[k], b=b[k], b_prime=bp[k])
        refined = refine_directions(rho, start, steps=10_000)
        target = horodecki_max(rho).max_violation
        assert target - abs(bell_mean(rho, refined)) <= 1e-6


def test_report_exposes_purity_and_tangle():
    report = horodecki_max(werner(0.9))
    assert report.purity == pytest.approx(0.8575, abs=1e-12)
    assert report.tangle == pytest.approx(0.85, abs=1e-10)


def test_tangle_reads_only_the_stored_factor():
    rng = np.random.default_rng(20261018)
    states = [random_density_matrix(rng) for _ in range(20)]
    states += [random_mixture(rng) for _ in range(20)]
    states += [singlet(), unpolarized(), werner(0.9), werner(0.3)]
    for rho in states:
        blank = DensityMatrix(np.zeros((4, 4), dtype=complex), rho.factor)
        assert tangle(blank) == tangle(rho)


def random_factor_state(rng: np.random.Generator, rank: int):
    """A state of the given rank, with the 4 x rank factor g it is built from."""
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    m = g @ g.conj().T
    return validate(m / np.trace(m).real), g


# About twice the larger of two worst errors: this test's own, and scripts/accuracy.py's tangle row
# for the rank.  Rank 2's is wide because its worst state has l_2 = 5.3e-3: the l_k are square roots
# of the eigenvalues of tau^dag tau, so an eigenvalue off by 2e-17 moves l_2 by 2e-15.
FACTOR_ORACLE_BOUNDS = {1: 7e-16, 2: 8e-15, 3: 1.1e-15, 4: 1.5e-15}


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_tangle_matches_the_mpmath_factor_oracle(rank):
    rng = np.random.default_rng(300 + rank)
    worst = 0.0
    for _ in range(100):
        rho, g = random_factor_state(rng, rank)
        worst = max(worst, abs(tangle(rho) - tangle_factor_mp(g)))
    assert worst <= FACTOR_ORACLE_BOUNDS[rank]


def _unitary4(rng: np.random.Generator) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    return q


@pytest.mark.parametrize("positive", [1, 2, 3])
def test_tangle_near_the_psd_floor_stays_with_the_clamped_state(positive):
    # one eigenvalue in [-1e-8, 0): validate accepts the state, and its factor may drop that
    # eigenvalue another way than clamping it, so the tangle moves by about its size
    rng = np.random.default_rng(310 + positive)
    worst = 0.0
    for _ in range(100):
        rho, clamped = near_floor_state(rng, positive)
        worst = max(worst, abs(tangle(rho) - tangle_factor_mp(clamped)))
    assert worst <= 1e-7


def test_a_factor_that_misses_its_matrix_gives_way_to_the_clamped_eigenvector_factor():
    # a diagonal of 2e-20 pivots before an indefinite remainder of about -1e-8: Cholesky
    # leaves rows of about 50 behind, so a factor truncated there would give a tangle of 4900
    tiny, c = 1e-20, 0.7e-8
    m = np.diag([1.0 - 4 * tiny, tiny, tiny, 2 * tiny]).astype(complex)
    m[3, 1] = m[1, 3] = m[3, 2] = m[2, 3] = c
    psi, complete = cholesky_factor(hermitian_lists(m, 4, complex))
    assert not complete and max(abs(x) for row in psi for x in row) > 10.0
    rho = validate(m)
    factor = np.asarray(rho.factor)
    assert np.max(np.abs(factor @ factor.conj().T - m)) <= 1e-8
    w, v = np.linalg.eigh(m)
    assert abs(tangle(rho) - tangle_factor_mp(v * np.sqrt(np.clip(w, 0.0, None)))) <= 1e-8


def test_tangle_of_pure_product_states_is_zero_to_rounding():
    rng = np.random.default_rng(305)
    worst = 0.0
    for _ in range(100):
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        b = rng.normal(size=2) + 1j * rng.normal(size=2)
        ket = np.kron(a, b)
        rho = validate(np.outer(ket, ket.conj()) / np.vdot(ket, ket).real)
        worst = max(worst, abs(tangle(rho) - tangle_factor_mp(ket[:, None])))
    assert worst <= 1e-14


def test_tangle_follows_the_werner_line_to_rounding():
    for k in range(1001):
        g = k / 1000
        assert abs(tangle(werner(g)) - max((3 * g - 1) / 2, 0.0)) <= 1e-14


def tangle_through_the_reader(rho: DensityMatrix) -> float:
    """The tangle with its Gram matrix sent through ``hermitian_lists`` first."""
    w = sorted(jacobi_eigenvalues(hermitian_lists(_flip_gram(rho.factor), 4, complex)), reverse=True)
    lam = [math.sqrt(max(x, 0.0)) for x in w]
    return max(lam[0] - lam[1] - lam[2] - lam[3], 0.0)


def _bits(z) -> tuple[str, str]:
    """The bits of z's parts, with -0.0 read as 0.0: a zero part's sign never reaches a nonzero result."""
    return float(z.real + 0.0).hex(), float(z.imag + 0.0).hex()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
def test_the_tangle_gram_is_exactly_hermitian_and_needs_no_reader(seed, rank):
    rng = np.random.default_rng(seed)
    a, p = rng.normal(size=3), rng.normal(size=3)
    states = [random_factor_state(rng, rank)[0], werner(rng.uniform()),
              product_state(a / (np.linalg.norm(a) * rng.uniform(1, 2)), p / (np.linalg.norm(p) * rng.uniform(1, 2))),
              product_state((0, 0, rng.choice([-1, 1])), (0, 0, rng.uniform(-1, 1)))]  # diagonal: float eigenvectors
    for rho in states + [make() for make in NAMED_STATES.values()]:
        gram = _flip_gram(rho.factor)
        for i in range(4):
            assert gram[i][i].imag == 0.0
            for j in range(i + 1, 4):
                assert _bits(gram[i][j]) == _bits(gram[j][i].conjugate())
        assert all(abs(x) <= 16 for row in gram for x in row)
        assert tangle(rho).hex() == tangle_through_the_reader(rho).hex()
