import math

import numpy as np
import pytest

import bellpair.bell as bell
from bellpair.bell import (
    AnalyzerDirections,
    DegenerateD,
    NonUnitDirection,
    bell_mean,
    horodecki_max,
    optimal_directions,
    refine_directions,
    tangle,
    violates_chsh,
)
from bellpair.linalg import sqrt_psd
from bellpair.protocol import angle_to_direction
from bellpair.states import decompose, product_state, singlet, unpolarized, validate, werner
from conftest import haar_unitary2, random_density_matrix, random_mixture, random_unit3
from oracles import bell_mean_batch, tangle_charpoly

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


def test_rejects_non_unit_directions():
    with pytest.raises(NonUnitDirection):
        AnalyzerDirections(
            a=np.array([0.0, 0.0, 2.0]),
            a_prime=np.array([1.0, 0.0, 0.0]),
            b=np.array([0.0, 1.0, 0.0]),
            b_prime=np.array([1.0, 0.0, 0.0]),
        )


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
    with pytest.raises(DegenerateD):
        optimal_directions(unpolarized())


def test_horodecki_werner_line():
    for k in range(101):
        g = k / 100
        report = horodecki_max(werner(g))
        assert report.max_violation == pytest.approx(ROOT8 * g, abs=1e-10)
        assert report.max_violation == pytest.approx(2 * math.sqrt(report.M), abs=1e-10)
        if g > 0:
            assert abs(bell_mean(werner(g), report.optimal)) == pytest.approx(ROOT8 * g, abs=1e-8)


def test_violation_threshold_at_inverse_root_two():
    assert not violates_chsh(werner(0.70))
    assert violates_chsh(werner(0.71))
    assert not violates_chsh(unpolarized())


def test_rank_one_correlation_matrix_settings():
    # |Dc'| = 0 branch: theta = 0 and the second term drops out
    z = np.array([0.0, 0.0, 1.0])
    rho = product_state(z, z)
    report = horodecki_max(rho)
    assert report.M == pytest.approx(1.0, abs=1e-10)
    assert report.optimal is not None
    assert bell_mean(rho, report.optimal) == pytest.approx(report.max_violation, abs=1e-8)


def test_random_search_never_beats_bound_and_optimum_attains_it():
    rng = np.random.default_rng(20240811)
    quadruples = (
        random_unit3(rng, 100_000),
        random_unit3(rng, 100_000),
        random_unit3(rng, 100_000),
        random_unit3(rng, 100_000),
    )
    for _ in range(1000):
        rho = random_density_matrix(rng)
        d = decompose(rho).D
        report = horodecki_max(rho)
        best = float(np.max(np.abs(bell_mean_batch(d, *quadruples))))
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


def test_tangle_from_stored_spectrum_equals_fresh_sqrt_psd(monkeypatch):
    rng = np.random.default_rng(20261018)
    states = [random_density_matrix(rng) for _ in range(20)]
    states += [random_mixture(rng) for _ in range(20)]
    states += [singlet(), unpolarized(), werner(0.9), werner(0.3)]
    stored = [tangle(rho) for rho in states]
    for rho, value in zip(states, stored):
        monkeypatch.setattr(bell, "sqrt_spectrum", lambda spec, m=rho.mat: sqrt_psd(m))
        assert tangle(rho) == value
