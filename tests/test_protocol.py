import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellpair.bell import horodecki_max
from bellpair.dataset import (
    PUBLISHED_CASE2,
    PUBLISHED_CHI2_CASE1,
    PUBLISHED_CHI2_CASE2,
    embedded_data,
)
from bellpair.protocol import (
    AngleSettings,
    ChshDatum,
    CountTable,
    EmptyCounts,
    EmptyData,
    LengthMismatch,
    NonpositiveError,
    NotFinite,
    angle_to_direction,
    chi_square,
    chsh_datum_from_counts,
    chsh_value,
    correlation,
    estimate_correlation,
    fit_gamma,
    group_counts,
)
from bellpair.states import singlet, werner
from conftest import random_density_matrix
from oracles import gamma_grid_search

# regression constant: grid-search minimizer for the embedded dataset
EMBEDDED_GAMMA_HAT = 0.6919

ANGLES = st.floats(min_value=-360.0, max_value=720.0, allow_nan=False)


def settings_row(phi1, phi1p, phi2, phi2p):
    return AngleSettings(phi1=phi1, phi1p=phi1p, phi2=phi2, phi2p=phi2p)


def test_angle_to_direction_axes():
    assert np.allclose(angle_to_direction(0.0), [0, 0, 1])
    assert np.allclose(angle_to_direction(90.0), [1, 0, 0], atol=1e-12)
    assert np.allclose(angle_to_direction(45.0), [math.sqrt(2) / 2, 0, math.sqrt(2) / 2])


@given(phi=ANGLES)
def test_angle_to_direction_is_unit(phi):
    v = angle_to_direction(phi)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_correlation_singlet_is_minus_cosine():
    rho = singlet()
    assert correlation(rho, 30.0, 30.0) == pytest.approx(-1.0, abs=1e-12)
    assert correlation(rho, 90.0, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_correlation_werner_example():
    e = correlation(werner(0.9), 50.0, 25.0)
    assert e == pytest.approx(-0.9 * math.cos(math.radians(25.0)), abs=1e-12)


def test_correlation_matches_cosine_law_on_five_degree_grid():
    for gamma in (0.0, 0.25, 0.5, 0.75, 1.0):
        rho = werner(gamma)
        for phi1 in range(0, 360, 5):
            for phi2 in range(0, 360, 5):
                expected = -gamma * math.cos(math.radians(phi1 - phi2))
                assert abs(correlation(rho, phi1, phi2) - expected) <= 1e-10


def test_chsh_value_reference_rows():
    pure = singlet()
    assert chsh_value(pure, settings_row(50, 0, 25, 75)) == pytest.approx(2.46, abs=0.005)
    assert chsh_value(pure, settings_row(90, 0, 45, 135)) == pytest.approx(2.83, abs=0.005)
    assert chsh_value(werner(0.9), settings_row(60, 0, 30, 90)) == pytest.approx(2.34, abs=0.005)


@settings(max_examples=100, deadline=None)
@given(gamma=st.floats(0.0, 1.0), phi1=ANGLES, phi1p=ANGLES, phi2=ANGLES, phi2p=ANGLES)
def test_werner_chsh_scales_linearly(gamma, phi1, phi1p, phi2, phi2p):
    s = settings_row(phi1, phi1p, phi2, phi2p)
    assert chsh_value(werner(gamma), s) == pytest.approx(
        gamma * chsh_value(singlet(), s), abs=1e-10
    )


def test_chsh_value_never_exceeds_horodecki_bound():
    rng = np.random.default_rng(88)
    for _ in range(50):
        rho = random_density_matrix(rng)
        bound = horodecki_max(rho).max_violation
        for _ in range(20):
            phis = rng.uniform(0, 360, size=4)
            s = settings_row(*phis)
            assert chsh_value(rho, s) <= bound + 1e-9


def test_estimate_correlation_examples():
    e, sig = estimate_correlation(CountTable(0, 0, 0, 50, 50, 0))
    assert e == -1.0 and sig == 0.0
    e, sig = estimate_correlation(CountTable(0, 0, 25, 25, 25, 25))
    assert e == 0.0 and sig == pytest.approx(0.1)
    e, sig = estimate_correlation(CountTable(0, 0, 30, 20, 20, 30))
    assert e == pytest.approx(0.2)
    assert sig == pytest.approx(math.sqrt(0.96 / 100), abs=1e-12)


def test_estimate_correlation_rejects_empty():
    with pytest.raises(EmptyCounts):
        estimate_correlation(CountTable(0, 0, 0, 0, 0, 0))


def test_count_table_rejects_negative():
    with pytest.raises(ValueError):
        CountTable(0, 0, -1, 0, 0, 0)


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_count_table_rejects_non_finite(value):
    with pytest.raises(ValueError, match="nonnegative integer"):
        CountTable(0, 0, 0, 0, value, 0)


@settings(max_examples=200)
@given(
    n=st.tuples(
        st.integers(0, 10_000),
        st.integers(0, 10_000),
        st.integers(0, 10_000),
        st.integers(0, 10_000),
    )
)
def test_estimate_correlation_bounds(n):
    table = CountTable(0.0, 0.0, *n)
    if table.total == 0:
        return
    e, sig = estimate_correlation(table)
    assert -1.0 <= e <= 1.0
    assert sig == pytest.approx(math.sqrt((1 - e * e) / table.total), abs=1e-12)


def test_chsh_datum_from_counts_structure_and_error():
    tables = [
        CountTable(90.0, 45.0, 0, 40, 40, 20),
        CountTable(90.0, 135.0, 10, 40, 40, 10),
        CountTable(0.0, 45.0, 10, 40, 40, 10),
        CountTable(0.0, 135.0, 40, 10, 10, 40),
    ]
    datum = chsh_datum_from_counts(tables)
    assert datum.settings == AngleSettings(phi1=90.0, phi1p=0.0, phi2=45.0, phi2p=135.0)
    estimates = [estimate_correlation(t) for t in tables]
    combo = estimates[0][0] + estimates[1][0] + estimates[2][0] - estimates[3][0]
    assert datum.r_exp == pytest.approx(abs(combo))
    assert datum.dr_exp == pytest.approx(math.sqrt(sum(s * s for _, s in estimates)))


def test_chsh_datum_from_counts_rejects_mismatched_angles():
    tables = [
        CountTable(90.0, 45.0, 1, 1, 1, 1),
        CountTable(80.0, 135.0, 1, 1, 1, 1),
        CountTable(0.0, 45.0, 1, 1, 1, 1),
        CountTable(0.0, 135.0, 1, 1, 1, 1),
    ]
    with pytest.raises(ValueError):
        chsh_datum_from_counts(tables)


def test_group_counts_needs_multiples_of_four():
    with pytest.raises(LengthMismatch):
        group_counts([CountTable(0.0, 0.0, 1, 1, 1, 1)] * 5)


def test_chi_square_zero_when_exact():
    data = embedded_data()
    assert chi_square(data, [d.r_exp for d in data]) == 0.0


def test_chi_square_published_columns():
    data = embedded_data()
    pure = singlet()
    case1 = [chsh_value(pure, d.settings) for d in data]
    assert chi_square(data, case1) == pytest.approx(PUBLISHED_CHI2_CASE1, abs=0.01)
    assert chi_square(data, list(PUBLISHED_CASE2)) == pytest.approx(PUBLISHED_CHI2_CASE2, abs=0.01)


def test_chi_square_length_mismatch():
    data = embedded_data()
    with pytest.raises(LengthMismatch):
        chi_square(data, [1.0])
    with pytest.raises(LengthMismatch):
        chi_square([], [])


def test_datum_rejects_nonpositive_error():
    with pytest.raises(NonpositiveError):
        ChshDatum(settings=settings_row(0, 0, 0, 0), r_exp=1.0, dr_exp=0.0)


@pytest.mark.parametrize("r_exp, dr_exp", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)])
def test_datum_rejects_non_finite_values(r_exp, dr_exp):
    with pytest.raises(ValueError):
        ChshDatum(settings=settings_row(0, 0, 0, 0), r_exp=r_exp, dr_exp=dr_exp)


@pytest.mark.parametrize("r_exp, dr_exp", [(0.67, 1e-200), (0.67, 1e200), (1e300, 1e-10)])
def test_fit_out_of_float_range_raises_not_finite(r_exp, dr_exp):
    datum = ChshDatum(settings=settings_row(50, 0, 25, 75), r_exp=r_exp, dr_exp=dr_exp)
    with pytest.raises(NotFinite):
        fit_gamma([datum])


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_chi_square_is_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    data = embedded_data()
    preds = list(rng.uniform(0, 3, size=len(data)))
    perm = rng.permutation(len(data))
    shuffled = [data[i] for i in perm]
    shuffled_preds = [preds[i] for i in perm]
    assert chi_square(shuffled, shuffled_preds) == pytest.approx(
        chi_square(data, preds), abs=1e-12
    )


def test_fit_recovers_exact_synthetic_gamma():
    base = embedded_data()
    pure = singlet()
    data = [
        ChshDatum(settings=d.settings, r_exp=0.9 * chsh_value(pure, d.settings), dr_exp=d.dr_exp)
        for d in base
    ]
    result = fit_gamma(data)
    assert result.gamma_hat == pytest.approx(0.9, abs=1e-12)
    assert result.chi2_at_min == pytest.approx(0.0, abs=1e-12)


def test_fit_clamps_to_upper_bound():
    datum = ChshDatum(settings=settings_row(90, 0, 45, 135), r_exp=2.83, dr_exp=0.01)
    assert fit_gamma([datum]).gamma_hat == 1.0


def test_fit_rejects_empty_dataset():
    with pytest.raises(EmptyData):
        fit_gamma([])


def test_fit_embedded_dataset_reference_values():
    result = fit_gamma(embedded_data())
    assert result.chi2_case1 == pytest.approx(PUBLISHED_CHI2_CASE1, abs=0.01)
    assert result.chi2_case2 == pytest.approx(PUBLISHED_CHI2_CASE2, abs=0.01)
    assert result.gamma_hat == pytest.approx(EMBEDDED_GAMMA_HAT, abs=2e-4)
    assert result.chi2_at_min <= result.chi2_case1
    assert result.chi2_at_min <= result.chi2_case2


def test_fit_minimum_never_beats_probed_gammas():
    result = fit_gamma(embedded_data())
    data = embedded_data()
    for g in np.linspace(0, 1, 101):
        assert result.chi2_at_min <= chi_square(
            data, [g * s for s in result.singlet_values]
        ) + 1e-12


def test_closed_form_matches_grid_search_on_100_synthetic_datasets():
    rng = np.random.default_rng(314159)
    base = embedded_data()
    pure = singlet()
    for _ in range(100):
        true_gamma = rng.uniform(0.2, 1.0)
        data = [
            ChshDatum(
                settings=d.settings,
                r_exp=max(true_gamma * chsh_value(pure, d.settings) + rng.normal(0, 0.1), 0.0),
                dr_exp=rng.uniform(0.05, 0.5),
            )
            for d in base
        ]
        result = fit_gamma(data)
        grid_gamma, _ = gamma_grid_search(data)
        assert result.gamma_hat == pytest.approx(grid_gamma, abs=2e-4)


def test_embedded_grid_search_regression():
    grid_gamma, grid_chi2 = gamma_grid_search(embedded_data())
    assert grid_gamma == pytest.approx(EMBEDDED_GAMMA_HAT, abs=1e-12)
    assert grid_chi2 == pytest.approx(0.4976, abs=1e-3)
