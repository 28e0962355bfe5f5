import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    correlation as library_correlation,
    estimate_correlation,
    fit_gamma,
    group_counts,
)
from bellpair.states import decompose, singlet, werner
from conftest import random_density_matrix
from oracles import correlation, decompose_kron, gamma_grid_search

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
    # the oracle's a.(D b), with its D taken once per gamma, and the library's correlation on every cell
    grid = range(0, 360, 5)
    directions = {phi: np.asarray(angle_to_direction(phi)) for phi in grid}
    for gamma in (0.0, 0.25, 0.5, 0.75, 1.0):
        rho = werner(gamma)
        d_oracle, d = decompose_kron(rho.mat)[2], decompose(rho).D
        for phi1 in grid:
            for phi2 in grid:
                expected = -gamma * math.cos(math.radians(phi1 - phi2))
                assert abs(float(directions[phi1] @ d_oracle @ directions[phi2]) - expected) <= 1e-10
                assert abs(library_correlation(d, phi1, phi2) - expected) <= 1e-10


def test_chsh_value_reference_rows():
    pure = decompose(singlet()).D
    assert chsh_value(pure, settings_row(50, 0, 25, 75)) == pytest.approx(2.46, abs=0.005)
    assert chsh_value(pure, settings_row(90, 0, 45, 135)) == pytest.approx(2.83, abs=0.005)
    assert chsh_value(decompose(werner(0.9)).D, settings_row(60, 0, 30, 90)) == pytest.approx(2.34, abs=0.005)


@settings(max_examples=100, deadline=None)
@given(gamma=st.floats(0.0, 1.0), phi1=ANGLES, phi1p=ANGLES, phi2=ANGLES, phi2p=ANGLES)
def test_werner_chsh_scales_linearly(gamma, phi1, phi1p, phi2, phi2p):
    s = settings_row(phi1, phi1p, phi2, phi2p)
    assert chsh_value(decompose(werner(gamma)).D, s) == pytest.approx(
        gamma * chsh_value(decompose(singlet()).D, s), abs=1e-10
    )


def test_chsh_value_never_exceeds_horodecki_bound():
    rng = np.random.default_rng(88)
    for _ in range(50):
        rho = random_density_matrix(rng)
        bound = horodecki_max(rho).max_violation
        d = decompose(rho).D
        for _ in range(20):
            phis = rng.uniform(0, 360, size=4)
            s = settings_row(*phis)
            assert chsh_value(d, s) <= bound + 1e-9


def test_estimate_correlation_examples():
    e, sig = estimate_correlation(CountTable(0, 0, 0, 50, 50, 0))
    assert e == -1.0 and sig == 0.0
    e, sig = estimate_correlation(CountTable(0, 0, 25, 25, 25, 25))
    assert e == 0.0 and sig == pytest.approx(0.1)
    e, sig = estimate_correlation(CountTable(0, 0, 30, 20, 20, 30))
    assert e == pytest.approx(0.2)
    assert sig == pytest.approx(math.sqrt(0.96 / 100), abs=1e-12)


def test_estimate_correlation_error_stays_positive_beyond_two_to_the_53():
    big = 2**56 - 3  # E = (big - 1) / (big + 2) rounds to 1.0, and 1 - e*e to 0
    e, sig = estimate_correlation(CountTable(0, 0, 1, 1, 1, big))
    assert e == 1.0
    total = big + 3
    assert sig == pytest.approx(math.sqrt(4 * (big + 1) * 2 / total**3), rel=1e-15)
    e, sig = estimate_correlation(CountTable(0, 0, 0, 0, 0, big))
    assert e == 1.0 and sig == 0.0


# four counts of up to 2**k each: totals far below 2**53, near it, and beyond it
COUNT_TABLES = st.sampled_from([3, 20, 51, 52, 54, 80]).flatmap(
    lambda k: st.tuples(*[st.integers(0, 2**k)] * 4)).filter(any)


@settings(max_examples=400, deadline=None)
@given(counts=COUNT_TABLES)
@example(counts=(0, 1, 0, 2**53 - 1))  # a total of exactly 2**53
@example(counts=(1, 0, 0, 2**53))  # one event beyond it
@example(counts=(1, 1, 1, 2**56 - 3))  # E rounds to 1.0
def test_estimate_correlation_error_is_the_exact_count_quotient(counts):
    n_pp, n_pm, n_mp, n_mm = counts
    same, diff = n_pp + n_mm, n_pm + n_mp
    total = same + diff
    e, sig = estimate_correlation(CountTable(0, 0, *counts))
    assert e == (same - diff) / total
    assert sig == math.sqrt(float(Fraction(4 * same * diff, total**2)) / total)
    assert (sig > 0.0) == (same > 0 and diff > 0)


def sqrt_of_quotient(num: int, den: int) -> float:
    """sqrt(num / den) for positive ints, from an integer square root of about 120 bits."""
    m = (240 - num.bit_length() + den.bit_length()) // 2
    return math.ldexp(float(math.isqrt((num << 2 * m) // den if m >= 0 else num // (den << -2 * m))), -m)


# sigma^2 = 4 N_same N_diff / N^3, about 4 / N^2 here, is subnormal beyond N = 2**512 and 0 beyond
# about 2**538, while sigma itself, about 2 / N, is a normal float up to the float range
@pytest.mark.parametrize("counts", [(3, 3**328, 0, 0), (3, 3**339, 0, 0), (1, 2**540, 0, 0),
                                    (3, 3**341, 0, 0), (3, 3**631, 0, 0), (2**999, 3, 5, 2**999)],
                         ids=["~2**520", "~2**538", "2**540+1", "~2**540", "~2**1000", "2**1000+8"])
def test_estimate_correlation_error_is_the_exact_root_up_to_the_float_range(counts):
    n_pp, n_pm, n_mp, n_mm = counts
    same, diff = n_pp + n_mm, n_pm + n_mp
    _, sig = estimate_correlation(CountTable(0, 0, *counts))
    want = sqrt_of_quotient(4 * same * diff, (same + diff) ** 3)
    assert sig > 0.0 and abs(sig - want) <= math.ulp(want)


def test_estimate_correlation_refuses_totals_beyond_the_float_range():
    with pytest.raises(NotFinite):
        estimate_correlation(CountTable(0, 0, 1, 2**1024, 0, 0))


def test_chsh_datum_error_stays_positive_beyond_two_to_the_538():
    # each pair error is about 2**-539, so its square underflows to 0 unless scaled first
    tables = [CountTable(phi1, phi2, 1, 2**540, 0, 0) for phi1, phi2 in ((0, 22.5), (0, 67.5), (45, 22.5), (45, 67.5))]
    datum = chsh_datum_from_counts(tables)
    want = sqrt_of_quotient(4 * 4 * 2**540, (2**540 + 1) ** 3)  # four equal pair errors
    assert datum.dr_exp > 0.0 and abs(datum.dr_exp - want) <= 2 * math.ulp(want)


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


def test_count_table_names_the_rejected_count():
    with pytest.raises(ValueError, match=r"^counts must be nonnegative integers, got n_mp=1\.5$"):
        CountTable(0, 0, 1, 2, 1.5, 4)


def test_count_table_stores_exact_ints():
    table = CountTable(0.0, 0.0, 1.0, 2, 10**30 + 1, np.int64(4))
    assert (table.n_pp, table.n_pm, table.n_mp, table.n_mm) == (1, 2, 10**30 + 1, 4)
    assert all(type(n) is int for n in (table.n_pp, table.n_pm, table.n_mp, table.n_mm))
    assert table.total == 10**30 + 8


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
    pure = decompose(singlet()).D
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
    pure = decompose(singlet()).D
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
    pure = decompose(singlet()).D
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
